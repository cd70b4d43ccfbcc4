import math

import numpy as np
import pytest

from wetplan.channel import ArrayConfig, PathLossParams, Position2D, RicianParams, sample_channels, steering_vector
from wetplan.harvesting import (
    ARCHITECTURES,
    Codebook,
    HarvesterCurve,
    dft_codebook,
    harvest,
    harvest_architecture,
    rf_combine,
)

CURVE = HarvesterCurve()


def test_harvest_zero_input():
    assert harvest(0.0, CURVE) == 0.0


def test_harvest_dead_zone_below_sensitivity():
    # Default sensitivity is -30 dBm = 1e-6 W.
    assert harvest(0.99e-6, CURVE) == 0.0
    assert harvest(1e-6, CURVE) > 0.0


def test_harvest_saturation_plateau():
    # Saturation input 10 dBm = 10 mW at efficiency 0.5 -> 5 mW, flat above.
    assert np.isclose(harvest(0.010, CURVE), 0.005, rtol=1e-12)
    assert np.isclose(harvest(0.100, CURVE), 0.005, rtol=1e-12)
    assert np.isclose(harvest(1.000, CURVE), 0.005, rtol=1e-12)


def test_harvest_interpolates_over_db_input():
    # -15 dBm sits midway between the (-20, 0.15) and (-10, 0.30) breakpoints.
    p_in = 10 ** (-15.0 / 10.0) / 1000.0
    assert np.isclose(harvest(p_in, CURVE), 0.225 * p_in, rtol=1e-12)


def test_harvest_monotone_and_bounded():
    rng = np.random.default_rng(0)
    p = np.sort(rng.uniform(0.0, 0.05, size=10_000))
    out = harvest(p, CURVE)
    assert np.all(np.diff(out) >= -1e-18)
    assert np.all(out <= p + 1e-18)


def test_harvest_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        harvest(float("nan"), CURVE)
    with pytest.raises(ValueError, match="finite"):
        harvest([1e-3, float("nan")], CURVE)


def test_harvest_rejects_infinite():
    for bad in (float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            harvest(bad, CURVE)
        with pytest.raises(ValueError, match="finite"):
            harvest(np.array([1e-3, bad]), CURVE)


def test_harvester_curve_validation():
    with pytest.raises(ValueError):
        HarvesterCurve(breakpoints=((-30.0, 0.05),))
    with pytest.raises(ValueError):
        HarvesterCurve(breakpoints=((-30.0, 0.05), (-30.0, 0.1)))
    with pytest.raises(ValueError):
        HarvesterCurve(breakpoints=((-30.0, 0.05), (-20.0, 1.5)))


def test_dft_codebook_trivial_sizes():
    cb1 = dft_codebook(1)
    np.testing.assert_allclose(cb1.codewords, [[1.0 + 0.0j]])
    cb2 = dft_codebook(2)
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(cb2.codewords, [[s, s], [s, -s]], atol=1e-15)


def test_dft_codebook_orthonormal():
    cb = dft_codebook(8)
    gram = cb.codewords @ cb.codewords.conj().T
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)


def test_codebook_requires_unit_norm():
    with pytest.raises(ValueError):
        Codebook(np.array([[2.0 + 0.0j, 0.0]]))


def test_rf_combine_singleton_codebook():
    rng = np.random.default_rng(1)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = h / np.linalg.norm(h)
    idx, power = rf_combine((h[None, :], 2.0), Codebook(w[None, :]))
    assert idx == 0
    assert np.isclose(power, 2.0 * np.abs(np.vdot(w, h)) ** 2, rtol=1e-12)


def test_rf_combine_single_antenna_recovers_incident_power():
    h, p = np.array([[0.3 - 0.4j], [0.1 + 0.2j]]), np.array([1.5, 0.5])
    _, power = rf_combine((h, p), dft_codebook(1))
    assert np.isclose(power, float(np.sum(np.abs(h[:, 0]) ** 2 * p)), rtol=1e-12)


def test_rf_combine_beats_every_fixed_codeword():
    rng = np.random.default_rng(7)
    cb = dft_codebook(4)
    h = np.vstack([rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(5)])
    p = np.ones(5)
    _, best = rf_combine((h, p), cb)
    for w in cb.codewords:
        fixed = float(np.sum(p * np.abs(h @ w.conj()) ** 2))
        assert best >= fixed * (1.0 - 1e-12)


def test_rf_combine_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        Codebook(np.zeros((0, 2), dtype=complex))
    with pytest.raises(ValueError):
        rf_combine((np.ones((1, 3), dtype=complex), 1.0), dft_codebook(2))
    with pytest.raises(ValueError):
        rf_combine((np.ones(2, dtype=complex), 1.0), dft_codebook(2))
    with pytest.raises(ValueError, match="antennas"):
        rf_combine((np.zeros((0, 3)), 1.0), dft_codebook(2))


def test_architectures_coincide_for_single_antenna():
    h = np.array([[0.02 + 0.01j]])
    snapshot = (h, 1.0)
    out = [harvest_architecture(snapshot, arch, CURVE, dft_codebook(1)) for arch in ("single", "dc", "rf")]
    assert out[0] == out[1] == out[2] > 0.0


def test_dc_additivity_with_equal_antenna_powers():
    h = np.full((1, 4), math.sqrt(2e-4), dtype=complex)
    assert np.isclose(
        harvest_architecture((h, 1.0), "dc", CURVE),
        4.0 * harvest(2e-4, CURVE),
        rtol=1e-12,
    )


def test_rf_matched_codeword_gains_factor_m():
    # Single LoS source whose steering vector sits in the DFT codebook
    # (sin(theta) = 2k/M with k=1, M=4): RF input power is exactly M x the
    # single-antenna input power.
    m = 4
    theta = math.asin(2.0 / m)
    gain = 5e-4
    h = math.sqrt(gain) * steering_vector(theta, ArrayConfig(m))
    snapshot = (h[None, :], 1.0)
    _, combined = rf_combine(snapshot, dft_codebook(m))
    single_in = abs(h[0]) ** 2
    assert np.isclose(combined, m * single_in, rtol=1e-10)
    assert harvest_architecture(snapshot, "rf", CURVE, dft_codebook(m)) == harvest(combined, CURVE)


def test_dc_dominates_single_on_random_snapshots():
    rng = np.random.default_rng(21)
    pl = PathLossParams(2.7, 40.0, 1.0)
    for trial in range(50):
        pts = rng.uniform(-5, 5, size=(3, 2))
        h = sample_channels(pts, Position2D(0.0, 0.0), ArrayConfig(4), RicianParams(10.0), pl, seed=trial)
        snapshot = (h, 1.0)
        dc = harvest_architecture(snapshot, "dc", CURVE)
        single = harvest_architecture(snapshot, "single", CURVE)
        assert dc >= single


def test_empty_snapshot_harvests_nothing():
    empty = (np.zeros((0, 2), dtype=complex), 1.0)
    assert harvest_architecture(empty, "dc", CURVE) == 0.0
    assert harvest_architecture(empty, "rf", CURVE, dft_codebook(2)) == 0.0


def test_rf_without_codebook_is_an_error():
    h = np.ones((1, 2), dtype=complex)
    with pytest.raises(ValueError):
        harvest_architecture((h, 1.0), "rf", CURVE)


def test_unknown_architecture_rejected():
    with pytest.raises(ValueError):
        harvest_architecture((np.ones((1, 1), dtype=complex), 1.0), "hybrid", CURVE)


def test_snapshot_must_be_an_h_p_tuple():
    with pytest.raises(TypeError):
        harvest_architecture(np.array([1e-3, 2e-3]), "dc", CURVE)
    with pytest.raises(TypeError):
        harvest_architecture([(np.ones(2, dtype=complex), 1.0)], "single", CURVE)
    with pytest.raises(ValueError):
        harvest_architecture((np.ones((2, 0), dtype=complex), 1.0), "single", CURVE)
    with pytest.raises(ValueError, match=">= 0"):
        harvest_architecture((np.ones((2, 2), dtype=complex), np.array([1.0, -1.0])), "dc", CURVE)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_non_finite_snapshot_is_rejected(arch):
    # single reads only antenna 0, so a bad value on antenna 1 must still be caught.
    finite = np.array([[0.05, 0.05]], dtype=complex)
    for h, p in (
        (np.array([[0.05, np.nan]], dtype=complex), 1.0),
        (np.array([[0.05, complex(0.0, np.inf)]]), 1.0),
        (np.array([[0.05, -np.inf]], dtype=complex), 1.0),
        (finite, np.inf),
        (finite, np.array([np.nan])),
    ):
        with pytest.raises(ValueError, match="finite"):
            harvest_architecture((h, p), arch, CURVE, dft_codebook(2))
