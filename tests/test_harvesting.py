import math

import numpy as np
import pytest

from wetplan.channel import PathLossParams, RicianParams, sample_channels, steering_vector
from wetplan.harvesting import (
    ARCHITECTURES,
    HarvesterCurve,
    _antenna_powers,
    _codeword_powers,
    _rectify,
    dft_codebook,
    harvest,
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
def test_harvester_curve_refuses_non_finite_breakpoints(index, bad):
    points = [[-10.0, 0.1], [0.0, 0.2]]
    points[index][0] = bad
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        HarvesterCurve(tuple(map(tuple, points)))


def _harvest_all(h, p, m):
    """Harvested power of one draw under every architecture, through the outage kernels."""
    p = np.broadcast_to(p, (h.shape[0],))[:, None]
    antenna_powers = _antenna_powers(h, p)[None]
    combined = _codeword_powers(h, p, dft_codebook(m)).max()[None]
    return {arch: float(_rectify(antenna_powers, combined, arch, CURVE)[0]) for arch in ARCHITECTURES}


def test_dft_codebook_trivial_sizes():
    np.testing.assert_allclose(dft_codebook(1), [[1.0 + 0.0j]])
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(dft_codebook(2), [[s, s], [s, -s]], atol=1e-15)


@pytest.mark.parametrize("m", [0, 2.5, math.nan, math.inf])
def test_dft_codebook_refuses_a_size_that_is_not_an_integer_of_at_least_one(m):
    with pytest.raises(ValueError) as err:
        dft_codebook(m)
    assert str(err.value) == f"codebook size must be an integer >= 1, got {m}"


def test_dft_codebook_orthonormal():
    cb = dft_codebook(8)
    gram = cb @ cb.conj().T
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)


def test_rf_combine_singleton_codebook():
    rng = np.random.default_rng(1)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = h / np.linalg.norm(h)
    [power] = _codeword_powers(h[None, :], 2.0, w[None, :])
    assert np.isclose(power, 2.0 * np.abs(np.vdot(w, h)) ** 2, rtol=1e-12)


def test_rf_combine_single_antenna_recovers_incident_power():
    h, p = np.array([[0.3 - 0.4j], [0.1 + 0.2j]]), np.array([1.5, 0.5])
    [power] = _codeword_powers(h, p[:, None], dft_codebook(1))
    assert np.isclose(power, float(np.sum(np.abs(h[:, 0]) ** 2 * p)), rtol=1e-12)


def test_rf_combine_beats_every_fixed_codeword():
    rng = np.random.default_rng(7)
    cb = dft_codebook(4)
    h = np.vstack([rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(5)])
    p = np.ones(5)
    best = _codeword_powers(h, p[:, None], cb).max()
    fixed = [float(np.sum(p * np.abs(h @ w.conj()) ** 2)) for w in cb]
    for power in fixed:
        assert best >= power * (1.0 - 1e-12)
    assert best <= max(fixed) * (1.0 + 1e-12)


def test_architectures_coincide_for_single_antenna():
    out = _harvest_all(np.array([[0.02 + 0.01j]]), 1.0, 1)
    assert out["single"] == out["dc"] == out["rf"] > 0.0


def test_dc_additivity_with_equal_antenna_powers():
    h = np.full((1, 4), math.sqrt(2e-4), dtype=complex)
    assert np.isclose(_harvest_all(h, 1.0, 4)["dc"], 4.0 * harvest(2e-4, CURVE), rtol=1e-12)


def test_rf_matched_codeword_gains_factor_m():
    # Single LoS source whose steering vector sits in the DFT codebook
    # (sin(theta) = 2k/M with k=1, M=4): RF input power is exactly M x the
    # single-antenna input power.
    m = 4
    theta = math.asin(2.0 / m)
    gain = 5e-4
    h = math.sqrt(gain) * steering_vector(theta, m)
    combined = _codeword_powers(h[None, :], 1.0, dft_codebook(m)).max()
    single_in = abs(h[0]) ** 2
    assert np.isclose(combined, m * single_in, rtol=1e-10)
    assert _harvest_all(h[None, :], 1.0, m)["rf"] == harvest(combined, CURVE)


def test_dc_dominates_single_on_random_snapshots():
    rng = np.random.default_rng(21)
    pl = PathLossParams(2.7, 40.0, 1.0)
    for trial in range(50):
        pts = rng.uniform(-5, 5, size=(3, 2))
        h = sample_channels(pts, (0.0, 0.0), 4, RicianParams(10.0), pl, seed=trial)
        out = _harvest_all(h, 1.0, 4)
        assert out["dc"] >= out["single"]


def test_empty_snapshot_harvests_nothing():
    out = _harvest_all(np.zeros((0, 2), dtype=complex), 1.0, 2)
    assert out == {arch: 0.0 for arch in ARCHITECTURES}
