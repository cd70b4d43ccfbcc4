import math

import numpy as np
import pytest
from scipy import stats

from wetplan import channel
from wetplan.channel import (
    PathLossParams,
    RicianParams,
    path_gain,
    sample_channels,
    sample_hppp,
    steering_vector,
)
from wetplan.channel import _mean_sources
from wetplan.harvesting import dft_codebook

PL_FIG4 = PathLossParams(exponent=2.7, fixed_loss_db=40.0, reference_distance=1.0)


def test_path_gain_at_reference_distance():
    assert np.isclose(path_gain(1.0, PL_FIG4), 1e-4, rtol=1e-12)


def test_path_gain_closed_form_at_10m():
    assert np.isclose(path_gain(10.0, PL_FIG4), 10 ** (-6.7), rtol=1e-12)


def test_path_gain_clamps_inside_reference_distance():
    assert path_gain(0.1, PL_FIG4) == path_gain(1.0, PL_FIG4)
    assert path_gain(0.0, PL_FIG4) == path_gain(1.0, PL_FIG4)


def test_path_gain_monotone_and_continuous_at_clamp():
    d = np.linspace(0.0, 30.0, 4001)
    g = path_gain(d, PL_FIG4)
    assert np.all(np.diff(g) <= 0)
    eps = 1e-9
    g_lo, g_at, g_hi = path_gain(np.array([1.0 - eps, 1.0, 1.0 + eps]), PL_FIG4)
    assert np.isclose(g_lo, g_at, rtol=1e-6)
    assert np.isclose(g_hi, g_at, rtol=1e-6)


@pytest.mark.parametrize("d", [-1.0, math.nan, [1.0, math.nan]], ids=["negative", "nan", "nan-in-array"])
def test_path_gain_rejects_negative_distance(d):
    with pytest.raises(ValueError, match=r"^distance must be >= 0$"):
        path_gain(d, PL_FIG4)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(exponent=0.0),
        dict(exponent=-2.0),
        dict(exponent=2.7, reference_distance=0.0),
        dict(exponent=2.7, fixed_loss_db=-1.0),
    ],
)
def test_path_loss_params_validation(kwargs):
    with pytest.raises(ValueError):
        PathLossParams(**kwargs)


def test_hppp_zero_density_is_empty():
    pts = sample_hppp(0.0, 10.0, seed=3)
    assert pts.shape == (0, 2)


def test_hppp_mean_count_is_inf_past_the_range_of_a_float():
    assert sample_hppp(0.0, 1e200, seed=3).shape == (0, 2)
    assert _mean_sources(1e-320, 1e160) == math.inf
    assert _mean_sources(1e300, 1e10) == math.inf
    for density, radius in ((0.5, 10.0), (0.1, 7.3), (1e-300, 1e150)):
        assert _mean_sources(density, radius) == density * math.pi * radius**2


@pytest.mark.parametrize("density, radius, message", [
    (1.0, math.inf, "radius must be finite, got inf"),
    (math.inf, 1.0, "density must be finite, got inf"),
    (math.nan, 1.0, "density must be finite, got nan"),
    (1e-300, 1e200, "density and radius give inf expected points (density * pi * radius**2); the limit is 1e+07"),
    (1e10, 1.0, "density and radius give 3.142e+10 expected points (density * pi * radius**2); the limit is 1e+07"),
], ids=["inf-radius", "inf-density", "nan-density", "overflowing-mean", "large-mean"])
def test_hppp_refuses_a_field_it_cannot_draw_by_name(density, radius, message):
    with pytest.raises(ValueError) as err:
        sample_hppp(density, radius, 0)
    assert str(err.value) == message


def test_hppp_determinism_and_support():
    a = sample_hppp(0.05, 10.0, seed=42)
    b = sample_hppp(0.05, 10.0, seed=42)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.hypot(a[:, 0], a[:, 1]) <= 10.0 + 1e-12)


def test_hppp_mean_count_matches_poisson_intensity():
    # Mean count over 1e5 fields should sit at density*pi*r^2 = 31.4159...
    rng = np.random.default_rng(2024)
    draws = 100_000
    total = 0
    for _ in range(draws):
        total += sample_hppp(0.1, 10.0, rng).shape[0]
    mean = total / draws
    assert abs(mean - 0.1 * math.pi * 100.0) < 0.2


def test_steering_vector_single_antenna():
    np.testing.assert_allclose(steering_vector(0.7, 1), [1.0 + 0.0j])


def test_steering_vector_broadside_is_all_ones():
    np.testing.assert_allclose(steering_vector(0.0, 5), np.ones(5))


def test_steering_vector_stacks_one_row_per_angle():
    thetas = np.array([-1.2, 0.0, 0.3, math.pi / 2])
    stacked = steering_vector(thetas, 5)
    assert stacked.shape == (4, 5)
    for theta, row in zip(thetas, stacked):
        assert np.array_equal(row, steering_vector(theta, 5))


@pytest.mark.parametrize("m", range(1, 9))
def test_dft_codewords_tile_the_half_wavelength_array(m):
    # At half-wavelength spacing, a(theta) at sin(theta) = 2k/M (wrapped into
    # [-1, 1)) is sqrt(M) times codeword k: that codeword collects all M of
    # its power and every other codeword none. This is why the spacing is fixed.
    codebook = dft_codebook(m)
    for k in range(m):
        sin = 2 * k / m - 2 * (2 * k >= m)
        powers = np.abs(codebook.conj() @ steering_vector(math.asin(sin), m)) ** 2
        np.testing.assert_allclose(powers[k], m, rtol=1e-14)
        np.testing.assert_allclose(np.delete(powers, k), 0.0, atol=1e-12)


def test_steering_vector_endfire_phases():
    v = steering_vector(math.pi / 2, 4)
    expected = np.exp(1j * math.pi * np.arange(4))  # phases 0, pi, 2pi, 3pi
    np.testing.assert_allclose(v, expected, atol=1e-12)
    np.testing.assert_allclose(np.abs(v), 1.0)


def _link(x, y, draws=1):
    """``draws`` rows of the same source at (x, y): i.i.d. fading draws of one link."""
    return np.tile([[x, y]], (draws, 1))


def test_sample_channel_los_limit():
    dev = (0.0, 0.0)
    [h] = sample_channels(_link(3.0, 4.0), dev, 4, RicianParams(1e12), PL_FIG4, seed=7)
    theta = math.atan2(4.0, 3.0)
    expected = math.sqrt(path_gain(5.0, PL_FIG4)) * steering_vector(theta, 4)
    np.testing.assert_allclose(h, expected, rtol=1e-5)


def test_sample_channel_power_normalization():
    # E[|h_0|^2] equals the path gain regardless of K.
    dev = (0.0, 0.0)
    h = sample_channels(_link(5.0, 0.0, 100_000), dev, 2, RicianParams(10.0), PL_FIG4, seed=11)
    mean_p0 = np.mean(np.abs(h[:, 0]) ** 2)
    assert np.isclose(mean_p0, path_gain(5.0, PL_FIG4), rtol=0.02)


def test_sample_channel_total_power_invariant():
    dev = (0.0, 0.0)
    m = 4
    h = sample_channels(_link(2.0, 6.0, 50_000), dev, m, RicianParams(3.0), PL_FIG4, seed=13)
    total = np.mean(np.sum(np.abs(h) ** 2, axis=1))
    d = math.hypot(2.0, 6.0)
    assert np.isclose(total, m * path_gain(d, PL_FIG4), rtol=0.02)


def test_sample_channel_rayleigh_power_is_exponential():
    # M=1, K=0: |h|^2 ~ Exp(mean = path gain); KS test at the 1% level.
    dev = (0.0, 0.0)
    h = sample_channels(_link(4.0, 0.0, 20_000), dev, 1, RicianParams(0.0), PL_FIG4, seed=17)
    power = np.abs(h[:, 0]) ** 2
    scale = path_gain(4.0, PL_FIG4)
    result = stats.kstest(power, "expon", args=(0.0, scale))
    assert result.pvalue > 0.01


def test_sample_channel_determinism():
    args = (_link(1.0, 1.0), (0.0, 0.0), 3, RicianParams(10.0), PL_FIG4)
    np.testing.assert_array_equal(sample_channels(*args, seed=5), sample_channels(*args, seed=5))


def test_sample_channels_matches_per_source_shape():
    pts = sample_hppp(0.05, 10.0, seed=1)
    h = sample_channels(pts, (0.0, 0.0), 4, RicianParams(10.0), PL_FIG4, seed=2)
    assert h.shape == (pts.shape[0], 4)


@pytest.mark.parametrize("n_antennas", [0, -1, 2.5, math.nan, math.inf])
def test_array_functions_refuse_a_bad_antenna_count(n_antennas):
    message = rf"^n_antennas must be an integer >= 1, got {n_antennas}$"
    with pytest.raises(ValueError, match=message):
        steering_vector(0.1, n_antennas)
    with pytest.raises(ValueError, match=message):
        sample_channels(_link(1.0, 1.0), (0.0, 0.0), n_antennas, RicianParams(10.0), PL_FIG4, seed=0)


def test_array_functions_refuse_arrays_too_large_to_allocate():
    with pytest.raises(ValueError) as err:
        steering_vector(0.1, 10**12)
    assert str(err.value) == "theta and n_antennas give 1e+12 steering entries (angles * n_antennas); the limit is 1e+07"
    with pytest.raises(ValueError) as err:
        sample_channels(_link(1.0, 1.0, 3), (0.0, 0.0), 10**12, RicianParams(10.0), PL_FIG4, seed=0)
    assert str(err.value) == "sources and n_antennas give 3e+12 channel entries (sources * n_antennas); the limit is 1e+07"
    # An empty input still builds the phase ramp of n_antennas entries.
    with pytest.raises(ValueError, match=r"^theta and n_antennas give 1e\+12 "):
        steering_vector(np.zeros(0), 10**12)
    with pytest.raises(ValueError, match=r"^sources and n_antennas give 1e\+12 "):
        sample_channels(np.zeros((0, 2)), (0.0, 0.0), 10**12, RicianParams(10.0), PL_FIG4, seed=0)


def test_array_limits_take_an_array_at_the_limit(monkeypatch):
    monkeypatch.setattr(channel, "MAX_ARRAY_ENTRIES", 12)
    assert steering_vector(np.zeros(3), 4).shape == (3, 4)
    assert sample_channels(_link(1.0, 1.0, 3), (0.0, 0.0), 4, RicianParams(10.0), PL_FIG4, seed=0).shape == (3, 4)
    with pytest.raises(ValueError, match=r"^theta and n_antennas give 13 "):
        steering_vector(np.zeros(13), 1)
