import math

import numpy as np
import pytest
from scipy import stats

from wetplan.channel import (
    ArrayConfig,
    PathLossParams,
    Position2D,
    RicianParams,
    path_gain,
    sample_channels,
    sample_hppp,
    steering_vector,
)

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


def test_path_gain_rejects_negative_distance():
    with pytest.raises(ValueError):
        path_gain(-1.0, PL_FIG4)


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
    np.testing.assert_allclose(steering_vector(0.7, ArrayConfig(1)), [1.0 + 0.0j])


def test_steering_vector_broadside_is_all_ones():
    np.testing.assert_allclose(steering_vector(0.0, ArrayConfig(5)), np.ones(5))


def test_steering_vector_endfire_phases():
    v = steering_vector(math.pi / 2, ArrayConfig(4, element_spacing=0.5))
    expected = np.exp(1j * math.pi * np.arange(4))  # phases 0, pi, 2pi, 3pi
    np.testing.assert_allclose(v, expected, atol=1e-12)
    np.testing.assert_allclose(np.abs(v), 1.0)


def _link(x, y, draws=1):
    """``draws`` rows of the same source at (x, y): i.i.d. fading draws of one link."""
    return np.tile([[x, y]], (draws, 1))


def test_sample_channel_los_limit():
    dev = Position2D(0.0, 0.0)
    arr = ArrayConfig(4)
    [h] = sample_channels(_link(3.0, 4.0), dev, arr, RicianParams(1e12), PL_FIG4, seed=7)
    theta = math.atan2(4.0, 3.0)
    expected = math.sqrt(path_gain(5.0, PL_FIG4)) * steering_vector(theta, arr)
    np.testing.assert_allclose(h, expected, rtol=1e-5)


def test_sample_channel_power_normalization():
    # E[|h_0|^2] equals the path gain regardless of K.
    dev = Position2D(0.0, 0.0)
    h = sample_channels(_link(5.0, 0.0, 100_000), dev, ArrayConfig(2), RicianParams(10.0), PL_FIG4, seed=11)
    mean_p0 = np.mean(np.abs(h[:, 0]) ** 2)
    assert np.isclose(mean_p0, path_gain(5.0, PL_FIG4), rtol=0.02)


def test_sample_channel_total_power_invariant():
    dev = Position2D(0.0, 0.0)
    m = 4
    h = sample_channels(_link(2.0, 6.0, 50_000), dev, ArrayConfig(m), RicianParams(3.0), PL_FIG4, seed=13)
    total = np.mean(np.sum(np.abs(h) ** 2, axis=1))
    d = math.hypot(2.0, 6.0)
    assert np.isclose(total, m * path_gain(d, PL_FIG4), rtol=0.02)


def test_sample_channel_rayleigh_power_is_exponential():
    # M=1, K=0: |h|^2 ~ Exp(mean = path gain); KS test at the 1% level.
    dev = Position2D(0.0, 0.0)
    h = sample_channels(_link(4.0, 0.0, 20_000), dev, ArrayConfig(1), RicianParams(0.0), PL_FIG4, seed=17)
    power = np.abs(h[:, 0]) ** 2
    scale = path_gain(4.0, PL_FIG4)
    result = stats.kstest(power, "expon", args=(0.0, scale))
    assert result.pvalue > 0.01


def test_sample_channel_determinism():
    args = (_link(1.0, 1.0), Position2D(0.0, 0.0), ArrayConfig(3), RicianParams(10.0), PL_FIG4)
    np.testing.assert_array_equal(sample_channels(*args, seed=5), sample_channels(*args, seed=5))


def test_sample_channels_matches_per_source_shape():
    pts = sample_hppp(0.05, 10.0, seed=1)
    h = sample_channels(pts, Position2D(0.0, 0.0), ArrayConfig(4), RicianParams(10.0), PL_FIG4, seed=2)
    assert h.shape == (pts.shape[0], 4)
