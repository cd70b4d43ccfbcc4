"""Single-antenna outage against its exact value, from outside the outage code.

Antenna 0's line-of-sight phase is 1, so its incident power is
``P = sum_s p g(r_s) X_s``: the sources form a PPP of density ``lam`` on the
disk of radius ``R``, ``g`` is the path gain (clamped inside the reference
distance) and ``X`` is the unit-mean Rician power gain of one source. The
PPP's characteristic functional gives

    phi_P(t) = exp(lam * int_0^R 2 pi r (phi_X(t p g(r)) - 1) dr),
    phi_X(t) = (1 + K) / (1 + K - i t) * exp(i K t / (1 + K - i t)),

and Gil-Pelaez inversion gives the distribution function ``F_P``. ``P`` has
an atom of mass ``a0 = exp(-lam pi R^2)`` at 0 (no source in the disk),
where ``phi_P`` tends as ``t`` grows; it is split off, so that the inverted
integrand decays:

    F_P(x) = (1 + a0) / 2 - (1 / pi) int_0^inf Im(e^{-i t x} (phi_P(t) - a0)) / t dt.

``harvest`` is non-decreasing, so the single-antenna outage probability is
``F_P(p_th)``, where ``p_th`` is the least input power whose harvest meets the
target (2.1434 mW for the default curve and 1 mW target). Campbell's theorem
gives the mean of ``P`` exactly, as a second check on the sampler.

References: Haenggi, *Stochastic Geometry for Wireless Networks*, Cambridge
2012 (the PPP's characteristic functional, Campbell's theorem); Gil-Pelaez,
"Note on the inversion theorem", Biometrika 1951.
"""

import dataclasses
import math

import numpy as np
import pytest

from wetplan.channel import ArrayConfig, PathLossParams, Position2D, RicianParams, sample_channels, sample_hppp
from wetplan.harvesting import HarvesterCurve, _antenna_powers, harvest
from wetplan.outage import OutageConfig, sweep_density, trial_seed

# Quadrature: Gauss-Legendre nodes in log r beyond the reference distance, and
# log-spaced t points per decade over t * p_th in [1e-7, 1e9]. Doubling either
# moves no listed value by more than 1e-5.
R_NODES = 64
T_PER_DECADE = 400


def threshold(config: OutageConfig) -> float:
    """The least incident power whose harvest meets ``config.target``, by bisection in log power."""
    lo, hi = math.log(1e-12), math.log(1.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if harvest(math.exp(mid), config.curve) >= config.target:
            hi = mid
        else:
            lo = mid
    return math.exp(hi)


def rician_cf(s, k: float):
    """Characteristic function of the unit-mean Rician power gain with K-factor ``k``."""
    d = 1.0 + k - 1j * s
    return (1.0 + k) / d * np.exp(1j * k * s / d)


def source_integral(t: np.ndarray, config: OutageConfig) -> np.ndarray:
    """``lam * int_0^R 2 pi r phi_X(t p g(r)) dr`` at each ``t``; ``log phi_P`` is this minus ``lam pi R^2``."""
    pl, radius, k = config.pathloss, config.disk_radius, config.rician.k_factor
    g0 = 10.0 ** (-pl.fixed_loss_db / 10.0)
    d0 = pl.reference_distance
    total = math.pi * min(d0, radius) ** 2 * rician_cf(t * config.tx_power * g0, k)  # the clamped disk
    if radius > d0:
        u, w = np.polynomial.legendre.leggauss(R_NODES)
        lo, hi = math.log(d0), math.log(radius)
        r = np.exp(0.5 * (hi - lo) * u + 0.5 * (hi + lo))
        weights = math.pi * (hi - lo) * w * r * r  # 2 pi r dr, with dr = r d(log r)
        gains = config.tx_power * g0 * (r / d0) ** (-pl.exponent)
        total = total + rician_cf(np.multiply.outer(t, gains), k) @ weights
    return config.density * total


def oscillatory_integral(t: np.ndarray, f: np.ndarray, x: float) -> float:
    """``int Im(e^{-i x t} f(t)) dt`` over the grid ``t``, with ``f`` linear on each panel.

    Filon's rule integrates each panel's product exactly; a panel that spans
    under 0.05 rad of ``e^{-i x t}`` uses the trapezoid rule, where Filon's
    weights would cancel.
    """
    a, b, fa, fb = t[:-1], t[1:], f[:-1], f[1:]
    h = b - a
    ea, eb = np.exp(-1j * x * a), np.exp(-1j * x * b)
    c = 1j * x
    flat = (ea - eb) / c  # int_a^b e^{-ixt} dt
    ramp = -h * eb / c + (ea - eb) / c**2  # int_a^b (t - a) e^{-ixt} dt
    filon = fa * flat + (fb - fa) / h * ramp
    trapezoid = 0.5 * h * (fa * ea + fb * eb)
    return float(np.sum(np.where(x * h > 0.05, filon, trapezoid)).imag)


def exact_outage(config: OutageConfig, p_th: float) -> float:
    """``F_P(p_th)`` for antenna 0 by Gil-Pelaez inversion, with the atom at 0 split off."""
    mass = config.density * math.pi * config.disk_radius**2
    a0 = math.exp(-mass)
    t = np.geomspace(1e-7 / p_th, 1e9 / p_th, 16 * T_PER_DECADE + 1)
    excess = np.exp(source_integral(t, config) - mass) - a0  # phi_P - a0
    return 0.5 * (1.0 + a0) - oscillatory_integral(t, excess / t, p_th) / math.pi


def campbell_mean(config: OutageConfig) -> float:
    """``E[P] = lam p int_0^R 2 pi r g(r) dr`` in closed form (``exponent != 2``)."""
    pl, radius = config.pathloss, config.disk_radius
    g0 = 10.0 ** (-pl.fixed_loss_db / 10.0)
    d0, alpha = pl.reference_distance, pl.exponent
    area_gain = math.pi * min(d0, radius) ** 2
    if radius > d0:
        area_gain += 2.0 * math.pi * d0**alpha * (radius ** (2.0 - alpha) - d0 ** (2.0 - alpha)) / (2.0 - alpha)
    return config.density * config.tx_power * g0 * area_gain


# 20 dB of fixed loss (acceptance criterion 4's scenario) brings the target
# within reach at a few transmitters per disk.
LOSS_20DB = PathLossParams(exponent=2.7, fixed_loss_db=20.0, reference_distance=1.0)

# name: (scenario, densities, exact outage per density to 5 decimals).
CASES = {
    # The outage study's defaults, on one antenna (the single receiver reads
    # antenna 0 only) and fewer trials.
    "default": (OutageConfig(density=0.0, trials=2000), (0.5, 1.0, 2.0, 4.0), (1.0, 0.99988, 0.60985, 0.0)),
    # Criterion 4's sweep, its seed and trials. The 0.08 point reads 2.1
    # sigma low there; independent 40,000-trial runs agree with the exact
    # value, so that is noise, and the gate is 4 sigma.
    "criterion-4": (
        OutageConfig(density=0.0, pathloss=LOSS_20DB, trials=10_000, seed=424, n_antennas=4),
        (0.01, 0.03, 0.08),
        (0.89366, 0.63494, 0.10492),
    ),
    # K = 0: the sources' power gains are exponential.
    "rayleigh": (
        OutageConfig(density=0.0, pathloss=LOSS_20DB, rician=RicianParams(0.0), trials=4000),
        (0.05,),
        (0.42571,),
    ),
    # A 2 m disk: the clamped inner 1 m carries about half of the mean power.
    "near-field": (
        OutageConfig(density=0.0, disk_radius=2.0, pathloss=PathLossParams(2.7, 35.0, 1.0), trials=4000),
        (1.0,),
        (0.56281,),
    ),
}


def test_threshold_of_the_default_curve():
    # (0.45 + 0.005 x) * 10**(x / 10) mW = 1 mW, on the 0..10 dBm segment.
    p_th = threshold(OutageConfig(density=0.0))
    assert p_th == pytest.approx(2.1434e-3, rel=5e-5)
    assert harvest(p_th, HarvesterCurve()) >= 1e-3 > harvest(p_th * (1.0 - 1e-9), HarvesterCurve())


@pytest.mark.parametrize("name", sorted(CASES))
def test_single_antenna_outage_matches_the_exact_value(name):
    base, densities, listed = CASES[name]
    p_th = threshold(base)
    exact = [exact_outage(dataclasses.replace(base, density=d), p_th) for d in densities]
    assert exact == pytest.approx(listed, abs=2e-5)
    estimates = sweep_density(base, densities, ("single",))
    for d, p, (result,) in zip(densities, exact, estimates):
        p = min(max(p, 0.0), 1.0)
        bound = 4.0 * math.sqrt(p * (1.0 - p) / result.trials) + 1e-4
        assert abs(result.outage_estimate - p) <= bound, (d, result.outage_estimate, p, bound)


@pytest.mark.parametrize("k_factor", [10.0, 0.0])
def test_mean_incident_power_matches_campbell(k_factor):
    config = OutageConfig(density=0.08, pathloss=LOSS_20DB, rician=RicianParams(k_factor), n_antennas=4)
    trials = 2000
    powers = np.zeros((trials, config.n_antennas))
    device, array = Position2D(0.0, 0.0), ArrayConfig(config.n_antennas)
    for t in range(trials):
        rng = np.random.default_rng(trial_seed(config.seed, t))
        positions = sample_hppp(config.density, config.disk_radius, rng)
        h = sample_channels(positions, device, array, config.rician, config.pathloss, rng)
        powers[t] = _antenna_powers(h, config.tx_power)
    stderr = powers.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(powers.mean(axis=0) - campbell_mean(config)) <= 4.0 * stderr)
