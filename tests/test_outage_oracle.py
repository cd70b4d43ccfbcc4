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

The beam path: the rf receiver with its codebook cut to one codeword ``w_k``
of the M-point DFT codebook combines ``P = sum_s p g(r_s) |w_k^H h_s|^2``.
A source at angle ``theta`` has ``w_k^H h = mu + sigma xi`` with ``xi ~
CN(0, 1)``, ``|mu|^2 = K / (K + 1) |w_k^H a(theta)|^2`` for the
half-wavelength steering vector ``a`` and ``sigma^2 = 1 / (K + 1)``, so

    phi(s | theta) = exp(i s |mu|^2 / (1 - i s sigma^2)) / (1 - i s sigma^2).

The PPP's sources are uniform in angle, so ``phi_X`` above becomes the mean
of ``phi(s | theta)`` over the circle, taken by the trapezoid rule, which
converges fast on a periodic integrand. The angle is uniform over the full
circle, so the oracle sees the steering spacing, the codeword and the
line-of-sight/scatter split, but not a rotation or a reflection of the angle.

References: Haenggi, *Stochastic Geometry for Wireless Networks*, Cambridge
2012 (the PPP's characteristic functional, Campbell's theorem); Gil-Pelaez,
"Note on the inversion theorem", Biometrika 1951.
"""

import math

import numpy as np
import pytest

import wetplan.outage
from wetplan.channel import PathLossParams, RicianParams, sample_channels, sample_hppp
from wetplan.harvesting import HarvesterCurve, _antenna_powers, harvest
from wetplan.outage import OutageConfig, sweep_density, trial_seed

# Quadrature: Gauss-Legendre nodes in log r beyond the reference distance, and
# log-spaced t points per decade over t * p_th in [1e-7, 1e9]. Doubling either
# moves no listed value by more than 1e-5.
R_NODES = 64
T_PER_DECADE = 400
# Angles of the trapezoid rule over the circle for the beam path; doubling
# them moves no listed value by more than 1e-7.
THETA_NODES = 64


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


def beam_pattern(k: int, m: int) -> np.ndarray:
    """``|w_k^H a(theta)|^2`` at ``THETA_NODES`` angles evenly over the circle.

    ``w_k`` is row ``k`` of the M-point DFT codebook and ``a`` the steering
    vector of a half-wavelength ULA, element ``n`` at phase ``pi n sin(theta)``.
    """
    theta = 2.0 * math.pi * np.arange(THETA_NODES) / THETA_NODES
    psi = math.pi * np.sin(theta) - 2.0 * math.pi * k / m
    return np.abs(np.exp(1j * np.multiply.outer(psi, np.arange(m))).sum(axis=1)) ** 2 / m


def beam_cf(s, k: float, pattern: np.ndarray):
    """Characteristic function of one source's fixed-beam power gain, averaged over the angles of ``pattern``."""
    d = 1.0 - 1j * s / (1.0 + k)  # 1 - i s sigma^2
    los = 1j * s * (k / (1.0 + k)) / d  # i s |mu|^2 / (1 - i s sigma^2) per unit of pattern
    return sum(np.exp(los * q) for q in pattern) / (pattern.size * d)


def source_integral(t: np.ndarray, config: OutageConfig, density: float, cf) -> np.ndarray:
    """``lam * int_0^R 2 pi r cf(t p g(r)) dr`` at each ``t``; ``log phi_P`` is this minus ``lam pi R^2``.

    ``cf`` is one source's characteristic function of its power gain.
    """
    pl, radius = config.pathloss, config.disk_radius
    g0 = 10.0 ** (-pl.fixed_loss_db / 10.0)
    d0 = pl.reference_distance
    total = math.pi * min(d0, radius) ** 2 * cf(t * config.tx_power * g0)  # the clamped disk
    if radius > d0:
        u, w = np.polynomial.legendre.leggauss(R_NODES)
        lo, hi = math.log(d0), math.log(radius)
        r = np.exp(0.5 * (hi - lo) * u + 0.5 * (hi + lo))
        weights = math.pi * (hi - lo) * w * r * r  # 2 pi r dr, with dr = r d(log r)
        gains = config.tx_power * g0 * (r / d0) ** (-pl.exponent)
        total = total + cf(np.multiply.outer(t, gains)) @ weights
    return density * total


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


def exact_outage(config: OutageConfig, density: float, p_th: float, cf=None) -> float:
    """``F_P(p_th)`` at ``density`` by Gil-Pelaez inversion, with the atom at 0 split off.

    ``cf`` is one source's characteristic function of its power gain, by
    default antenna 0's Rician ``phi_X``.
    """
    cf = cf or (lambda s: rician_cf(s, config.rician.k_factor))
    mass = density * math.pi * config.disk_radius**2
    a0 = math.exp(-mass)
    t = np.geomspace(1e-7 / p_th, 1e9 / p_th, 16 * T_PER_DECADE + 1)
    excess = np.exp(source_integral(t, config, density, cf) - mass) - a0  # phi_P - a0
    return 0.5 * (1.0 + a0) - oscillatory_integral(t, excess / t, p_th) / math.pi


def campbell_mean(config: OutageConfig, density: float) -> float:
    """``E[P] = lam p int_0^R 2 pi r g(r) dr`` in closed form (``exponent != 2``)."""
    pl, radius = config.pathloss, config.disk_radius
    g0 = 10.0 ** (-pl.fixed_loss_db / 10.0)
    d0, alpha = pl.reference_distance, pl.exponent
    area_gain = math.pi * min(d0, radius) ** 2
    if radius > d0:
        area_gain += 2.0 * math.pi * d0**alpha * (radius ** (2.0 - alpha) - d0 ** (2.0 - alpha)) / (2.0 - alpha)
    return density * config.tx_power * g0 * area_gain


# 20 dB of fixed loss (acceptance criterion 4's scenario) brings the target
# within reach at a few transmitters per disk.
LOSS_20DB = PathLossParams(exponent=2.7, fixed_loss_db=20.0, reference_distance=1.0)

# name: (scenario, run seed, densities, exact outage per density to 5 decimals).
CASES = {
    # The outage study's defaults, on one antenna (the single receiver reads
    # antenna 0 only) and fewer trials.
    "default": (OutageConfig(trials=2000), 0, (0.5, 1.0, 2.0, 4.0), (1.0, 0.99988, 0.60985, 0.0)),
    # Criterion 4's sweep, its seed and trials. The 0.08 point reads 2.1
    # sigma low there; independent 40,000-trial runs agree with the exact
    # value, so that is noise, and the gate is 4 sigma.
    "criterion-4": (
        OutageConfig(pathloss=LOSS_20DB, trials=10_000, n_antennas=4),
        424,
        (0.01, 0.03, 0.08),
        (0.89366, 0.63494, 0.10492),
    ),
    # K = 0: the sources' power gains are exponential.
    "rayleigh": (
        OutageConfig(pathloss=LOSS_20DB, rician=RicianParams(0.0), trials=4000),
        0,
        (0.05,),
        (0.42571,),
    ),
    # A 2 m disk: the clamped inner 1 m carries about half of the mean power.
    "near-field": (
        OutageConfig(disk_radius=2.0, pathloss=PathLossParams(2.7, 35.0, 1.0), trials=4000),
        0,
        (1.0,),
        (0.56281,),
    ),
}


def test_threshold_of_the_default_curve():
    # (0.45 + 0.005 x) * 10**(x / 10) mW = 1 mW, on the 0..10 dBm segment.
    p_th = threshold(OutageConfig())
    assert p_th == pytest.approx(2.1434e-3, rel=5e-5)
    assert harvest(p_th, HarvesterCurve()) >= 1e-3 > harvest(p_th * (1.0 - 1e-9), HarvesterCurve())


@pytest.mark.parametrize("name", sorted(CASES))
def test_single_antenna_outage_matches_the_exact_value(name):
    base, seed, densities, listed = CASES[name]
    p_th = threshold(base)
    exact = [exact_outage(base, d, p_th) for d in densities]
    assert exact == pytest.approx(listed, abs=2e-5)
    estimates = sweep_density(base, densities, ("single",), seed)
    for d, p, (result,) in zip(densities, exact, estimates):
        p = min(max(p, 0.0), 1.0)
        bound = 4.0 * math.sqrt(p * (1.0 - p) / result.trials) + 1e-4
        assert abs(result.outage_estimate - p) <= bound, (d, result.outage_estimate, p, bound)


# name: (scenario, codeword index, exact fixed-beam outage at density 2 to 5
# decimals). The outage study's 4 antennas; with K = 0 the beam pattern drops
# out, and the value is that of any codeword.
BEAM_CASES = {
    "k0": (OutageConfig(n_antennas=4, trials=4000), 0, 0.93805),
    "k1": (OutageConfig(n_antennas=4, trials=4000), 1, 0.86246),
    "rayleigh": (OutageConfig(n_antennas=4, rician=RicianParams(0.0), trials=4000), 1, 0.60469),
}


@pytest.mark.parametrize("name", sorted(BEAM_CASES))
def test_fixed_codeword_outage_matches_the_exact_value(monkeypatch, name):
    base, k, listed = BEAM_CASES[name]
    m = base.n_antennas
    codeword = np.exp(2j * math.pi * k * np.arange(m) / m) / math.sqrt(m)
    monkeypatch.setattr(wetplan.outage, "dft_codebook", lambda size: codeword[None, :])
    pattern = beam_pattern(k, m)
    p = exact_outage(base, 2.0, threshold(base), lambda s: beam_cf(s, base.rician.k_factor, pattern))
    assert p == pytest.approx(listed, abs=2e-5)
    ((result,),) = sweep_density(base, (2.0,), ("rf",))
    bound = 4.0 * math.sqrt(p * (1.0 - p) / result.trials) + 1e-4
    assert abs(result.outage_estimate - p) <= bound, (result.outage_estimate, p, bound)


@pytest.mark.parametrize("k_factor", [10.0, 0.0])
def test_mean_incident_power_matches_campbell(k_factor):
    config = OutageConfig(pathloss=LOSS_20DB, rician=RicianParams(k_factor), n_antennas=4)
    density, trials = 0.08, 2000
    powers = np.zeros((trials, config.n_antennas))
    device = (0.0, 0.0)
    for t in range(trials):
        rng = np.random.default_rng(trial_seed(0, t))
        positions = sample_hppp(density, config.disk_radius, rng)
        h = sample_channels(positions, device, config.n_antennas, config.rician, config.pathloss, rng)
        powers[t] = _antenna_powers(h, config.tx_power)
    stderr = powers.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(powers.mean(axis=0) - campbell_mean(config, density)) <= 4.0 * stderr)
