"""Monte Carlo estimation of ambient-harvesting outage versus transmitter density.

``sweep_density`` is the estimator. Each density's sub-seed derives from (run
seed, density value), so duplicate densities produce identical results, and
each trial's seed from (sub-seed, trial index), so estimates are reproducible
and independent of execution order.

The sweep returns one result per architecture asked for, in that order. The
architectures share draws (common random numbers): a trial samples its field
and channels once and rectifies that snapshot under each of them. The
sub-seeds do not depend on the architecture, so each architecture's estimate
is the one it would get on its own.

A trial (``_draw``) draws a Poisson count, then the sources' radii and
angles as ``channel._uniform_disk`` does, then what ``sample_channels`` would
draw from its generator, call for call, but keeps the sources in polar form
around the device at the disk's center and never forms their channels, so
its powers match theirs to the last few bits, not bit for bit. Each
trial reduces its draws to per-antenna incident powers and the best rf
codeword's combined power; the trials of one estimate are then rectified
together, one ``harvest`` call per architecture.

Before the first trial the sweep checks its arguments, and refuses a scenario
whose arrays would pass a size limit (``MAX_MEAN_SOURCES`` expected
transmitters per trial, ``MAX_ARRAY_ENTRIES`` rf codebook, channel or
power-stack entries), naming the fields that set it. It deals its trials
round-robin across the CPUs the process may run on (``_fork.fork_map``; no
other study forks); each share harvests its trials at every density, so a
sweep forks once, and the bytes do not depend on the CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fork import fork_map
from .channel import (
    MAX_ARRAY_ENTRIES, MAX_MEAN_SOURCES, PathLossParams, RicianParams, _check_fields, _mean_sources, _path_gain,
    _ranged, _require_at_most, _require_integer,
)
from .harvesting import ARCHITECTURES, HarvesterCurve, _antenna_powers, _codeword_powers, _rectify, dft_codebook

__all__ = [
    "OutageConfig",
    "OutageResult",
    "sweep_density",
]


@dataclass(frozen=True)
class OutageConfig:
    """One Monte Carlo scenario: a device at the disk center harvesting from a
    Poisson field of ambient transmitters, whose density ``sweep_density`` moves."""

    disk_radius: float = _ranged(10.0, above=0)
    tx_power: float = _ranged(1.0, above=0)
    pathloss: PathLossParams = PathLossParams(exponent=2.7, fixed_loss_db=40.0, reference_distance=1.0)
    rician: RicianParams = RicianParams(10.0)
    target: float = _ranged(1e-3, above=0)
    n_antennas: int = _ranged(1, at_least=1)
    curve: HarvesterCurve = HarvesterCurve()
    trials: int = _ranged(10_000, at_least=1)

    __post_init__ = _check_fields


@dataclass(frozen=True)
class OutageResult:
    outage_estimate: float
    ci95_halfwidth: float
    trials: int
    mean_harvested: float


def _plan(archs) -> tuple[str, ...]:
    """``archs`` as a tuple; errors on an empty list or an unknown name."""
    names = tuple(archs)
    if not names:
        raise ValueError("archs must name at least one architecture")
    for arch in names:
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")
    return names


def _require_fits(config: OutageConfig, archs: tuple[str, ...], density: float) -> None:
    """Refuse ``config`` at ``density``, the sweep's largest, if an array its
    trials allocate would pass a size limit: a trial's transmitters, the
    (trials, n_antennas) power stack (which bounds ``n_antennas`` before a
    float multiplies it), the rf codebook or a trial's channels."""
    m = config.n_antennas
    sources = _mean_sources(density, config.disk_radius)
    _require_at_most(sources, MAX_MEAN_SOURCES, "densities and disk_radius",
                     "expected transmitters per trial (density * pi * disk_radius**2)")
    _require_at_most(config.trials * m, MAX_ARRAY_ENTRIES, "trials and n_antennas",
                     "power entries (trials * n_antennas)")
    if "rf" in archs:
        _require_at_most(m * m, MAX_ARRAY_ENTRIES, "n_antennas", "rf codebook entries (n_antennas**2)")
    _require_at_most(sources * m, MAX_ARRAY_ENTRIES, "densities, disk_radius and n_antennas",
                     "expected channel entries per trial (density * pi * disk_radius**2 * n_antennas)")


def trial_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Counter-based per-trial seed; pure function of (seed, trial index)."""
    return np.random.SeedSequence([int(seed), int(index)])


def _draw(config: OutageConfig, density: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One trial's field as the device at the disk center sees it: each source's mean incident power
    ``p g(r)``, shape (n,), and its unit-mean channel, shape (n, M), whose columns are contiguous.

    ``rng`` draws the count, the radii, the angles and the scatter's real
    and imaginary parts, the calls a Poisson count, ``_uniform_disk`` and
    ``sample_channels`` make in turn, so a trial's numbers are theirs. The
    sources stay in polar form: a source at (r, phi) lies r from the device,
    seen at angle phi, so its line-of-sight row ``exp(i pi m sin(phi))`` is
    the powers of one phasor. The channel ``sqrt(g(r))`` times this one is
    never formed: each reduction weighs a source's ``|.|**2`` by its power.
    """
    m = config.n_antennas
    n = int(rng.poisson(_mean_sources(density, config.disk_radius)))
    r = config.disk_radius * np.sqrt(rng.uniform(size=n))
    phasor = np.exp(1j * math.pi * np.sin(rng.uniform(0.0, 2.0 * math.pi, size=n)))
    real, imag = rng.standard_normal((n, m)), rng.standard_normal((n, m))
    k = config.rician.k_factor
    mix = np.empty((m, n), complex)  # antenna-major, so a sum over sources runs along contiguous memory
    mix[0] = math.sqrt(k / (k + 1.0))
    for i in range(1, m):
        np.multiply(mix[i - 1], phasor, out=mix[i])
    scatter = math.sqrt(0.5 / (k + 1.0))  # each part's share of the unit-mean scatter
    real *= scatter
    imag *= scatter
    mix.real += real.T
    mix.imag += imag.T
    return config.tx_power * _path_gain(r, config.pathloss), mix.T


def _harvest_trials(config: OutageConfig, density: float, archs: tuple[str, ...], count: int, seeds) -> np.ndarray:
    """Harvested power of ``count`` trials at ``density``, one contiguous row per architecture.

    ``seeds`` yields the trials' seeds one at a time (a ``SeedSequence`` takes
    ~2 KB). A contiguous row reduces in ``_estimate`` as a lone array would.
    """
    antenna_powers = np.zeros((count, config.n_antennas))
    combined = np.zeros(count)
    codewords = dft_codebook(config.n_antennas) if "rf" in archs else None
    for t, seed in enumerate(seeds):
        power, mix = _draw(config, density, np.random.default_rng(seed))
        power = power[:, None]
        antenna_powers[t] = _antenna_powers(mix, power)
        if codewords is not None:
            combined[t] = _codeword_powers(mix, power, codewords).max()
    return np.array([_rectify(antenna_powers, combined, arch, config.curve) for arch in archs])


def _estimate(harvested: np.ndarray, target: float) -> OutageResult:
    n = harvested.shape[0]
    p_hat = float(np.mean(harvested < target))
    half = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return OutageResult(p_hat, half, n, float(np.mean(harvested)))


def _harvest_split(config: OutageConfig, densities, seeds, archs: tuple[str, ...]) -> np.ndarray:
    """``_harvest_trials`` on all of ``config``'s trials at each density, seeded
    from its entry in ``seeds``, as a ``(densities, archs, trials)`` array with
    contiguous rows.

    The trials are dealt round-robin across the CPUs (``fork_map``), each
    share harvesting its trials at every density. A worker's failure raises
    a ``RuntimeError`` that names its trials and the densities.
    """
    def work(share):
        harvested = [_harvest_trials(config, d, archs, len(share), (trial_seed(s, t) for t in share))
                     for d, s in zip(densities, seeds)]
        return np.moveaxis(np.array(harvested), -1, 0)

    named = ", ".join(map(str, densities))
    trials = fork_map(work, config.trials, lambda share: (
        f"outage trials {share[0]} to {share[-1]} step {share.step} at densities {named}"))
    return np.ascontiguousarray(np.moveaxis(trials, 0, -1))


def _density_seed(seed: int, density: float) -> int:
    bits = int(np.float64(density).view(np.uint64))
    return int(np.random.SeedSequence([int(seed), bits]).generate_state(1, dtype=np.uint64)[0])


def sweep_density(config: OutageConfig, densities, archs, seed: int = 0) -> list[tuple[OutageResult, ...]]:
    """Estimate the probability that harvested power misses the target, once per density, in input order.

    Each entry is a tuple with one result per architecture in ``archs``, all
    from the same trials. Sub-seeds derive from ``seed`` and each density's
    value, so repeated entries give identical results; every trial owns a
    counter-based seed, so the result does not depend on how many CPUs share
    the trials. The seed and every density are checked, and the largest
    density against the size limits, before the first trial.
    """
    _require_integer("seed", seed, 0)
    values = [float(d) for d in densities]
    if not values:
        raise ValueError("densities must be non-empty")
    for d in values:
        if not 0.0 <= d < math.inf:
            raise ValueError(f"densities must be finite and >= 0, got {d}")
    plan = _plan(archs)
    _require_fits(config, plan, max(values))
    seeds = [_density_seed(seed, d) for d in values]
    return [tuple(_estimate(row, config.target) for row in harvested)
            for harvested in _harvest_split(config, values, seeds, plan)]
