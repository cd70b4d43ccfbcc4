"""Monte Carlo estimation of ambient-harvesting outage versus transmitter density.

Each trial owns a seed derived from (scenario seed, trial index), so estimates
are reproducible and independent of execution order. Density
sweeps derive per-density sub-seeds from the density value itself, so
duplicate densities produce identical results.

Every entry point takes the architectures to rectify under and returns one
result per architecture, in that order. They share draws (common random
numbers): a trial samples its field and channels once and rectifies that
snapshot under every architecture asked for. The sub-seeds do not depend on
the architecture, so each architecture's estimate is the one it would get on
its own.

Each trial reduces its draws to per-antenna incident powers and the best rf
codeword's combined power; the trials of one estimate are then rectified
together, one ``harvest`` call per architecture.

``run_outage`` and ``sweep_density`` check their arguments before the first
trial, and refuse a scenario whose arrays would pass a size limit
(``MAX_MEAN_SOURCES`` expected transmitters per trial, ``MAX_ARRAY_ENTRIES``
rf codebook, channel or power-stack entries), naming the fields that set it.

``run_outage`` and ``sweep_density`` deal their trials round-robin across
the CPUs the process may run on (``_fork.fork_map``, which ``beampower``
shares); each share harvests its trials at every density, so a sweep forks
once. The trials' seeds do not depend on the share that runs them, so the
bytes do not depend on the CPU count.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._fork import fork_map
from .channel import (
    MAX_ARRAY_ENTRIES, ArrayConfig, PathLossParams, RicianParams, _check_fields, _mean_sources, _ranged,
    _require_at_most, sample_channels, sample_hppp,
)
from .harvesting import ARCHITECTURES, HarvesterCurve, _antenna_powers, _codeword_powers, _rectify, dft_codebook

__all__ = [
    "OutageConfig",
    "OutageResult",
    "run_outage",
    "sweep_density",
]


@dataclass(frozen=True)
class OutageConfig:
    """One Monte Carlo scenario: a device at the disk center harvesting from a
    Poisson field of ambient transmitters."""

    density: float = _ranged(at_least=0)
    disk_radius: float = _ranged(10.0, above=0)
    tx_power: float = _ranged(1.0, above=0)
    pathloss: PathLossParams = PathLossParams(exponent=2.7, fixed_loss_db=40.0, reference_distance=1.0)
    rician: RicianParams = RicianParams(10.0)
    target: float = _ranged(1e-3, above=0)
    n_antennas: int = _ranged(1, at_least=1)
    curve: HarvesterCurve = HarvesterCurve()
    trials: int = _ranged(10_000, at_least=1)
    seed: int = _ranged(0, at_least=0)

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


# Expected transmitters per trial above which a scenario is refused before
# anything is drawn; the default scenario has about 1,257.
MAX_MEAN_SOURCES = 1e7


def _require_fits(config: OutageConfig, archs: tuple[str, ...], density: float, name: str) -> None:
    """Refuse ``config`` at ``density``, set by ``name`` (a sweep passes its
    largest), if an array its trials allocate would pass a size limit: a
    trial's transmitters, the (trials, n_antennas) power stack (which bounds
    ``n_antennas`` before a float multiplies it), the rf codebook or a trial's channels."""
    m = config.n_antennas
    sources = _mean_sources(density, config.disk_radius)
    _require_at_most(sources, MAX_MEAN_SOURCES, f"{name} and disk_radius",
                     "expected transmitters per trial (density * pi * disk_radius**2)")
    _require_at_most(config.trials * m, MAX_ARRAY_ENTRIES, "trials and n_antennas",
                     "power entries (trials * n_antennas)")
    if "rf" in archs:
        _require_at_most(m * m, MAX_ARRAY_ENTRIES, "n_antennas", "rf codebook entries (n_antennas**2)")
    _require_at_most(sources * m, MAX_ARRAY_ENTRIES, f"{name}, disk_radius and n_antennas",
                     "expected channel entries per trial (density * pi * disk_radius**2 * n_antennas)")


def trial_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Counter-based per-trial seed; pure function of (seed, trial index)."""
    return np.random.SeedSequence([int(seed), int(index)])


def _harvest_trials(config: OutageConfig, archs: tuple[str, ...], count: int, seeds) -> np.ndarray:
    """Harvested power of ``count`` trials, one contiguous row per architecture.

    ``seeds`` yields the trials' seeds one at a time (a ``SeedSequence`` takes
    ~2 KB). A contiguous row reduces in ``_estimate`` as a lone array would.
    """
    antenna_powers = np.zeros((count, config.n_antennas))
    combined = np.zeros(count)
    codewords = dft_codebook(config.n_antennas) if "rf" in archs else None
    device, array = np.zeros(2), ArrayConfig(config.n_antennas)
    for t, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        positions = sample_hppp(config.density, config.disk_radius, rng)
        if positions.shape[0] == 0:
            continue
        h = sample_channels(positions, device, array, config.rician, config.pathloss, rng)
        antenna_powers[t] = _antenna_powers(h, config.tx_power)
        if codewords is not None:
            combined[t] = _codeword_powers(h, config.tx_power, codewords).max()
    return np.array([_rectify(antenna_powers, combined, arch, config.curve) for arch in archs])


def _estimate(harvested: np.ndarray, target: float) -> OutageResult:
    n = harvested.shape[0]
    p_hat = float(np.mean(harvested < target))
    half = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return OutageResult(p_hat, half, n, float(np.mean(harvested)))


def _harvest_split(configs: list[OutageConfig], archs: tuple[str, ...]) -> np.ndarray:
    """``_harvest_trials`` on all trials of every config (they share a trial
    count), as a ``(configs, archs, trials)`` array with contiguous rows.

    The trials are dealt round-robin across the CPUs (``fork_map``), each
    share harvesting its trials under every config. A worker's failure raises
    a ``RuntimeError`` that names its trials and the densities.
    """
    def work(share):
        harvested = [_harvest_trials(c, archs, len(share), (trial_seed(c.seed, t) for t in share)) for c in configs]
        return np.moveaxis(np.array(harvested), -1, 0)

    densities = ", ".join(str(c.density) for c in configs)
    trials = fork_map(work, configs[0].trials, lambda share: (
        f"outage trials {share[0]} to {share[-1]} step {share.step} at densities {densities}"))
    return np.ascontiguousarray(np.moveaxis(trials, 0, -1))


def run_outage(config: OutageConfig, archs) -> tuple[OutageResult, ...]:
    """Estimate the probability that harvested power misses the target.

    Returns one estimate per architecture in ``archs``, all from the same
    trials. Every trial owns a counter-based seed, so the result depends only
    on ``config`` and the architecture, not on how many CPUs share the trials.
    A scenario too large to allocate is refused before anything is drawn.
    """
    plan = _plan(archs)
    _require_fits(config, plan, config.density, "density")
    (harvested,) = _harvest_split([config], plan)
    return tuple(_estimate(row, config.target) for row in harvested)


def _density_seed(seed: int, density: float) -> int:
    bits = int(np.float64(density).view(np.uint64))
    return int(np.random.SeedSequence([int(seed), bits]).generate_state(1, dtype=np.uint64)[0])


def sweep_density(config: OutageConfig, densities, archs) -> list[tuple[OutageResult, ...]]:
    """Run the outage estimator once per density, in input order.

    Each entry is a tuple with one result per architecture in ``archs``, all
    from the same trials. Sub-seeds derive from each density's value, so
    repeated entries give identical results. Every density is checked, and
    the largest against the size limits, before the first trial.
    """
    values = [float(d) for d in densities]
    if not values:
        raise ValueError("densities must be non-empty")
    for d in values:
        if not 0.0 <= d < math.inf:
            raise ValueError(f"densities must be finite and >= 0, got {d}")
    plan = _plan(archs)
    _require_fits(config, plan, max(values), "densities")
    configs = [dataclasses.replace(config, density=d, seed=_density_seed(config.seed, d)) for d in values]
    return [tuple(_estimate(row, config.target) for row in harvested) for harvested in _harvest_split(configs, plan)]
