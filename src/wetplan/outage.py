"""Monte Carlo estimation of ambient-harvesting outage versus transmitter density.

Each trial owns a seed derived from (scenario seed, trial index), so estimates
are reproducible and independent of execution order. Density
sweeps derive per-density sub-seeds from the density value itself, so
duplicate densities produce identical results.

Architectures share draws (common random numbers): a trial samples its field
and channels once and rectifies that snapshot under every architecture asked
for. The sub-seeds do not depend on the architecture, so each architecture's
estimate is the one it would get on its own.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ArrayConfig, PathLossParams, Position2D, RicianParams, sample_channels, sample_hppp
from .harvesting import ARCHITECTURES, HarvesterCurve, dft_codebook, harvest_architecture

__all__ = [
    "OutageConfig",
    "OutageResult",
    "field_harvest",
    "run_trial",
    "run_outage",
    "sweep_density",
]


@dataclass(frozen=True)
class OutageConfig:
    """One Monte Carlo scenario: a device at the disk center harvesting from a
    Poisson field of ambient transmitters."""

    density: float
    disk_radius: float = 10.0
    tx_power: float = 1.0
    pathloss: PathLossParams = PathLossParams(exponent=2.7, fixed_loss_db=40.0, reference_distance=1.0)
    rician: RicianParams = RicianParams(10.0)
    target: float = 1e-3
    arch: str = "single"
    n_antennas: int = 1
    curve: HarvesterCurve = HarvesterCurve()
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.density < 0:
            raise ValueError(f"density must be >= 0, got {self.density}")
        if self.disk_radius <= 0:
            raise ValueError(f"disk_radius must be > 0, got {self.disk_radius}")
        if self.tx_power <= 0:
            raise ValueError(f"tx_power must be > 0, got {self.tx_power}")
        if self.target <= 0:
            raise ValueError(f"target must be > 0, got {self.target}")
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}; expected one of {ARCHITECTURES}")
        if self.n_antennas < 1:
            raise ValueError(f"n_antennas must be >= 1, got {self.n_antennas}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OutageResult:
    outage_estimate: float
    ci95_halfwidth: float
    trials: int
    mean_harvested: float


# The rf codebook depends only on the antenna count, so a sweep builds it once.
_codebook = functools.lru_cache(dft_codebook)


def _plan(config: OutageConfig, archs) -> tuple[str, ...]:
    """The architectures to rectify under: ``config.arch`` when ``archs`` is None."""
    names = (config.arch,) if archs is None else tuple(archs)
    if not names:
        raise ValueError("need at least one architecture")
    for arch in names:
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")
    return names


def _rectify(config: OutageConfig, positions, seed, archs: tuple[str, ...]) -> tuple[float, ...]:
    """Draw the channels from a transmitter layout once; harvest under each architecture."""
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return (0.0,) * len(archs)
    h = sample_channels(
        pts,
        Position2D(0.0, 0.0),
        ArrayConfig(config.n_antennas),
        config.rician,
        config.pathloss,
        seed,
    )
    codebook = _codebook(config.n_antennas) if "rf" in archs else None
    return tuple(harvest_architecture((h, config.tx_power), arch, config.curve, codebook) for arch in archs)


def field_harvest(config: OutageConfig, positions, seed) -> float:
    """Harvested power (W) for a fixed transmitter layout around the device."""
    return _rectify(config, positions, seed, _plan(config, None))[0]


def trial_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Counter-based per-trial seed; pure function of (seed, trial index)."""
    return np.random.SeedSequence([int(seed), int(index)])


def run_trial(config: OutageConfig, seed, archs=None):
    """One Monte Carlo draw: sample the field, then the channels, then rectify.

    Returns the harvested power under ``config.arch``. Given ``archs``, returns
    a tuple with one harvested power per architecture, all from the same draws.
    """
    names = _plan(config, archs)
    rng = np.random.default_rng(seed)
    positions = sample_hppp(config.density, config.disk_radius, rng)
    harvested = _rectify(config, positions, rng, names)
    return harvested[0] if archs is None else harvested


def _estimate(harvested: np.ndarray, target: float) -> OutageResult:
    n = harvested.shape[0]
    p_hat = float(np.mean(harvested < target))
    half = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return OutageResult(p_hat, half, n, float(np.mean(harvested)))


def run_outage(config: OutageConfig, archs=None):
    """Estimate the probability that harvested power misses the target.

    Returns the estimate for ``config.arch``. Given ``archs``, returns a tuple
    with one estimate per architecture, all from the same trials. Every trial
    owns a counter-based seed, so the result depends only on ``config``.
    """
    names = _plan(config, archs)
    # One contiguous row per architecture, so each row reduces as a lone array would.
    harvested = np.empty((len(names), config.trials))
    for t in range(config.trials):
        harvested[:, t] = run_trial(config, trial_seed(config.seed, t), names)
    results = tuple(_estimate(row, config.target) for row in harvested)
    return results[0] if archs is None else results


def _density_seed(seed: int, density: float) -> int:
    bits = int(np.float64(density).view(np.uint64))
    return int(np.random.SeedSequence([int(seed), bits]).generate_state(1, dtype=np.uint64)[0])


def sweep_density(config: OutageConfig, densities, archs=None) -> list:
    """Run the outage estimator once per density, in input order.

    Sub-seeds derive from each density's value, so repeated entries give
    identical results. Given ``archs``, each entry is a tuple with one result
    per architecture, all from the same trials.
    """
    values = list(densities)
    if not values:
        raise ValueError("density list must be non-empty")
    results = []
    for d in values:
        sub = dataclasses.replace(config, density=float(d), seed=_density_seed(config.seed, float(d)))
        results.append(run_outage(sub, archs))
    return results
