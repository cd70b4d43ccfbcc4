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
together, one ``harvest`` call per architecture. ``run_trial`` is the same
path on one trial.

``run_outage`` splits an estimate's trials into contiguous blocks, one per
CPU the process may run on, and runs every block after the first in a forked
child. The trials' seeds do not depend on the block that runs them, so the
bytes do not depend on the CPU count.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import (
    ArrayConfig,
    PathLossParams,
    Position2D,
    RicianParams,
    _require_finite,
    sample_channels,
    sample_hppp,
)
from .harvesting import ARCHITECTURES, HarvesterCurve, _antenna_powers, _codeword_powers, _rectify, dft_codebook

__all__ = [
    "OutageConfig",
    "OutageResult",
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
    n_antennas: int = 1
    curve: HarvesterCurve = HarvesterCurve()
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        _require_finite(self, "density", "disk_radius", "tx_power", "target")
        if self.density < 0:
            raise ValueError(f"density must be >= 0, got {self.density}")
        if self.disk_radius <= 0:
            raise ValueError(f"disk_radius must be > 0, got {self.disk_radius}")
        if self.tx_power <= 0:
            raise ValueError(f"tx_power must be > 0, got {self.tx_power}")
        if self.target <= 0:
            raise ValueError(f"target must be > 0, got {self.target}")
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


def _plan(archs) -> tuple[str, ...]:
    """``archs`` as a tuple; errors on an empty list or an unknown name."""
    names = tuple(archs)
    if not names:
        raise ValueError("need at least one architecture")
    for arch in names:
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")
    return names


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
    device, array = Position2D(0.0, 0.0), ArrayConfig(config.n_antennas)
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


def run_trial(config: OutageConfig, seed, archs) -> tuple[float, ...]:
    """One Monte Carlo draw: sample the field, then the channels, then rectify.

    Returns one harvested power (W) per architecture in ``archs``, all from
    the same draws.
    """
    return tuple(float(v) for v in _harvest_trials(config, _plan(archs), 1, [seed])[:, 0])


def _estimate(harvested: np.ndarray, target: float) -> OutageResult:
    n = harvested.shape[0]
    p_hat = float(np.mean(harvested < target))
    half = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return OutageResult(p_hat, half, n, float(np.mean(harvested)))


def usable_cpus() -> int:
    """CPUs an estimate's trials are split across: those the process may run
    on, or 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block(config: OutageConfig, archs: tuple[str, ...], lo: int, hi: int) -> np.ndarray:
    """``_harvest_trials`` on trials ``lo`` to ``hi - 1`` of ``config``."""
    return _harvest_trials(config, archs, hi - lo, (trial_seed(config.seed, t) for t in range(lo, hi)))


def _fork_block(config: OutageConfig, archs: tuple[str, ...], lo: int, hi: int):
    """Fork a child that runs ``_block`` and writes it to a pipe; returns the
    child's pid and the pipe's read end.

    The child writes the block's float64 bytes and exits 0, or writes its
    error message and exits 1. It always leaves through ``os._exit``, so it
    never returns into the caller's code or runs its exit handlers.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                try:
                    pipe.write(_block(config, archs, lo, hi).tobytes())
                    code = 0
                except BaseException as err:
                    pipe.write(f"{type(err).__name__}: {err}".encode())
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _harvest_split(config: OutageConfig, archs: tuple[str, ...], cpus: int) -> np.ndarray:
    """``_harvest_trials`` on all of ``config``'s trials, split into
    ``min(cpus, config.trials)`` contiguous blocks.

    Block 0 runs in this process, after every other block has been forked to
    a child; the blocks are joined in trial order. A child's failure raises a
    ``RuntimeError`` that names the density and its trials. On any failure
    the children still running are killed, and every child is reaped.
    """
    workers = min(cpus, config.trials)
    bounds = [config.trials * k // workers for k in range(workers + 1)]
    children = []  # (pid, pipe, lo, hi) of each child not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append((*_fork_block(config, archs, lo, hi), lo, hi))
        blocks = [_block(config, archs, 0, bounds[1])]
        while children:
            pid, pipe, lo, hi = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                detail = data.decode(errors="replace") or f"exit status {code}"
                raise RuntimeError(
                    f"outage trials {lo} to {hi - 1} at density {config.density} failed in a worker process: {detail}"
                )
            blocks.append(np.frombuffer(data).reshape(len(archs), hi - lo))
    finally:
        if children:
            import signal

            for pid, pipe, _, _ in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return np.concatenate(blocks, axis=1)


def run_outage(config: OutageConfig, archs) -> tuple[OutageResult, ...]:
    """Estimate the probability that harvested power misses the target.

    Returns one estimate per architecture in ``archs``, all from the same
    trials. Every trial owns a counter-based seed, so the result depends only
    on ``config`` and the architecture, not on how many CPUs share the trials.
    """
    harvested = _harvest_split(config, _plan(archs), usable_cpus())
    return tuple(_estimate(row, config.target) for row in harvested)


def _density_seed(seed: int, density: float) -> int:
    bits = int(np.float64(density).view(np.uint64))
    return int(np.random.SeedSequence([int(seed), bits]).generate_state(1, dtype=np.uint64)[0])


def sweep_density(config: OutageConfig, densities, archs) -> list[tuple[OutageResult, ...]]:
    """Run the outage estimator once per density, in input order.

    Each entry is a tuple with one result per architecture in ``archs``, all
    from the same trials. Sub-seeds derive from each density's value, so
    repeated entries give identical results.
    """
    values = list(densities)
    if not values:
        raise ValueError("density list must be non-empty")
    results = []
    for d in values:
        sub = dataclasses.replace(config, density=float(d), seed=_density_seed(config.seed, float(d)))
        results.append(run_outage(sub, archs))
    return results
