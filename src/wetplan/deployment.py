"""Max-min placement of ambient-powered beacons over a fixed device layout.

The objective is the received RF power of the worst device; beacon transmit
power is capped by the local ambient field. The solver grows the deployment
one beacon at a time, combining a greedy coarse-grid placement of the new
beacon with anchored and uniform restarts, each refined by Nelder-Mead, and it
returns the best candidate ever evaluated. Per-stage random streams depend
only on (seed, stage), so the achieved objective never drops when k grows.

Every objective value comes from one ``_Evaluator`` per problem. It builds
the area bounds, the device coordinates and the ambient components into
arrays once, so each of the search's tens of thousands of evaluations is one
clip, one (beacons, components) mixture and one (beacons, devices) path-gain
broadcast, with the same bits as evaluating each component and beacon in turn.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .ambient import AmbientMap, Rect, mixture_columns, mixture_power, transmit_power_xy
from .channel import PathLossParams, Position2D, path_gain, positions_to_array

__all__ = [
    "DeploymentProblem",
    "SolverConfig",
    "DeploymentSolution",
    "received_power",
    "objective",
    "optimize",
    "grid_oracle",
]

GRID_ORACLE_BUDGET = 10**7


@dataclass(frozen=True)
class DeploymentProblem:
    """Devices to serve, the ambient field, and the beacon/channel parameters."""

    devices: tuple[Position2D, ...]
    ambient_map: AmbientMap
    k: int
    cap: float = 1.0
    pathloss: PathLossParams = PathLossParams(exponent=3.0, fixed_loss_db=0.0, reference_distance=1.0)

    def __post_init__(self):
        devices = tuple(
            d if isinstance(d, Position2D) else Position2D(float(d[0]), float(d[1])) for d in self.devices
        )
        object.__setattr__(self, "devices", devices)
        if not devices:
            raise ValueError("at least one device is required")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.cap <= 0:
            raise ValueError(f"cap must be > 0, got {self.cap}")
        self.ambient_map.area.require_inside(positions_to_array(devices), "device")

    def device_xy(self) -> np.ndarray:
        return positions_to_array(self.devices)


@dataclass(frozen=True)
class SolverConfig:
    """Multi-start direct-search budget knobs."""

    n_starts: int = 8
    greedy_grid: int = 24
    nm_max_iter: int = 250
    xatol: float = 1e-3
    fatol: float = 1e-12

    def __post_init__(self):
        if self.n_starts < 0 or self.greedy_grid < 2 or self.nm_max_iter < 1:
            raise ValueError("invalid solver configuration")


@dataclass(frozen=True)
class DeploymentSolution:
    """Optimized beacon placement and the achieved worst-device received power."""

    pb_positions: tuple[Position2D, ...]
    per_pb_tx_power: tuple[float, ...]
    min_received_power: float
    worst_device_index: int


class _Evaluator:
    """One problem's arrays, built once, and the objective on (n, 2) beacon positions."""

    def __init__(self, problem: DeploymentProblem):
        area = problem.ambient_map.area
        self.lower = np.array([area.x_min, area.y_min])
        self.upper = np.array([area.x_max, area.y_max])
        self.device_x, self.device_y = problem.device_xy().T.copy()
        self.columns = mixture_columns(problem.ambient_map)
        self.cap = problem.cap
        self.pathloss = problem.pathloss

    def clamp(self, xy: np.ndarray) -> np.ndarray:
        """A copy of ``xy`` as (n, 2) points clamped into the area."""
        return xy.reshape(-1, 2).clip(self.lower, self.upper)

    def tx_power(self, xy: np.ndarray) -> np.ndarray:
        """Ambient-limited transmit power of a beacon at each row of ``xy``."""
        return np.minimum(mixture_power(xy[:, 0], xy[:, 1], self.columns), self.cap)

    def contributions(self, xy: np.ndarray) -> np.ndarray:
        """(n_pb, n_dev) matrix of received power from each beacon at each device."""
        distance = np.hypot(xy[:, 0, None] - self.device_x, xy[:, 1, None] - self.device_y)
        return self.tx_power(xy)[:, None] * path_gain(distance, self.pathloss)

    def objective(self, xy: np.ndarray) -> tuple[float, int]:
        """Worst-device received power and the index of that device."""
        received = self.contributions(xy).sum(axis=0)
        worst = int(received.argmin())
        return float(received[worst]), worst


def received_power(device, pbs, problem: DeploymentProblem) -> float:
    """Received RF power (W) at ``device`` from beacons at ``pbs`` (powers add).

    Adds the beacons in order with scalar ``math.hypot`` and ``path_gain``;
    ``_Evaluator.contributions`` differs from this in the last bits.
    """
    dev = device if isinstance(device, Position2D) else Position2D(float(device[0]), float(device[1]))
    xy = positions_to_array(pbs)
    tx = transmit_power_xy(problem.ambient_map, xy, problem.cap)
    total = 0.0
    for (x, y), p in zip(xy.tolist(), tx.tolist()):
        total += p * path_gain(math.hypot(x - dev.x, y - dev.y), problem.pathloss)
    return total


def objective(pbs, problem: DeploymentProblem) -> tuple[float, int]:
    """Worst-device received power and the index of that device; errors outside the area."""
    xy = positions_to_array(pbs)
    problem.ambient_map.area.require_inside(xy)
    return _Evaluator(problem).objective(xy)


def _build_solution(xy: np.ndarray, evaluator: _Evaluator) -> DeploymentSolution:
    value, worst = evaluator.objective(xy)
    positions = tuple(Position2D(float(x), float(y)) for x, y in xy)
    powers = tuple(float(p) for p in evaluator.tx_power(xy))
    return DeploymentSolution(positions, powers, value, worst)


def _grid(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Every (x, y) pair as rows, x-major: (xs[0], ys[0]), (xs[0], ys[1]), ..."""
    return np.column_stack([np.repeat(xs, ys.size), np.tile(ys, xs.size)])


def _candidate_points(area: Rect, per_axis: int, anchors: np.ndarray) -> np.ndarray:
    """Coarse ``per_axis`` x ``per_axis`` grid over the area, followed by ``anchors``."""
    xs = np.linspace(area.x_min, area.x_max, per_axis)
    ys = np.linspace(area.y_min, area.y_max, per_axis)
    return np.vstack([_grid(xs, ys), anchors])


class _BestTracker:
    """Keeps the best (clamped) candidate seen across all solver evaluations."""

    def __init__(self, evaluator: _Evaluator):
        self.evaluator = evaluator
        self.best_value = -math.inf
        self.best_xy: np.ndarray | None = None

    def evaluate(self, flat: np.ndarray) -> float:
        xy = self.evaluator.clamp(flat)
        value, _ = self.evaluator.objective(xy)
        if value > self.best_value:
            self.best_value = value
            self.best_xy = xy
        return -value


def optimize(problem: DeploymentProblem, solver: SolverConfig | None = None, seed: int = 0) -> DeploymentSolution:
    """Place ``problem.k`` beacons to maximize the worst device's received power.

    Reproducible per seed; the returned objective dominates every candidate
    the search evaluated, including all restart points.
    """
    solver = solver or SolverConfig()
    evaluator = _Evaluator(problem)
    area = problem.ambient_map.area
    device_xy = problem.device_xy()
    peaks = evaluator.clamp(np.column_stack(evaluator.columns[:2]))
    # Greedy candidates: the grid, the devices and the ambient peaks.
    candidates = evaluator.clamp(_candidate_points(area, solver.greedy_grid, np.vstack([device_xy, peaks])))
    cand_contrib = evaluator.contributions(candidates)
    jitter = 0.05 * math.hypot(area.x_max - area.x_min, area.y_max - area.y_min)

    prev_xy = np.zeros((0, 2))
    prev_contrib = np.zeros(device_xy.shape[0])
    tracker = None
    for stage in range(1, problem.k + 1):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), stage]))
        tracker = _BestTracker(evaluator)

        # Greedy start: best coarse candidate for the new beacon, keeping the
        # previous stage's beacons where they are.
        greedy_values = np.min(prev_contrib[None, :] + cand_contrib, axis=1)
        greedy_point = candidates[int(np.argmax(greedy_values))]
        starts = [np.vstack([prev_xy, greedy_point[None, :]])]

        for _ in range(solver.n_starts):
            rows = []
            for _ in range(stage):
                mode = rng.integers(3)
                if mode == 0:
                    base = device_xy[rng.integers(device_xy.shape[0])]
                    rows.append(base + rng.normal(0.0, jitter, size=2))
                elif mode == 1:
                    base = peaks[rng.integers(peaks.shape[0])]
                    rows.append(base + rng.normal(0.0, jitter, size=2))
                else:
                    rows.append(
                        [
                            rng.uniform(area.x_min, area.x_max),
                            rng.uniform(area.y_min, area.y_max),
                        ]
                    )
            starts.append(evaluator.clamp(np.array(rows)))

        max_iter = solver.nm_max_iter * 2 * stage
        for start in starts:
            flat = start.ravel()
            tracker.evaluate(flat)
            minimize(
                tracker.evaluate,
                flat,
                method="Nelder-Mead",
                options={
                    "maxiter": max_iter,
                    "maxfev": max_iter,
                    "xatol": solver.xatol,
                    "fatol": solver.fatol,
                },
            )
        prev_xy = tracker.best_xy
        prev_contrib = evaluator.contributions(prev_xy).sum(axis=0)

    return _build_solution(prev_xy, evaluator)


def grid_oracle(problem: DeploymentProblem, resolution: float) -> DeploymentSolution:
    """Exhaustive search over beacon tuples on a square grid at ``resolution``.

    Exact at the grid resolution; refuses instances with more than 10^7
    candidate tuples.
    """
    if resolution <= 0:
        raise ValueError(f"resolution must be > 0, got {resolution}")
    area = problem.ambient_map.area
    nx = int(math.floor((area.x_max - area.x_min) / resolution + 1e-9)) + 1
    ny = int(math.floor((area.y_max - area.y_min) / resolution + 1e-9)) + 1
    xs = area.x_min + resolution * np.arange(nx)
    ys = area.y_min + resolution * np.arange(ny)
    grid = _grid(xs, ys)
    n_points = grid.shape[0]

    n_tuples = math.comb(n_points + problem.k - 1, problem.k)
    if n_tuples > GRID_ORACLE_BUDGET:
        raise ValueError(
            f"combinatorial budget exceeded: {n_tuples} candidate tuples for "
            f"{n_points} grid points and k={problem.k} (limit {GRID_ORACLE_BUDGET})"
        )

    evaluator = _Evaluator(problem)
    contrib = evaluator.contributions(grid)
    best_value = -math.inf
    best_idx: tuple[int, ...] | None = None
    for head in itertools.combinations_with_replacement(range(n_points), problem.k - 1):
        base = contrib[list(head)].sum(axis=0) if head else np.zeros(contrib.shape[1])
        start = head[-1] if head else 0
        values = np.min(base[None, :] + contrib[start:], axis=1)
        j = int(np.argmax(values))
        if values[j] > best_value:
            best_value = float(values[j])
            best_idx = head + (start + j,)

    return _build_solution(grid[list(best_idx)], evaluator)
