"""Max-min placement of ambient-powered beacons over a fixed device layout.

The objective is the received RF power of the worst device; beacon transmit
power is capped by the local ambient field. The solver grows the deployment
one beacon at a time, combining a greedy coarse-grid placement of the new
beacon with anchored and uniform restarts, and it returns the best candidate
ever evaluated. Per-stage random streams depend only on (seed, stage), so the
achieved objective never drops when k grows.

The starts of a stage are refined together by one lockstep Nelder–Mead
(``_nelder_mead``) that mirrors scipy's ``minimize(method="Nelder-Mead")``
step for step: each start evaluates the points scipy would evaluate from it
alone, but each step batches those of all live starts into one call for the
reflections, one for the expansion or contraction points and one for any
shrinks. The step is kept to few numpy calls: one comparison classifies every
start's step, one masked write replaces the worst vertices, the budget mask
is built only for a batch in which some start runs short, and the stacks are
compacted only when a start leaves.

Every objective value comes from one ``_Evaluator`` per problem. It builds
the area bounds, the device coordinates and the ambient components into
arrays once, so each batch of layouts is one clip, one (beacons, components)
mixture and one (beacons, devices) path-gain broadcast, with the same bits as
evaluating each layout, component and beacon in turn.

Devices and beacon layouts are (n, 2) arrays and one device an (x, y) pair;
``channel._as_xy`` coerces and checks each where it enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientMap, Rect, mixture_columns, mixture_power
from .channel import (
    MAX_ARRAY_ENTRIES, PathLossParams, _as_xy, _check_fields, _path_gain, _ranged, _require_at_most, _require_integer,
    path_gain,
)

__all__ = [
    "DeploymentProblem",
    "SolverConfig",
    "DeploymentSolution",
    "received_power",
    "optimize",
]

# Entries of the greedy candidate table (solver.greedy_grid**2 points times
# the devices) above which ``optimize`` refuses a scenario before it builds
# anything; the default table has 576 * 8 = 4,608.
MAX_GREEDY_ENTRIES = 10**6
_MAX_NM_ITER = 10**18  # Nelder–Mead iterations per start and stage; ``_nelder_mead`` counts in int64


@dataclass(frozen=True, eq=False)  # array fields: == and hash() go by identity
class DeploymentProblem:
    """Devices to serve (an (n, 2) array), the ambient field, and the beacon/channel parameters."""

    devices: np.ndarray
    ambient_map: AmbientMap
    k: int = _ranged(at_least=1)
    cap: float = _ranged(1.0, above=0)
    pathloss: PathLossParams = PathLossParams(exponent=3.0, fixed_loss_db=0.0, reference_distance=1.0)

    def __post_init__(self):
        devices = _as_xy("devices", self.devices).copy()  # the caller's array cannot move them past the checks
        devices.flags.writeable = False
        object.__setattr__(self, "devices", devices)
        if not len(devices):
            raise ValueError("devices must hold at least one device")
        _check_fields(self)
        self.ambient_map.area.require_inside(devices, "devices")


@dataclass(frozen=True)
class SolverConfig:
    """Multi-start direct-search budget knobs."""

    n_starts: int = _ranged(8, at_least=0)
    greedy_grid: int = _ranged(24, at_least=2)
    nm_max_iter: int = _ranged(250, at_least=1)

    __post_init__ = _check_fields


@dataclass(frozen=True, eq=False)  # array fields: == and hash() go by identity
class DeploymentSolution:
    """Optimized beacon placement (a (k, 2) array) and the achieved worst-device received power."""

    pb_positions: np.ndarray
    per_pb_tx_power: tuple[float, ...]
    min_received_power: float
    worst_device_index: int


class _Evaluator:
    """One problem's arrays, built once, and the objective on (n, 2) beacon positions."""

    def __init__(self, problem: DeploymentProblem):
        area = problem.ambient_map.area
        self.lower = np.array([area.x_min, area.y_min])
        self.upper = np.array([area.x_max, area.y_max])
        self.device_x, self.device_y = problem.devices.T.copy()
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
        # ``hypot`` is never negative, so the gain skips ``path_gain``'s check.
        distance = np.hypot(xy[:, 0, None] - self.device_x, xy[:, 1, None] - self.device_y)
        return self.tx_power(xy)[:, None] * _path_gain(distance, self.pathloss)

    def objective(self, xy: np.ndarray) -> tuple[float, int]:
        """Worst-device received power and the index of that device."""
        received = self.contributions(xy).sum(axis=0)
        worst = int(received.argmin())
        return float(received[worst]), worst

    def values(self, xy: np.ndarray) -> np.ndarray:
        """Worst-device received power of each layout in the (B, k, 2) stack ``xy``."""
        contributions = self.contributions(xy.reshape(-1, 2))
        return contributions.reshape(*xy.shape[:2], self.device_x.size).sum(axis=1).min(axis=1)


def received_power(device, pbs, problem: DeploymentProblem) -> float:
    """Received RF power (W) at the (x, y) ``device`` from beacons at the (n, 2) ``pbs`` (powers add).

    Transmit powers come from ``_Evaluator.tx_power``, as in the objective; a
    beacon outside the area is an error. The beacons are added in order with
    scalar ``math.hypot`` and ``path_gain``, unlike ``_Evaluator.contributions``,
    so the two differ in the last bits.
    """
    dx, dy = _as_xy("device", device, pair=True).tolist()
    xy = _as_xy("pbs", pbs)
    problem.ambient_map.area.require_inside(xy, "beacon")
    tx = _Evaluator(problem).tx_power(xy)
    total = 0.0
    for (x, y), p in zip(xy.tolist(), tx.tolist()):
        total += p * path_gain(math.hypot(x - dx, y - dy), problem.pathloss)
    return total


def _build_solution(xy: np.ndarray, evaluator: _Evaluator) -> DeploymentSolution:
    value, worst = evaluator.objective(xy)
    powers = tuple(float(p) for p in evaluator.tx_power(xy))
    return DeploymentSolution(xy, powers, value, worst)


def _grid(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Every (x, y) pair as rows, x-major: (xs[0], ys[0]), (xs[0], ys[1]), ..."""
    return np.column_stack([np.repeat(xs, ys.size), np.tile(ys, xs.size)])


def _candidate_points(area: Rect, per_axis: int, anchors: np.ndarray) -> np.ndarray:
    """Coarse ``per_axis`` x ``per_axis`` grid over the area, followed by ``anchors``."""
    xs = np.linspace(area.x_min, area.x_max, per_axis)
    ys = np.linspace(area.y_min, area.y_max, per_axis)
    return np.vstack([_grid(xs, ys), anchors])


# Nelder–Mead coefficients (reflection, expansion, contraction, shrink) and
# stop tolerances, as in scipy's non-adaptive ``_minimize_neldermead``.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_XATOL, _FATOL = 1e-3, 1e-12
# The columns of ``fsim`` that the reflection is compared with, in scipy's
# order, and the second point of each step kind (expansion, reflection,
# outside and inside contraction) as a * xbar + b * worst. Adding the negated
# product gives the same bits as scipy's subtraction; the reflection row is
# never evaluated.
_CASCADE = np.array([0, -2, -1])
_A = np.array([1 + _RHO * _CHI, 1 + _RHO, 1 + _PSI * _RHO, 1 - _PSI], dtype=float)
_B = np.array([-_RHO * _CHI, -_RHO, -_PSI * _RHO, _PSI], dtype=float)
_EXPAND, _REFLECT, _OUTSIDE, _INSIDE = range(4)


def _nelder_mead(
    evaluator: _Evaluator, starts: np.ndarray, max_iter: int, max_fev: int, xatol: float = _XATOL, fatol: float = _FATOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nelder–Mead on ``-objective(clamp(x))`` from each (k, 2) layout of ``starts``, in lockstep.

    Each start follows scipy 1.17.1's ``_minimize_neldermead`` (no bounds)
    step for step, with its float expressions, sorts and stop tests, so it
    evaluates the same points in the same order; a start leaves the stack when
    it converges, reaches ``max_fev`` (the call that would exceed it is not
    made) or reaches ``max_iter``. A step evaluates the reflections of all
    live starts in one call, then the expansion or contraction points of those
    that need one, then the vertices of those that shrink.

    Returns, per start: the best value reached, the clamped layout where it
    was first reached, the number of evaluations and scipy's ``nit``.
    """
    n_starts, k, _ = starts.shape
    n = 2 * k
    best = np.full(n_starts, -np.inf)
    best_xy = starts.copy()
    nfev = np.zeros(n_starts, dtype=int)
    nit = np.ones(n_starts, dtype=int)
    cut = np.zeros(n_starts, dtype=bool)  # the start's last step was cut short by max_fev

    def evaluate(ids: np.ndarray, vertices: np.ndarray) -> np.ndarray:
        """``-objective`` at the (B, m, n) ``vertices`` of starts ``ids`` in order, up to ``max_fev``.

        Returns the (B, m) values, ``inf`` where no call was made. The mask of
        calls made is built only when some start has fewer calls left than
        ``m``; such a start is marked in ``cut``.
        """
        m = vertices.shape[1]
        xy = evaluator.clamp(vertices).reshape(-1, m, k, 2)
        left = max_fev - nfev[ids]
        if (left >= m).all():
            values = evaluator.values(xy.reshape(-1, k, 2)).reshape(-1, m)
            nfev[ids] += m
        else:
            count = np.minimum(left, m)
            made = np.arange(m) < count[:, None]
            values = np.full(made.shape, -np.inf)
            values[made] = evaluator.values(xy[made])
            nfev[ids] += count
            cut[ids[~made[:, -1]]] = True
        if m == 1:
            top, at = values[:, 0], xy[:, 0]
        else:
            first = values.argmax(axis=1)
            rows = np.arange(ids.size)
            top, at = values[rows, first], xy[rows, first]
        better = top > best[ids]
        if better.any():
            best[ids[better]] = top[better]
            best_xy[ids[better]] = at[better]
        return -values

    def ordered(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = fsim.argsort(axis=1)
        rows = np.arange(order.shape[0])[:, None]
        return sim[rows, order], fsim[rows, order]

    # Initial simplex: the start, then each coordinate in turn grown by 5% (or
    # set to 0.00025 where it is zero).
    x0 = starts.reshape(n_starts, n)
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    sim[:, np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    ids = np.arange(n_starts)
    fsim = evaluate(ids, sim)
    cut[:] = False  # scipy counts its first iteration even when the simplex is cut short
    sim, fsim = ordered(*ordered(sim, fsim))  # scipy sorts twice here; argsort breaks ties unstably

    it = 1  # scipy's ``nit`` of every live start
    while ids.size:
        # Leave at max_iter, at max_fev, then on convergence; the stacks are
        # only compacted when some start leaves.
        if it >= max_iter:
            nit[ids] = it
            break
        stay = nfev[ids] < max_fev
        if not stay.all():
            nit[ids[~stay]] = it
            ids, sim, fsim = ids[stay], sim[stay], fsim[stay]
            continue
        # scipy's max of |fsim[0] - fsim[1:]| is its last term: fsim is sorted,
        # and rounding keeps the order of the differences.
        close = fsim[:, -1] - fsim[:, 0] <= fatol
        if close.any():
            done = close.copy()
            done[close] = np.abs(sim[close, 1:] - sim[close, :1]).max(axis=(1, 2)) <= xatol
            if done.any():
                nit[ids[done]] = it
                ids, sim, fsim = ids[~done], sim[~done], fsim[~done]
                continue

        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst = sim[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = evaluate(ids, xr[:, None])[:, 0]
        # scipy's cascade: expand if fxr < fsim[0], else reflect if fxr <
        # fsim[-2], else contract outside if fxr < fsim[-1], else inside.
        below = fxr[:, None] < fsim[:, _CASCADE]
        kind = np.where(below.any(axis=1), below.argmax(axis=1), _INSIDE)
        x2 = _A[kind, None] * xbar + _B[kind, None] * worst
        f2 = fxr.copy()
        second = (kind != _REFLECT).nonzero()[0]
        f2[second] = evaluate(ids[second], x2[second, None])[:, 0]

        # The second point replaces the worst vertex when it beats fxr
        # (expansion), ties or beats it (outside) or beats the worst vertex
        # (inside); an expansion that does not keeps the reflection, and a
        # contraction that does not shrinks the simplex towards its best vertex.
        take2 = np.where(kind == _INSIDE, f2 < fsim[:, -1], np.where(kind == _OUTSIDE, f2 <= fxr, f2 < fxr))
        replace = (kind < _OUTSIDE) | take2
        np.copyto(sim[:, -1], np.where(take2[:, None], x2, xr), where=replace[:, None])
        np.copyto(fsim[:, -1], np.where(take2, f2, fxr), where=replace)
        shrink = (~replace).nonzero()[0]
        if shrink.size:
            lowest = sim[shrink, :1]
            sim[shrink, 1:] = lowest + _SIGMA * (sim[shrink, 1:] - lowest)
            fsim[shrink, 1:] = evaluate(ids[shrink], sim[shrink, 1:])

        it += 1
        sim, fsim = ordered(sim, fsim)

    return best, best_xy, nfev, nit - cut


def optimize(problem: DeploymentProblem, solver: SolverConfig | None = None, seed: int = 0) -> DeploymentSolution:
    """Place ``problem.k`` beacons to maximize the worst device's received power.

    Reproducible per seed; the returned objective dominates every candidate
    the search evaluated, including all restart points. A greedy candidate
    table, or a last stage's initial simplices, too large to allocate, or a
    last stage's iteration budget past the solver's int64 counters, is
    refused before anything is built.
    """
    _require_integer("seed", seed, 0)
    solver = solver or SolverConfig()
    grid, k, starts = solver.greedy_grid, problem.k, solver.n_starts
    n_devices, n_components = len(problem.devices), len(problem.ambient_map.components)
    _require_at_most(grid * grid * n_devices, MAX_GREEDY_ENTRIES, f"solver.greedy_grid = {grid} and {n_devices} "
                     "devices", "greedy candidate entries (solver.greedy_grid**2 * devices)")
    # Stage k evaluates (1 + n_starts) * (2k + 1) layouts of k beacons at once,
    # each beacon against every device and every ambient component.
    _require_at_most((1 + starts) * (2 * k + 1) * k * max(n_devices, n_components), MAX_ARRAY_ENTRIES,
                     f"k = {k}, solver.n_starts = {starts}, {n_devices} devices and {n_components} map.components",
                     "simplex entries ((1 + solver.n_starts) * (2k + 1) * k * max(devices, map.components))")
    _require_at_most(solver.nm_max_iter * 2 * k, _MAX_NM_ITER, f"solver.nm_max_iter = {solver.nm_max_iter} and "
                     f"k = {k}", "Nelder–Mead iterations per start in the last stage (solver.nm_max_iter * 2k)")
    evaluator = _Evaluator(problem)
    area = problem.ambient_map.area
    device_xy = problem.devices
    peaks = evaluator.clamp(np.column_stack(evaluator.columns[:2]))
    # Greedy candidates: the grid, the devices and the ambient peaks.
    candidates = evaluator.clamp(_candidate_points(area, solver.greedy_grid, np.vstack([device_xy, peaks])))
    cand_contrib = evaluator.contributions(candidates)
    jitter = 0.05 * math.hypot(area.x_max - area.x_min, area.y_max - area.y_min)

    prev_xy = np.zeros((0, 2))
    prev_contrib = np.zeros(device_xy.shape[0])
    for stage in range(1, problem.k + 1):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), stage]))

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
        best, best_xy, _, _ = _nelder_mead(evaluator, np.stack(starts), max_iter, max_iter)
        # The first start to reach the best value, at its first evaluation there.
        prev_xy = best_xy[int(np.argmax(best))]
        prev_contrib = evaluator.contributions(prev_xy).sum(axis=0)

    return _build_solution(prev_xy, evaluator)

