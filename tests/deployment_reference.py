"""The deployment objective written out as it was computed before ``_Evaluator``, and an exhaustive grid oracle.

One ambient-mixture term is added per component. ``tests/test_deployment_properties.py`` pins these
functions bit for bit to ``_Evaluator``, so the other tests use them as an
oracle for the values the search reports. They check no area: callers pass
points inside it. ``grid_oracle`` searches every beacon tuple on a grid with
them, the optimum that the search is measured against.
"""

import itertools
import math

import numpy as np

from wetplan.channel import path_gain
from wetplan.deployment import DeploymentSolution, _grid

# Candidate tuples above which ``grid_oracle`` refuses an instance before it builds the grid.
GRID_ORACLE_BUDGET = 10**7


def reference_ambient(amap, pts):
    """Ambient power (W) at each row of the (n, 2) array ``pts``."""
    total = np.zeros(pts.shape[0])
    for c in amap.components:
        d2 = (pts[:, 0] - c.center[0]) ** 2 + (pts[:, 1] - c.center[1]) ** 2
        total += c.weight * np.exp(-d2 / (2.0 * c.width**2))
    return total


def reference_contributions(xy_pbs, problem):
    """(n_pb, n_dev) received power from each beacon at each device."""
    tx = np.minimum(reference_ambient(problem.ambient_map, xy_pbs), problem.cap)
    dev = problem.devices
    dx = xy_pbs[:, 0, None] - dev[None, :, 0]
    dy = xy_pbs[:, 1, None] - dev[None, :, 1]
    gains = path_gain(np.hypot(dx, dy), problem.pathloss)
    return tx[:, None] * gains


def reference_objective(pbs, problem):
    """Worst-device received power from beacons at ``pbs`` and the index of that device."""
    received = reference_contributions(np.asarray(pbs, dtype=float), problem).sum(axis=0)
    worst = int(np.argmin(received))
    return float(received[worst]), worst


def grid_oracle(problem, resolution):
    """The best placement of ``problem.k`` beacons on a square grid at ``resolution``, exact at that resolution.

    Refuses, before it builds the grid, an instance with more than
    ``GRID_ORACLE_BUDGET`` candidate tuples.
    """
    area = problem.ambient_map.area
    nx = int(math.floor((area.x_max - area.x_min) / resolution + 1e-9)) + 1
    ny = int(math.floor((area.y_max - area.y_min) / resolution + 1e-9)) + 1
    tuples = math.comb(nx * ny + problem.k - 1, problem.k)
    if tuples > GRID_ORACLE_BUDGET:
        raise ValueError(f"{tuples} candidate tuples; the limit is {GRID_ORACLE_BUDGET}")
    grid = _grid(area.x_min + resolution * np.arange(nx), area.y_min + resolution * np.arange(ny))

    contrib = reference_contributions(grid, problem)
    best_value = -math.inf
    best_idx = None
    for head in itertools.combinations_with_replacement(range(len(grid)), problem.k - 1):
        base = contrib[list(head)].sum(axis=0) if head else np.zeros(contrib.shape[1])
        start = head[-1] if head else 0
        values = np.min(base[None, :] + contrib[start:], axis=1)
        j = int(np.argmax(values))
        if values[j] > best_value:
            best_value = float(values[j])
            best_idx = head + (start + j,)

    pbs = grid[list(best_idx)]
    value, worst = reference_objective(pbs, problem)
    powers = np.minimum(reference_ambient(problem.ambient_map, pbs), problem.cap)
    return DeploymentSolution(pbs, tuple(powers.tolist()), value, worst)
