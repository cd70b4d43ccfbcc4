"""The deployment objective written out as it was computed before ``_Evaluator``.

One ambient-mixture term is added per component, and the device array is
rebuilt on each call. ``tests/test_deployment_properties.py`` pins these
functions bit for bit to ``_Evaluator``, so the other tests use them as an
oracle for the values the search reports. They check no area: callers pass
points inside it.
"""

import numpy as np

from wetplan.channel import path_gain, positions_to_array


def reference_ambient(amap, pts):
    """Ambient power (W) at each row of the (n, 2) array ``pts``."""
    total = np.zeros(pts.shape[0])
    for c in amap.components:
        d2 = (pts[:, 0] - c.center.x) ** 2 + (pts[:, 1] - c.center.y) ** 2
        total += c.weight * np.exp(-d2 / (2.0 * c.width**2))
    return total


def reference_contributions(xy_pbs, problem):
    """(n_pb, n_dev) received power from each beacon at each device."""
    tx = np.minimum(reference_ambient(problem.ambient_map, xy_pbs), problem.cap)
    dev = positions_to_array(problem.devices)
    dx = xy_pbs[:, 0, None] - dev[None, :, 0]
    dy = xy_pbs[:, 1, None] - dev[None, :, 1]
    gains = path_gain(np.hypot(dx, dy), problem.pathloss)
    return tx[:, None] * gains


def reference_objective(pbs, problem):
    """Worst-device received power from beacons at ``pbs`` and the index of that device."""
    received = reference_contributions(positions_to_array(pbs), problem).sum(axis=0)
    worst = int(np.argmin(received))
    return float(received[worst]), worst
