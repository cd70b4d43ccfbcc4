"""The deployment evaluator against the per-component, per-call code it replaced.

The reference functions below are copies of the objective as it was computed
before the evaluator existed: one ambient-mixture term added per component,
the device array rebuilt and the points clamped column by column on each
call. Every comparison is on the bytes, so a change of rounding fails here.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from wetplan.ambient import AmbientMap, GaussianComponent, Rect, ambient_power_xy
from wetplan.channel import PathLossParams, Position2D, path_gain, positions_to_array
from wetplan.deployment import DeploymentProblem, _BestTracker, _candidate_points, _Evaluator, _grid

# Derandomized so the suite gives the same verdict on every run. A failure is
# reported as found: shrinking these composite maps takes minutes.
PROPERTY = settings(
    max_examples=150, deadline=None, derandomize=True, database=None, phases=(Phase.explicit, Phase.generate)
)


def reference_clamp(flat, area):
    out = np.array(flat, dtype=float, copy=True).reshape(-1, 2)
    out[:, 0] = np.clip(out[:, 0], area.x_min, area.x_max)
    out[:, 1] = np.clip(out[:, 1], area.y_min, area.y_max)
    return out


def reference_ambient(amap, pts):
    total = np.zeros(pts.shape[0])
    for c in amap.components:
        d2 = (pts[:, 0] - c.center.x) ** 2 + (pts[:, 1] - c.center.y) ** 2
        total += c.weight * np.exp(-d2 / (2.0 * c.width**2))
    return total


def reference_contributions(xy_pbs, problem):
    tx = np.minimum(reference_ambient(problem.ambient_map, xy_pbs), problem.cap)
    dev = positions_to_array(problem.devices)
    dx = xy_pbs[:, 0, None] - dev[None, :, 0]
    dy = xy_pbs[:, 1, None] - dev[None, :, 1]
    gains = path_gain(np.hypot(dx, dy), problem.pathloss)
    return tx[:, None] * gains


def reference_objective(xy_pbs, problem):
    received = reference_contributions(xy_pbs, problem).sum(axis=0)
    worst = int(np.argmin(received))
    return float(received[worst]), worst


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


def scaled(area, u, v):
    """The point at fractions ``(u, v)`` of the area's extent from its lower corner."""
    return area.x_min + u * (area.x_max - area.x_min), area.y_min + v * (area.y_max - area.y_min)


@st.composite
def problems(draw):
    x_min, y_min = draw(st.floats(-50.0, 10.0)), draw(st.floats(-50.0, 10.0))
    area = Rect(x_min, y_min, x_min + draw(st.floats(1.0, 80.0)), y_min + draw(st.floats(1.0, 80.0)))
    # Centres may lie up to half an extent outside the area; devices lie inside.
    centres = draw(st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), min_size=1, max_size=12))
    components = tuple(
        GaussianComponent(draw(st.floats(0.0, 5.0)), Position2D(*scaled(area, u, v)), draw(st.floats(0.2, 40.0)))
        for u, v in centres
    )
    unit = st.floats(0.0, 1.0)
    devices = tuple(
        Position2D(min(max(x, area.x_min), area.x_max), min(max(y, area.y_min), area.y_max))
        for x, y in (scaled(area, u, v) for u, v in draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=10)))
    )
    pathloss = PathLossParams(draw(st.floats(1.5, 4.5)), draw(st.floats(0.0, 40.0)), draw(st.floats(0.1, 3.0)))
    cap = draw(st.floats(0.05, 6.0))
    return DeploymentProblem(devices, AmbientMap(components, area), k=1, cap=cap, pathloss=pathloss)


@st.composite
def beacon_points(draw, area):
    """(n, 2) points, n in 1..9, inside the area and up to half an extent outside it."""
    n = draw(st.integers(1, 9))
    fractions = st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
    return np.array([scaled(area, u, v) for u, v in draw(st.lists(fractions, min_size=n, max_size=n))])


@PROPERTY
@given(st.data())
def test_evaluator_matches_the_per_component_loop_bit_for_bit(data):
    problem = data.draw(problems())
    area = problem.ambient_map.area
    flat = data.draw(beacon_points(area)).ravel()
    evaluator = _Evaluator(problem)

    clamped = reference_clamp(flat, area)
    assert bits(evaluator.clamp(flat)) == bits(clamped)
    assert bits(evaluator.contributions(clamped)) == bits(reference_contributions(clamped, problem))
    amap = problem.ambient_map
    assert bits(ambient_power_xy(amap, clamped)) == bits(reference_ambient(amap, clamped))

    value, worst = evaluator.objective(clamped)
    ref_value, ref_worst = reference_objective(clamped, problem)
    assert (bits(value), worst) == (bits(ref_value), ref_worst)

    tracker = _BestTracker(evaluator)
    assert bits(tracker.evaluate(flat)) == bits(-ref_value)
    assert bits(tracker.best_xy) == bits(clamped)


@PROPERTY
@given(problems(), st.integers(2, 12))
def test_candidate_table_matches_the_per_component_loop_bit_for_bit(problem, per_axis):
    area = problem.ambient_map.area
    anchors = positions_to_array(problem.devices)
    xs = np.linspace(area.x_min, area.x_max, per_axis)
    ys = np.linspace(area.y_min, area.y_max, per_axis)
    reference = reference_clamp(np.vstack([np.array([(x, y) for x in xs for y in ys]), anchors]), area)

    evaluator = _Evaluator(problem)
    candidates = evaluator.clamp(_candidate_points(area, per_axis, anchors))
    assert bits(candidates) == bits(reference)
    assert bits(evaluator.contributions(candidates)) == bits(reference_contributions(reference, problem))


@given(st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_grid_is_x_major(nx, ny):
    xs, ys = np.arange(nx) * 0.7 - 3.0, np.arange(ny) * 1.3 + 2.0
    assert bits(_grid(xs, ys)) == bits(np.array([(x, y) for x in xs for y in ys]))
