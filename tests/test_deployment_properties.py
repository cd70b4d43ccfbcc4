"""The deployment evaluator and search against the code they replaced.

The reference functions (``deployment_reference``, and ``reference_clamp``
below) are copies of the objective as it was computed before the evaluator
existed: one ambient-mixture term added per component, the device array
rebuilt and the points clamped column by column on each call. The lockstep Nelder–Mead is checked against scipy's, one start at a
time. Every comparison is on the bytes, so a change of rounding fails here.
"""

import math

import numpy as np
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from wetplan.ambient import AmbientMap, GaussianComponent, Rect, mixture_columns, mixture_power
from wetplan.channel import PathLossParams
from wetplan.deployment import DeploymentProblem, _candidate_points, _Evaluator, _grid, _nelder_mead

from deployment_reference import reference_ambient, reference_contributions, reference_objective

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
        GaussianComponent(draw(st.floats(0.0, 5.0)), scaled(area, u, v), draw(st.floats(0.2, 40.0)))
        for u, v in centres
    )
    unit = st.floats(0.0, 1.0)
    devices = tuple(
        (min(max(x, area.x_min), area.x_max), min(max(y, area.y_min), area.y_max))
        for x, y in (scaled(area, u, v) for u, v in draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=10)))
    )
    pathloss = PathLossParams(draw(st.floats(1.5, 4.5)), draw(st.floats(0.0, 40.0)), draw(st.floats(0.1, 3.0)))
    cap = draw(st.floats(0.05, 6.0))
    return DeploymentProblem(devices, AmbientMap(components, area), k=1, cap=cap, pathloss=pathloss)


@st.composite
def beacon_points(draw, area, n=None):
    """(n, 2) points, n in 1..9 if not given, inside the area and up to half an extent outside it."""
    n = draw(st.integers(1, 9)) if n is None else n
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
    assert bits(mixture_power(clamped[:, 0], clamped[:, 1], mixture_columns(amap))) == bits(
        reference_ambient(amap, clamped)
    )

    value, worst = evaluator.objective(clamped)
    ref_value, ref_worst = reference_objective(clamped, problem)
    assert (bits(value), worst) == (bits(ref_value), ref_worst)

    # The batched objective: a (B, k, 2) stack of layouts, this one first.
    others = data.draw(st.lists(beacon_points(area, len(clamped)), max_size=4))
    stack = np.stack([clamped] + [reference_clamp(xy, area) for xy in others])
    values = evaluator.values(stack)
    assert [bits(v) for v in values] == [bits(evaluator.objective(xy)[0]) for xy in stack]


@PROPERTY
@given(problems(), st.integers(2, 12))
def test_candidate_table_matches_the_per_component_loop_bit_for_bit(problem, per_axis):
    area = problem.ambient_map.area
    anchors = problem.devices
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


class RecordingEvaluator(_Evaluator):
    """An evaluator that keeps every layout the batched objective is given, in order."""

    def __init__(self, problem):
        super().__init__(problem)
        self.layouts = []

    def values(self, xy):
        self.layouts.extend(xy.copy())
        return super().values(xy)


def scipy_runs(evaluator, starts, max_iter, max_fev, xatol, fatol):
    """Each start through scipy's Nelder–Mead, one after another, as the search used to run.

    Returns, per start, its evaluated layouts split into blocks (the initial
    simplex, then one block per iteration, ended by scipy's callback) and
    scipy's result; and the best value and layout of the old tracker, which
    kept the first maximum over all evaluations with a strict ``>``.
    """
    best = [-math.inf, None]
    blocks = []

    def tracked(flat):
        xy = evaluator.clamp(flat)
        value, _ = evaluator.objective(xy)
        if value > best[0]:
            best[:] = value, xy
        blocks[-1].append(xy)
        return -value

    runs = []
    for start in starts:
        flat = start.ravel()
        blocks = [[]]
        tracked(flat)  # the old tracker evaluated each start once before minimize
        blocks = [[]]
        options = {"maxiter": max_iter, "maxfev": max_fev, "xatol": xatol, "fatol": fatol}
        result = minimize(tracked, flat, method="Nelder-Mead", callback=lambda _: blocks.append([]), options=options)
        # The first callback comes after the first iteration: split off the simplex.
        blocks[:1] = [blocks[0][: flat.size + 1], blocks[0][flat.size + 1 :]]
        runs.append((blocks, result))
    return runs, best


def lockstep_order(runs):
    """The scipy layouts in the lockstep's order: every initial simplex, then step by
    step the reflections, the expansion or contraction points and the shrunk vertices."""
    blocks = [b for b, _ in runs]
    order = [xy for b in blocks for xy in b[0]]
    for t in range(1, max(len(b) for b in blocks)):
        steps = [b[t] for b in blocks if t < len(b) and b[t]]
        order += [step[0] for step in steps]
        order += [step[1] for step in steps if len(step) > 1]
        order += [xy for step in steps for xy in step[2:]]
    return order


@st.composite
def searches(draw):
    problem = draw(problems())
    area = problem.ambient_map.area
    k, n_starts = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    # Inside, on the boundary, at zero (the simplex's 0.00025 step) or beyond
    # the area; the starts are clamped, and the simplex then leaves the area,
    # where clamping gives equal values.
    fraction = st.floats(-0.5, 1.5)
    x = st.one_of(fraction.map(lambda u: scaled(area, u, 0)[0]), st.sampled_from([area.x_min, area.x_max, 0.0]))
    y = st.one_of(fraction.map(lambda v: scaled(area, 0, v)[1]), st.sampled_from([area.y_min, area.y_max, 0.0]))
    starts = np.array([[(draw(x), draw(y)) for _ in range(k)] for _ in range(n_starts)])
    starts = _Evaluator(problem).clamp(starts).reshape(n_starts, k, 2)
    budget = (draw(st.integers(1, 120)), draw(st.integers(1, 160)))
    return problem, starts, budget, draw(st.sampled_from([1e-3, 1e-1])), draw(st.sampled_from([1e-12, 1e-6]))


# Which searches Hypothesis generates moves with the constants of every
# module loaded, so the generated ones reach each named case only at times.
# These searches of one problem reach each case whatever is generated.
EXAMPLE_PROBLEM = DeploymentProblem(
    ((7.9, 6.8), (4.2, 0.3), (1.7, 7.5)),
    AmbientMap((GaussianComponent(3.9, (9.3, 8.7), 1.1),), Rect(0.0, 0.0, 10.0, 10.0)),
    k=1, cap=1.0, pathloss=PathLossParams(2.0, 0.0, 1.0),
)
CONVERGED = (EXAMPLE_PROBLEM, np.array([[[9.0, 8.5]]]), (120, 160), 1e-1, 1e-6)
MAXITER = (EXAMPLE_PROBLEM, np.array([[[0.8, 3.1]]]), (3, 160), 1e-3, 1e-12)
MAXFEV = (EXAMPLE_PROBLEM, np.array([[[0.8, 3.1]]]), (120, 5), 1e-3, 1e-12)
# Its shrinks move every vertex but the best.
SHRINK = (EXAMPLE_PROBLEM, np.array([[[0.8, 3.1]]]), (120, 160), 1e-3, 1e-12)
# Its 16th step shrinks and is cut by max_fev = 34 after its first shrunk vertex.
CUT_SHRINK = (EXAMPLE_PROBLEM, np.array([[[0.8, 3.1]]]), (120, 34), 1e-3, 1e-12)
# A start at the area's corner: the initial simplex leaves the area and is clamped back onto the start.
CLAMPED_TWICE = (EXAMPLE_PROBLEM, np.array([[[10.0, 10.0]]]), (120, 160), 1e-3, 1e-12)
# max_fev = 16 cuts the first start's 7th step after its reflection, in a batch where the second start's 7th
# step is whole.
MIXED_BATCH = (EXAMPLE_PROBLEM, np.array([[[0.8, 3.1]], [[5.0, 5.0]]]), (120, 16), 1e-3, 1e-12)


def test_lockstep_search_matches_scipy_start_by_start():
    seen = set()

    @PROPERTY
    @given(searches())
    @example(CONVERGED)
    @example(MAXITER)
    @example(MAXFEV)
    @example(SHRINK)
    @example(CUT_SHRINK)
    @example(CLAMPED_TWICE)
    @example(MIXED_BATCH)
    def check(search):
        problem, starts, (max_iter, max_fev), xatol, fatol = search
        recorder = RecordingEvaluator(problem)
        best, best_xy, nfev, nit = _nelder_mead(recorder, starts, max_iter, max_fev, xatol, fatol)
        runs, (old_value, old_xy) = scipy_runs(_Evaluator(problem), starts, max_iter, max_fev, xatol, fatol)

        assert [bits(xy) for xy in recorder.layouts] == [bits(xy) for xy in lockstep_order(runs)]
        assert nfev.tolist() == [result.nfev for _, result in runs]
        assert nit.tolist() == [result.nit for _, result in runs]
        winner = int(np.argmax(best))
        assert (bits(best[winner]), bits(best_xy[winner])) == (bits(old_value), bits(old_xy))

        n = 2 * starts.shape[1]
        for i, (blocks, result) in enumerate(runs):
            seen.add(("converged", "maxfev", "maxiter")[result.status])
            shrinks = [len(b) - 2 for b in blocks[1:] if len(b) > 2]
            if shrinks:
                seen.add("shrink" if shrinks[-1] == n else "shrink cut by maxfev")
            layouts = [bits(xy) for b in blocks for xy in b]
            if len(set(layouts)) < len(layouts):
                seen.add("one clamped layout twice")
            # scipy does not count a step cut short by maxfev, but its callback
            # still ends the step's block. Cut at the second point, the step's
            # batch is the second points; cut later, it is the shrunk vertices.
            if len(blocks) == result.nit + 2:
                step = result.nit
                full = 2 if len(blocks[step]) == 1 else n + 2
                if any(step < len(b) and len(b[step]) >= full for j, (b, _) in enumerate(runs) if j != i):
                    seen.add("one batch with a start cut by maxfev and one not")

    check()
    assert seen == {
        "converged",
        "maxfev",
        "maxiter",
        "shrink",
        "shrink cut by maxfev",
        "one clamped layout twice",
        "one batch with a start cut by maxfev and one not",
    }
