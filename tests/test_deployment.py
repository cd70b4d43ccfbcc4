import dataclasses
import functools
import math

import numpy as np
import pytest

from wetplan import deployment
from wetplan.ambient import AmbientMap, GaussianComponent, Rect
from wetplan.channel import PathLossParams, RicianParams
from wetplan.deployment import (
    DeploymentProblem,
    SolverConfig,
    optimize,
    received_power,
)

from deployment_reference import grid_oracle, reference_ambient, reference_objective

AREA = Rect(-10.0, -10.0, 10.0, 10.0)
LOSSLESS = PathLossParams(exponent=3.0, fixed_loss_db=0.0, reference_distance=1.0)


def make_map(components):
    return AmbientMap(tuple(components), AREA)


def uniform_map(level=5.0):
    # One huge-width component approximates a level ambient field.
    return make_map([GaussianComponent(level, (0.0, 0.0), 1e6)])


def test_received_power_cap_and_clamp_at_device():
    amap = uniform_map(level=5.0)
    prob = DeploymentProblem(((0.0, 0.0),), amap, k=1, cap=1.0, pathloss=LOSSLESS)
    # Beacon on top of the device: clamped distance, capped power.
    assert np.isclose(received_power((0.0, 0.0), [(0.0, 0.0)], prob), 1.0, rtol=1e-12)
    # One beacon as an array is a (1, 2) array; a bare (2,) pair is refused.
    with pytest.raises(ValueError, match=r"^pbs must be an \(n, 2\) array, got shape \(2,\)$"):
        received_power((0.0, 0.0), np.array([0.0, 0.0]), prob)


def test_received_power_closed_form_at_10m():
    amap = uniform_map(level=5.0)
    prob = DeploymentProblem(((0.0, 0.0),), amap, k=1, cap=1.0, pathloss=LOSSLESS)
    assert np.isclose(received_power((0.0, 0.0), [(10.0, 0.0)], prob), 1e-3, rtol=1e-12)


def test_received_power_additivity_of_equidistant_beacons():
    amap = uniform_map(level=5.0)
    prob = DeploymentProblem(((0.0, 0.0),), amap, k=2, cap=1.0, pathloss=LOSSLESS)
    single = received_power((0.0, 0.0), [(6.0, 0.0)], prob)
    both = received_power((0.0, 0.0), [(6.0, 0.0), (-6.0, 0.0)], prob)
    assert np.isclose(both, 2.0 * single, rtol=1e-12)


def test_objective_single_device_equals_received_power():
    amap = uniform_map()
    prob = DeploymentProblem(((2.0, 2.0),), amap, k=1, pathloss=LOSSLESS)
    pbs = [(0.0, 0.0)]
    value, worst = deployment._Evaluator(prob).objective(np.array(pbs))
    assert worst == 0
    assert value == received_power((2.0, 2.0), pbs, prob)


def test_objective_argmin_is_far_device():
    amap = uniform_map()
    devices = ((0.0, 0.0), (8.0, 8.0))
    prob = DeploymentProblem(devices, amap, k=1, pathloss=LOSSLESS)
    _, worst = deployment._Evaluator(prob).objective(np.array([(0.0, 0.0)]))
    assert worst == 1


def test_grid_oracle_small_grid_matches_manual_enumeration():
    amap = make_map([GaussianComponent(2.0, (4.0, 4.0), 5.0)])
    devices = ((-2.0, 0.0), (3.0, -1.0))
    prob = DeploymentProblem(devices, amap, k=1, pathloss=LOSSLESS)
    resolution = 10.0  # 3x3 grid over the 20x20 area
    sol = grid_oracle(prob, resolution)
    best = -1.0
    for x in (-10.0, 0.0, 10.0):
        for y in (-10.0, 0.0, 10.0):
            value, _ = reference_objective([(x, y)], prob)
            best = max(best, value)
    assert np.isclose(sol.min_received_power, best, rtol=1e-12)


def test_grid_oracle_zero_ambient_everywhere():
    amap = make_map([GaussianComponent(0.0, (0.0, 0.0), 3.0)])
    prob = DeploymentProblem(((1.0, 1.0),), amap, k=1, pathloss=LOSSLESS)
    assert grid_oracle(prob, 5.0).min_received_power == 0.0


def test_optimize_matches_oracle_single_beacon():
    amap = make_map([GaussianComponent(3.0, (-6.0, 7.0), 3.0)])
    prob = DeploymentProblem(((4.0, -5.0),), amap, k=1, pathloss=LOSSLESS)
    oracle = grid_oracle(prob, 0.5)
    sol = optimize(prob, seed=0)
    assert sol.min_received_power >= 0.98 * oracle.min_received_power


def test_optimize_matches_oracle_two_beacons():
    amap = make_map(
        [
            GaussianComponent(3.0, (-6.0, 7.0), 3.0),
            GaussianComponent(1.2, (5.0, -4.0), 4.0),
        ]
    )
    devices = ((-4.0, -6.0), (6.0, 5.0), (0.0, 2.0))
    prob = DeploymentProblem(devices, amap, k=2, pathloss=LOSSLESS)
    oracle = grid_oracle(prob, 0.5)
    for seed in range(3):
        sol = optimize(prob, seed=seed)
        assert sol.min_received_power >= 0.98 * oracle.min_received_power


def test_optimize_saturated_ambient_parks_beacon_on_device():
    # Ambient far above the cap everywhere: proximity is all that matters, so
    # the beacon lands within the clamp radius and the objective equals the cap.
    prob = DeploymentProblem(((3.0, -2.0),), uniform_map(level=50.0), k=1, cap=1.0, pathloss=LOSSLESS)
    sol = optimize(prob, seed=1)
    assert np.isclose(sol.min_received_power, 1.0, rtol=1e-9)
    x, y = sol.pb_positions[0]
    assert math.hypot(x - 3.0, y + 2.0) <= 1.0 + 1e-6


def test_optimize_beats_random_placement_on_every_seed():
    amap = make_map(
        [
            GaussianComponent(2.0, (-5.0, 5.0), 4.0),
            GaussianComponent(1.0, (6.0, -6.0), 5.0),
        ]
    )
    devices = ((-7.0, -7.0), (7.0, 7.0))
    prob = DeploymentProblem(devices, amap, k=2, pathloss=LOSSLESS)
    for seed in range(10):
        sol = optimize(prob, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 999]))
        random_pbs = rng.uniform(-10.0, 10.0, size=(2, 2))
        random_value, _ = reference_objective(random_pbs, prob)
        assert sol.min_received_power >= random_value


def test_optimize_monotone_in_beacon_count():
    amap = make_map(
        [
            GaussianComponent(3.0, (-6.0, 7.0), 3.0),
            GaussianComponent(1.2, (5.0, -4.0), 4.0),
        ]
    )
    devices = ((-4.0, -6.0), (6.0, 5.0), (0.0, 2.0))
    values = []
    for k in (1, 2, 3):
        prob = DeploymentProblem(devices, amap, k=k, pathloss=LOSSLESS)
        values.append(optimize(prob, seed=7).min_received_power)
    assert values[0] <= values[1] * (1.0 + 1e-12)
    assert values[1] <= values[2] * (1.0 + 1e-12)


def test_solutions_respect_area_and_cap():
    amap = make_map([GaussianComponent(4.0, (9.0, 9.0), 2.0)])
    devices = ((-9.0, -9.0), (9.0, 9.0))
    prob = DeploymentProblem(devices, amap, k=2, cap=1.0, pathloss=LOSSLESS)
    for sol in (optimize(prob, seed=3), grid_oracle(prob, 1.0)):
        for (x, y), tx in zip(sol.pb_positions, sol.per_pb_tx_power):
            assert AREA.contains(x, y)
            assert tx <= 1.0 + 1e-15
            assert np.isclose(tx, min(reference_ambient(amap, np.array([(x, y)]))[0], 1.0), rtol=1e-12)
        value, worst = reference_objective(sol.pb_positions, prob)
        assert np.isclose(value, sol.min_received_power, rtol=1e-12)
        assert worst == sol.worst_device_index


def test_optimize_deterministic_per_seed():
    amap = make_map([GaussianComponent(2.0, (0.0, 5.0), 4.0)])
    prob = DeploymentProblem(((0.0, -5.0), (5.0, 0.0)), amap, k=2, pathloss=LOSSLESS)
    a = optimize(prob, seed=42)
    b = optimize(prob, seed=42)
    for field in dataclasses.fields(a):
        assert np.asarray(getattr(a, field.name)).tobytes() == np.asarray(getattr(b, field.name)).tobytes(), field.name


def test_problem_validation():
    amap = uniform_map()
    with pytest.raises(ValueError):
        DeploymentProblem((), amap, k=1)
    with pytest.raises(ValueError):
        DeploymentProblem(((0.0, 0.0),), amap, k=0)
    with pytest.raises(ValueError):
        DeploymentProblem(((50.0, 0.0),), amap, k=1)
    with pytest.raises(ValueError):
        DeploymentProblem(((0.0, 0.0),), amap, k=1, cap=0.0)


def test_optimize_refuses_a_greedy_table_too_large_before_building_anything(monkeypatch):
    class SearchReached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise SearchReached

    monkeypatch.setattr(deployment, "_Evaluator", refuse)
    devices = tuple((float(x), 0.0) for x in range(-4, 4))
    prob = DeploymentProblem(devices, uniform_map(), k=1)
    largest = math.isqrt(deployment.MAX_GREEDY_ENTRIES // len(devices))
    with pytest.raises(SearchReached):
        optimize(prob, SolverConfig(greedy_grid=largest))
    with pytest.raises(ValueError, match=rf"^solver\.greedy_grid = {largest + 1} and 8 devices give .*; the limit is 1e\+06$"):
        optimize(prob, SolverConfig(greedy_grid=largest + 1))


def test_optimize_refuses_initial_simplices_too_large_before_building_anything(monkeypatch):
    class SearchReached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise SearchReached

    monkeypatch.setattr(deployment, "_Evaluator", refuse)
    devices = tuple((float(x), 0.0) for x in range(-4, 4))
    # (1 + 8) * (2k + 1) * k * 8 entries: 9,979,272 at k = 263, 10,055,232 at k = 264.
    with pytest.raises(SearchReached):
        optimize(DeploymentProblem(devices, uniform_map(), k=263), SolverConfig(n_starts=8))
    with pytest.raises(ValueError, match=r"^k = 264, solver\.n_starts = 8, 8 devices and 1 map\.components give "
                                         r"1\.006e\+07 simplex entries .*; the limit is 1e\+07$"):
        optimize(DeploymentProblem(devices, uniform_map(), k=264), SolverConfig(n_starts=8))
    # More components than devices set the width of the mixture array.
    components = [GaussianComponent(1.0, (0.0, 0.0), 1.0)] * 16
    with pytest.raises(ValueError, match=r"^k = 200, solver\.n_starts = 8, 8 devices and 16 map\.components give "):
        optimize(DeploymentProblem(devices, make_map(components), k=200), SolverConfig(n_starts=8))


COMPONENT = functools.partial(GaussianComponent, weight=1.0, center=(0.0, 0.0), width=2.0)
PATHLOSS = functools.partial(PathLossParams, exponent=3.0)
PROBLEM = functools.partial(DeploymentProblem, devices=((0.0, 0.0),), ambient_map=uniform_map(), k=1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(COMPONENT, "weight", id="GaussianComponent.weight"),
        pytest.param(COMPONENT, "width", id="GaussianComponent.width"),
        pytest.param(PATHLOSS, "exponent", id="PathLossParams.exponent"),
        pytest.param(PATHLOSS, "fixed_loss_db", id="PathLossParams.fixed_loss_db"),
        pytest.param(PATHLOSS, "reference_distance", id="PathLossParams.reference_distance"),
        pytest.param(RicianParams, "k_factor", id="RicianParams.k_factor"),
        pytest.param(PROBLEM, "cap", id="DeploymentProblem.cap"),
    ],
)
def test_model_parameters_reject_non_finite_values(build, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build(**{field: value})


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("n_starts", -1, r"^n_starts must be >= 0, got -1$"),
        ("greedy_grid", 1, r"^greedy_grid must be >= 2, got 1$"),
        ("nm_max_iter", 0, r"^nm_max_iter must be >= 1, got 0$"),
    ],
    ids=["n_starts", "greedy_grid", "nm_max_iter"],
)
def test_solver_config_names_the_bad_field(name, value, message):
    with pytest.raises(ValueError, match=message):
        SolverConfig(**{name: value})
