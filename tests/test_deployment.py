import functools
import math

import numpy as np
import pytest

from wetplan import deployment
from wetplan.ambient import AmbientMap, GaussianComponent, Rect, ambient_power_xy
from wetplan.channel import PathLossParams, Position2D, RicianParams
from wetplan.deployment import (
    DeploymentProblem,
    SolverConfig,
    grid_oracle,
    objective,
    optimize,
    received_power,
)

AREA = Rect(-10.0, -10.0, 10.0, 10.0)
LOSSLESS = PathLossParams(exponent=3.0, fixed_loss_db=0.0, reference_distance=1.0)


def make_map(components):
    return AmbientMap(tuple(components), AREA)


def uniform_map(level=5.0):
    # One huge-width component approximates a level ambient field.
    return make_map([GaussianComponent(level, Position2D(0.0, 0.0), 1e6)])


def test_received_power_cap_and_clamp_at_device():
    amap = uniform_map(level=5.0)
    prob = DeploymentProblem((Position2D(0.0, 0.0),), amap, k=1, cap=1.0, pathloss=LOSSLESS)
    # Beacon on top of the device: clamped distance, capped power.
    assert np.isclose(received_power(Position2D(0.0, 0.0), [(0.0, 0.0)], prob), 1.0, rtol=1e-12)


def test_received_power_closed_form_at_10m():
    amap = uniform_map(level=5.0)
    prob = DeploymentProblem((Position2D(0.0, 0.0),), amap, k=1, cap=1.0, pathloss=LOSSLESS)
    assert np.isclose(received_power(Position2D(0.0, 0.0), [(10.0, 0.0)], prob), 1e-3, rtol=1e-12)


def test_received_power_additivity_of_equidistant_beacons():
    amap = uniform_map(level=5.0)
    prob = DeploymentProblem((Position2D(0.0, 0.0),), amap, k=2, cap=1.0, pathloss=LOSSLESS)
    single = received_power(Position2D(0.0, 0.0), [(6.0, 0.0)], prob)
    both = received_power(Position2D(0.0, 0.0), [(6.0, 0.0), (-6.0, 0.0)], prob)
    assert np.isclose(both, 2.0 * single, rtol=1e-12)


def test_objective_single_device_equals_received_power():
    amap = uniform_map()
    prob = DeploymentProblem((Position2D(2.0, 2.0),), amap, k=1, pathloss=LOSSLESS)
    pbs = [(0.0, 0.0)]
    value, worst = objective(pbs, prob)
    assert worst == 0
    assert value == received_power(Position2D(2.0, 2.0), pbs, prob)


def test_objective_argmin_is_far_device():
    amap = uniform_map()
    devices = (Position2D(0.0, 0.0), Position2D(8.0, 8.0))
    prob = DeploymentProblem(devices, amap, k=1, pathloss=LOSSLESS)
    _, worst = objective([(0.0, 0.0)], prob)
    assert worst == 1


def test_grid_oracle_small_grid_matches_manual_enumeration():
    amap = make_map([GaussianComponent(2.0, Position2D(4.0, 4.0), 5.0)])
    devices = (Position2D(-2.0, 0.0), Position2D(3.0, -1.0))
    prob = DeploymentProblem(devices, amap, k=1, pathloss=LOSSLESS)
    resolution = 10.0  # 3x3 grid over the 20x20 area
    sol = grid_oracle(prob, resolution)
    best = -1.0
    for x in (-10.0, 0.0, 10.0):
        for y in (-10.0, 0.0, 10.0):
            value, _ = objective([(x, y)], prob)
            best = max(best, value)
    assert np.isclose(sol.min_received_power, best, rtol=1e-12)


def test_grid_oracle_zero_ambient_everywhere():
    amap = make_map([GaussianComponent(0.0, Position2D(0.0, 0.0), 3.0)])
    prob = DeploymentProblem((Position2D(1.0, 1.0),), amap, k=1, pathloss=LOSSLESS)
    assert grid_oracle(prob, 5.0).min_received_power == 0.0


def test_grid_oracle_budget_guard():
    prob = DeploymentProblem((Position2D(0.0, 0.0),), uniform_map(), k=4, pathloss=LOSSLESS)
    with pytest.raises(ValueError, match="budget"):
        grid_oracle(prob, 0.5)


def test_optimize_matches_oracle_single_beacon():
    amap = make_map([GaussianComponent(3.0, Position2D(-6.0, 7.0), 3.0)])
    prob = DeploymentProblem((Position2D(4.0, -5.0),), amap, k=1, pathloss=LOSSLESS)
    oracle = grid_oracle(prob, 0.5)
    sol = optimize(prob, seed=0)
    assert sol.min_received_power >= 0.98 * oracle.min_received_power


def test_optimize_matches_oracle_two_beacons():
    amap = make_map(
        [
            GaussianComponent(3.0, Position2D(-6.0, 7.0), 3.0),
            GaussianComponent(1.2, Position2D(5.0, -4.0), 4.0),
        ]
    )
    devices = (Position2D(-4.0, -6.0), Position2D(6.0, 5.0), Position2D(0.0, 2.0))
    prob = DeploymentProblem(devices, amap, k=2, pathloss=LOSSLESS)
    oracle = grid_oracle(prob, 0.5)
    for seed in range(3):
        sol = optimize(prob, seed=seed)
        assert sol.min_received_power >= 0.98 * oracle.min_received_power


def test_optimize_saturated_ambient_parks_beacon_on_device():
    # Ambient far above the cap everywhere: proximity is all that matters, so
    # the beacon lands within the clamp radius and the objective equals the cap.
    prob = DeploymentProblem((Position2D(3.0, -2.0),), uniform_map(level=50.0), k=1, cap=1.0, pathloss=LOSSLESS)
    sol = optimize(prob, seed=1)
    assert np.isclose(sol.min_received_power, 1.0, rtol=1e-9)
    pb = sol.pb_positions[0]
    assert math.hypot(pb.x - 3.0, pb.y + 2.0) <= 1.0 + 1e-6


def test_optimize_beats_random_placement_on_every_seed():
    amap = make_map(
        [
            GaussianComponent(2.0, Position2D(-5.0, 5.0), 4.0),
            GaussianComponent(1.0, Position2D(6.0, -6.0), 5.0),
        ]
    )
    devices = (Position2D(-7.0, -7.0), Position2D(7.0, 7.0))
    prob = DeploymentProblem(devices, amap, k=2, pathloss=LOSSLESS)
    for seed in range(10):
        sol = optimize(prob, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 999]))
        random_pbs = rng.uniform(-10.0, 10.0, size=(2, 2))
        random_value, _ = objective(random_pbs, prob)
        assert sol.min_received_power >= random_value


def test_optimize_monotone_in_beacon_count():
    amap = make_map(
        [
            GaussianComponent(3.0, Position2D(-6.0, 7.0), 3.0),
            GaussianComponent(1.2, Position2D(5.0, -4.0), 4.0),
        ]
    )
    devices = (Position2D(-4.0, -6.0), Position2D(6.0, 5.0), Position2D(0.0, 2.0))
    values = []
    for k in (1, 2, 3):
        prob = DeploymentProblem(devices, amap, k=k, pathloss=LOSSLESS)
        values.append(optimize(prob, seed=7).min_received_power)
    assert values[0] <= values[1] * (1.0 + 1e-12)
    assert values[1] <= values[2] * (1.0 + 1e-12)


def test_solutions_respect_area_and_cap():
    amap = make_map([GaussianComponent(4.0, Position2D(9.0, 9.0), 2.0)])
    devices = (Position2D(-9.0, -9.0), Position2D(9.0, 9.0))
    prob = DeploymentProblem(devices, amap, k=2, cap=1.0, pathloss=LOSSLESS)
    for sol in (optimize(prob, seed=3), grid_oracle(prob, 1.0)):
        for pb, tx in zip(sol.pb_positions, sol.per_pb_tx_power):
            assert AREA.contains(pb.x, pb.y)
            assert tx <= 1.0 + 1e-15
            assert np.isclose(tx, min(ambient_power_xy(amap, [pb])[0], 1.0), rtol=1e-12)
        value, worst = objective(sol.pb_positions, prob)
        assert np.isclose(value, sol.min_received_power, rtol=1e-12)
        assert worst == sol.worst_device_index


def test_optimize_deterministic_per_seed():
    amap = make_map([GaussianComponent(2.0, Position2D(0.0, 5.0), 4.0)])
    prob = DeploymentProblem((Position2D(0.0, -5.0), Position2D(5.0, 0.0)), amap, k=2, pathloss=LOSSLESS)
    a = optimize(prob, seed=42)
    b = optimize(prob, seed=42)
    assert a == b


def test_problem_validation():
    amap = uniform_map()
    with pytest.raises(ValueError):
        DeploymentProblem((), amap, k=1)
    with pytest.raises(ValueError):
        DeploymentProblem((Position2D(0.0, 0.0),), amap, k=0)
    with pytest.raises(ValueError):
        DeploymentProblem((Position2D(50.0, 0.0),), amap, k=1)
    with pytest.raises(ValueError):
        DeploymentProblem((Position2D(0.0, 0.0),), amap, k=1, cap=0.0)


def test_optimize_refuses_a_greedy_table_too_large_before_building_anything(monkeypatch):
    class SearchReached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise SearchReached

    monkeypatch.setattr(deployment, "_Evaluator", refuse)
    devices = tuple(Position2D(float(x), 0.0) for x in range(-4, 4))
    prob = DeploymentProblem(devices, uniform_map(), k=1)
    largest = math.isqrt(deployment.MAX_GREEDY_ENTRIES // len(devices))
    with pytest.raises(SearchReached):
        optimize(prob, SolverConfig(greedy_grid=largest))
    with pytest.raises(ValueError, match=rf"^solver\.greedy_grid = {largest + 1} and 8 devices give .*; the limit is 1e\+06$"):
        optimize(prob, SolverConfig(greedy_grid=largest + 1))


COMPONENT = functools.partial(GaussianComponent, weight=1.0, center=Position2D(0.0, 0.0), width=2.0)
PATHLOSS = functools.partial(PathLossParams, exponent=3.0)
PROBLEM = functools.partial(DeploymentProblem, devices=(Position2D(0.0, 0.0),), ambient_map=uniform_map(), k=1)


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
