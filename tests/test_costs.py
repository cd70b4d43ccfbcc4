import math
from fractions import Fraction

import pytest

import wetplan.costs
from wetplan.costs import SCENARIOS, CostParams, _battery_replacements, cents_to_dollars, scenario_cost, sweep_costs

from test_acceptance import crossover_device_count

DEFAULTS = CostParams()
# The default planning horizon and device battery life, in years.
T, L = 15, 5


def test_replacement_count_boundary():
    assert _battery_replacements(5, 5) == 0
    assert _battery_replacements(15, 5) == 2
    assert _battery_replacements(15, 3) == 4
    assert _battery_replacements(7, 5) == 1


def test_replacement_count_including_final_year():
    assert _battery_replacements(15, 5, include_final=True) == 3
    assert _battery_replacements(7, 5, include_final=True) == 1


def test_ceilings_are_exact_past_two_to_the_53():
    # A float quotient rounds 2**53 + 1 down to 2**53 before the ceiling.
    assert _battery_replacements(2**53 + 1, 1) == 2**53
    grid = scenario_cost("grid_pb", 2**53 + 1, CostParams(devices_per_pb=1), T, L)
    assert grid.pb_install_cents == (2**53 + 1) * 30_000
    huge = scenario_cost("grid_pb", 10**400 + 1, CostParams(devices_per_pb=10**400), T, L)
    assert huge.pb_install_cents == 2 * 30_000


def test_baseline_single_device_short_horizon():
    assert scenario_cost("baseline", 1, DEFAULTS, 5, L).grand_total_cents == 2000


def test_baseline_hundred_devices_default_horizon():
    # 100 * (20 + 2 swaps * 10) = $4000.
    b = scenario_cost("baseline", 100, DEFAULTS, T, L)
    assert b.grand_total_cents == 400_000
    assert b.device_install_cents == 200_000
    assert b.device_maintenance_cents == 200_000


def test_green_pb_hundred_devices_default_horizon():
    # 100*20 + 2 * (320 + 15*0.38*320/25) = $2785.92 exactly.
    b = scenario_cost("green_pb", 100, DEFAULTS, T, L)
    assert b.grand_total_cents == 278_592
    assert b.pb_install_cents == 64_000
    assert b.pb_opex_cents == 14_592
    assert b.device_maintenance_cents == 0


def test_grid_pb_hundred_devices_default_horizon():
    # Energy: 6 W * 8760 h * 15 y / 1000 = 788.4 kWh at $0.25/kWh per beacon.
    b = scenario_cost("grid_pb", 100, DEFAULTS, T, L)
    assert b.grand_total_cents == 299_420
    assert b.pb_opex_cents == 2 * 19_710


def test_battery_pb_hundred_devices_default_horizon():
    # Opex: 15 y * 30% * $370 = $1665 per beacon.
    b = scenario_cost("battery_pb", 100, DEFAULTS, T, L)
    assert b.grand_total_cents == 607_000


def test_breakdowns_sum_exactly():
    for scenario in SCENARIOS:
        for n in (1, 7, 50, 99, 100, 321):
            b = scenario_cost(scenario, n, DEFAULTS, T, L)
            parts = (
                b.device_install_cents
                + b.device_maintenance_cents
                + b.pb_install_cents
                + b.pb_opex_cents
            )
            assert parts == b.grand_total_cents


def test_fractional_cent_components_still_sum():
    # Horizon 7 makes the green opex 0.38*320*7/25 = $34.048 per beacon.
    b = scenario_cost("green_pb", 10, DEFAULTS, 7, L)
    assert b.pb_opex_cents == 3405  # 3404.8 rounds half-even up
    assert (
        b.device_install_cents + b.device_maintenance_cents + b.pb_install_cents + b.pb_opex_cents
        == b.grand_total_cents
    )


def test_pb_totals_double_with_device_count_on_multiples():
    for scenario in ("grid_pb", "battery_pb", "green_pb"):
        one = scenario_cost(scenario, 50, DEFAULTS, T, L).grand_total_cents
        two = scenario_cost(scenario, 100, DEFAULTS, T, L).grand_total_cents
        assert two == 2 * one


def test_pb_totals_step_at_beacon_boundaries():
    at_50 = scenario_cost("green_pb", 50, DEFAULTS, T, L).grand_total_cents
    at_51 = scenario_cost("green_pb", 51, DEFAULTS, T, L).grand_total_cents
    at_100 = scenario_cost("green_pb", 100, DEFAULTS, T, L).grand_total_cents
    assert at_51 - at_50 > 2000  # new beacon, not just one more device
    assert at_100 - at_51 == 49 * 2000  # no new beacon between 51 and 100


def test_fleet_size_sweep_monotone_and_ordered():
    rows = list(sweep_costs(DEFAULTS, [10, 50, 100], [T], [L]))
    assert len(rows) == 12
    for scenario in SCENARIOS:
        totals = [r.grand_total_cents for r in rows if r.scenario == scenario]
        assert totals == sorted(totals)


def test_battery_life_sweep_baseline_monotone_in_battery_life():
    rows = list(sweep_costs(DEFAULTS, [100], [15], [1, 2, 3, 5, 10, 20]))
    base = [r.grand_total_cents for r in rows if r.scenario == "baseline"]
    assert base == sorted(base, reverse=True)
    long_life = [r for r in rows if r.scenario == "baseline" and r.battery_life_years == 20][0]
    assert long_life.grand_total_cents == 200_000  # install only


def test_sweep_nests_horizon_then_battery_life_then_fleet_size_then_scenario():
    rows = list(sweep_costs(DEFAULTS, [10, 60], [5, 12], [3, 7]))
    keys = [(r.horizon_years, r.battery_life_years, r.n_devices, r.scenario) for r in rows]
    assert keys == [(h, life, n, s) for h in (5, 12) for life in (3, 7) for n in (10, 60) for s in SCENARIOS]
    assert rows == [scenario_cost(s, n, DEFAULTS, h, life) for h, life, n, s in keys]


# (the sweep's arguments after the cost parameters, the refusal it must raise)
BAD_SWEEP_ARGUMENTS = [
    pytest.param(([], [T], [L]), r"^n_devices must be a non-empty list, got \[\]$", id="devices-empty"),
    pytest.param(([10, 0], [T], [L]), r"^n_devices must be an integer >= 1, got 0$", id="devices-zero"),
    pytest.param(([2.5], [T], [L]), r"^n_devices must be an integer >= 1, got 2\.5$", id="devices-fraction"),
    pytest.param(([10.0], [T], [L]), r"^n_devices must be an integer >= 1, got 10\.0$", id="devices-integral-float"),
    pytest.param(([10, math.nan], [T], [L]), r"^n_devices must be an integer >= 1, got nan$", id="devices-nan"),
    pytest.param(([100], [5, 0], [1]), r"^horizons must be an integer >= 1, got 0$", id="horizon-zero"),
    pytest.param(([100], [2.5], [1]), r"^horizons must be an integer >= 1, got 2\.5$", id="horizon-fraction"),
    pytest.param(([100], [], [1]), r"^horizons must be a non-empty list, got \[\]$", id="horizon-empty"),
    pytest.param(([100], [15], [0]), r"^battery_lives must be an integer >= 1, got 0$", id="battery-zero"),
    pytest.param(([100], [15], [1.5]), r"^battery_lives must be an integer >= 1, got 1\.5$", id="battery-fraction"),
    pytest.param(([100], [15], [math.inf]), r"^battery_lives must be an integer >= 1, got inf$", id="battery-inf"),
]


@pytest.mark.parametrize("arguments, message", BAD_SWEEP_ARGUMENTS)
def test_sweep_refuses_out_of_range_values_by_name_before_any_cost(monkeypatch, arguments, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep computed a cost")

    monkeypatch.setattr(wetplan.costs, "scenario_cost", refuse)
    with pytest.raises(ValueError, match=message):
        sweep_costs(DEFAULTS, *arguments)


def test_green_crossover_in_range_and_baseline_cheapest_when_small():
    n_star = crossover_device_count(DEFAULTS, T, L, n_max=100)
    assert n_star is not None and 1 <= n_star <= 100
    assert n_star == 20  # ceil arithmetic: 392.96 < 20*N first at N=20
    assert crossover_device_count(DEFAULTS, T, L, n_max=19) is None
    at_5 = {s: scenario_cost(s, 5, DEFAULTS, T, L).grand_total_cents for s in SCENARIOS}
    assert all(at_5["baseline"] < at_5[s] for s in SCENARIOS if s != "baseline")


def test_scenario_ordering_at_hundred_devices():
    totals = {s: scenario_cost(s, 100, DEFAULTS, T, L).grand_total_cents for s in SCENARIOS}
    assert totals["green_pb"] < totals["grid_pb"] < totals["baseline"] < totals["battery_pb"]


def test_unknown_scenario_and_bad_counts():
    with pytest.raises(ValueError):
        scenario_cost("solar", 10, DEFAULTS, T, L)
    # An integral float is refused as an int field refuses it, so no row carries n_devices = 10.0.
    for count in (0, 2.5, math.nan, math.inf, 10.0):
        with pytest.raises(ValueError, match=rf"^n_devices must be an integer >= 1, got {count}$"):
            scenario_cost("baseline", count, DEFAULTS, T, L)
    # The beacon scenarios swap no batteries, and still refuse a bad battery life.
    for scenario in SCENARIOS:
        for years in (0, 2.5, math.nan, -math.inf):
            with pytest.raises(ValueError, match=rf"^horizon must be an integer >= 1, got {years}$"):
                scenario_cost(scenario, 10, DEFAULTS, years, L)
            with pytest.raises(ValueError, match=rf"^battery_life must be an integer >= 1, got {years}$"):
                scenario_cost(scenario, 10, DEFAULTS, T, years)


# ``_battery_replacements`` checks nothing: the baseline refuses a bad lifetime before it counts a swap.
@pytest.mark.parametrize("arguments, message", [
    ((15, 0), r"^battery_life must be an integer >= 1, got 0$"),
    ((15, 1.5), r"^battery_life must be an integer >= 1, got 1\.5$"),
    ((0, 5), r"^horizon must be an integer >= 1, got 0$"),
    ((2.5, 1), r"^horizon must be an integer >= 1, got 2\.5$"),
    ((math.nan, 1), r"^horizon must be an integer >= 1, got nan$"),
    ((math.inf, 1), r"^horizon must be an integer >= 1, got inf$"),
])
def test_baseline_refuses_bad_lifetimes_before_counting_swaps(monkeypatch, arguments, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the swaps were counted")

    monkeypatch.setattr(wetplan.costs, "_battery_replacements", refuse)
    with pytest.raises(ValueError, match=message):
        scenario_cost("baseline", 10, DEFAULTS, *arguments)


def test_params_read_floats_as_decimals():
    p = CostParams(green_pb_replacement_fraction=0.38)
    assert p.green_pb_replacement_fraction == Fraction(19, 50)


def test_cents_formatting():
    assert cents_to_dollars(278_592) == "2785.92"
    assert cents_to_dollars(5) == "0.05"
    assert cents_to_dollars(-130) == "-1.30"
