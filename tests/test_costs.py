import dataclasses
from fractions import Fraction

import pytest

import wetplan.costs
from wetplan.costs import (
    SCENARIOS,
    CostParams,
    battery_replacements,
    cents_to_dollars,
    crossover_device_count,
    scenario_cost,
    sweep_devices,
    sweep_hardware_lifetime,
)

DEFAULTS = CostParams()


def test_replacement_count_boundary():
    assert battery_replacements(5, 5) == 0
    assert battery_replacements(15, 5) == 2
    assert battery_replacements(15, 3) == 4
    assert battery_replacements(7, 5) == 1


def test_replacement_count_including_final_year():
    assert battery_replacements(15, 5, include_final=True) == 3
    assert battery_replacements(7, 5, include_final=True) == 1


def test_replacement_count_rejects_bad_lifetimes():
    with pytest.raises(ValueError):
        battery_replacements(15, 0)
    with pytest.raises(ValueError):
        battery_replacements(0, 5)


def test_baseline_single_device_short_horizon():
    p = dataclasses.replace(DEFAULTS, horizon=5)
    assert scenario_cost("baseline", 1, p).grand_total_cents == 2000


def test_baseline_hundred_devices_default_horizon():
    # 100 * (20 + 2 swaps * 10) = $4000.
    b = scenario_cost("baseline", 100, DEFAULTS)
    assert b.grand_total_cents == 400_000
    assert b.device_install_cents == 200_000
    assert b.device_maintenance_cents == 200_000


def test_green_pb_hundred_devices_default_horizon():
    # 100*20 + 2 * (320 + 15*0.38*320/25) = $2785.92 exactly.
    b = scenario_cost("green_pb", 100, DEFAULTS)
    assert b.grand_total_cents == 278_592
    assert b.pb_install_cents == 64_000
    assert b.pb_opex_cents == 14_592
    assert b.device_maintenance_cents == 0


def test_grid_pb_hundred_devices_default_horizon():
    # Energy: 6 W * 8760 h * 15 y / 1000 = 788.4 kWh at $0.25/kWh per beacon.
    b = scenario_cost("grid_pb", 100, DEFAULTS)
    assert b.grand_total_cents == 299_420
    assert b.pb_opex_cents == 2 * 19_710


def test_battery_pb_hundred_devices_default_horizon():
    # Opex: 15 y * 30% * $370 = $1665 per beacon.
    b = scenario_cost("battery_pb", 100, DEFAULTS)
    assert b.grand_total_cents == 607_000


def test_breakdowns_sum_exactly():
    for scenario in SCENARIOS:
        for n in (1, 7, 50, 99, 100, 321):
            b = scenario_cost(scenario, n, DEFAULTS)
            parts = (
                b.device_install_cents
                + b.device_maintenance_cents
                + b.pb_install_cents
                + b.pb_opex_cents
            )
            assert parts == b.grand_total_cents


def test_fractional_cent_components_still_sum():
    # Horizon 7 makes the green opex 0.38*320*7/25 = $34.048 per beacon.
    p = dataclasses.replace(DEFAULTS, horizon=7)
    b = scenario_cost("green_pb", 10, p)
    assert b.pb_opex_cents == 3405  # 3404.8 rounds half-even up
    assert (
        b.device_install_cents + b.device_maintenance_cents + b.pb_install_cents + b.pb_opex_cents
        == b.grand_total_cents
    )


def test_pb_totals_double_with_device_count_on_multiples():
    for scenario in ("grid_pb", "battery_pb", "green_pb"):
        one = scenario_cost(scenario, 50, DEFAULTS).grand_total_cents
        two = scenario_cost(scenario, 100, DEFAULTS).grand_total_cents
        assert two == 2 * one


def test_pb_totals_step_at_beacon_boundaries():
    at_50 = scenario_cost("green_pb", 50, DEFAULTS).grand_total_cents
    at_51 = scenario_cost("green_pb", 51, DEFAULTS).grand_total_cents
    at_100 = scenario_cost("green_pb", 100, DEFAULTS).grand_total_cents
    assert at_51 - at_50 > 2000  # new beacon, not just one more device
    assert at_100 - at_51 == 49 * 2000  # no new beacon between 51 and 100


def test_sweep_devices_monotone_and_ordered():
    rows = list(sweep_devices(DEFAULTS, [10, 50, 100]))
    assert len(rows) == 12
    for scenario in SCENARIOS:
        totals = [r.grand_total_cents for r in rows if r.scenario == scenario]
        assert totals == sorted(totals)


def test_lifetime_sweep_baseline_monotone_in_battery_life():
    rows = list(sweep_hardware_lifetime(DEFAULTS, [15], [1, 2, 3, 5, 10, 20], n_devices=100))
    base = [r.grand_total_cents for r in rows if r.scenario == "baseline"]
    assert base == sorted(base, reverse=True)
    long_life = [r for r in rows if r.scenario == "baseline" and r.battery_life_years == 20][0]
    assert long_life.grand_total_cents == 200_000  # install only


# (sweep, its arguments after the cost parameters, the refusal it must raise)
BAD_SWEEP_ARGUMENTS = [
    pytest.param(sweep_devices, ([],), r"^n_devices must be a non-empty list of positives, got \[\]$",
                 id="devices-empty"),
    pytest.param(sweep_devices, ([10, 0],), r"^n_devices must be a non-empty list of positives, got \[10, 0\]$",
                 id="devices-zero"),
    pytest.param(sweep_hardware_lifetime, ([5, 0], [1]),
                 r"^horizons must be a non-empty list of positives, got \[5, 0\]$", id="lifetime-horizon-zero"),
    pytest.param(sweep_hardware_lifetime, ([15], [0]),
                 r"^battery_lives must be a non-empty list of positives, got \[0\]$", id="lifetime-battery-zero"),
    pytest.param(sweep_hardware_lifetime, ([5], [1], 0), r"^n_devices must be >= 1, got 0$", id="lifetime-fleet-zero"),
]


@pytest.mark.parametrize("sweep, arguments, message", BAD_SWEEP_ARGUMENTS)
def test_sweep_refuses_out_of_range_values_by_name_before_any_cost(monkeypatch, sweep, arguments, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep computed a cost")

    monkeypatch.setattr(wetplan.costs, "scenario_cost", refuse)
    with pytest.raises(ValueError, match=message):
        sweep(DEFAULTS, *arguments)


def test_green_crossover_in_range_and_baseline_cheapest_when_small():
    n_star = crossover_device_count(DEFAULTS, n_max=100)
    assert n_star is not None and 1 <= n_star <= 100
    assert n_star == 20  # ceil arithmetic: 392.96 < 20*N first at N=20
    at_5 = {s: scenario_cost(s, 5, DEFAULTS).grand_total_cents for s in SCENARIOS}
    assert all(at_5["baseline"] < at_5[s] for s in SCENARIOS if s != "baseline")


def test_scenario_ordering_at_hundred_devices():
    totals = {s: scenario_cost(s, 100, DEFAULTS).grand_total_cents for s in SCENARIOS}
    assert totals["green_pb"] < totals["grid_pb"] < totals["baseline"] < totals["battery_pb"]


def test_unknown_scenario_and_bad_counts():
    with pytest.raises(ValueError):
        scenario_cost("solar", 10, DEFAULTS)
    with pytest.raises(ValueError):
        scenario_cost("baseline", 0, DEFAULTS)


def test_params_read_floats_as_decimals():
    p = CostParams(green_pb_replacement_fraction=0.38)
    assert p.green_pb_replacement_fraction == Fraction(19, 50)


def test_cents_formatting():
    assert cents_to_dollars(278_592) == "2785.92"
    assert cents_to_dollars(5) == "0.05"
    assert cents_to_dollars(-130) == "-1.30"
