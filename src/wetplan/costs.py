"""Planning-horizon cost model for battery-only and beacon-powered IoT fleets.

Money is carried as exact ``Fraction`` dollars internally and rounded per cost
component to integer cents (round-half-even); grand totals are sums of the
rounded components, so breakdowns always add up exactly.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .channel import _check_fields, _ranged, _require_integer

__all__ = [
    "SCENARIOS",
    "HOURS_PER_YEAR",
    "CostParams",
    "CostBreakdown",
    "battery_replacements",
    "scenario_cost",
    "sweep_costs",
    "crossover_device_count",
    "cents_to_dollars",
]

SCENARIOS = ("baseline", "grid_pb", "battery_pb", "green_pb")
HOURS_PER_YEAR = 8760


def _frac(value) -> Fraction:
    """Read a number as an exact decimal (floats go through their repr)."""
    return Fraction(str(value) if isinstance(value, float) else value)


def cents_to_dollars(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


@dataclass(frozen=True)
class CostParams:
    """Unit costs and lifetimes (dollars, years, watts); the planning horizon
    and the device battery life are arguments of each cost.

    ``include_final_replacement`` switches the battery-swap count from
    ``ceil(T/L) - 1`` (a swap falling exactly at the end of the horizon is
    skipped) to ``floor(T/L)`` (it is billed). ``annualize_green_replacement``
    spreads the harvester replacement cost evenly per year instead of billing
    whole replacements only.
    """

    devices_per_pb: int = _ranged(50, at_least=1)
    install_grid_pb: Fraction = _ranged(Fraction(300), at_least=0)
    install_green_pb: Fraction = _ranged(Fraction(320), at_least=0)
    install_battery_pb: Fraction = _ranged(Fraction(370), at_least=0)
    device_install: Fraction = _ranged(Fraction(20), at_least=0)
    device_maintenance_fraction: Fraction = _ranged(Fraction(1, 2), at_least=0)
    battery_pb_annual_fraction: Fraction = _ranged(Fraction(3, 10), at_least=0)
    green_pb_replacement_fraction: Fraction = _ranged(Fraction(19, 50), at_least=0)
    green_pb_replacement_period: int = _ranged(25, above=0)
    pb_avg_power_w: Fraction = _ranged(Fraction(6), at_least=0)
    grid_price_per_kwh: Fraction = _ranged(Fraction(1, 4), at_least=0)
    include_final_replacement: bool = False
    annualize_green_replacement: bool = True

    def __post_init__(self):
        for name in [f.name for f in dataclasses.fields(self) if f.type == "Fraction"]:
            object.__setattr__(self, name, _frac(getattr(self, name)))
        _check_fields(self)


@dataclass(frozen=True)
class CostBreakdown:
    """Per-category totals in integer cents for one scenario and fleet size."""

    scenario: str
    n_devices: int
    horizon_years: int
    battery_life_years: int
    device_install_cents: int
    device_maintenance_cents: int
    pb_install_cents: int
    pb_opex_cents: int
    grand_total_cents: int


def battery_replacements(horizon_years: int, battery_life_years: int, include_final: bool = False) -> int:
    """Battery swaps over the horizon; the end-of-horizon swap is optional."""
    _require_integer("battery_life_years", battery_life_years, 1)
    _require_integer("horizon_years", horizon_years, 1)
    if include_final:
        return horizon_years // battery_life_years
    return -(-horizon_years // battery_life_years) - 1


def _round_cents(dollars: Fraction) -> int:
    return round(dollars * 100)


def _pb_opex_per_unit(scenario: str, p: CostParams, t: int) -> Fraction:
    if scenario == "grid_pb":
        kwh = p.pb_avg_power_w * HOURS_PER_YEAR * t / 1000
        return kwh * p.grid_price_per_kwh
    if scenario == "battery_pb":
        return t * p.battery_pb_annual_fraction * p.install_battery_pb
    if scenario == "green_pb":
        if p.annualize_green_replacement:
            return t * p.green_pb_replacement_fraction * p.install_green_pb / p.green_pb_replacement_period
        full = t // p.green_pb_replacement_period
        return full * p.green_pb_replacement_fraction * p.install_green_pb
    raise ValueError(f"unknown scenario {scenario!r}")


def scenario_cost(scenario: str, n_devices: int, params: CostParams, horizon: int, battery_life: int) -> CostBreakdown:
    """Total cost breakdown of one powering scenario over a ``horizon`` of years,
    for devices whose batteries last ``battery_life`` years."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    _require_integer("n_devices", n_devices, 1)
    _require_integer("horizon", horizon, 1)
    _require_integer("battery_life", battery_life, 1)

    device_install = n_devices * params.device_install
    if scenario == "baseline":
        swaps = battery_replacements(horizon, battery_life, params.include_final_replacement)
        maintenance = n_devices * swaps * params.device_install * params.device_maintenance_fraction
        pb_install = pb_opex = Fraction(0)
    else:
        # Beacon-powered devices skip battery swaps entirely.
        maintenance = Fraction(0)
        n_pb = -(-n_devices // params.devices_per_pb)  # exact ceiling; a float quotient rounds past 2**53
        unit_install = {
            "grid_pb": params.install_grid_pb,
            "battery_pb": params.install_battery_pb,
            "green_pb": params.install_green_pb,
        }[scenario]
        pb_install = n_pb * unit_install
        pb_opex = n_pb * _pb_opex_per_unit(scenario, params, horizon)

    cents = [_round_cents(v) for v in (device_install, maintenance, pb_install, pb_opex)]
    return CostBreakdown(
        scenario=scenario,
        n_devices=n_devices,
        horizon_years=horizon,
        battery_life_years=battery_life,
        device_install_cents=cents[0],
        device_maintenance_cents=cents[1],
        pb_install_cents=cents[2],
        pb_opex_cents=cents[3],
        grand_total_cents=sum(cents),
    )


def _positive_list(name: str, values) -> list:
    """``values`` as a list; errors, naming ``name``, unless it is non-empty and all integers >= 1."""
    items = list(values)
    if not items:
        raise ValueError(f"{name} must be a non-empty list, got []")
    for v in items:
        _require_integer(name, v, 1)
    return items


def sweep_costs(params: CostParams, n_devices, horizons, battery_lives) -> Iterator[CostBreakdown]:
    """All four scenarios at every (horizon, battery life, fleet size), nested
    in that order with the scenario innermost.

    The arguments are checked when the sweep is called; the rows are computed
    as they are read.
    """
    counts = _positive_list("n_devices", n_devices)
    horizons, lives = _positive_list("horizons", horizons), _positive_list("battery_lives", battery_lives)
    return (scenario_cost(s, n, params, h, life)
            for h in horizons for life in lives for n in counts for s in SCENARIOS)


def crossover_device_count(params: CostParams, horizon: int, battery_life: int, n_max: int = 100) -> int | None:
    """Smallest fleet size, up to ``n_max``, at which green beacons undercut the battery baseline."""
    _require_integer("n_max", n_max, 1)
    for n in range(1, n_max + 1):
        green = scenario_cost("green_pb", n, params, horizon, battery_life).grand_total_cents
        base = scenario_cost("baseline", n, params, horizon, battery_life).grand_total_cents
        if green < base:
            return n
    return None
