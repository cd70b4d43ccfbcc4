"""Planning-horizon cost model for battery-only and beacon-powered IoT fleets.

Money is carried as exact ``Fraction`` dollars internally and rounded per cost
component to integer cents (round-half-even); grand totals are sums of the
rounded components, so breakdowns always add up exactly.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SCENARIOS",
    "HOURS_PER_YEAR",
    "CostParams",
    "CostBreakdown",
    "battery_replacements",
    "scenario_cost",
    "sweep_devices",
    "sweep_hardware_lifetime",
    "crossover_device_count",
    "cents_to_dollars",
]

SCENARIOS = ("baseline", "grid_pb", "battery_pb", "green_pb")
HOURS_PER_YEAR = 8760


def _frac(value) -> Fraction:
    """Read a number as an exact decimal (floats go through their repr)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def cents_to_dollars(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


@dataclass(frozen=True)
class CostParams:
    """Unit costs and lifetimes (dollars, years, watts).

    ``include_final_replacement`` switches the battery-swap count from
    ``ceil(T/L) - 1`` (a swap falling exactly at the end of the horizon is
    skipped) to ``floor(T/L)`` (it is billed). ``annualize_green_replacement``
    spreads the harvester replacement cost evenly per year instead of billing
    whole replacements only.
    """

    devices_per_pb: int = 50
    install_grid_pb: Fraction = Fraction(300)
    install_green_pb: Fraction = Fraction(320)
    install_battery_pb: Fraction = Fraction(370)
    device_install: Fraction = Fraction(20)
    device_maintenance_fraction: Fraction = Fraction(1, 2)
    battery_pb_annual_fraction: Fraction = Fraction(3, 10)
    green_pb_replacement_fraction: Fraction = Fraction(19, 50)
    green_pb_replacement_period: int = 25
    pb_avg_power_w: Fraction = Fraction(6)
    grid_price_per_kwh: Fraction = Fraction(1, 4)
    device_battery_life: int = 5
    horizon: int = 15
    include_final_replacement: bool = False
    annualize_green_replacement: bool = True

    def __post_init__(self):
        for name in (
            "install_grid_pb",
            "install_green_pb",
            "install_battery_pb",
            "device_install",
            "device_maintenance_fraction",
            "battery_pb_annual_fraction",
            "green_pb_replacement_fraction",
            "pb_avg_power_w",
            "grid_price_per_kwh",
        ):
            value = _frac(getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        if self.devices_per_pb < 1:
            raise ValueError(f"devices_per_pb must be >= 1, got {self.devices_per_pb}")
        if self.green_pb_replacement_period <= 0:
            raise ValueError("green_pb_replacement_period must be > 0")
        if self.device_battery_life <= 0:
            raise ValueError("device_battery_life must be > 0")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")


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
    if battery_life_years <= 0:
        raise ValueError(f"battery life must be > 0 years, got {battery_life_years}")
    if horizon_years <= 0:
        raise ValueError(f"horizon must be > 0 years, got {horizon_years}")
    if include_final:
        return horizon_years // battery_life_years
    return math.ceil(horizon_years / battery_life_years) - 1


def _round_cents(dollars: Fraction) -> int:
    return round(dollars * 100)


def _pb_opex_per_unit(scenario: str, p: CostParams) -> Fraction:
    t = p.horizon
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


def scenario_cost(scenario: str, n_devices: int, params: CostParams) -> CostBreakdown:
    """Total cost breakdown of one powering scenario over the planning horizon."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    if n_devices < 1:
        raise ValueError(f"n_devices must be >= 1, got {n_devices}")

    device_install = n_devices * params.device_install
    if scenario == "baseline":
        swaps = battery_replacements(
            params.horizon, params.device_battery_life, params.include_final_replacement
        )
        maintenance = n_devices * swaps * params.device_install * params.device_maintenance_fraction
        pb_install = pb_opex = Fraction(0)
    else:
        # Beacon-powered devices skip battery swaps entirely.
        maintenance = Fraction(0)
        n_pb = math.ceil(n_devices / params.devices_per_pb)
        unit_install = {
            "grid_pb": params.install_grid_pb,
            "battery_pb": params.install_battery_pb,
            "green_pb": params.install_green_pb,
        }[scenario]
        pb_install = n_pb * unit_install
        pb_opex = n_pb * _pb_opex_per_unit(scenario, params)

    cents = [_round_cents(v) for v in (device_install, maintenance, pb_install, pb_opex)]
    return CostBreakdown(
        scenario=scenario,
        n_devices=n_devices,
        horizon_years=params.horizon,
        battery_life_years=params.device_battery_life,
        device_install_cents=cents[0],
        device_maintenance_cents=cents[1],
        pb_install_cents=cents[2],
        pb_opex_cents=cents[3],
        grand_total_cents=sum(cents),
    )


def _positive_list(name: str, values) -> list:
    """``values`` as a list; errors, naming ``name``, unless it is non-empty and all positive."""
    items = list(values)
    if not items or not all(v > 0 for v in items):
        raise ValueError(f"{name} must be a non-empty list of positives, got {items}")
    return items


def sweep_devices(params: CostParams, n_devices) -> Iterator[CostBreakdown]:
    """All four scenarios for each device count, scenario-major per count.

    ``n_devices`` is checked when the sweep is called; the rows are computed
    as they are read.
    """
    counts = _positive_list("n_devices", n_devices)
    return (scenario_cost(s, n, params) for n in counts for s in SCENARIOS)


def sweep_hardware_lifetime(
    params: CostParams, horizons, battery_lives, n_devices: int = 100
) -> Iterator[CostBreakdown]:
    """All four scenarios per (horizon, battery life) grid point, for a fleet of ``n_devices``.

    The arguments are checked when the sweep is called; the rows are computed
    as they are read.
    """
    horizons, lives = _positive_list("horizons", horizons), _positive_list("battery_lives", battery_lives)
    if n_devices < 1:
        raise ValueError(f"n_devices must be >= 1, got {n_devices}")
    grid = (dataclasses.replace(params, horizon=h, device_battery_life=life) for h in horizons for life in lives)
    return (scenario_cost(s, n_devices, p) for p in grid for s in SCENARIOS)


def crossover_device_count(params: CostParams, n_max: int = 100) -> int | None:
    """Smallest fleet size at which green beacons undercut the battery baseline."""
    for n in range(1, n_max + 1):
        green = scenario_cost("green_pb", n, params).grand_total_cents
        base = scenario_cost("baseline", n, params).grand_total_cents
        if green < base:
            return n
    return None
