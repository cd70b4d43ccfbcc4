"""Dotted-key config files with per-experiment schemas and strict validation.

Files are plain text, one ``key = value`` per line, ``#`` starts a comment.
Hierarchy is spelled with dots (``pathloss.exponent = 3``). Every key must be
in the experiment's schema; unknown keys fail with a nearest-sibling hint and
every value failure names its key, so batch runs die loudly rather than
silently drifting from the intended scenario.

A key that sets a library parameter takes its default from that parameter:
the dataclass field defaults of ``CostParams``, ``DeploymentProblem``,
``SolverConfig``, ``OutageConfig`` and ``ChannelModel`` (``pathloss.*``,
``rician.*`` and ``curve.*`` from their nested defaults) and the keyword
defaults of ``sweep_rf_chains``. Only keys with no library counterpart
(device layouts, sweep lists, ``k``, ``gamma``, ``n_antennas``) spell
their default here.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .ambient import example_map
from .beampower import ChannelModel, sweep_rf_chains
from .channel import PathLossParams
from .costs import CostParams
from .deployment import DeploymentProblem, SolverConfig
from .harvesting import ARCHITECTURES
from .outage import OutageConfig

__all__ = [
    "ConfigError",
    "ConfigKey",
    "read_config_file",
    "parse_overrides",
    "resolve_config",
    "canonical",
    "SCHEMAS",
]


class ConfigError(ValueError):
    """Invalid configuration input; the message is path/key qualified."""


@dataclass(frozen=True)
class ConfigKey:
    name: str
    kind: str
    default: object
    help: str = ""
    choices: tuple = ()
    check: Callable[[object], str | None] | None = None


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as err:
        raise ConfigError(f"not a number: {text!r}") from err
    if value != value or value in (float("inf"), float("-inf")):
        raise ConfigError(f"number must be finite: {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as err:
        raise ConfigError(f"not an integer: {text!r}") from err


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r} (use true/false)")


def _parse_decimal(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"not a decimal number: {text!r}") from err


def _split_items(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",")]
    return [part for part in items if part]


def _parse_tuple_item(text: str, arity: int, label: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != arity:
        raise ConfigError(f"expected {label} as {arity} colon-separated numbers, got {text!r}")
    return tuple(_parse_float(p) for p in parts)


def _parse_value(key: ConfigKey, text: str):
    kind = key.kind
    if kind == "float":
        return _parse_float(text)
    if kind == "int":
        return _parse_int(text)
    if kind == "bool":
        return _parse_bool(text)
    if kind == "decimal":
        return _parse_decimal(text)
    if kind == "str":
        value = text.strip()
        if key.choices and value not in key.choices:
            raise ConfigError(f"must be one of {key.choices}, got {value!r}")
        return value
    if kind == "float_list":
        return tuple(_parse_float(p) for p in _split_items(text))
    if kind == "int_list":
        return tuple(_parse_int(p) for p in _split_items(text))
    if kind == "str_list":
        values = tuple(_split_items(text))
        bad = [v for v in values if key.choices and v not in key.choices]
        if bad:
            raise ConfigError(f"must be among {key.choices}, got {bad[0]!r}")
        return values
    if kind == "pair_list":
        return tuple(_parse_tuple_item(p, 2, "x:y pair") for p in _split_items(text))
    if kind == "quad_list":
        return tuple(_parse_tuple_item(p, 4, "quadruple") for p in _split_items(text))
    if kind == "rect":
        return _parse_tuple_item(text.strip(), 4, "xmin:ymin:xmax:ymax rectangle")
    raise ConfigError(f"internal: unknown kind {kind!r}")


def canonical(key: ConfigKey, value) -> str:
    """Render a resolved value in re-parseable config syntax."""
    kind = key.kind
    if kind == "float":
        return repr(float(value))
    if kind in ("int",):
        return str(int(value))
    if kind == "bool":
        return "true" if value else "false"
    if kind == "decimal":
        return str(value)
    if kind == "str":
        return str(value)
    if kind == "float_list":
        return ", ".join(repr(float(v)) for v in value)
    if kind == "int_list":
        return ", ".join(str(int(v)) for v in value)
    if kind == "str_list":
        return ", ".join(str(v) for v in value)
    if kind in ("pair_list", "quad_list"):
        return ", ".join(":".join(repr(float(c)) for c in item) for item in value)
    if kind == "rect":
        return ":".join(repr(float(c)) for c in value)
    raise ConfigError(f"internal: unknown kind {kind!r}")


def read_config_file(path) -> list[tuple[int, str, str]]:
    """Parse a config file into (line number, key, raw value) triples."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    triples = []
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{p}:{lineno}: empty key")
        triples.append((lineno, key, value.strip()))
    return triples


def parse_overrides(overrides) -> list[tuple[int, str, str]]:
    triples = []
    for i, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, _, value = item.partition("=")
        triples.append((i, key.strip(), value.strip()))
    return triples


def resolve_config(schema: dict[str, ConfigKey], config_path, overrides) -> dict[str, object]:
    """Merge file and overrides against a schema; fill and type all defaults."""
    pairs: list[tuple[str, str, str]] = []
    if config_path is not None:
        pairs.extend((f"{config_path}:{n}", k, v) for n, k, v in read_config_file(config_path))
    pairs.extend((f"--set #{n}", k, v) for n, k, v in parse_overrides(overrides))

    resolved = {name: key.default for name, key in schema.items()}
    for origin, name, raw in pairs:
        if name not in schema:
            hint = difflib.get_close_matches(name, schema.keys(), n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"{origin}: unknown key {name!r}{suffix}")
        key = schema[name]
        try:
            value = _parse_value(key, raw)
        except ConfigError as err:
            raise ConfigError(f"{origin}: {name}: {err}") from err
        if key.check is not None:
            problem = key.check(value)
            if problem:
                raise ConfigError(f"{origin}: {name}: {problem}")
        resolved[name] = value
    return resolved


def _positive(label: str):
    return lambda v: None if v > 0 else f"{label} must be > 0, got {v}"


def _nonnegative(label: str):
    return lambda v: None if v >= 0 else f"{label} must be >= 0, got {v}"


def _at_least(minimum: int, label: str):
    return lambda v: None if v >= minimum else f"{label} must be >= {minimum}, got {v}"


def _positive_list(label: str):
    return lambda vs: None if vs and all(v > 0 for v in vs) else f"{label} must be a non-empty list of positives"


def _nonneg_list(label: str):
    return lambda vs: None if vs and all(v >= 0 for v in vs) else f"{label} must be a non-empty list of non-negatives"


def _pathloss_keys(pathloss: PathLossParams) -> list[ConfigKey]:
    return [
        ConfigKey("pathloss.exponent", "float", pathloss.exponent, "path loss exponent", check=_positive("exponent")),
        ConfigKey(
            "pathloss.fixed_loss_db", "float", pathloss.fixed_loss_db,
            "distance-independent loss in dB", check=_nonnegative("fixed loss"),
        ),
        ConfigKey(
            "pathloss.reference_distance", "float", pathloss.reference_distance,
            "near-field clamp distance in meters", check=_positive("reference distance"),
        ),
    ]


# Example deployment scenario: devices spread over the 40x40 m area of the
# shipped ambient map (see wetplan.ambient.example_map).
_DEFAULT_DEPLOY_DEVICES = (
    (-15.0, -5.0),
    (-8.0, 12.0),
    (-2.0, -16.0),
    (3.0, 4.0),
    (9.0, 16.0),
    (14.0, -3.0),
    (16.0, 9.0),
    (-17.0, 15.0),
)


def _cost_schema() -> dict[str, ConfigKey]:
    p = CostParams()
    keys = [
        ConfigKey("mode", "str", "devices", "sweep devices or hardware lifetime", choices=("devices", "lifetime")),
        ConfigKey("n_devices", "int_list", (10, 50, 100), "device counts for the devices sweep",
                  check=_positive_list("device counts")),
        ConfigKey("lifetime_n_devices", "int", 100, "fleet size for the lifetime sweep",
                  check=_at_least(1, "fleet size")),
        ConfigKey("horizons", "int_list", (5, 10, 15, 20), "planning horizons (years) for the lifetime sweep",
                  check=_positive_list("horizons")),
        ConfigKey("battery_lives", "int_list", (1, 2, 3, 5, 10), "device battery lifetimes (years)",
                  check=_positive_list("battery lives")),
        # The keys below are the fields of CostParams, with its defaults.
        ConfigKey("devices_per_pb", "int", p.devices_per_pb, "devices served per beacon",
                  check=_at_least(1, "devices per beacon")),
        ConfigKey("install_grid_pb", "decimal", p.install_grid_pb, "grid beacon install cost ($)"),
        ConfigKey("install_green_pb", "decimal", p.install_green_pb, "green beacon install cost ($)"),
        ConfigKey("install_battery_pb", "decimal", p.install_battery_pb, "battery beacon install cost ($)"),
        ConfigKey("device_install", "decimal", p.device_install, "device install cost ($)"),
        ConfigKey("device_maintenance_fraction", "decimal", p.device_maintenance_fraction,
                  "battery swap cost as a fraction of device install"),
        ConfigKey("battery_pb_annual_fraction", "decimal", p.battery_pb_annual_fraction,
                  "annual battery-beacon maintenance fraction"),
        ConfigKey("green_pb_replacement_fraction", "decimal", p.green_pb_replacement_fraction,
                  "harvester replacement cost fraction"),
        ConfigKey("green_pb_replacement_period", "int", p.green_pb_replacement_period,
                  "harvester replacement period (years)", check=_at_least(1, "replacement period")),
        ConfigKey("pb_avg_power_w", "decimal", p.pb_avg_power_w, "average beacon draw (W)"),
        ConfigKey("grid_price_per_kwh", "decimal", p.grid_price_per_kwh, "grid energy price ($/kWh)"),
        ConfigKey("device_battery_life", "int", p.device_battery_life, "device battery life (years)",
                  check=_at_least(1, "battery life")),
        ConfigKey("horizon", "int", p.horizon, "planning horizon (years)", check=_at_least(1, "horizon")),
        ConfigKey("include_final_replacement", "bool", p.include_final_replacement,
                  "bill a swap landing on the final year"),
        ConfigKey("annualize_green_replacement", "bool", p.annualize_green_replacement,
                  "spread harvester replacement per year"),
    ]
    return {k.name: k for k in keys}


def _deploy_schema() -> dict[str, ConfigKey]:
    amap = example_map()
    area = amap.area
    problem = {f.name: f.default for f in fields(DeploymentProblem)}
    solver = SolverConfig()
    keys = [
        ConfigKey("k", "int", 5, "number of beacons to place", check=_at_least(1, "k")),
        ConfigKey("cap", "float", problem["cap"], "beacon transmit power cap (W)", check=_positive("cap")),
        ConfigKey("devices", "pair_list", _DEFAULT_DEPLOY_DEVICES, "device positions as x:y",
                  check=lambda vs: None if vs else "need at least one device"),
        ConfigKey("map.components", "quad_list",
                  tuple((c.weight, c.center.x, c.center.y, c.width) for c in amap.components),
                  "ambient components as weight:x:y:width",
                  check=lambda vs: None if vs else "need at least one component"),
        ConfigKey("map.area", "rect", (area.x_min, area.y_min, area.x_max, area.y_max),
                  "area as xmin:ymin:xmax:ymax"),
        ConfigKey("solver.n_starts", "int", solver.n_starts, "random restarts per stage",
                  check=_nonnegative("restarts")),
        ConfigKey("solver.greedy_grid", "int", solver.greedy_grid, "coarse grid nodes per axis",
                  check=_at_least(2, "grid")),
        ConfigKey("solver.nm_max_iter", "int", solver.nm_max_iter, "Nelder-Mead iteration budget",
                  check=_at_least(1, "budget")),
    ]
    keys.extend(_pathloss_keys(problem["pathloss"]))
    return {k.name: k for k in keys}


def _outage_schema() -> dict[str, ConfigKey]:
    o = OutageConfig(density=0.0)
    keys = [
        ConfigKey("densities", "float_list", (0.5, 1.0, 2.0, 4.0),
                  "transmitter densities per m^2", check=_nonneg_list("densities")),
        ConfigKey("disk_radius", "float", o.disk_radius, "deployment disk radius (m)", check=_positive("radius")),
        ConfigKey("tx_power", "float", o.tx_power, "transmit power per source (W)", check=_positive("tx power")),
        ConfigKey("rician.k_factor", "float", o.rician.k_factor, "Rician K-factor (linear)", check=_nonnegative("K")),
        ConfigKey("target", "float", o.target, "required harvested power (W)", check=_positive("target")),
        ConfigKey("archs", "str_list", ARCHITECTURES, "receiver architectures to sweep", choices=ARCHITECTURES,
                  check=lambda vs: None if vs else "need at least one architecture"),
        # The reference scenario has 4 antennas, against OutageConfig's 1.
        ConfigKey("n_antennas", "int", 4, "receive antennas", check=_at_least(1, "antennas")),
        ConfigKey("trials", "int", o.trials, "Monte Carlo trials per point", check=_at_least(1, "trials")),
        ConfigKey("curve.breakpoints", "pair_list", o.curve.breakpoints, "harvester table as dbm:efficiency",
                  check=lambda vs: None if len(vs) >= 2 else "need at least 2 breakpoints"),
    ]
    keys.extend(_pathloss_keys(o.pathloss))
    return {k.name: k for k in keys}


def _rfchains_schema() -> dict[str, ConfigKey]:
    model = ChannelModel()
    sweep = {name: p.default for name, p in inspect.signature(sweep_rf_chains).parameters.items()}
    keys = [
        ConfigKey("gamma", "float", 2e-6, "required received RF power per device (W)", check=_positive("gamma")),
        ConfigKey("m_values", "int_list", tuple(range(1, 33)), "RF chain counts to sweep",
                  check=lambda vs: None if vs and all(b > a for a, b in zip(vs, vs[1:])) and vs[0] >= 1
                  else "must be strictly increasing integers >= 1"),
        ConfigKey("n_devices", "int", 4, "devices drawn uniformly in the disk", check=_at_least(1, "devices")),
        ConfigKey("devices", "pair_list", (), "explicit device positions (overrides n_devices)"),
        ConfigKey("disk_radius", "float", model.disk_radius, "device disk radius (m)", check=_positive("radius")),
        ConfigKey("rician.k_factor", "float", model.rician.k_factor, "Rician K-factor (linear)",
                  check=_nonnegative("K")),
        ConfigKey("pa_efficiency", "float", sweep["pa_efficiency"], "power amplifier efficiency",
                  check=lambda v: None if 0 < v <= 1 else f"must be in (0, 1], got {v}"),
        ConfigKey("p_rf_chain_w", "float", sweep["p_rf"], "consumption per active RF chain (W)",
                  check=_nonnegative("chain power")),
        ConfigKey("solver.tol", "float", sweep["tol"], "relaxation gap tolerance", check=_positive("tolerance")),
        ConfigKey("solver.randomizations", "int", sweep["n_randomizations"], "rank-1 extraction samples",
                  check=_at_least(1, "randomizations")),
    ]
    keys.extend(_pathloss_keys(model.pathloss))
    return {k.name: k for k in keys}


SCHEMAS: dict[str, dict[str, ConfigKey]] = {
    "cost": _cost_schema(),
    "deploy": _deploy_schema(),
    "outage": _outage_schema(),
    "rfchains": _rfchains_schema(),
}
