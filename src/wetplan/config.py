"""Dotted-key config files with per-experiment schemas and strict validation.

Files are plain text, one ``key = value`` per line, ``#`` starts a comment.
Hierarchy is spelled with dots (``pathloss.exponent = 3``). Every key must be
in the experiment's schema; unknown keys fail with a nearest-sibling hint and
every parse failure names its key and where it came from (file line or
``--set #n``), so batch runs die loudly rather than silently drifting from
the intended scenario.

A key that sets a library field is generated from that field: the fields of
``CostParams``, ``DeploymentProblem``, ``SolverConfig`` (``solver.*``),
``OutageConfig`` and ``ChannelModel``, with ``pathloss.*``, ``rician.*`` and
``curve.*`` from their nested dataclasses. Such a key has the field's name,
its default and a kind read from the default's type. Only the keys with no
library field (device layouts, sweep lists, ``k``, ``gamma``, the arguments
of ``sweep_rf_chains`` and the lifetime sweep's fleet size) are written out
here; those that are a function's keyword argument take its default from
the function's signature. No key has a range check here: a field's range is
declared at the field (``channel._ranged``), the library checks every value
before any work, and the runner makes the refusal name the key (see
``wetplan.cli``). ``mode`` and ``archs`` take only their listed choices.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import MISSING, dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path

from .ambient import example_map
from .beampower import ChannelModel, sweep_rf_chains
from .costs import CostParams, sweep_hardware_lifetime
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
    choices: tuple = ()


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


def _list_of(parse):
    return lambda text: tuple(parse(item) for item in _split_items(text))


def _numbers(arity: int, label: str):
    def parse(text: str) -> tuple[float, ...]:
        parts = text.strip().split(":")
        if len(parts) != arity:
            raise ConfigError(f"expected {label} as {arity} colon-separated numbers, got {text.strip()!r}")
        return tuple(_parse_float(p) for p in parts)

    return parse


def _render_float(value) -> str:
    return repr(float(value))


def _render_int(value) -> str:
    return str(int(value))


def _render_numbers(values) -> str:
    return ":".join(_render_float(v) for v in values)


def _joined(render):
    return lambda values: ", ".join(render(v) for v in values)


# kind -> (parse the text of one value, render a value back to that text)
_KINDS = {
    "float": (_parse_float, _render_float),
    "int": (_parse_int, _render_int),
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "decimal": (_parse_decimal, str),
    "str": (str.strip, str),
    "float_list": (_list_of(_parse_float), _joined(_render_float)),
    "int_list": (_list_of(_parse_int), _joined(_render_int)),
    "str_list": (_list_of(str), _joined(str)),
    "pair_list": (_list_of(_numbers(2, "x:y pair")), _joined(_render_numbers)),
    "quad_list": (_list_of(_numbers(4, "quadruple")), _joined(_render_numbers)),
    "rect": (_numbers(4, "xmin:ymin:xmax:ymax rectangle"), _render_numbers),
}


def _parse_value(key: ConfigKey, text: str):
    value = _KINDS[key.kind][0](text)
    if key.choices:
        for item in value if isinstance(value, tuple) else (value,):
            if item not in key.choices:
                raise ConfigError(f"must be one of {key.choices}, got {item!r}")
    return value


def canonical(key: ConfigKey, value) -> str:
    """Render a resolved value in re-parseable config syntax."""
    return _KINDS[key.kind][1](value)


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
        try:
            resolved[name] = _parse_value(schema[name], raw)
        except ConfigError as err:
            raise ConfigError(f"{origin}: {name}: {err}") from err
    return resolved


# The kind of a key that sets a library field, by the type of its default;
# the only tuple fields are tuples of pairs.
_FIELD_KINDS = {bool: "bool", int: "int", float: "float", Fraction: "decimal", tuple: "pair_list"}


def _field_keys(template, prefix: str = "", skip=()):
    """One key per field of ``template``, named ``prefix + field``, defaulting to its value.

    ``template`` is a dataclass instance, or a dataclass for its field
    defaults; a field with no default is supplied by the study and yields no
    key. A field whose value is itself a dataclass yields that dataclass's
    keys under ``field.``. Fields named in ``skip`` yield no key.
    """
    for f in fields(template):
        value = getattr(template, f.name, MISSING)
        if f.name in skip or value is MISSING:
            continue
        if is_dataclass(value):
            yield from _field_keys(value, f"{prefix}{f.name}.")
        else:
            yield ConfigKey(prefix + f.name, _FIELD_KINDS[type(value)], value)


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


def _schema(*keys: ConfigKey) -> dict[str, ConfigKey]:
    return {k.name: k for k in keys}


def _cost_schema() -> dict[str, ConfigKey]:
    return _schema(
        ConfigKey("mode", "str", "devices", choices=("devices", "lifetime")),
        ConfigKey("n_devices", "int_list", (10, 50, 100)),
        ConfigKey("lifetime_n_devices", "int",
                  inspect.signature(sweep_hardware_lifetime).parameters["n_devices"].default),
        ConfigKey("horizons", "int_list", (5, 10, 15, 20)),
        ConfigKey("battery_lives", "int_list", (1, 2, 3, 5, 10)),
        *_field_keys(CostParams),
    )


def _deploy_schema() -> dict[str, ConfigKey]:
    amap = example_map()
    area = amap.area
    return _schema(
        ConfigKey("k", "int", 5),
        ConfigKey("devices", "pair_list", _DEFAULT_DEPLOY_DEVICES),
        ConfigKey("map.components", "quad_list",
                  tuple((c.weight, *c.center, c.width) for c in amap.components)),
        ConfigKey("map.area", "rect", (area.x_min, area.y_min, area.x_max, area.y_max)),
        *_field_keys(DeploymentProblem),
        *_field_keys(SolverConfig, "solver."),
    )


def _outage_schema() -> dict[str, ConfigKey]:
    return _schema(
        ConfigKey("densities", "float_list", (0.5, 1.0, 2.0, 4.0)),
        ConfigKey("archs", "str_list", ARCHITECTURES, choices=ARCHITECTURES),
        # The reference scenario has 4 antennas, against OutageConfig's 1.
        *_field_keys(OutageConfig(density=0.0, n_antennas=4), skip=("density", "seed")),
    )


def _rfchains_schema() -> dict[str, ConfigKey]:
    sweep = {name: p.default for name, p in inspect.signature(sweep_rf_chains).parameters.items()}
    return _schema(
        ConfigKey("gamma", "float", 2e-6),
        ConfigKey("m_values", "int_list", tuple(range(1, 33))),
        ConfigKey("n_devices", "int", 4),
        ConfigKey("devices", "pair_list", ()),
        ConfigKey("pa_efficiency", "float", sweep["pa_efficiency"]),
        ConfigKey("p_rf_chain_w", "float", sweep["p_rf"]),
        ConfigKey("solver.tol", "float", sweep["tol"]),
        ConfigKey("solver.randomizations", "int", sweep["n_randomizations"]),
        *_field_keys(ChannelModel, skip=("element_spacing",)),
    )


SCHEMAS: dict[str, dict[str, ConfigKey]] = {
    "cost": _cost_schema(),
    "deploy": _deploy_schema(),
    "outage": _outage_schema(),
    "rfchains": _rfchains_schema(),
}
