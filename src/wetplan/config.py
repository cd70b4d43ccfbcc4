"""Dotted-key config files, parsed strictly against a study's keys.

Files are plain text, one ``key = value`` per line, ``#`` starts a comment.
Hierarchy is spelled with dots (``pathloss.exponent = 3``). Every key must be
one of the study's keys (``wetplan.cli.STUDIES``); unknown keys fail with a
nearest-sibling hint and every parse failure names its key and where it came
from (file line or ``--set #n``), so batch runs die loudly rather than
silently drifting from the intended scenario.

This module knows no study. A key that sets a library field is generated
from that field (``_field_keys``), with the field's name, its default and a
kind read from the default's type. No key has a range check here: a field's
range is declared at the field (``channel._ranged``), the library checks
every value before any work, and its refusal names the key. A key with
``choices`` takes only those.
"""

from __future__ import annotations

import difflib
from dataclasses import MISSING, dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path

__all__ = [
    "ConfigError",
    "ConfigKey",
    "read_config_file",
    "parse_overrides",
    "resolve_config",
    "canonical",
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


def _field_keys(template, prefix: str = ""):
    """One key per field of ``template``, named ``prefix + field``, defaulting to its value.

    ``template`` is a dataclass instance, or a dataclass for its field
    defaults; a field with no default is supplied by the study and yields no
    key. A field whose value is itself a dataclass yields that dataclass's
    keys under ``field.``.
    """
    for f in fields(template):
        value = getattr(template, f.name, MISSING)
        if value is MISSING:
            continue
        if is_dataclass(value):
            yield from _field_keys(value, f"{prefix}{f.name}.")
        else:
            yield ConfigKey(prefix + f.name, _FIELD_KINDS[type(value)], value)
