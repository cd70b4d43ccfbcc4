"""Every field range declared in the library, generated from the declarations.

Each declared bound refuses the last value off it and takes the first value on
it, every float field refuses NaN, and every int field takes a value past the
range of a float; each refusal reads exactly ``<name> must be ...``.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
from fractions import Fraction

import pytest

import wetplan
from wetplan.ambient import GaussianComponent, example_map
from wetplan.beampower import ChannelModel, MulticastProblem
from wetplan.channel import ArrayConfig, PathLossParams, RicianParams
from wetplan.costs import CostParams
from wetplan.deployment import DeploymentProblem, SolverConfig
from wetplan.outage import OutageConfig

# Arguments of a valid instance of each class that declares a range.
VALID = {
    GaussianComponent: {"weight": 1.0, "center": (0.0, 0.0), "width": 1.0},
    PathLossParams: {"exponent": 2.0},
    RicianParams: {"k_factor": 1.0},
    ArrayConfig: {"n_antennas": 2},
    ChannelModel: {},
    MulticastProblem: {"channels": [[1 + 1j]], "gamma": 1.0},
    DeploymentProblem: {"devices": ((0.0, 0.0),), "ambient_map": example_map(), "k": 1},
    SolverConfig: {},
    OutageConfig: {"density": 1.0},
    CostParams: {},
}


def _ranged_classes():
    for info in pkgutil.iter_modules(wetplan.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"wetplan.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
                    and any("bound" in f.metadata for f in dataclasses.fields(cls))):
                yield cls


RANGED = [(cls, f) for cls in VALID for f in dataclasses.fields(cls) if "bound" in f.metadata]


def each_field(kind=None):
    """Parametrize over the ranged fields, or those annotated ``kind``."""
    cases = [(cls, f) for cls, f in RANGED if kind in (None, f.type)]
    return pytest.mark.parametrize("cls, f", cases, ids=[f"{cls.__name__}.{f.name}" for cls, f in cases])


def _build(cls, **values):
    return cls(**{**VALID[cls], **values})


def _step(f, bound, direction: int):
    """The next value past ``bound`` in ``direction`` (+1 or -1) that field ``f`` can hold."""
    if f.type == "float":
        return math.nextafter(bound, direction * math.inf)
    return bound + direction * (Fraction(1, 10**9) if f.type == "Fraction" else 1)


def test_every_class_with_a_declared_range_is_covered():
    assert set(_ranged_classes()) == set(VALID)
    assert len(RANGED) == 35


@each_field()
def test_each_declared_bound_is_exact(cls, f):
    op, bound = f.metadata["bound"]
    first, last_off = (_step(f, bound, +1), bound) if op == ">" else (bound, _step(f, bound, -1))
    assert getattr(_build(cls, **{f.name: first}), f.name) == first
    with pytest.raises(ValueError) as err:
        _build(cls, **{f.name: last_off})
    assert str(err.value) == f"{f.name} must be {op} {bound}, got {last_off}"


@each_field("float")
def test_each_float_field_refuses_nan_by_name(cls, f):
    with pytest.raises(ValueError) as err:
        _build(cls, **{f.name: math.nan})
    assert str(err.value) == f"{f.name} must be finite, got nan"


@each_field("int")
def test_each_int_field_takes_a_value_past_the_range_of_a_float(cls, f):
    # ``math.isfinite`` would raise OverflowError on this int.
    assert getattr(_build(cls, **{f.name: 10**400}), f.name) == 10**400
