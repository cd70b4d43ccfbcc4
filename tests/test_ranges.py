"""Every field range declared in the library, generated from the declarations.

Each declared bound (a lower one on every ranged field, an upper one on some)
refuses the last value off it and takes the first value on it, every float
field refuses NaN, and every int field takes a value past the
range of a float and refuses a non-integer; each refusal reads exactly
``<name> must be ...``. Every seeded entry point refuses a seed that is not an
integer >= 0 before it draws.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import wetplan
from wetplan.ambient import GaussianComponent, example_map
from wetplan.beampower import MulticastProblem, PrecoderSolver, RfChainConfig, min_power_precoder, sweep_rf_chains
from wetplan.channel import PathLossParams, RicianParams
from wetplan.costs import CostParams
from wetplan.deployment import DeploymentProblem, SolverConfig, optimize
from wetplan.outage import OutageConfig, sweep_density

# Arguments of a valid instance of each class that declares a range.
VALID = {
    GaussianComponent: {"weight": 1.0, "center": (0.0, 0.0), "width": 1.0},
    PathLossParams: {"exponent": 2.0},
    RicianParams: {"k_factor": 1.0},
    RfChainConfig: {},
    PrecoderSolver: {},
    MulticastProblem: {"channels": [[1 + 1j]], "gamma": 1.0},
    DeploymentProblem: {"devices": ((0.0, 0.0),), "ambient_map": example_map(), "k": 1},
    SolverConfig: {},
    OutageConfig: {},
    CostParams: {},
}


def _ranged_classes():
    for info in pkgutil.iter_modules(wetplan.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"wetplan.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
                    and any("bounds" in f.metadata for f in dataclasses.fields(cls))):
                yield cls


RANGED = [(cls, f) for cls in VALID for f in dataclasses.fields(cls) if "bounds" in f.metadata]
# Each declared bound of each ranged field; an upper bound's id names it.
BOUNDS = [(cls, f, op, bound) for cls, f in RANGED for op, bound in f.metadata["bounds"]]


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
    assert len(BOUNDS) == 36


@pytest.mark.parametrize("cls, f, op, bound", BOUNDS,
                         ids=[f"{cls.__name__}.{f.name}" + (f"{op}{bound}" if op == "<=" else "")
                              for cls, f, op, bound in BOUNDS])
def test_each_declared_bound_is_exact(cls, f, op, bound):
    first, last_off = {
        ">": (_step(f, bound, +1), bound),
        ">=": (bound, _step(f, bound, -1)),
        "<=": (bound, _step(f, bound, +1)),
    }[op]
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


@each_field("int")
def test_each_int_field_refuses_a_non_integer_by_name(cls, f):
    op, bound = f.metadata["bounds"][0]
    first = _step(f, bound, +1) if op == ">" else bound
    assert getattr(_build(cls, **{f.name: np.int64(first)}), f.name) == first
    for value in (first + 0.5, float(first)):
        with pytest.raises(ValueError) as err:
            _build(cls, **{f.name: value})
        assert str(err.value) == f"{f.name} must be an integer, got {value}"


# Each seeded entry point on a small valid scenario, called with a seed.
SEEDED = {
    "optimize": lambda seed: optimize(_build(DeploymentProblem), seed=seed),
    "sweep_density": lambda seed: sweep_density(OutageConfig(trials=10), [1.0], ("single",), seed=seed),
    "sweep_rf_chains": lambda seed: sweep_rf_chains(RfChainConfig(gamma=1e-6, n_devices=2), [1, 2], seed=seed),
    "min_power_precoder": lambda seed: min_power_precoder(_build(MulticastProblem), PrecoderSolver(), seed=seed),
}


@pytest.mark.parametrize("seed", [2.5, -1, math.nan, math.inf, 0.0])
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_each_seeded_entry_point_refuses_a_bad_seed_before_drawing(monkeypatch, entry, seed):
    def refuse(*args, **kwargs):
        raise AssertionError("a draw was seeded before the seed was checked")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    with pytest.raises(ValueError) as err:
        SEEDED[entry](seed)
    assert str(err.value) == f"seed must be an integer >= 0, got {seed}"
