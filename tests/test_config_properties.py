"""Property test: every schema key's canonical text parses back to the same value."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wetplan.cli import STUDIES
from wetplan.config import _KINDS, _parse_value, canonical

# Derandomized so the suite gives the same verdict on every run.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_floats = st.floats(allow_nan=False, allow_infinity=False)


def _tuples(arity):
    return st.tuples(*[_floats] * arity)


def values(key):
    """Values of ``key``'s kind, as the parser returns them."""
    return {
        "float": _floats,
        "int": st.integers(),
        "bool": st.booleans(),
        "decimal": st.fractions(),
        "float_list": st.lists(_floats).map(tuple),
        "int_list": st.lists(st.integers()).map(tuple),
        "str_list": st.lists(st.sampled_from(key.choices)).map(tuple),
        "pair_list": st.lists(_tuples(2)).map(tuple),
        "quad_list": st.lists(_tuples(4)).map(tuple),
        "rect": _tuples(4),
    }[key.kind]


ALL_KEYS = [(study, key) for study in sorted(STUDIES) for key in STUDIES[study].keys.values()]


@pytest.mark.parametrize("study, key", ALL_KEYS, ids=[f"{s}:{k.name}" for s, k in ALL_KEYS])
@PROPERTY
@given(data=st.data())
def test_canonical_text_parses_back(study, key, data):
    value = data.draw(values(key))
    assert _parse_value(key, canonical(key, value)) == value
    assert _parse_value(key, canonical(key, key.default)) == key.default


def test_every_kind_is_the_kind_of_some_key():
    assert {key.kind for _, key in ALL_KEYS} == set(_KINDS)
