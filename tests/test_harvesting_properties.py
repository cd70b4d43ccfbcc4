"""Property tests of the rectifier curve and of the three receiver architectures on
random ``(H, p)`` snapshots."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wetplan.harvesting import (
    ARCHITECTURES,
    HarvesterCurve,
    _antenna_powers,
    _codeword_powers,
    _rectify,
    dft_codebook,
    harvest,
    harvest_architecture,
)

CURVE = HarvesterCurve()

# Derandomized so the suite gives the same verdict on every run.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Entries up to 0.5 in modulus and powers up to 2 W reach past the 10 dBm
# saturation input; small draws fall below the -30 dBm sensitivity.
_parts = st.floats(-0.5, 0.5, allow_nan=False, allow_infinity=False)
_powers = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def snapshots(draw, sources=st.integers(0, 6), antennas=st.integers(1, 4)):
    n, m = draw(sources), draw(antennas)
    h = draw(arrays(float, (n, m), elements=_parts)) + 1j * draw(arrays(float, (n, m), elements=_parts))
    p = draw(st.one_of(_powers, arrays(float, (n,), elements=_powers)))
    return h, p


def _all_archs(snapshot):
    codebook = dft_codebook(snapshot[0].shape[1])
    return {arch: harvest_architecture(snapshot, arch, CURVE, codebook) for arch in ARCHITECTURES}


@PROPERTY
@given(snapshots())
def test_dc_never_below_single(snapshot):
    out = _all_archs(snapshot)
    assert out["dc"] >= out["single"]


@PROPERTY
@given(snapshots(antennas=st.just(1)))
def test_architectures_agree_with_one_antenna(snapshot):
    out = _all_archs(snapshot)
    assert out["single"] == out["dc"] == out["rf"]


@PROPERTY
@given(snapshots())
def test_no_architecture_harvests_more_than_arrives(snapshot):
    h, p = snapshot
    incident = float(np.sum(np.broadcast_to(p, (h.shape[0],)) * np.sum(np.abs(h) ** 2, axis=1)))
    for arch, harvested in _all_archs(snapshot).items():
        assert 0.0 <= harvested <= incident, arch


@PROPERTY
@given(snapshots(sources=st.just(0)))
def test_empty_snapshot_harvests_nothing(snapshot):
    assert all(v == 0.0 for v in _all_archs(snapshot).values())


# Input powers from nothing through the dead zone and the ramp to past
# saturation, plus arbitrary floats (subnormals included) up to 10 W.
_inputs = st.one_of(st.floats(-12.0, 1.0).map(lambda e: 10.0**e), st.floats(0.0, 10.0))


@st.composite
def rising_curves(draw):
    """The default curve, or a random one whose efficiency never falls with input power."""
    if draw(st.booleans()):
        return CURVE
    n = draw(st.integers(2, 6))
    dbm = draw(st.lists(st.floats(-60.0, 40.0), min_size=n, max_size=n, unique=True))
    eff = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return HarvesterCurve(tuple(zip(sorted(dbm), sorted(eff))))


@PROPERTY
@given(rising_curves(), st.lists(_inputs, min_size=1, max_size=40))
def test_harvest_is_non_decreasing_and_never_above_its_input(curve, inputs):
    p_in = np.sort(np.array(inputs))
    out = harvest(p_in, curve)
    assert (out >= 0.0).all()
    assert (np.diff(out) >= 0.0).all()
    assert (out <= p_in).all()


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda m: st.lists(snapshots(antennas=st.just(m)), min_size=1, max_size=8)))
def test_rectifying_a_stack_equals_each_snapshot_alone(stack):
    # Reduce each snapshot as the outage trials do, rectify the (T, M) and
    # (T,) stacks at once, and compare bit for bit with one call per snapshot.
    codebook = dft_codebook(stack[0][0].shape[1])
    reduced = [(h, np.broadcast_to(p, (h.shape[0],))[:, None]) for h, p in stack]
    antenna_powers = np.array([_antenna_powers(h, p) for h, p in reduced])
    combined = np.array([_codeword_powers(h, p, codebook.codewords).max() for h, p in reduced])
    for arch in ARCHITECTURES:
        batched = _rectify(antenna_powers, combined, arch, CURVE)
        alone = [harvest_architecture(snapshot, arch, CURVE, codebook) for snapshot in stack]
        assert batched.tobytes() == np.array(alone).tobytes(), arch
