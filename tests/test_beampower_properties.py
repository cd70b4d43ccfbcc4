"""Property tests of the minimum-power precoder on random small problems."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from precoder_reference import min_power_precoder

# Derandomized so the suite gives the same verdict on every run.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def problems(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h = draw(arrays(float, (n, m), elements=_parts)) + 1j * draw(arrays(float, (n, m), elements=_parts))
    # Rows of norm >= 0.1 before scaling keep the devices' floors within a
    # factor of 10^4 of each other and no row near zero.
    assume(np.all(np.linalg.norm(h, axis=1) >= 0.1))
    scale = 10 ** draw(st.floats(-3.0, 0.0))
    gamma = 10 ** draw(st.floats(-6.0, -2.0))
    return h * scale, gamma


@PROPERTY
@given(problems(), st.integers(0, 2**32 - 1))
def test_precoder_meets_every_floor(problem, seed):
    h, gamma = problem
    precoder, tx_power, _ = min_power_precoder(h, gamma, seed=seed)
    received = np.abs(h.conj() @ precoder) ** 2
    assert np.all(received >= gamma * (1.0 - 1e-9))
    assert np.isclose(tx_power, np.vdot(precoder, precoder).real, rtol=1e-12)


@PROPERTY
@given(problems(), st.integers(0, 2**32 - 1))
def test_precoder_power_is_above_its_certified_bound(problem, seed):
    _, tx_power, bound = min_power_precoder(*problem, seed=seed)
    assert 0.0 < bound <= tx_power


def test_tight_relaxation_bound_does_not_exceed_power():
    # One device: the relaxation is tight, and the dual value rounds a few
    # ulps above the optimal power (0.005000000000000002 vs 0.004999999999999999).
    _, tx_power, bound = min_power_precoder(np.array([[1 + 1j]]), 0.01)
    assert 0.0 < bound <= tx_power
