"""Every position argument: a set of points is an (n, 2) array, one point an (x, y) pair.

Each argument is coerced and checked once where it enters the library, and a
wrong shape or a non-finite coordinate is refused by the argument's name.
"""

import math

import numpy as np
import pytest

from wetplan.ambient import AmbientMap, GaussianComponent, Rect
from wetplan.beampower import RfChainConfig, sweep_rf_chains
from wetplan.channel import PathLossParams, RicianParams, path_gain, sample_channels
from wetplan.deployment import DeploymentProblem, received_power

from channel_reference import steering_vector

MAP = AmbientMap((GaussianComponent(1.0, (0.0, 0.0), 5.0),), Rect(-10.0, -10.0, 10.0, 10.0))
PROBLEM = DeploymentProblem(((0.0, 0.0),), MAP, k=1)
CHANNEL = (2, RicianParams(1.0), PathLossParams(2.0))

# Each call and the argument name the refusal must give, for a point ``bad``
# passed in that argument.
POSITION_ARGUMENTS = {
    "DeploymentProblem.devices": ("devices", lambda bad: DeploymentProblem(((0.0, 0.0), bad), MAP, k=1)),
    "GaussianComponent.center": ("center", lambda bad: GaussianComponent(1.0, bad, 5.0)),
    "received_power.device": ("device", lambda bad: received_power(bad, [(0.0, 0.0)], PROBLEM)),
    "received_power.pbs": ("pbs", lambda bad: received_power((0.0, 0.0), [(1.0, 1.0), bad], PROBLEM)),
    "sample_channels.sources": ("sources", lambda bad: sample_channels(np.array([bad]), (0.0, 0.0), *CHANNEL, 0)),
    "sample_channels.device": ("device", lambda bad: sample_channels([(1.0, 1.0)], bad, *CHANNEL, 0)),
    "sweep_rf_chains.devices": ("devices", lambda bad: sweep_rf_chains(RfChainConfig(), [1, 2], [bad])),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("argument", sorted(POSITION_ARGUMENTS))
def test_each_position_argument_refuses_a_non_finite_coordinate_by_name(argument, value):
    name, call = POSITION_ARGUMENTS[argument]
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got \({value}, 1\.0\)$"):
        call((value, 1.0))


@pytest.mark.parametrize("call, message", [
    (lambda: GaussianComponent(1.0, (0.0, 0.0, 0.0), 5.0), r"center must be an \(x, y\) pair, got shape \(3,\)"),
    (lambda: DeploymentProblem([(0.0, 0.0, 0.0)], MAP, k=1), r"devices must be an \(n, 2\) array, got shape \(1, 3\)"),
    (lambda: sample_channels(np.zeros(2), (0.0, 0.0), *CHANNEL, 0),
     r"sources must be an \(n, 2\) array, got shape \(2,\)"),
    (lambda: sweep_rf_chains(RfChainConfig(), [1], 4), r"devices must be an \(n, 2\) array, got shape \(\)"),
], ids=["center", "devices", "sources", "sweep-devices"])
def test_a_position_of_the_wrong_shape_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_a_problem_keeps_its_own_read_only_devices():
    devices = np.array([[0.0, 0.0], [1.0, 1.0]])
    problem = DeploymentProblem(devices, MAP, k=1)
    devices[0] = (500.0, 0.0)
    assert problem.devices.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    with pytest.raises(ValueError, match="read-only"):
        problem.devices[0] = (500.0, 0.0)


def test_a_center_is_stored_as_a_pair_of_floats():
    component = GaussianComponent(1.0, np.array([1, -2]), 5.0)
    assert component.center == (1.0, -2.0) and all(type(v) is float for v in component.center)
    same = GaussianComponent(1.0, (1.0, -2.0), 5.0)
    assert hash(AmbientMap((component,), MAP.area)) == hash(AmbientMap((same,), MAP.area))


def test_sample_channel_los_angle_is_seen_from_the_device():
    # The source sits at (3, 4) from a device away from the origin.
    pathloss = PathLossParams(2.0)
    [h] = sample_channels([(4.0, 2.0)], (1.0, -2.0), 4, RicianParams(1e12), pathloss, seed=7)
    expected = math.sqrt(path_gain(5.0, pathloss)) * steering_vector(math.atan2(4.0, 3.0), 4)
    np.testing.assert_allclose(h, expected, rtol=1e-5)
