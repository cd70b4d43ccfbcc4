import math

import numpy as np
import pytest

from wetplan.ambient import (
    AmbientMap,
    GaussianComponent,
    Rect,
    example_map,
    mixture_columns,
    mixture_power,
)
from wetplan.channel import PathLossParams, Position2D, positions_to_array
from wetplan.deployment import DeploymentProblem, received_power

AREA = Rect(-20.0, -20.0, 20.0, 20.0)


def single_component_map(weight=2.0, cx=0.0, cy=0.0, width=3.0):
    return AmbientMap((GaussianComponent(weight, Position2D(cx, cy), width),), AREA)


def ambient_power(amap, points):
    """Ambient power (W) at each of ``points``, through the library's one path, ``mixture_power``."""
    pts = positions_to_array(points)
    return mixture_power(pts[:, 0], pts[:, 1], mixture_columns(amap))


def co_located_power(amap, at):
    """Power a device receives from one beacon at its own position under lossless path loss.

    Within the reference distance the path gain is 1, so this is the beacon's
    ambient-limited transmit power under its 1 W cap.
    """
    lossless = PathLossParams(exponent=3.0, fixed_loss_db=0.0, reference_distance=1.0)
    problem = DeploymentProblem((at,), amap, k=1, cap=1.0, pathloss=lossless)
    return received_power(at, [at], problem)


def test_peak_value_at_center():
    amap = single_component_map(weight=2.0)
    assert np.isclose(ambient_power(amap, [Position2D(0.0, 0.0)])[0], 2.0, rtol=1e-12)


def test_one_width_away_decays_by_exp_half():
    amap = single_component_map(weight=2.0, width=3.0)
    value = ambient_power(amap, [Position2D(3.0, 0.0)])[0]
    assert np.isclose(value, 2.0 * math.exp(-0.5), rtol=1e-12)


def test_two_component_sum_matches_hand_formula():
    # Components at (-4, 0) and (6, 0) with weights 2 and 3, widths 3 and 5,
    # evaluated midway at (1, 0): distances 5 and 5.
    amap = AmbientMap(
        (
            GaussianComponent(2.0, Position2D(-4.0, 0.0), 3.0),
            GaussianComponent(3.0, Position2D(6.0, 0.0), 5.0),
        ),
        AREA,
    )
    expected = 2.0 * math.exp(-25.0 / 18.0) + 3.0 * math.exp(-25.0 / 50.0)
    assert np.isclose(ambient_power(amap, [Position2D(1.0, 0.0)])[0], expected, rtol=1e-12)


def test_outside_area_raises():
    amap = single_component_map()
    problem = DeploymentProblem((Position2D(0.0, 0.0),), amap, k=1)
    with pytest.raises(ValueError, match=r"^beacon \(25\.0, 0\.0\) lies outside"):
        received_power(Position2D(0.0, 0.0), [Position2D(25.0, 0.0)], problem)


def test_rect_contains_edges_elementwise():
    area = Rect(-1.0, -2.0, 3.0, 4.0)
    x = np.array([-1.0, 3.0, 0.0, 3.5, 0.0, np.nan])
    y = np.array([4.0, -2.0, 0.0, 0.0, -2.5, 0.0])
    assert area.contains(x, y).tolist() == [True, True, True, False, False, False]
    assert [area.contains(float(a), float(b)) for a, b in zip(x, y)] == area.contains(x, y).tolist()


def test_transmit_power_caps_at_limit():
    # A 3.7 W ambient spot under a 1 W cap transmits exactly 1 W.
    amap = single_component_map(weight=3.7)
    assert co_located_power(amap, Position2D(0.0, 0.0)) == 1.0


def test_transmit_power_passes_below_cap():
    amap = single_component_map(weight=0.4)
    assert np.isclose(co_located_power(amap, Position2D(0.0, 0.0)), 0.4, rtol=1e-12)


def test_transmit_power_zero_ambient():
    amap = single_component_map(weight=0.0)
    assert co_located_power(amap, Position2D(5.0, 5.0)) == 0.0


def test_transmit_power_requires_positive_cap():
    with pytest.raises(ValueError, match="cap must be > 0"):
        DeploymentProblem((Position2D(0.0, 0.0),), single_component_map(), k=1, cap=0.0)


def test_field_is_nonnegative_and_capped_everywhere():
    amap = example_map()
    xs = np.linspace(amap.area.x_min, amap.area.x_max, 41)
    ys = np.linspace(amap.area.y_min, amap.area.y_max, 41)
    grid = np.array([(x, y) for x in xs for y in ys])
    values = ambient_power(amap, grid)
    assert np.all(values >= 0.0)
    assert np.all(np.minimum(values, 1.0) <= 1.0)


def test_well_separated_component_peaks_are_grid_maxima():
    # Two components 30 m apart with widths <= 5 (>= 6 widths separation).
    amap = AmbientMap(
        (
            GaussianComponent(2.0, Position2D(-15.0, 0.0), 2.0),
            GaussianComponent(3.0, Position2D(15.0, 0.0), 2.5),
        ),
        AREA,
    )
    xs = np.linspace(-20.0, 20.0, 81)
    ys = np.linspace(-20.0, 20.0, 81)
    grid = np.array([(x, y) for x in xs for y in ys])
    values = ambient_power(amap, grid)
    best = grid[np.argmax(values)]
    # Global grid max lands on the heaviest component center.
    np.testing.assert_allclose(best, [15.0, 0.0], atol=1e-9)


def test_validation_of_components_and_area():
    with pytest.raises(ValueError):
        GaussianComponent(-1.0, Position2D(0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        GaussianComponent(1.0, Position2D(0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Rect(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        AmbientMap((), AREA)
