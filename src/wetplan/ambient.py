"""Gaussian-mixture ambient power fields.

A beacon parked at a position converts whatever ambient power is available
there into transmit power, up to its hardware cap; conversion is lossless up
to the cap, which ``deployment`` applies. The mixture is evaluated in one
place, ``mixture_power``, on component arrays from ``mixture_columns``; the
deployment search builds those arrays once per problem.

A component's ``center`` is one point, an (x, y) pair of floats, so maps stay
hashable; a set of points is an (n, 2) array. ``channel._as_xy`` coerces and
checks each where it enters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _as_xy, _check_fields, _ranged, _require_finite

__all__ = [
    "Rect",
    "GaussianComponent",
    "AmbientMap",
    "mixture_columns",
    "mixture_power",
    "example_map",
]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in meters."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        _require_finite(self, "x_min", "y_min", "x_max", "y_max")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError(
                f"rectangle must have positive extent, got x [{self.x_min}, {self.x_max}], "
                f"y [{self.y_min}, {self.y_max}]"
            )

    def contains(self, x, y):
        """Whether the point ``(x, y)`` lies in the rectangle, edges included; elementwise on arrays."""
        return (x >= self.x_min) & (x <= self.x_max) & (y >= self.y_min) & (y <= self.y_max)

    def require_inside(self, xy: np.ndarray, what: str = "position") -> None:
        """Raise ``ValueError`` naming the first row of the (n, 2) array ``xy`` outside."""
        inside = self.contains(xy[:, 0], xy[:, 1])
        if not np.all(inside):
            x, y = xy[~inside][0]
            raise ValueError(
                f"{what} ({x}, {y}) lies outside the map area "
                f"x [{self.x_min}, {self.x_max}], y [{self.y_min}, {self.y_max}]"
            )


@dataclass(frozen=True)
class GaussianComponent:
    """One ambient hot spot: peak available power (W), center, isotropic width (m)."""

    weight: float = _ranged(at_least=0)
    center: tuple[float, float]
    width: float = _ranged(above=0)

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(_as_xy("center", self.center, pair=True).tolist()))
        _check_fields(self)


@dataclass(frozen=True)
class AmbientMap:
    """Average ambient power over an area as a sum of Gaussian components."""

    components: tuple[GaussianComponent, ...]
    area: Rect

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("ambient map needs at least one component")


def mixture_columns(amap: AmbientMap) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Centre x, centre y, weight and ``2 * width**2`` of each component, as arrays."""
    comps = amap.components
    return (
        np.array([c.center[0] for c in comps]),
        np.array([c.center[1] for c in comps]),
        np.array([c.weight for c in comps]),
        np.array([2.0 * c.width**2 for c in comps]),
    )


def mixture_power(x: np.ndarray, y: np.ndarray, columns) -> np.ndarray:
    """Ambient power (W) at the points ``(x[i], y[i])``; no area check.

    One (points, components) broadcast. The components are added in their
    order by a cumulative sum (``add.accumulate``): numpy's ``sum`` pairs terms
    up from 8 on, which would change the rounding.
    """
    center_x, center_y, weight, two_width_sq = columns
    d2 = (x[:, None] - center_x) ** 2 + (y[:, None] - center_y) ** 2
    return np.add.accumulate(weight * np.exp(-d2 / two_width_sq), axis=1)[:, -1]


def example_map() -> AmbientMap:
    """A 40x40 m example field with four ambient sources of watt-scale peaks.

    This map ships as the default scenario for the deployment experiment; the
    peaks sit away from the area center so placement has to trade proximity to
    devices against available ambient energy.
    """
    return AmbientMap(
        components=(
            GaussianComponent(4.0, (-12.0, 10.0), 4.0),
            GaussianComponent(3.0, (8.0, 14.0), 5.0),
            GaussianComponent(2.5, (12.0, -8.0), 4.0),
            GaussianComponent(1.5, (-6.0, -14.0), 6.0),
        ),
        area=Rect(-20.0, -20.0, 20.0, 20.0),
    )
