"""Log-distance propagation, Poisson transmitter fields, and Rician ULA channels.

All samplers take an explicit ``seed`` (an int, a ``numpy.random.SeedSequence``,
or a ``Generator``) and are pure functions of their inputs, so draws can be
evaluated in any order without changing results.

Every study dataclass declares a field's lower bound at the field (``_ranged``)
and checks it with ``_check_fields``; a function argument uses ``_require_bound``.

Positions are in meters and take two forms: a set of points is an (n, 2)
float array, one point an (x, y) pair. Each position argument is coerced and
checked once, where it enters the library, by ``_as_xy``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

__all__ = [
    "PathLossParams",
    "RicianParams",
    "ArrayConfig",
    "path_gain",
    "sample_hppp",
    "steering_vector",
    "sample_channels",
]


# Entries of one array (160 MB as complex) above which the studies refuse a
# scenario before anything is drawn; the largest default array is outage's
# (trials, n_antennas) power stack, with 40,000.
MAX_ARRAY_ENTRIES = 10**7


def _require_at_most(value, limit, names: str, what: str) -> None:
    """Refuse a scenario whose ``value`` (``what``, set by ``names``) exceeds ``limit``."""
    if not value <= limit:
        shown = math.inf if isinstance(value, int) and value > 1e308 else value  # near or past the range of a float
        raise ValueError(f"{names} give {shown:.4g} {what}; the limit is {limit:.0e}")


def _require_finite(params, *names: str) -> None:
    """Refuse NaN and ±inf in the named fields of ``params``, naming the first such field.

    ``params`` is an object, or a dict such as a function's ``locals()``.
    """
    for name in names:
        value = params[name] if isinstance(params, dict) else getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_bound(name: str, value, op: str, bound) -> None:
    """Refuse ``value`` (of ``name``) unless it is ``op`` (``">"`` or ``">="``) ``bound``; NaN is refused too."""
    if not (value > bound if op == ">" else value >= bound):
        raise ValueError(f"{name} must be {op} {bound}, got {value}")


def _ranged(default=MISSING, *, above=None, at_least=None):
    """A dataclass field (with ``default``, if given) that must be ``> above`` or ``>= at_least``."""
    bound = (">", above) if above is not None else (">=", at_least)
    return field(default=default, metadata={"bound": bound})


def _check_fields(obj) -> None:
    """Refuse NaN and ±inf in ``obj``'s ranged fields, then any ranged value off its bound, each in field order.

    Ints and Fractions skip the first test: they are finite, and ``math.isfinite`` overflows past a float's range."""
    ranged = [(f.name, f.metadata["bound"]) for f in fields(obj) if "bound" in f.metadata]
    _require_finite(obj, *(name for name, _ in ranged if not isinstance(getattr(obj, name), numbers.Rational)))
    for name, (op, bound) in ranged:
        _require_bound(name, getattr(obj, name), op, bound)


def _as_xy(name: str, value, pair: bool = False) -> np.ndarray:
    """``value`` as an (n, 2) float array of points, or with ``pair`` as one (x, y) point of shape (2,).

    An empty sequence holds no points. Another shape, or a non-finite
    coordinate, is refused by ``name``; the latter names the first such point.
    """
    xy = np.asarray(value, dtype=float)
    if xy.shape == (0,) and not pair:
        xy = xy.reshape(0, 2)
    if xy.ndim != (1 if pair else 2) or xy.shape[-1:] != (2,):
        raise ValueError(f"{name} must be {'an (x, y) pair' if pair else 'an (n, 2) array'}, got shape {xy.shape}")
    if not np.isfinite(xy).all():
        rows = xy.reshape(-1, 2)
        x, y = rows[~np.isfinite(rows).all(axis=1)][0].tolist()
        raise ValueError(f"{name} must be finite, got ({x}, {y})")
    return xy


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss: a fixed loss plus a distance power law.

    The power law is clamped below ``reference_distance`` so the model stays
    finite in the near field.
    """

    exponent: float = _ranged(above=0)
    fixed_loss_db: float = _ranged(0.0, at_least=0)
    reference_distance: float = _ranged(1.0, above=0)

    __post_init__ = _check_fields


@dataclass(frozen=True)
class RicianParams:
    """Rician fading with linear K-factor; K=0 is Rayleigh, large K is pure LoS."""

    k_factor: float = _ranged(at_least=0)

    __post_init__ = _check_fields


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array; element spacing is in wavelengths."""

    n_antennas: int
    element_spacing: float = _ranged(0.5, above=0)

    def __post_init__(self):
        if int(self.n_antennas) != self.n_antennas or self.n_antennas < 1:
            raise ValueError(f"n_antennas must be an integer >= 1, got {self.n_antennas}")
        _check_fields(self)


def path_gain(d, params: PathLossParams):
    """Linear power gain at distance ``d`` meters (scalar or array).

    Returns ``10**(-fixed_loss_db/10) * (max(d, d0)/d0)**(-exponent)`` where
    ``d0`` is the reference distance; distances inside ``d0`` evaluate to the
    gain at ``d0``.
    """
    arr = np.asarray(d, dtype=float)
    if np.any(arr < 0):
        raise ValueError("distance must be >= 0")
    gain = _path_gain(arr, params)
    if arr.ndim == 0:
        return float(gain)
    return gain


def _path_gain(d: np.ndarray, params: PathLossParams) -> np.ndarray:
    """``path_gain`` on an array of distances already known to be >= 0."""
    fixed = 10.0 ** (-params.fixed_loss_db / 10.0)
    ratio = np.maximum(d, params.reference_distance) / params.reference_distance
    return fixed * ratio ** (-params.exponent)


def sample_hppp(density: float, radius: float, seed) -> np.ndarray:
    """Sample transmitter positions from a homogeneous PPP over a disk.

    The count is Poisson with mean ``density * pi * radius**2`` and positions
    are i.i.d. uniform over the disk centered at the origin. Returns an
    (n, 2) array; identical seeds give identical fields.
    """
    _require_bound("density", density, ">=", 0)
    _require_bound("radius", radius, ">", 0)
    rng = np.random.default_rng(seed)
    return _uniform_disk(int(rng.poisson(_mean_sources(density, radius))), radius, rng)


def _mean_sources(density: float, radius: float) -> float:
    """``density * pi * radius**2``, a disk's expected PPP points: 0 at density 0, inf past the range of a float."""
    try:
        return float(density) * math.pi * float(radius) ** 2 if density else 0.0
    except OverflowError:
        return math.inf


def _uniform_disk(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """``n`` i.i.d. points uniform over the disk of ``radius`` at the origin, as an (n, 2) array."""
    r = radius * np.sqrt(rng.uniform(size=n))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return np.column_stack((r * np.cos(phi), r * np.sin(phi)))


def steering_vector(theta, array: ArrayConfig) -> np.ndarray:
    """ULA response for plane waves at angles ``theta`` off broadside.

    Element m carries phase ``2*pi*spacing*sin(theta)*m``; entries have unit
    modulus and element 0 is the phase reference. Returns one row of
    ``n_antennas`` entries per angle: shape ``theta.shape + (n_antennas,)``.
    """
    return np.exp(2j * math.pi * array.element_spacing * np.multiply.outer(np.sin(theta), np.arange(array.n_antennas)))


def sample_channels(
    sources,
    device,
    array: ArrayConfig,
    rician: RicianParams,
    pathloss: PathLossParams,
    seed,
) -> np.ndarray:
    """Draw one Rician channel vector per source (rows of ``sources``) toward a ULA at the (x, y) ``device``.

    Returns an (n_sources, n_antennas) complex array whose rows satisfy
    ``E[|h_m|**2] = path_gain(distance)``. The array axis runs along y so
    broadside faces +x; each source's LoS component is steered to its
    geometric angle ``atan2(dy, dx)`` as seen from the device.
    """
    rng = np.random.default_rng(seed)
    pts = _as_xy("sources", sources)
    diff = pts - _as_xy("device", device, pair=True)
    dist = np.hypot(diff[:, 0], diff[:, 1])
    theta = np.arctan2(diff[:, 1], diff[:, 0])

    n, m = pts.shape[0], array.n_antennas
    los = steering_vector(theta, array)
    scatter = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
    k = rician.k_factor
    mix = math.sqrt(k / (k + 1.0)) * los + math.sqrt(1.0 / (k + 1.0)) * scatter
    amp = np.sqrt(_path_gain(dist, pathloss))  # ``hypot`` of checked positions is finite and >= 0
    return amp[:, None] * mix

