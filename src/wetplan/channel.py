"""Log-distance propagation, Poisson transmitter fields, and Rician ULA channels.

All samplers take an explicit ``seed`` (an int, a ``numpy.random.SeedSequence``,
or a ``Generator``) and are pure functions of their inputs, so draws can be
evaluated in any order without changing results.

Every study dataclass declares a field's bounds at the field (``_ranged``) and
checks them with ``_check_fields``; a function argument uses ``_require_bound``,
or ``_require_integer`` where it counts (a seed, antennas, devices). A count
that is not an ``Integral``, an integral float included, is refused by both.

Positions are in meters and take two forms: a set of points is an (n, 2)
float array, one point an (x, y) pair. Each position argument is coerced and
checked once, where it enters the library, by ``_as_xy``.

An array is its antenna count: every ULA has half-wavelength spacing. It is
fixed because the DFT codebook (``harvesting.dft_codebook``) assumes it: only
then do its M beams tile the visible region, codeword k peaking at
sin(theta) = 2k/M wrapped into [-1, 1); another spacing would detune them.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

__all__ = [
    "PathLossParams",
    "RicianParams",
    "path_gain",
    "sample_hppp",
    "steering_vector",
    "sample_channels",
]


# Entries of one array (160 MB as complex) above which the studies refuse a
# scenario before anything is drawn; the largest default array is outage's
# (trials, n_antennas) power stack, with 40,000.
MAX_ARRAY_ENTRIES = 10**7
# Expected PPP points per field above which a field is refused before
# anything is drawn; the default outage scenario has about 1,257.
MAX_MEAN_SOURCES = 1e7


def _require_at_most(value, limit, names: str, what: str) -> None:
    """Refuse a scenario whose ``value`` (``what``, set by ``names``) exceeds ``limit``."""
    if not value <= limit:
        shown = math.inf if isinstance(value, int) and value > 1e308 else value  # near or past the range of a float
        raise ValueError(f"{names} give {shown:.4g} {what}; the limit is {limit:.0e}")


def _require_finite(params, *names: str) -> None:
    """Refuse NaN and ±inf in the named fields of ``params``, naming the first such field.

    ``params`` is an object, or a dict such as a function's ``locals()``. Ints
    and Fractions are finite and pass (``math.isfinite`` overflows on a huge int).
    """
    for name in names:
        value = params[name] if isinstance(params, dict) else getattr(params, name)
        if not isinstance(value, numbers.Rational) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _require_bound(name: str, value, op: str, bound) -> None:
    """Refuse ``value`` (of ``name``) unless it is ``op`` (``">"``, ``">="`` or ``"<="``) ``bound``; NaN is
    refused too."""
    if not _COMPARE[op](value, bound):
        raise ValueError(f"{name} must be {op} {bound}, got {value}")


def _require_integer(name: str, value, at_least: int) -> None:
    """Refuse ``value`` (of ``name``) unless it is an ``Integral`` >= ``at_least``, the rule of an ``int``
    field; an integral float, NaN and ±inf are refused too."""
    if not (isinstance(value, numbers.Integral) and value >= at_least):
        raise ValueError(f"{name} must be an integer >= {at_least}, got {value}")


def _ranged(default=MISSING, *, above=None, at_least=None, at_most=None):
    """A dataclass field (with ``default``, if given) that must be ``> above`` or ``>= at_least``, and
    ``<= at_most`` if that is given."""
    bounds = ((">", above) if above is not None else (">=", at_least),)
    if at_most is not None:
        bounds += (("<=", at_most),)
    return field(default=default, metadata={"bounds": bounds})


def _check_fields(obj) -> None:
    """Refuse NaN and ±inf in ``obj``'s ranged fields, then a non-integer in a ranged ``int`` field, then any
    ranged value off one of its bounds, each in field order."""
    ranged = [f for f in fields(obj) if "bounds" in f.metadata]
    _require_finite(obj, *(f.name for f in ranged))
    for f in ranged:
        value = getattr(obj, f.name)
        if f.type == "int" and not isinstance(value, numbers.Integral):
            raise ValueError(f"{f.name} must be an integer, got {value}")
    for f in ranged:
        for bound in f.metadata["bounds"]:
            _require_bound(f.name, getattr(obj, f.name), *bound)


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


def path_gain(d, params: PathLossParams):
    """Linear power gain at distance ``d`` meters (scalar or array).

    Returns ``10**(-fixed_loss_db/10) * (max(d, d0)/d0)**(-exponent)`` where
    ``d0`` is the reference distance; distances inside ``d0`` evaluate to the
    gain at ``d0``.
    """
    arr = np.asarray(d, dtype=float)
    if not np.all(arr >= 0):  # NaN is refused too
        raise ValueError("distance must be >= 0")
    gain = _path_gain(arr, params)
    return float(gain) if arr.ndim == 0 else gain


def _path_gain(d: np.ndarray, params: PathLossParams) -> np.ndarray:
    """``path_gain`` on an array of distances already known to be >= 0."""
    fixed = 10.0 ** (-params.fixed_loss_db / 10.0)
    ratio = np.maximum(d, params.reference_distance) / params.reference_distance
    return fixed * ratio ** (-params.exponent)


def sample_hppp(density: float, radius: float, seed) -> np.ndarray:
    """Sample transmitter positions from a homogeneous PPP over a disk.

    The count is Poisson with mean ``density * pi * radius**2`` and positions
    are i.i.d. uniform over the disk centered at the origin. Returns an
    (n, 2) array; identical seeds give identical fields. A field whose mean
    count passes ``MAX_MEAN_SOURCES`` is refused before anything is drawn.
    """
    _require_finite(locals(), "density", "radius")
    _require_bound("density", density, ">=", 0)
    _require_bound("radius", radius, ">", 0)
    mean = _mean_sources(density, radius)
    _require_at_most(mean, MAX_MEAN_SOURCES, "density and radius", "expected points (density * pi * radius**2)")
    rng = np.random.default_rng(seed)
    return _uniform_disk(int(rng.poisson(mean)), radius, rng)


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


def _antenna_count(n_antennas, rows: int, names: str, what: str) -> int:
    """``n_antennas`` as an int, refused unless it is an integer >= 1 (NaN and ±inf are not) and ``rows`` rows
    of it, set by ``names``, fit in ``MAX_ARRAY_ENTRIES`` (no row counts as one: it still builds the phase ramp)."""
    _require_integer("n_antennas", n_antennas, 1)
    _require_at_most(max(rows, 1) * int(n_antennas), MAX_ARRAY_ENTRIES, names, what)
    return int(n_antennas)


def steering_vector(theta, n_antennas: int) -> np.ndarray:
    """Half-wavelength ULA response for plane waves at angles ``theta`` off broadside.

    Element m carries phase ``pi*sin(theta)*m``; entries have unit modulus and
    element 0 is the phase reference. Returns one row of ``n_antennas``
    entries per angle: shape ``theta.shape + (n_antennas,)``. More than
    ``MAX_ARRAY_ENTRIES`` entries are refused before they are allocated.
    """
    s = np.sin(theta)
    m = _antenna_count(n_antennas, s.size, "theta and n_antennas", "steering entries (angles * n_antennas)")
    return np.exp(1j * math.pi * np.multiply.outer(s, np.arange(m)))


def sample_channels(
    sources,
    device,
    n_antennas: int,
    rician: RicianParams,
    pathloss: PathLossParams,
    seed,
) -> np.ndarray:
    """Draw one Rician channel vector per source (rows of ``sources``) toward a ULA at the (x, y) ``device``.

    Returns an (n_sources, n_antennas) complex array whose rows satisfy
    ``E[|h_m|**2] = path_gain(distance)``. The array axis runs along y so
    broadside faces +x; each source's LoS component is steered to its
    geometric angle ``atan2(dy, dx)`` as seen from the device. More than
    ``MAX_ARRAY_ENTRIES`` entries are refused before anything is drawn.
    """
    pts = _as_xy("sources", sources)
    n = pts.shape[0]
    m = _antenna_count(n_antennas, n, "sources and n_antennas", "channel entries (sources * n_antennas)")
    rng = np.random.default_rng(seed)
    diff = pts - _as_xy("device", device, pair=True)
    dist = np.hypot(diff[:, 0], diff[:, 1])
    theta = np.arctan2(diff[:, 1], diff[:, 0])
    los = steering_vector(theta, m)
    scatter = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
    k = rician.k_factor
    mix = math.sqrt(k / (k + 1.0)) * los + math.sqrt(1.0 / (k + 1.0)) * scatter
    amp = np.sqrt(_path_gain(dist, pathloss))  # ``hypot`` of checked positions is finite and >= 0
    return amp[:, None] * mix
