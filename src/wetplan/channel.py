"""Log-distance propagation, Poisson transmitter fields, and Rician ULA channels.

All samplers take an explicit ``seed`` (an int, a ``numpy.random.SeedSequence``,
or a ``Generator``) and are pure functions of their inputs, so draws can be
evaluated in any order without changing results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Position2D",
    "PathLossParams",
    "RicianParams",
    "ArrayConfig",
    "positions_to_array",
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


@dataclass(frozen=True)
class Position2D:
    """A point in the deployment plane, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


def positions_to_array(positions) -> np.ndarray:
    """Stack positions (``Position2D`` or (x, y) pairs) into an (n, 2) array."""
    if isinstance(positions, np.ndarray):
        arr = np.asarray(positions, dtype=float)
    else:
        rows = []
        for p in positions:
            if isinstance(p, Position2D):
                rows.append((p.x, p.y))
            else:
                rows.append((float(p[0]), float(p[1])))
        arr = np.array(rows, dtype=float).reshape(-1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) positions, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss: a fixed loss plus a distance power law.

    The power law is clamped below ``reference_distance`` so the model stays
    finite in the near field.
    """

    exponent: float
    fixed_loss_db: float = 0.0
    reference_distance: float = 1.0

    def __post_init__(self):
        _require_finite(self, "exponent", "fixed_loss_db", "reference_distance")
        if self.exponent <= 0:
            raise ValueError(f"exponent must be > 0, got {self.exponent}")
        if self.reference_distance <= 0:
            raise ValueError(f"reference_distance must be > 0, got {self.reference_distance}")
        if self.fixed_loss_db < 0:
            raise ValueError(f"fixed_loss_db must be >= 0, got {self.fixed_loss_db}")


@dataclass(frozen=True)
class RicianParams:
    """Rician fading with linear K-factor; K=0 is Rayleigh, large K is pure LoS."""

    k_factor: float

    def __post_init__(self):
        _require_finite(self, "k_factor")
        if self.k_factor < 0:
            raise ValueError(f"k_factor must be >= 0, got {self.k_factor}")


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array; element spacing is in wavelengths."""

    n_antennas: int
    element_spacing: float = 0.5

    def __post_init__(self):
        if int(self.n_antennas) != self.n_antennas or self.n_antennas < 1:
            raise ValueError(f"n_antennas must be an integer >= 1, got {self.n_antennas}")
        _require_finite(self, "element_spacing")
        if self.element_spacing <= 0:
            raise ValueError(f"element_spacing must be > 0, got {self.element_spacing}")


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
    if density < 0:
        raise ValueError(f"density must be >= 0, got {density}")
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
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
    """Draw one Rician channel vector per source toward a ULA at ``device``.

    Returns an (n_sources, n_antennas) complex array whose rows satisfy
    ``E[|h_m|**2] = path_gain(distance)``. The array axis runs along y so
    broadside faces +x; each source's LoS component is steered to its
    geometric angle ``atan2(dy, dx)`` as seen from the device.
    """
    rng = np.random.default_rng(seed)
    pts = positions_to_array(sources)
    diff = pts - positions_to_array([device])
    dist = np.hypot(diff[:, 0], diff[:, 1])
    theta = np.arctan2(diff[:, 1], diff[:, 0])

    n, m = pts.shape[0], array.n_antennas
    los = steering_vector(theta, array)
    scatter = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
    k = rician.k_factor
    mix = math.sqrt(k / (k + 1.0)) * los + math.sqrt(1.0 / (k + 1.0)) * scatter
    amp = np.sqrt(path_gain(dist, pathloss))
    return amp[:, None] * mix

