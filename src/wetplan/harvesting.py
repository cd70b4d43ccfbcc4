"""Rectenna transfer curves and the single / DC / RF-combining receiver paths.

The receiver sees ``h``, an (n_sources, n_antennas) complex array of channel
vectors, and each source's power ``p``; the outage trials pass unit-mean
channels with each source's mean incident power. Sources add in power (they
are unsynchronized); antennas combine per architecture. ``_antenna_powers``
and ``_codeword_powers`` reduce one draw to its per-antenna incident powers
and the combined power of each codeword of a DFT codebook; ``_rectify``
turns a stack of such reductions, one row per draw, into harvested power
with one ``harvest`` call per architecture. The outage trials are the only
caller; they check the architecture names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _require_integer

__all__ = [
    "DEFAULT_BREAKPOINTS",
    "ARCHITECTURES",
    "HarvesterCurve",
    "harvest",
    "dft_codebook",
]

# Input power (dBm) -> conversion efficiency. Chosen so a mW-scale target is
# attainable at mW-scale inputs; override via HarvesterCurve(breakpoints=...).
DEFAULT_BREAKPOINTS: tuple[tuple[float, float], ...] = (
    (-30.0, 0.05),
    (-20.0, 0.15),
    (-10.0, 0.30),
    (0.0, 0.45),
    (10.0, 0.50),
)

ARCHITECTURES = ("single", "dc", "rf")


@dataclass(frozen=True)
class HarvesterCurve:
    """Piecewise rectifier efficiency over input power in dBm.

    Below the first breakpoint the rectifier is dead; efficiency interpolates
    linearly over dB input between breakpoints; above the last breakpoint the
    output is pinned at the saturated level (last efficiency times the
    saturation input power).
    """

    breakpoints: tuple[tuple[float, float], ...] = DEFAULT_BREAKPOINTS

    def __post_init__(self):
        pts = tuple((float(p), float(e)) for p, e in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2:
            raise ValueError(f"breakpoints must hold at least 2 points, got {len(pts)}")
        if not all(math.isfinite(v) for pt in pts for v in pt):
            raise ValueError(f"breakpoints must be finite, got {pts}")
        dbm = [p for p, _ in pts]
        if any(b <= a for a, b in zip(dbm, dbm[1:])):
            raise ValueError("breakpoints must have strictly increasing input powers")
        if any(not 0.0 <= e <= 1.0 for _, e in pts):
            raise ValueError("breakpoints must have efficiencies in [0, 1]")


def harvest(p_in, curve: HarvesterCurve):
    """Harvested DC power (W) for input RF power ``p_in`` (W, scalar or array)."""
    arr = np.atleast_1d(np.asarray(p_in, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError("input power must be finite")
    if np.any(arr < 0):
        raise ValueError("input power must be >= 0")
    dbm = np.full(arr.shape, -np.inf)
    nz = arr > 0
    dbm[nz] = 10.0 * np.log10(arr[nz]) + 30.0

    xp = np.array([p for p, _ in curve.breakpoints])
    fp = np.array([e for _, e in curve.breakpoints])
    eta = np.interp(np.clip(dbm, xp[0], xp[-1]), xp, fp)
    (sensitivity_dbm, _), (saturation_dbm, _) = curve.breakpoints[0], curve.breakpoints[-1]
    p_sat = 10.0 ** (saturation_dbm / 10.0) / 1000.0
    out = np.where(dbm >= sensitivity_dbm, eta * np.minimum(arr, p_sat), 0.0)
    if np.asarray(p_in).ndim == 0:
        return float(out[0])
    return out


def dft_codebook(m: int) -> np.ndarray:
    """Orthonormal (M, M) DFT codebook: row k has element exp(2j*pi*k*m/M)/sqrt(M)."""
    _require_integer("codebook size", m, 1)
    k = np.arange(m)
    return np.exp(2j * math.pi * np.outer(k, k) / m) / math.sqrt(m)


# The two reductions of one draw. They are unchecked: ``h`` is (n, M)
# complex and ``p`` the per-source power as a scalar or an (n, 1) column.
# Each sums along the source axis; it runs along contiguous memory when
# ``h``'s columns are contiguous, as the outage trials lay them out.


def _antenna_powers(h: np.ndarray, p) -> np.ndarray:
    """Incident power per antenna, ``sum_s p_s * |h_s|**2``, shape (M,)."""
    return (np.abs(h) ** 2 * p).sum(axis=0)


def _codeword_powers(h: np.ndarray, p, codewords: np.ndarray) -> np.ndarray:
    """Combined power of each codeword, ``sum_s p_s * |w^H h_s|**2``, shape (K,)."""
    proj = (codewords.conj() @ h.T).T  # (n_sources, n_codewords), its columns contiguous
    return (np.abs(proj) ** 2 * p).sum(axis=0)


def _rectify(antenna_powers: np.ndarray, combined: np.ndarray, arch: str, curve: HarvesterCurve) -> np.ndarray:
    """Harvested DC power (T,) of T reduced draws under one architecture.

    ``antenna_powers`` is (T, M) per-antenna incident power and ``combined``
    (T,) the best codeword's power; an architecture reads only its own input.
    ``single`` rectifies antenna 0, ``dc`` sums one rectifier output per
    antenna and ``rf`` rectifies the best codeword's combined signal
    (phase-shifter power treated as free).
    """
    if arch == "single":
        return harvest(antenna_powers[:, 0], curve)
    if arch == "dc":
        return harvest(antenna_powers, curve).sum(axis=1)
    return harvest(combined, curve)
