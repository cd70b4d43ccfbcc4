"""Rectenna transfer curves and the single / DC / RF-combining receiver paths.

A snapshot of the incident RF environment is an ``(H, p)`` tuple: ``H`` is an
(n_sources, n_antennas) complex array of channel vectors and ``p`` the transmit
power of each source, a scalar or an (n_sources,) array. Sources add in power
(they are unsynchronized), antennas combine per architecture.

A snapshot reduces to its per-antenna incident powers and the best rf
codeword's combined power; a stack of such reductions, one row per snapshot,
is rectified with one ``harvest`` call per architecture. ``harvest_architecture``
is that path on a stack of one, so rectifying a stack gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_BREAKPOINTS",
    "ARCHITECTURES",
    "HarvesterCurve",
    "Codebook",
    "dbm_to_watts",
    "harvest",
    "dft_codebook",
    "rf_combine",
    "harvest_architecture",
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


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


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
            raise ValueError("need at least 2 breakpoints")
        dbm = [p for p, _ in pts]
        if any(b <= a for a, b in zip(dbm, dbm[1:])):
            raise ValueError("breakpoint input powers must be strictly increasing")
        if any(not 0.0 <= e <= 1.0 for _, e in pts):
            raise ValueError("efficiencies must lie in [0, 1]")

    @property
    def sensitivity_dbm(self) -> float:
        return self.breakpoints[0][0]

    @property
    def saturation_input_dbm(self) -> float:
        return self.breakpoints[-1][0]


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
    p_sat = dbm_to_watts(curve.saturation_input_dbm)
    out = np.where(dbm >= curve.sensitivity_dbm, eta * np.minimum(arr, p_sat), 0.0)
    if np.asarray(p_in).ndim == 0:
        return float(out[0])
    return out


@dataclass(frozen=True)
class Codebook:
    """Receive combining codewords, one unit-norm row per codeword."""

    codewords: np.ndarray

    def __post_init__(self):
        cw = np.atleast_2d(np.asarray(self.codewords, dtype=complex))
        object.__setattr__(self, "codewords", cw)
        if cw.shape[0] == 0 or cw.shape[1] == 0:
            raise ValueError("codebook must be non-empty")
        norms = np.linalg.norm(cw, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("every codeword must have unit Euclidean norm")

    @property
    def n_antennas(self) -> int:
        return self.codewords.shape[1]


def dft_codebook(m: int) -> Codebook:
    """Orthonormal DFT codebook: codeword k has element exp(2j*pi*k*m/M)/sqrt(M)."""
    if int(m) != m or m < 1:
        raise ValueError(f"codebook size must be an integer >= 1, got {m}")
    k = np.arange(m)
    return Codebook(np.exp(2j * math.pi * np.outer(k, k) / m) / math.sqrt(m))


def _as_snapshot(channels) -> tuple[np.ndarray, np.ndarray]:
    """Check an ``(H, p)`` snapshot; returns H (n, M) complex and p (n,) float."""
    if not (isinstance(channels, tuple) and len(channels) == 2):
        raise TypeError("a snapshot must be an (H, p) tuple")
    h = np.asarray(channels[0], dtype=complex)
    p = np.asarray(channels[1], dtype=float)
    if h.ndim != 2 or h.shape[1] == 0:
        raise ValueError(f"H must have shape (n_sources, n_antennas >= 1), got {h.shape}")
    if not (np.isfinite(h).all() and np.isfinite(p).all()):
        raise ValueError("channels and per-source powers must be finite")
    if (p < 0).any():
        raise ValueError("per-source power scales must be >= 0")
    return h, np.broadcast_to(p, (h.shape[0],))


# The two reductions of one snapshot. They are unchecked: ``h`` is (n, M)
# complex and ``p`` the per-source power as a scalar or an (n, 1) column.


def _antenna_powers(h: np.ndarray, p) -> np.ndarray:
    """Incident power per antenna, ``sum_s p_s * |h_s|**2``, shape (M,)."""
    return (np.abs(h) ** 2 * p).sum(axis=0)


def _codeword_powers(h: np.ndarray, p, codewords: np.ndarray) -> np.ndarray:
    """Combined power of each codeword, ``sum_s p_s * |w^H h_s|**2``, shape (K,)."""
    proj = h @ codewords.conj().T  # (n_sources, n_codewords)
    return (np.abs(proj) ** 2 * p).sum(axis=0)


def _rectify(antenna_powers: np.ndarray, combined: np.ndarray, arch: str, curve: HarvesterCurve) -> np.ndarray:
    """Harvested DC power (T,) of T reduced snapshots under one architecture.

    ``antenna_powers`` is (T, M) per-antenna incident power and ``combined``
    (T,) the best codeword's power; an architecture reads only its own input.
    """
    if arch == "single":
        return harvest(antenna_powers[:, 0], curve)
    if arch == "dc":
        return harvest(antenna_powers, curve).sum(axis=1)
    return harvest(combined, curve)


def rf_combine(channels, codebook: Codebook) -> tuple[int, float]:
    """Best codeword index and its combined RF input power.

    The combined power of codeword ``w`` is ``sum_s p_s * |w^H h_s|**2``
    (coherent across antennas, incoherent across sources). Ties break toward
    the lowest index.
    """
    if codebook is None or codebook.codewords.shape[0] == 0:
        raise ValueError("codebook must be non-empty")
    h, p = _as_snapshot(channels)
    if h.shape[1] != codebook.n_antennas:
        raise ValueError(
            f"channel length {h.shape[1]} does not match codebook antennas {codebook.n_antennas}"
        )
    powers = _codeword_powers(h, p[:, None], codebook.codewords)
    best = int(np.argmax(powers))
    return best, float(powers[best])


def harvest_architecture(channels, arch: str, curve: HarvesterCurve, codebook: Codebook | None = None) -> float:
    """Harvested DC power of one ``(H, p)`` snapshot under a receiver architecture.

    ``single`` rectifies antenna 0 only, ``dc`` sums one rectifier output per
    antenna, ``rf`` rectifies the best-codeword combined signal (phase-shifter
    power treated as free).
    """
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")
    if arch == "rf":
        if codebook is None:
            raise ValueError("rf architecture requires a codebook")
        _, combined = rf_combine(channels, codebook)
        return float(_rectify(None, np.array([combined]), arch, curve)[0])
    h, p = _as_snapshot(channels)
    return float(_rectify(_antenna_powers(h, p[:, None])[None], None, arch, curve)[0])
