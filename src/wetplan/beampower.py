"""Minimum-power multicast energy precoding and the RF-chain consumption sweep.

The precoder problem (min ||w||^2 s.t. |h_i^H w|^2 >= gamma for every device)
is solved in three phases:

1. Reduce: normalize the channels and restrict the problem to their span, so
   the semidefinite relaxation (SDR) is at most n_devices-dimensional.
2. Relax: a penalized projected-gradient scheme (FISTA with restarts; PSD
   projection via eigenvalue clipping) that certifies a dual lower bound.
   Relaxations run as ``(B, n, r)`` stacks, one per reduced shape, each
   problem with its own penalty and counters, so a stack gives bitwise the
   iterates of solving each problem alone. Several problems are dealt
   round-robin across the CPUs the process may run on (``_fork.fork_map``,
   which ``outage`` shares); each worker stacks its own share, so the bytes
   do not depend on the CPU count.
3. Extract: Gaussian samples of the relaxed solution plus matched-filter,
   leading-eigenvector and, in a sweep, the previous precoder, each rescaled
   to exact feasibility, cheapest kept.

``sweep_rf_chains`` reduces and relaxes every antenna count at once and
extracts in order, since each candidate pool holds the previous precoder.
Beacon consumption follows the linear amplifier + per-chain model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fork import fork_map
from .channel import (
    MAX_ARRAY_ENTRIES, ArrayConfig, PathLossParams, RicianParams, _as_xy, _check_fields, _path_gain, _ranged,
    _require_at_most, _require_bound, _require_finite, _uniform_disk, sample_channels,
)

__all__ = [
    "MulticastProblem",
    "PrecoderSolution",
    "PrecoderError",
    "ConsumptionPoint",
    "RfChainSweep",
    "ChannelModel",
    "consumption",
    "min_power_precoder",
    "draw_device_positions",
    "sweep_rf_chains",
]


# Relaxation round limits: penalty rounds (rho x10 each) and FISTA iterations per round.
_MAX_OUTER = 8
_MAX_INNER = 2000
# Defaults of the beacon's consumption model (amplifier efficiency, W per RF
# chain) and of the precoder solver (relative primal-dual gap, randomized
# candidates), shared by the functions that take them.
_PA_EFFICIENCY, _P_RF = 0.35, 0.5
_TOL, _N_RANDOMIZATIONS = 1e-4, 200
# Limit on gamma * max(gain) / min(gain)**2 over the device path gains: the carried precoder's margins
# over the normalized floors reach about this, and must stay inside a float (1.8e308) with room for fading.
_MAX_POWER_SCALE = 1e290


class PrecoderError(RuntimeError):
    """Raised when the relaxation fails to converge; carries the best feasible
    candidate found so far (or None)."""

    def __init__(self, message: str, best: "PrecoderSolution | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class MulticastProblem:
    """Device channels (rows, path loss included) and the common power floor."""

    channels: np.ndarray
    gamma: float = _ranged(above=0)

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.channels, dtype=complex))
        object.__setattr__(self, "channels", h)
        if h.shape[0] < 1 or h.shape[1] < 1:
            raise ValueError("need at least one device channel with one antenna")
        _check_fields(self)
        if np.any(np.linalg.norm(h, axis=1) == 0):
            raise ValueError("channels must not contain an all-zero row")


@dataclass(frozen=True)
class PrecoderSolution:
    precoder: np.ndarray
    tx_power: float
    sdr_lower_bound: float


@dataclass(frozen=True)
class ConsumptionPoint:
    n_rf: int
    tx_power: float
    total_consumption: float


@dataclass(frozen=True)
class RfChainSweep:
    points: tuple[ConsumptionPoint, ...]
    optimum_n_rf: int


def consumption(tx_power: float, n_rf: int, pa_efficiency: float = _PA_EFFICIENCY, p_rf: float = _P_RF) -> float:
    """Beacon power draw: amplifier input at the given efficiency plus the
    per-RF-chain overhead."""
    _require_finite(locals(), "tx_power", "p_rf")
    _require_bound("tx_power", tx_power, ">=", 0)
    if not 0.0 < pa_efficiency <= 1.0:
        raise ValueError(f"pa_efficiency must be in (0, 1], got {pa_efficiency}")
    _require_bound("n_rf", n_rf, ">=", 0)
    _require_bound("p_rf", p_rf, ">=", 0)
    return tx_power / pa_efficiency + n_rf * p_rf


def _margins(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Real quadratic forms u_i^H V u_i for every row of u (stacks too)."""
    return ((u.conj() @ v) * u).sum(axis=-1).real


class _RelaxationState:
    """Best feasibility-scaled primal and best certified dual bound so far."""

    def __init__(self):
        self.primal = math.inf
        self.v_feasible: np.ndarray | None = None
        self.dual = 0.0

    def update(self, hhat: np.ndarray, tau: np.ndarray, v: np.ndarray, rho: float) -> None:
        marg = _margins(hhat, v)
        ratio = float(np.min(marg / tau))
        if ratio > 0:
            primal = float(np.real(np.trace(v))) / ratio
            if primal < self.primal:
                self.primal = primal
                self.v_feasible = v / ratio
        # Any lam >= 0 certifies sum(lam*tau)/lambda_max(sum lam_i a_i a_i^H)
        # as a lower bound on the relaxation value; the penalty gradient
        # supplies multiplier estimates lam_i = 2*rho*shortfall_i.
        lam = 2.0 * rho * np.maximum(0.0, tau - marg)
        if np.any(lam > 0):
            mat = (hhat.T * lam) @ hhat.conj()
            lmax = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[-1])
            if lmax > 0:
                self.dual = max(self.dual, float(lam @ tau) / lmax)

    def gap_closed(self, tol: float) -> bool:
        return (
            self.dual > 0.0
            and math.isfinite(self.primal)
            and self.primal - self.dual <= tol * self.primal
        )


@dataclass(frozen=True)
class _Reduced:
    """A problem in normalized units on the span of its channels.

    ``hhat`` holds the reduced unit rows c_i, with hhat_i^H (B y) = c_i^H y
    for the orthonormal ``basis`` B (M, r); ``tau`` lies in (0, 1] with max 1,
    and a normalized cost c is a transmit power of ``cstar * c``.
    """

    hhat: np.ndarray
    tau: np.ndarray
    cstar: float
    basis: np.ndarray


def _reduce(problem: MulticastProblem) -> _Reduced:
    h = problem.channels
    norms = np.linalg.norm(h, axis=1)
    hhat = h / norms[:, None]
    thresholds = problem.gamma / norms**2  # per-device floor on |hhat_i^H w|^2
    cstar = float(np.max(thresholds))
    # The optimum is supported on span{h_i}: any orthogonal precoder (or V)
    # component changes no margin and only adds power. Solving in that
    # subspace keeps the SDP at most n_devices-dimensional.
    basis, _ = np.linalg.qr(hhat.T)  # (M, r) orthonormal columns
    return _Reduced(hhat @ basis.conj(), thresholds / cstar, cstar, basis)


def _solve_relaxations(problems: list[_Reduced], tol: float) -> list[tuple[np.ndarray | None, float, float, bool]]:
    """min tr(V) s.t. hhat_i^H V hhat_i >= tau_i, V PSD, for every problem.

    The problems are dealt round-robin across the CPUs (``fork_map``); a
    worker's failure raises a ``RuntimeError`` that names the antenna counts
    of the problems it held. Returns, per problem, (feasibility-scaled V,
    primal value, certified dual bound, converged), whatever the CPU count.
    """
    return fork_map(
        lambda share: _solve_share([problems[k] for k in share], tol),
        len(problems),
        lambda share: "SDR relaxations for m = " + ", ".join(str(problems[k].basis.shape[0]) for k in share),
    )


def _solve_share(problems: list[_Reduced], tol: float) -> list:
    """``_solve_relaxations`` in this process: the problems of one reduced
    shape run as one stack. Each keeps its own penalty, step, momentum and
    iteration counters, so its iterates are bitwise those of solving it
    alone, whatever else shares its stack."""
    results: list = [None] * len(problems)
    groups: dict[tuple[int, int], list[int]] = {}
    for k, prob in enumerate(problems):
        groups.setdefault(prob.hhat.shape, []).append(k)
    for members in groups.values():
        hhat = np.stack([problems[k].hhat for k in members])
        tau = np.stack([problems[k].tau for k in members])
        for k, res in zip(members, _solve_stack(hhat, tau, tol)):
            results[k] = res
    return results


def _solve_stack(hhat: np.ndarray, tau: np.ndarray, tol: float) -> list:
    """Penalty + FISTA on a ``(B, n, r)`` stack, one problem per matrix.

    Every operation acts on each matrix alone, with the strides a 2-D array
    would have, so a problem's iterates do not depend on the rest of its
    stack. A problem leaves the stack once its primal-dual gap closes or its
    outer rounds run out.
    """
    b, n, r = hhat.shape
    results: list = [None] * b
    states = [_RelaxationState() for _ in range(b)]
    live = np.arange(b)
    eye = np.eye(r)
    v = np.repeat(np.eye(r, dtype=complex)[None], b, axis=0)  # feasible start: margins = 1 >= tau
    y = v.copy()
    rho = np.full(b, 8.0)
    t_mom = np.ones(b)
    inner = np.zeros(b, dtype=int)
    outer = np.zeros(b, dtype=int)
    while live.size:
        twice_rho = (2.0 * rho)[:, None, None]
        step = (1.0 / (1.0 + 2.0 * rho * n))[:, None, None]
        hhat_t, hhat_c = hhat.transpose(0, 2, 1), hhat.conj()
        # Iterate up to the next 50-iteration check or round limit of any
        # problem, or until one stalls; the stacks change only then.
        steps = int(np.min(np.minimum(50 - inner % 50, _MAX_INNER - inner)))
        for done in range(1, steps + 1):
            shortfall = np.maximum(0.0, tau - _margins(hhat, y))
            grad = eye - (twice_rho * (hhat_t * shortfall[:, None, :])) @ hhat_c
            x = y - step * grad
            w, phi = np.linalg.eigh(0.5 * (x + x.conj().transpose(0, 2, 1)))
            v_new = (phi * np.maximum(w, 0.0)[:, None, :]) @ phi.conj().transpose(0, 2, 1)
            moved = v_new - v
            # Nesterov momentum with gradient-based restart. The restart test
            # and the stall test read only a sign and a threshold, so they
            # use plain sums: Re<a, b> is the dot product of the real views.
            moved_f = moved.reshape(live.size, -1).view(float)
            restart = np.einsum("ij,ij->i", (y - v_new).reshape(live.size, -1).view(float), moved_f) > 0
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            y = np.where(restart[:, None, None], v_new, v_new + ((t_mom - 1.0) / t_next)[:, None, None] * moved)
            t_mom = np.where(restart, 1.0, t_next)
            # ||V_new - V|| / max(1, ||V||) < 1e-11, squared.
            v_f = v.reshape(live.size, -1).view(float)
            v_sq = np.einsum("ij,ij->i", v_f, v_f)
            stalled = np.einsum("ij,ij->i", moved_f, moved_f) < 1e-22 * np.maximum(1.0, v_sq)
            v = v_new
            if stalled.any():
                break
        inner += done
        round_over = stalled | (inner == _MAX_INNER)
        keep = np.ones(live.size, dtype=bool)
        for i in np.flatnonzero((inner % 50 == 0) | round_over):
            state = states[live[i]]
            state.update(hhat[i], tau[i], v[i], rho[i])
            closed = state.gap_closed(tol)
            if round_over[i] and not closed and outer[i] + 1 < _MAX_OUTER:
                # Next round: ten times the penalty, momentum restarted.
                rho[i] *= 10.0
                outer[i] += 1
                y[i] = v[i]
                t_mom[i] = 1.0
                inner[i] = 0
                continue
            if closed or round_over[i]:
                keep[i] = False
                results[live[i]] = (state.v_feasible, state.primal, state.dual, closed)
        if not keep.all():
            live, hhat, tau, v, y = live[keep], hhat[keep], tau[keep], v[keep], y[keep]
            rho, t_mom, inner, outer = rho[keep], t_mom[keep], inner[keep], outer[keep]
    return results


def _best_candidate(
    hhat: np.ndarray, tau: np.ndarray, v: np.ndarray | None, n_random: int, rng, extra: tuple
) -> tuple[np.ndarray, float] | None:
    """Cheapest candidate direction scaled so min_i margins_i/tau_i = 1.

    Returns (scaled vector, cost) in normalized units; the original transmit
    power is ``cstar * cost``.
    """
    n, m = hhat.shape
    candidates = [hhat]
    if v is not None:
        w_eig, phi = np.linalg.eigh(0.5 * (v + v.conj().T))
        w_eig = np.maximum(w_eig, 0.0)
        z = (rng.standard_normal((n_random, m)) + 1j * rng.standard_normal((n_random, m))) / math.sqrt(2.0)
        candidates.append((z * np.sqrt(w_eig)) @ phi.T)
        candidates.append(phi[:, -1][None, :])
    candidates.extend(np.asarray(e, dtype=complex).reshape(1, -1) for e in extra)
    pool = np.vstack(candidates)

    margins = np.abs(pool @ hhat.conj().T) ** 2  # (n_cand, n_dev)
    worst = (margins / tau[None, :]).min(axis=1)
    norms = np.sum(np.abs(pool) ** 2, axis=1)
    valid = (worst > 0.0) & np.isfinite(worst) & (norms > 0.0)
    if not np.any(valid):
        return None
    cost = np.full(worst.shape, np.inf)
    cost[valid] = norms[valid] / worst[valid]
    j = int(np.argmin(cost))
    w = pool[j] / math.sqrt(worst[j])
    return w, float(cost[j])


def _extract(
    red: _Reduced,
    relaxed: tuple,
    tol: float,
    n_randomizations: int,
    seed: int,
    extra_candidates: tuple,
) -> PrecoderSolution:
    """Cheapest rank-1 precoder from a solved relaxation and extra candidates."""
    v, _, dual, converged = relaxed
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    extras = tuple(np.asarray(e, dtype=complex).ravel() @ red.basis.conj() for e in extra_candidates)
    picked = _best_candidate(red.hhat, red.tau, v, n_randomizations, rng, extras)

    precoder, tx_power = None, math.inf
    if picked is not None:
        w_norm, cost = picked
        precoder = math.sqrt(red.cstar) * (red.basis @ w_norm)
        tx_power = red.cstar * cost
    if not converged:
        best = None
        if picked is not None:
            best = PrecoderSolution(precoder, tx_power, math.nan)
        raise PrecoderError(
            f"relaxation did not converge within {_MAX_OUTER} outer rounds (tol {tol})", best=best
        )
    if picked is None:
        raise PrecoderError("no feasible rank-1 candidate found", best=None)
    return PrecoderSolution(precoder, tx_power, sdr_lower_bound=min(red.cstar * dual, tx_power))


def _check_solver_arguments(tol: float, n_randomizations: int) -> None:
    """Refuse a relaxation tolerance or a randomization count no solve can use."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    _require_bound("n_randomizations", n_randomizations, ">=", 0)


def min_power_precoder(
    problem: MulticastProblem,
    tol: float = _TOL,
    n_randomizations: int = _N_RANDOMIZATIONS,
    seed: int = 0,
) -> PrecoderSolution:
    """Minimum-transmit-power precoder meeting every device's received floor.

    The returned precoder satisfies |h_i^H w|^2 >= gamma exactly at the worst
    device. ``sdr_lower_bound`` is a certified value of the semidefinite
    relaxation's dual, so it lower-bounds every feasible transmit power; it is
    capped at ``tx_power``, because where the relaxation is tight rounding can
    put the dual value a few ulps above the precoder that attains it. The
    solver stops once the relaxation's primal-dual gap closes within ``tol``.
    """
    _check_solver_arguments(tol, n_randomizations)
    red = _reduce(problem)
    (relaxed,) = _solve_relaxations([red], tol)
    return _extract(red, relaxed, tol, n_randomizations, seed, ())


@dataclass(frozen=True)
class ChannelModel:
    """Link model used to draw device channels for the RF-chain sweep."""

    pathloss: PathLossParams = PathLossParams(exponent=2.7, fixed_loss_db=40.0, reference_distance=1.0)
    rician: RicianParams = RicianParams(10.0)
    element_spacing: float = _ranged(0.5, above=0)
    disk_radius: float = _ranged(10.0, above=0)

    __post_init__ = _check_fields


def draw_device_positions(n: int, radius: float, seed) -> np.ndarray:
    """``n`` uniform device positions in a disk of ``radius`` around the beacon, as an (n, 2) array."""
    if n < 1:
        raise ValueError(f"need at least one device, got {n}")
    _require_finite(locals(), "radius")
    _require_bound("radius", radius, ">", 0)
    return _uniform_disk(n, radius, np.random.default_rng(seed))


def sweep_rf_chains(
    devices,
    gamma: float,
    m_values,
    model: ChannelModel | None = None,
    seed: int = 0,
    pa_efficiency: float = _PA_EFFICIENCY,
    p_rf: float = _P_RF,
    tol: float = _TOL,
    n_randomizations: int = _N_RANDOMIZATIONS,
) -> RfChainSweep:
    """Transmit power and total consumption across antenna/RF-chain counts.

    ``devices`` is a device count (positions drawn uniformly in the model
    disk) or explicit positions, an (n, 2) array. Channels are drawn once at
    max(m_values) and truncated, so the M-antenna channel is a prefix of the
    (M+1)-antenna one; the previous best precoder is zero-padded into the next
    candidate pool, which makes tx_power(M) non-increasing by construction.
    Ties in total consumption resolve to the smallest M. Every argument is
    checked, and a scenario too large to allocate refused, before anything is
    drawn; a device whose path gain underflows, or gains whose power scale
    would overflow (``_MAX_POWER_SCALE``), are refused before the channels are.
    """
    model = model or ChannelModel()
    ms = [int(m) for m in m_values]
    if not ms:
        raise ValueError("m_values must be non-empty")
    if any(b <= a for a, b in zip(ms, ms[1:])) or ms[0] < 1:
        raise ValueError("m_values must be strictly increasing integers >= 1")
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    _check_solver_arguments(tol, n_randomizations)
    consumption(0.0, 0, pa_efficiency, p_rf)  # checks pa_efficiency and p_rf before anything is drawn
    drawn = isinstance(devices, (int, np.integer))
    pts = None if drawn else _as_xy("devices", devices)
    n_devices = int(devices) if drawn else pts.shape[0]
    if n_devices < 1:
        raise ValueError(f"devices must hold at least one device, got {n_devices}")
    m_max = ms[-1]
    _require_at_most(n_devices * m_max, MAX_ARRAY_ENTRIES, "devices and m_values",
                     "channel entries (devices * max(m_values))")
    _require_at_most(n_randomizations * m_max, MAX_ARRAY_ENTRIES, "n_randomizations and m_values",
                     "candidate entries (n_randomizations * max(m_values))")

    if drawn:
        pts = draw_device_positions(n_devices, model.disk_radius, np.random.SeedSequence([int(seed), 0]))
    gains = _path_gain(np.hypot(pts[:, 0], pts[:, 1]), model.pathloss)
    names = f"pathloss.* and {'disk_radius' if drawn else 'devices'}"
    for i in np.flatnonzero(gains < np.finfo(float).tiny):
        raise ValueError(f"{names} give device {i} at ({pts[i, 0]:.4g}, {pts[i, 1]:.4g}) a path gain of "
                         f"{gains[i]:.4g}, which underflows")
    scale = gamma / float(gains.min()) * float(gains.max() / gains.min())  # a Python float overflows to inf silently
    _require_at_most(scale, _MAX_POWER_SCALE, f"gamma, {names}", "as gamma * max / min**2 of the device path gains")
    h_full = sample_channels(pts, np.zeros(2), ArrayConfig(m_max, model.element_spacing), model.rician, model.pathloss,
                             seed=np.random.SeedSequence([int(seed), 1]))

    reduced = [_reduce(MulticastProblem(h_full[:, :m], gamma)) for m in ms]
    relaxed = _solve_relaxations(reduced, tol)

    points: list[ConsumptionPoint] = []
    prev_w: np.ndarray | None = None
    for m, red, rel in zip(ms, reduced, relaxed):
        extras = ()
        if prev_w is not None:
            extras = (np.concatenate([prev_w, np.zeros(m - prev_w.shape[0], dtype=complex)]),)
        extract_seed = int(np.random.SeedSequence([int(seed), 2, m]).generate_state(1, dtype=np.uint64)[0])
        try:
            sol = _extract(red, rel, tol, n_randomizations, extract_seed, extras)
        except PrecoderError as err:
            raise PrecoderError(f"precoder failed at m={m}: {err}", best=err.best) from err
        points.append(ConsumptionPoint(m, sol.tx_power, consumption(sol.tx_power, m, pa_efficiency, p_rf)))
        prev_w = sol.precoder

    best = min(points, key=lambda pt: (pt.total_consumption, pt.n_rf))
    return RfChainSweep(tuple(points), best.n_rf)
