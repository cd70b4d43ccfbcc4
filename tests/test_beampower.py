import math
import os
import time

import numpy as np
import pytest

from wetplan import beampower
from wetplan.beampower import (
    ChannelModel,
    MulticastProblem,
    PrecoderError,
    consumption,
    draw_device_positions,
    min_power_precoder,
    sweep_rf_chains,
)
from wetplan.ambient import Rect
from wetplan.channel import ArrayConfig, PathLossParams, RicianParams, path_gain


def test_consumption_closed_forms():
    assert np.isclose(consumption(0.0, 4), 2.0, rtol=1e-15)
    assert np.isclose(consumption(0.35, 1), 1.5, rtol=1e-15)
    assert np.isclose(consumption(1.0, 8), 1.0 / 0.35 + 4.0, rtol=1e-15)


def test_consumption_monotonicity():
    assert consumption(1.0, 5) < consumption(1.0, 6)
    assert consumption(1.0, 5) < consumption(1.5, 5)


def test_consumption_validation():
    with pytest.raises(ValueError):
        consumption(-1.0, 2)
    with pytest.raises(ValueError):
        consumption(1.0, 2, pa_efficiency=0.0)
    with pytest.raises(ValueError):
        consumption(1.0, 2, pa_efficiency=1.2)


def test_single_device_matches_matched_filter():
    rng = np.random.default_rng(3)
    h = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * 1e-2
    gamma = 1e-3
    sol = min_power_precoder(MulticastProblem(h[None, :], gamma), seed=1)
    opt = gamma / np.linalg.norm(h) ** 2
    assert abs(sol.tx_power - opt) / opt < 1e-6
    # Precoder direction aligns with the channel.
    corr = abs(np.vdot(h, sol.precoder)) / (np.linalg.norm(h) * np.linalg.norm(sol.precoder))
    assert corr > 1.0 - 1e-6


def test_scalar_antenna_is_worst_channel_inverse():
    rng = np.random.default_rng(4)
    h = (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))) * 1e-2
    gamma = 2e-3
    sol = min_power_precoder(MulticastProblem(h, gamma), seed=1)
    expected = gamma / np.min(np.abs(h) ** 2)
    assert np.isclose(sol.tx_power, expected, rtol=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_orthogonal_channels_need_no_division_by_zero():
    # A randomized candidate can miss one device entirely (worst-case gain 0);
    # it is skipped without dividing by its zero gain.
    sol = min_power_precoder(MulticastProblem([[1, 0], [0, 1]], 1e-3))
    assert np.all(np.abs(sol.precoder) ** 2 >= 1e-3 * (1.0 - 1e-4))
    # The optimum puts 1e-3 on each antenna; randomized extraction lands within 2% of it.
    assert np.isclose(sol.sdr_lower_bound, 2e-3, rtol=1e-4)
    assert sol.sdr_lower_bound <= sol.tx_power <= 1.02 * 2e-3


def test_two_antenna_three_device_matches_brute_force():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    gamma = 1e-3
    sol = min_power_precoder(MulticastProblem(h, gamma), seed=2)
    # Oracle: unit-norm precoders on a 1000 x 1000 amplitude/phase grid (the
    # global phase is irrelevant), each rescaled to feasibility.
    amp = np.linspace(0.0, math.pi / 2, 1000)
    phase = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    a_grid, p_grid = np.meshgrid(amp, phase, indexing="ij")
    w = np.stack([np.cos(a_grid).ravel(), (np.sin(a_grid) * np.exp(1j * p_grid)).ravel()], axis=1)
    worst = (np.abs(w @ h.conj().T) ** 2).min(axis=1)
    tx_oracle = gamma / worst.max()
    assert abs(sol.tx_power - tx_oracle) <= 0.02 * tx_oracle


def test_solution_feasible_and_above_certified_bound():
    tol = 1e-4
    for k in range(25):
        rng = np.random.default_rng(100 + k)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        h = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) * 10 ** rng.uniform(-3, 0)
        gamma = 10 ** rng.uniform(-6, -2)
        sol = min_power_precoder(MulticastProblem(h, gamma), tol=tol, seed=k)
        margins = np.abs(h.conj() @ sol.precoder) ** 2
        assert np.all(margins >= gamma * (1.0 - tol))
        assert sol.tx_power >= sol.sdr_lower_bound * (1.0 - tol)


def test_nonconvergence_raises_with_best_candidate(monkeypatch):
    monkeypatch.setattr(beampower, "_MAX_OUTER", 1)
    monkeypatch.setattr(beampower, "_MAX_INNER", 2)
    rng = np.random.default_rng(6)
    h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    with pytest.raises(PrecoderError) as err:
        min_power_precoder(MulticastProblem(h, 1e-3), tol=1e-15)
    best = err.value.best
    assert best is not None
    margins = np.abs(h.conj() @ best.precoder) ** 2
    assert np.all(margins >= 1e-3 * (1.0 - 1e-9))


def test_stacked_relaxations_match_solving_each_alone():
    # Nested channel prefixes, as in the RF-chain sweep (reduced shapes (3, 1),
    # (3, 2) and five of (3, 3)), plus unrelated problems of shared shapes.
    rng = np.random.default_rng(8)
    h = (rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))) * 1e-2
    problems = [MulticastProblem(h[:, :m], 1e-6) for m in range(1, 8)]
    for n, m in ((2, 2), (3, 3), (1, 4), (2, 2)):
        g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        problems.append(MulticastProblem(g, 10 ** rng.uniform(-4, -2)))
    reduced = [beampower._reduce(p) for p in problems]
    together = beampower._solve_relaxations(reduced, 1e-4)
    for red, joint in zip(reduced, together):
        (alone,) = beampower._solve_relaxations([red], 1e-4)
        assert joint[1:] == alone[1:]
        assert joint[0].tobytes() == alone[0].tobytes()
    assert all(res[3] for res in together)


def test_sweep_failure_names_first_unconverged_m(monkeypatch):
    # One short round: m = 1..3 still converge, m = 4 is the first that does not.
    monkeypatch.setattr(beampower, "_MAX_OUTER", 1)
    monkeypatch.setattr(beampower, "_MAX_INNER", 50)
    converged = sweep_rf_chains(4, 2e-6, [1, 2, 3], seed=0)
    with pytest.raises(PrecoderError, match=r"^precoder failed at m=4: relaxation did not converge") as err:
        sweep_rf_chains(4, 2e-6, [1, 2, 3, 4, 5, 6], seed=0)
    best = err.value.best
    assert best is not None and best.precoder.shape == (4,)
    # The failed point's pool still holds the zero-padded m = 3 precoder.
    assert best.tx_power <= converged.points[-1].tx_power


def test_problem_validation():
    with pytest.raises(ValueError):
        MulticastProblem(np.zeros((2, 3), dtype=complex), 1e-3)
    with pytest.raises(ValueError):
        MulticastProblem(np.ones((2, 3), dtype=complex), 0.0)


NON_FINITE_INPUTS = {
    "ArrayConfig.element_spacing": ("element_spacing", lambda x: ArrayConfig(2, element_spacing=x)),
    "MulticastProblem.gamma": ("gamma", lambda x: MulticastProblem([[1 + 1j]], x)),
    "ChannelModel.element_spacing": ("element_spacing", lambda x: ChannelModel(element_spacing=x)),
    "ChannelModel.disk_radius": ("disk_radius", lambda x: ChannelModel(disk_radius=x)),
    "Rect.x_min": ("x_min", lambda x: Rect(x, 0.0, 1.0, 1.0)),
    "Rect.y_min": ("y_min", lambda x: Rect(0.0, x, 1.0, 1.0)),
    "Rect.x_max": ("x_max", lambda x: Rect(0.0, 0.0, x, 1.0)),
    "Rect.y_max": ("y_max", lambda x: Rect(0.0, 0.0, 1.0, x)),
    "consumption.tx_power": ("tx_power", lambda x: consumption(x, 2)),
    "consumption.p_rf": ("p_rf", lambda x: consumption(1.0, 2, p_rf=x)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_INPUTS))
def test_model_inputs_reject_non_finite_values(field, value):
    name, build = NON_FINITE_INPUTS[field]
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
        build(value)


def test_channel_model_requires_positive_element_spacing():
    for spacing in (0.0, -1.0):
        with pytest.raises(ValueError, match="element_spacing must be > 0"):
            ChannelModel(element_spacing=spacing)


def test_sweep_los_single_device_closed_form():
    # Pure LoS: ||h||^2 = M * gain, so tx(M) = gamma / (M * gain) and the
    # consumption curve gamma/(0.35*M*gain) + 0.5*M has a computable argmin.
    # K=1e18 keeps the scattered-component residue at the 1e-9 level.
    model = ChannelModel(rician=RicianParams(1e18))
    device = [(10.0, 0.0)]
    gain = path_gain(10.0, model.pathloss)
    gamma = 2e-6
    ms = list(range(1, 33))
    sweep = sweep_rf_chains(device, gamma, ms, model=model, seed=3)
    for pt in sweep.points:
        expected = gamma / (pt.n_rf * gain)
        assert abs(pt.tx_power - expected) / expected < 1e-6
    curve = [gamma / (0.35 * m * gain) + 0.5 * m for m in ms]
    assert sweep.optimum_n_rf == ms[int(np.argmin(curve))]


def test_sweep_tx_power_non_increasing_over_nested_arrays():
    sweep = sweep_rf_chains(3, 5e-6, [1, 2, 4, 8, 16], seed=11)
    tx = [p.tx_power for p in sweep.points]
    for a, b in zip(tx, tx[1:]):
        assert b <= a * 1.01


def test_sweep_tiny_gamma_prefers_fewest_chains():
    sweep = sweep_rf_chains(2, 1e-12, [1, 2, 4, 8], seed=5)
    assert sweep.optimum_n_rf == 1


def test_sweep_argmin_grows_with_gamma():
    ms = list(range(1, 33))
    low = sweep_rf_chains(4, 1e-6, ms, seed=7)
    high = sweep_rf_chains(4, 1e-5, ms, seed=7)
    assert high.optimum_n_rf >= low.optimum_n_rf


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_rf_chains(2, 1e-6, [], seed=0)
    with pytest.raises(ValueError):
        sweep_rf_chains(2, 1e-6, [2, 2, 3], seed=0)
    with pytest.raises(ValueError):
        sweep_rf_chains(2, 0.0, [1, 2], seed=0)


# (sweep_rf_chains argument, a bad value, the error it must raise)
BAD_SWEEP_ARGUMENTS = [
    ("tol", math.nan, r"^tol must be finite and > 0, got nan$"),
    ("tol", math.inf, r"^tol must be finite and > 0, got inf$"),
    ("tol", -1.0, r"^tol must be finite and > 0, got -1\.0$"),
    ("tol", 0.0, r"^tol must be finite and > 0, got 0\.0$"),
    ("pa_efficiency", 0.0, r"^pa_efficiency must be in \(0, 1\], got 0\.0$"),
    ("pa_efficiency", 1.5, r"^pa_efficiency must be in \(0, 1\], got 1\.5$"),
    ("pa_efficiency", math.nan, r"^pa_efficiency must be in \(0, 1\], got nan$"),
    ("p_rf", -0.5, r"^p_rf must be >= 0, got -0\.5$"),
    ("p_rf", math.inf, r"^p_rf must be finite, got inf$"),
    ("n_randomizations", -3, r"^n_randomizations must be >= 0, got -3$"),
    ("n_randomizations", -1, r"^n_randomizations must be >= 0, got -1$"),
    ("devices", 0, r"^devices must hold at least one device, got 0$"),
    ("devices", [], r"^devices must hold at least one device, got 0$"),
    ("gamma", 0.0, r"^gamma must be finite and > 0, got 0\.0$"),
    ("gamma", -1.0, r"^gamma must be finite and > 0, got -1\.0$"),
    ("gamma", math.nan, r"^gamma must be finite and > 0, got nan$"),
    ("gamma", math.inf, r"^gamma must be finite and > 0, got inf$"),
]


@pytest.mark.parametrize(
    "name, value, message", BAD_SWEEP_ARGUMENTS, ids=[f"{n}={v}" for n, v, _ in BAD_SWEEP_ARGUMENTS]
)
def test_sweep_checks_numeric_arguments_before_any_work(monkeypatch, name, value, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep drew channels or solved a relaxation")

    monkeypatch.setattr(beampower, "draw_device_positions", refuse)
    monkeypatch.setattr(beampower, "sample_channels", refuse)
    monkeypatch.setattr(beampower, "_solve_relaxations", refuse)
    arguments = {"devices": 4, "gamma": 2e-6, "m_values": range(1, 33), "seed": 0}
    with pytest.raises(ValueError, match=message):
        sweep_rf_chains(**{**arguments, name: value})


class DrawReached(Exception):
    pass


# Arguments at the sweep's array limits, the same just past them, and the
# names the refusal starts with. With 32 RF chains the limit is 312,500
# devices or randomizations; 10,000 explicit devices fit 1,000 antennas.
SIZE_LIMITS = [
    ({"devices": 312_500}, {"devices": 312_501}, "devices and m_values"),
    ({"devices": [(1.0, 0.0)] * 10_000, "m_values": (1, 1000)},
     {"devices": [(1.0, 0.0)] * 10_001, "m_values": (1, 1000)}, "devices and m_values"),
    ({"n_randomizations": 312_500}, {"n_randomizations": 312_501}, "n_randomizations and m_values"),
]


@pytest.mark.parametrize("fits, too_large, names", SIZE_LIMITS, ids=["drawn", "explicit", "candidates"])
def test_sweep_refuses_arrays_too_large_to_allocate_before_drawing(monkeypatch, fits, too_large, names):
    def refuse(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(beampower, "draw_device_positions", refuse)
    monkeypatch.setattr(beampower, "sample_channels", refuse)
    arguments = {"devices": 4, "gamma": 2e-6, "m_values": range(1, 33)}
    with pytest.raises(DrawReached):
        sweep_rf_chains(**{**arguments, **fits})
    with pytest.raises(ValueError, match=rf"^{names} give .*; the limit is 1e\+07$"):
        sweep_rf_chains(**{**arguments, **too_large})


# A gain below the least normal float, 2.2e-308, underflows: 1e-4 * 10**-306
# at 10 m is subnormal, and gains at 8 m with exponent 400 or at 1e200 m are 0.
@pytest.mark.parametrize("devices, exponent, message", [
    ([(1.0, 0.0), (10.0, 0.0)], 306.0, r"devices give device 1 at \(10, 0\) a path gain of 1e-310"),
    ([(1e200, 0.0)], 2.7, r"devices give device 0 at \(1e\+200, 0\) a path gain of 0"),
    (4, 400.0, r"disk_radius give device 0 at \(3\.09, -7\.359\) a path gain of 0"),
], ids=["subnormal", "zero", "drawn"])
def test_sweep_refuses_a_device_whose_path_gain_underflows_before_drawing_channels(monkeypatch, devices, exponent,
                                                                                   message):
    def refuse(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(beampower, "sample_channels", refuse)
    model = ChannelModel(pathloss=PathLossParams(exponent, fixed_loss_db=40.0))
    with pytest.raises(ValueError, match=rf"^pathloss\.\* and {message}, which underflows$"):
        sweep_rf_chains(devices, 2e-6, [1], model=model)
    with pytest.raises(DrawReached):
        sweep_rf_chains(4, 2e-6, [1])


# Devices at 1 m and 10 m with exponent 145 and no fixed loss have gains 1 and
# 1e-145, so gamma * max(gain) / min(gain)**2 is gamma * 1e290.
@pytest.mark.parametrize("devices, exponent, gamma, message", [
    ([(1.0, 0.0), (10.0, 0.0)], 145.0, 2.0, r"gamma, pathloss\.\* and devices give 2e\+290"),
    (4, 300.0, 2e-6, r"gamma, pathloss\.\* and disk_radius give inf"),
], ids=["explicit", "drawn"])
def test_sweep_refuses_path_gains_whose_power_scale_overflows_before_drawing_channels(monkeypatch, devices, exponent,
                                                                                      gamma, message):
    def refuse(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(beampower, "sample_channels", refuse)
    model = ChannelModel(pathloss=PathLossParams(exponent))
    with pytest.raises(ValueError, match=rf"^{message} as gamma \* max / min\*\*2 of the device path gains; "
                                         r"the limit is 1e\+290$"):
        sweep_rf_chains(devices, gamma, [1, 2], model=model)
    with pytest.raises(DrawReached):
        sweep_rf_chains([(1.0, 0.0), (10.0, 0.0)], 0.5, [1, 2],
                        model=ChannelModel(pathloss=PathLossParams(145.0)))


BAD_SOLVER_ARGUMENTS = [case for case in BAD_SWEEP_ARGUMENTS if case[0] in ("tol", "n_randomizations")]


@pytest.mark.parametrize(
    "name, value, message", BAD_SOLVER_ARGUMENTS, ids=[f"{n}={v}" for n, v, _ in BAD_SOLVER_ARGUMENTS]
)
def test_precoder_checks_solver_arguments_before_solving(monkeypatch, name, value, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the precoder solved a relaxation")

    monkeypatch.setattr(beampower, "_solve_relaxations", refuse)
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    with pytest.raises(ValueError, match=message):
        min_power_precoder(MulticastProblem(h, 1e-3), **{name: value})


@pytest.mark.parametrize("radius, message", [
    (-1.0, r"^radius must be > 0, got -1\.0$"),
    (0.0, r"^radius must be > 0, got 0\.0$"),
    (math.nan, r"^radius must be finite, got nan$"),
    (math.inf, r"^radius must be finite, got inf$"),
])
def test_device_positions_refuse_a_bad_radius_before_drawing(radius, message):
    with pytest.raises(ValueError, match=message):
        draw_device_positions(3, radius, 0)


def test_device_positions_live_in_disk_and_are_seeded():
    a = draw_device_positions(50, 10.0, seed=1)
    b = draw_device_positions(50, 10.0, seed=1)
    assert all(math.hypot(x, y) <= 10.0 for x, y in a)
    assert [(x, y) for x, y in a] == [(x, y) for x, y in b]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch):
    forked = []
    real_fork = os.fork

    def counted_fork():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


def _nested_prefixes():
    rng = np.random.default_rng(8)
    h = (rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))) * 1e-2
    return [beampower._reduce(MulticastProblem(h[:, :m], 1e-6)) for m in range(1, 8)]


# Only a platform that can fork splits the relaxations.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


# Seven problems over 7 CPUs run one per worker, so 6 forks per call.
@needs_fork
def test_split_relaxations_are_byte_equal_to_a_serial_solve(monkeypatch):
    reduced = _nested_prefixes()
    serial = beampower._solve_share(reduced, 1e-4)
    reference = sweep_rf_chains(3, 2e-6, range(1, 8), seed=4)
    forked = _count_forks(monkeypatch)
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        forked.clear()
        split = beampower._solve_relaxations(reduced, 1e-4)
        assert len(forked) == min(cpus, len(reduced)) - 1
        assert [res[1:] for res in split] == [res[1:] for res in serial]
        assert [res[0].tobytes() for res in split] == [res[0].tobytes() for res in serial]
        assert sweep_rf_chains(3, 2e-6, range(1, 8), seed=4) == reference
        assert len(forked) == 2 * (min(cpus, len(reduced)) - 1)
    _assert_no_child_left()


@needs_fork
def test_one_precoder_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(7)))
    forked = _count_forks(monkeypatch)
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    min_power_precoder(MulticastProblem(h, 1e-3))
    assert forked == []


def _failing_stack(*, in_parent, otherwise=None):
    """A ``_solve_stack`` that raises in this process (``in_parent``) or in
    its forked workers (otherwise), and runs ``otherwise`` (default: the real
    one) on the other side."""
    parent, real = os.getpid(), beampower._solve_stack

    def fake(hhat, tau, tol):
        if (os.getpid() == parent) == in_parent:
            raise MemoryError("worker out of memory")
        return (otherwise or real)(hhat, tau, tol)

    return fake


# m = 1..7 over 3 CPUs: the workers hold m = 1, 4, 7 (this process), 2, 5 and 3, 6.
@needs_fork
def test_a_failing_relaxation_worker_names_its_antenna_counts(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(beampower, "_solve_stack", _failing_stack(in_parent=False))
    with pytest.raises(RuntimeError, match=r"^SDR relaxations for m = 2, 5 failed in a worker process: MemoryError: "):
        sweep_rf_chains(3, 2e-6, range(1, 8), seed=4)
    _assert_no_child_left()


@needs_fork
def test_a_failing_own_share_kills_and_reaps_the_workers(monkeypatch):
    def stall(*args):
        time.sleep(60)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(beampower, "_solve_stack", _failing_stack(in_parent=True, otherwise=stall))
    started = time.monotonic()
    with pytest.raises(MemoryError, match="worker out of memory"):
        beampower._solve_relaxations(_nested_prefixes(), 1e-4)
    assert time.monotonic() - started < 30
    _assert_no_child_left()
