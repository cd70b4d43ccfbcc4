import math
import os

import numpy as np
import pytest

from wetplan import beampower
from wetplan.beampower import (
    MulticastProblem,
    PrecoderError,
    PrecoderSolver,
    RfChainConfig,
    consumption,
    draw_device_positions,
    min_power_precoder,
    sweep_rf_chains,
)
from wetplan.ambient import Rect
from wetplan.channel import PathLossParams, RicianParams, path_gain


def _sweep(m_values=range(1, 33), devices=None, seed=0, **fields):
    """``sweep_rf_chains`` on the default scenario with ``fields`` changed."""
    return sweep_rf_chains(RfChainConfig(**fields), m_values, devices, seed)


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
    for n_rf in (-1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^n_rf must be an integer >= 0, got {n_rf}$"):
            consumption(1.0, n_rf)


def test_single_device_matches_matched_filter():
    rng = np.random.default_rng(3)
    h = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * 1e-2
    gamma = 1e-3
    sol = min_power_precoder(MulticastProblem(h[None, :], gamma), PrecoderSolver(), seed=1)
    opt = gamma / np.linalg.norm(h) ** 2
    assert abs(sol.tx_power - opt) / opt < 1e-6
    # Precoder direction aligns with the channel.
    corr = abs(np.vdot(h, sol.precoder)) / (np.linalg.norm(h) * np.linalg.norm(sol.precoder))
    assert corr > 1.0 - 1e-6


def test_scalar_antenna_is_worst_channel_inverse():
    rng = np.random.default_rng(4)
    h = (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))) * 1e-2
    gamma = 2e-3
    sol = min_power_precoder(MulticastProblem(h, gamma), PrecoderSolver(), seed=1)
    expected = gamma / np.min(np.abs(h) ** 2)
    assert np.isclose(sol.tx_power, expected, rtol=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_orthogonal_channels_need_no_division_by_zero():
    # A randomized candidate can miss one device entirely (worst-case gain 0);
    # it is skipped without dividing by its zero gain.
    sol = min_power_precoder(MulticastProblem([[1, 0], [0, 1]], 1e-3), PrecoderSolver())
    assert np.all(np.abs(sol.precoder) ** 2 >= 1e-3 * (1.0 - 1e-4))
    # The optimum puts 1e-3 on each antenna; randomized extraction lands within 2% of it.
    assert np.isclose(sol.sdr_lower_bound, 2e-3, rtol=1e-4)
    assert sol.sdr_lower_bound <= sol.tx_power <= 1.02 * 2e-3


def test_two_antenna_three_device_matches_brute_force():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    gamma = 1e-3
    sol = min_power_precoder(MulticastProblem(h, gamma), PrecoderSolver(), seed=2)
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
        sol = min_power_precoder(MulticastProblem(h, gamma), PrecoderSolver(tol=tol), seed=k)
        margins = np.abs(h.conj() @ sol.precoder) ** 2
        assert np.all(margins >= gamma * (1.0 - tol))
        assert sol.tx_power >= sol.sdr_lower_bound * (1.0 - tol)


def test_nonconvergence_raises_with_best_candidate(monkeypatch):
    monkeypatch.setattr(beampower, "_MAX_OUTER", 1)
    monkeypatch.setattr(beampower, "_MAX_INNER", 2)
    rng = np.random.default_rng(6)
    h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    with pytest.raises(PrecoderError) as err:
        min_power_precoder(MulticastProblem(h, 1e-3), PrecoderSolver(tol=1e-15))
    best = err.value.best
    assert best is not None
    margins = np.abs(h.conj() @ best.precoder) ** 2
    assert np.all(margins >= 1e-3 * (1.0 - 1e-9))


def _mixed_problems():
    """Nested channel prefixes, as in the RF-chain sweep (reduced shapes (3, 1),
    (3, 2) and five of (3, 3)), plus unrelated problems of shared shapes."""
    rng = np.random.default_rng(8)
    h = (rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))) * 1e-2
    problems = [MulticastProblem(h[:, :m], 1e-6) for m in range(1, 8)]
    for n, m in ((2, 2), (3, 3), (1, 4), (2, 2)):
        g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        problems.append(MulticastProblem(g, 10 ** rng.uniform(-4, -2)))
    return [beampower._reduce(p) for p in problems]


def _assert_stack_matches_each_alone(reduced):
    together = beampower._solve_relaxations(reduced, 1e-4)
    for red, joint in zip(reduced, together):
        (alone,) = beampower._solve_relaxations([red], 1e-4)
        assert joint[1:] == alone[1:]
        assert joint[0].tobytes() == alone[0].tobytes()
    return together


def test_stacked_relaxations_match_solving_each_alone():
    assert all(res[3] for res in _assert_stack_matches_each_alone(_mixed_problems()))


# With 120 iterations a round, rounds end between the 50-iteration checks, so
# problems leave their stack at different check passes, some unconverged.
def test_stacked_relaxations_match_solving_each_alone_off_the_check_cadence(monkeypatch):
    monkeypatch.setattr(beampower, "_MAX_INNER", 120)
    together = _assert_stack_matches_each_alone(_mixed_problems())
    assert {res[3] for res in together} == {True, False}


def test_sweep_failure_names_first_unconverged_m(monkeypatch):
    # One short round: m = 1..3 still converge, m = 4 is the first that does not.
    monkeypatch.setattr(beampower, "_MAX_OUTER", 1)
    monkeypatch.setattr(beampower, "_MAX_INNER", 50)
    converged = _sweep([1, 2, 3])
    with pytest.raises(PrecoderError, match=r"^precoder failed at m=4: relaxation did not converge") as err:
        _sweep([1, 2, 3, 4, 5, 6])
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
    "MulticastProblem.gamma": ("gamma", lambda x: MulticastProblem([[1 + 1j]], x)),
    "RfChainConfig.disk_radius": ("disk_radius", lambda x: RfChainConfig(disk_radius=x)),
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


def test_sweep_los_single_device_closed_form():
    # Pure LoS: ||h||^2 = M * gain, so tx(M) = gamma / (M * gain) and the
    # consumption curve gamma/(0.35*M*gain) + 0.5*M has a computable argmin.
    # K=1e18 keeps the scattered-component residue at the 1e-9 level.
    gamma = 2e-6
    config = RfChainConfig(rician=RicianParams(1e18), gamma=gamma)
    gain = path_gain(10.0, config.pathloss)
    ms = list(range(1, 33))
    sweep = sweep_rf_chains(config, ms, [(10.0, 0.0)], seed=3)
    for pt in sweep.points:
        expected = gamma / (pt.n_rf * gain)
        assert abs(pt.tx_power - expected) / expected < 1e-6
    curve = [gamma / (0.35 * m * gain) + 0.5 * m for m in ms]
    assert sweep.optimum_n_rf == ms[int(np.argmin(curve))]


def test_sweep_tx_power_non_increasing_over_nested_arrays():
    sweep = _sweep([1, 2, 4, 8, 16], seed=11, gamma=5e-6, n_devices=3)
    tx = [p.tx_power for p in sweep.points]
    for a, b in zip(tx, tx[1:]):
        assert b <= a * 1.01


def test_sweep_tiny_gamma_prefers_fewest_chains():
    sweep = _sweep([1, 2, 4, 8], seed=5, gamma=1e-12, n_devices=2)
    assert sweep.optimum_n_rf == 1


def test_sweep_argmin_grows_with_gamma():
    ms = list(range(1, 33))
    low = _sweep(ms, seed=7, gamma=1e-6)
    high = _sweep(ms, seed=7, gamma=1e-5)
    assert high.optimum_n_rf >= low.optimum_n_rf


# (record, field, a bad value, the refusal its constructor must raise)
BAD_RECORD_FIELDS = [
    (PrecoderSolver, "tol", math.nan, r"^tol must be finite, got nan$"),
    (PrecoderSolver, "tol", math.inf, r"^tol must be finite, got inf$"),
    (PrecoderSolver, "tol", -1.0, r"^tol must be > 0, got -1\.0$"),
    (PrecoderSolver, "tol", 0.0, r"^tol must be > 0, got 0\.0$"),
    (PrecoderSolver, "randomizations", -3, r"^randomizations must be >= 0, got -3$"),
    (PrecoderSolver, "randomizations", -1, r"^randomizations must be >= 0, got -1$"),
    (PrecoderSolver, "randomizations", 2.5, r"^randomizations must be an integer, got 2\.5$"),
    (PrecoderSolver, "randomizations", math.nan, r"^randomizations must be finite, got nan$"),
    (PrecoderSolver, "randomizations", math.inf, r"^randomizations must be finite, got inf$"),
    (RfChainConfig, "pa_efficiency", 0.0, r"^pa_efficiency must be > 0, got 0\.0$"),
    (RfChainConfig, "pa_efficiency", 1.5, r"^pa_efficiency must be <= 1\.0, got 1\.5$"),
    (RfChainConfig, "pa_efficiency", math.nan, r"^pa_efficiency must be finite, got nan$"),
    (RfChainConfig, "p_rf_chain_w", -0.5, r"^p_rf_chain_w must be >= 0, got -0\.5$"),
    (RfChainConfig, "p_rf_chain_w", math.inf, r"^p_rf_chain_w must be finite, got inf$"),
    (RfChainConfig, "gamma", 0.0, r"^gamma must be > 0, got 0\.0$"),
    (RfChainConfig, "gamma", -1.0, r"^gamma must be > 0, got -1\.0$"),
    (RfChainConfig, "gamma", math.nan, r"^gamma must be finite, got nan$"),
    (RfChainConfig, "gamma", math.inf, r"^gamma must be finite, got inf$"),
    (RfChainConfig, "n_devices", 0, r"^n_devices must be >= 1, got 0$"),
    (RfChainConfig, "n_devices", 10.0, r"^n_devices must be an integer, got 10\.0$"),
]


@pytest.mark.parametrize("record, name, value, message", BAD_RECORD_FIELDS,
                         ids=[f"{r.__name__}.{n}={v}" for r, n, v, _ in BAD_RECORD_FIELDS])
def test_scenario_and_solver_records_refuse_a_bad_field_by_name(record, name, value, message):
    with pytest.raises(ValueError, match=message):
        record(**{name: value})


# (sweep_rf_chains argument, a bad value, the error it must raise)
BAD_SWEEP_ARGUMENTS = [
    ("devices", [], r"^devices must hold at least one device, got 0$"),
    ("m_values", [], r"^m_values must be non-empty$"),
    ("m_values", (2, 2, 3), r"^m_values must be strictly increasing, got \[2, 2, 3\]$"),
    ("m_values", (1.5, 2), r"^m_values must be an integer >= 1, got 1\.5$"),
    ("m_values", (1.0, 2.0), r"^m_values must be an integer >= 1, got 1\.0$"),
    ("m_values", (1, math.nan), r"^m_values must be an integer >= 1, got nan$"),
    ("m_values", (1, math.inf), r"^m_values must be an integer >= 1, got inf$"),
    ("seed", 0.0, r"^seed must be an integer >= 0, got 0\.0$"),
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
    with pytest.raises(ValueError, match=message):
        _sweep(**{name: value})


class DrawReached(Exception):
    pass


# Arguments and scenario fields at the sweep's array limits, the same just
# past them, and the names the refusal starts with. 2,000 devices fit 5,000
# antennas; with 32 RF chains the limit is 312,500 randomizations; with 200
# randomizations, the candidates' margins limit 3,062 devices.
SIZE_LIMITS = [
    ({"n_devices": 2_000, "m_values": (1, 5000)}, {"n_devices": 2_001, "m_values": (1, 5000)},
     "n_devices and m_values"),
    ({"devices": [(1.0, 0.0)] * 2_000, "m_values": (1, 5000)},
     {"devices": [(1.0, 0.0)] * 2_001, "m_values": (1, 5000)}, "devices and m_values"),
    ({"solver": PrecoderSolver(randomizations=312_500)}, {"solver": PrecoderSolver(randomizations=312_501)},
     r"solver\.randomizations and m_values"),
    ({"n_devices": 3_062}, {"n_devices": 3_063}, r"n_devices and solver\.randomizations"),
]


@pytest.mark.parametrize("fits, too_large, names", SIZE_LIMITS, ids=["drawn", "explicit", "candidates", "margins"])
def test_sweep_refuses_arrays_too_large_to_allocate_before_drawing(monkeypatch, fits, too_large, names):
    def refuse(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(beampower, "draw_device_positions", refuse)
    monkeypatch.setattr(beampower, "sample_channels", refuse)
    with pytest.raises(DrawReached):
        _sweep(**fits)
    with pytest.raises(ValueError, match=rf"^{names} give .*; the limit is 1e\+07$"):
        _sweep(**too_large)


# A gain below the least normal float, 2.2e-308, underflows: 1e-4 * 10**-306
# at 10 m is subnormal, and gains at 8 m with exponent 400 or at 1e200 m are 0.
@pytest.mark.parametrize("devices, exponent, message", [
    ([(1.0, 0.0), (10.0, 0.0)], 306.0, r"devices give device 1 at \(10, 0\) a path gain of 1e-310"),
    ([(1e200, 0.0)], 2.7, r"devices give device 0 at \(1e\+200, 0\) a path gain of 0"),
    (None, 400.0, r"disk_radius give device 0 at \(3\.09, -7\.359\) a path gain of 0"),
], ids=["subnormal", "zero", "drawn"])
def test_sweep_refuses_a_device_whose_path_gain_underflows_before_drawing_channels(monkeypatch, devices, exponent,
                                                                                   message):
    def refuse(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(beampower, "sample_channels", refuse)
    with pytest.raises(ValueError, match=rf"^pathloss\.\* and {message}, which underflows$"):
        _sweep([1], devices, pathloss=PathLossParams(exponent, fixed_loss_db=40.0))
    with pytest.raises(DrawReached):
        _sweep([1])


# Devices at 1 m and 10 m with exponent 145 and no fixed loss have gains 1 and
# 1e-145, so gamma * max(gain) / min(gain)**2 is gamma * 1e290.
@pytest.mark.parametrize("devices, exponent, gamma, message", [
    ([(1.0, 0.0), (10.0, 0.0)], 145.0, 2.0, r"gamma, pathloss\.\* and devices give 2e\+290"),
    (None, 300.0, 2e-6, r"gamma, pathloss\.\* and disk_radius give inf"),
], ids=["explicit", "drawn"])
def test_sweep_refuses_path_gains_whose_power_scale_overflows_before_drawing_channels(monkeypatch, devices, exponent,
                                                                                      gamma, message):
    def refuse(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(beampower, "sample_channels", refuse)
    with pytest.raises(ValueError, match=rf"^{message} as gamma \* max / min\*\*2 of the device path gains; "
                                         r"the limit is 1e\+290$"):
        _sweep([1, 2], devices, gamma=gamma, pathloss=PathLossParams(exponent))
    with pytest.raises(DrawReached):
        _sweep([1, 2], [(1.0, 0.0), (10.0, 0.0)], gamma=0.5, pathloss=PathLossParams(145.0))


# 8 antennas hold 1,250,000 randomizations within the 10**7 candidate entries.
def test_precoder_refuses_a_candidate_pool_too_large_to_allocate_before_solving(monkeypatch):
    def refuse(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(beampower, "_solve_relaxations", refuse)
    rng = np.random.default_rng(5)
    problem = MulticastProblem(rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8)), 1e-3)
    with pytest.raises(DrawReached):
        min_power_precoder(problem, PrecoderSolver(randomizations=1_250_000))
    for randomizations, shown in ((1_250_001, "1e\\+07"), (10**13, "8e\\+13")):
        with pytest.raises(ValueError, match=rf"^solver\.randomizations and channels give {shown} candidate entries "
                                             r"\(randomizations \* antennas\); the limit is 1e\+07$"):
            min_power_precoder(problem, PrecoderSolver(randomizations=randomizations))


# 3,200 devices and 200 randomizations give (3,200 + 202) * 3,200 candidate
# margins, past the limit, though one antenna keeps every other array small.
# (SIZE_LIMITS holds the limit for drawn devices.)
@pytest.mark.parametrize("names, solve", [
    ("devices", lambda: _sweep([1], [(1.0 + k / 3_200, 0.0) for k in range(3_200)])),
    ("channels", lambda: min_power_precoder(MulticastProblem(np.ones((3_200, 1)), 1e-3), PrecoderSolver())),
], ids=["sweep", "precoder"])
def test_a_candidate_pool_whose_margins_pass_the_limit_is_refused_before_solving(monkeypatch, names, solve):
    def refuse(*args, **kwargs):
        raise AssertionError("a relaxation was solved")

    monkeypatch.setattr(beampower, "_solve_relaxations", refuse)
    with pytest.raises(ValueError, match=rf"^{names} and solver\.randomizations give 1\.089e\+07 candidate margins "
                                         r"\(\(devices \+ randomizations \+ 2\) \* devices\); the limit is 1e\+07$"):
        solve()


@pytest.mark.parametrize("n, radius, message", [
    (3, -1.0, r"^radius must be > 0, got -1\.0$"),
    (3, 0.0, r"^radius must be > 0, got 0\.0$"),
    (3, math.nan, r"^radius must be finite, got nan$"),
    (3, math.inf, r"^radius must be finite, got inf$"),
    (0, 10.0, r"^n must be an integer >= 1, got 0$"),
    (2.5, 10.0, r"^n must be an integer >= 1, got 2\.5$"),
    (math.nan, 10.0, r"^n must be an integer >= 1, got nan$"),
    (math.inf, 10.0, r"^n must be an integer >= 1, got inf$"),
])
def test_device_positions_refuse_a_bad_count_or_radius_before_drawing(monkeypatch, n, radius, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a draw was seeded before the arguments were checked")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=message):
        draw_device_positions(n, radius, 0)


def test_device_positions_live_in_disk_and_are_seeded():
    a = draw_device_positions(50, 10.0, seed=1)
    b = draw_device_positions(50, 10.0, seed=1)
    assert all(math.hypot(x, y) <= 10.0 for x, y in a)
    assert [(x, y) for x, y in a] == [(x, y) for x, y in b]


# Seven CPUs faked: the relaxations still run in this process.
def test_rfchains_relaxations_fork_nothing(monkeypatch):
    def refuse():
        raise AssertionError("a relaxation forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(7)), raising=False)
    monkeypatch.setattr(os, "fork", refuse, raising=False)
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    min_power_precoder(MulticastProblem(h, 1e-3), PrecoderSolver())
    _sweep(range(1, 8), seed=4, n_devices=3)
