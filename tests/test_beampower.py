import math

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
from wetplan.channel import Position2D, RicianParams, path_gain


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
    assert sol.feasible
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
        assert sol.feasible
        assert np.all(margins >= gamma * (1.0 - tol))
        assert sol.tx_power >= sol.sdr_lower_bound * (1.0 - tol)


def test_nonconvergence_raises_with_best_candidate():
    rng = np.random.default_rng(6)
    h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    with pytest.raises(PrecoderError) as err:
        min_power_precoder(MulticastProblem(h, 1e-3), tol=1e-15, max_outer=1, max_inner=2)
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
    together = beampower._solve_relaxations(reduced, 1e-4, beampower._MAX_OUTER, beampower._MAX_INNER)
    for red, joint in zip(reduced, together):
        (alone,) = beampower._solve_relaxations([red], 1e-4, beampower._MAX_OUTER, beampower._MAX_INNER)
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
    assert best is not None and best.feasible and best.precoder.shape == (4,)
    # The failed point's pool still holds the zero-padded m = 3 precoder.
    assert best.tx_power <= converged.points[-1].tx_power


def test_problem_validation():
    with pytest.raises(ValueError):
        MulticastProblem(np.zeros((2, 3), dtype=complex), 1e-3)
    with pytest.raises(ValueError):
        MulticastProblem(np.ones((2, 3), dtype=complex), 0.0)


def test_sweep_los_single_device_closed_form():
    # Pure LoS: ||h||^2 = M * gain, so tx(M) = gamma / (M * gain) and the
    # consumption curve gamma/(0.35*M*gain) + 0.5*M has a computable argmin.
    # K=1e18 keeps the scattered-component residue at the 1e-9 level.
    model = ChannelModel(rician=RicianParams(1e18))
    device = [Position2D(10.0, 0.0)]
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


def test_device_positions_live_in_disk_and_are_seeded():
    a = draw_device_positions(50, 10.0, seed=1)
    b = draw_device_positions(50, 10.0, seed=1)
    assert all(math.hypot(p.x, p.y) <= 10.0 for p in a)
    assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b]
