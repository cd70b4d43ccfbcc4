"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
Every tolerance is pinned here; nothing defers to later calibration.
"""

import math

import numpy as np

from wetplan.ambient import AmbientMap, GaussianComponent, Rect
from wetplan.beampower import MulticastProblem, PrecoderSolver, RfChainConfig, min_power_precoder, sweep_rf_chains
from wetplan.channel import PathLossParams, RicianParams, path_gain
from wetplan.cli import RunConfig, run, verify_manifest
from wetplan.costs import SCENARIOS, CostParams, crossover_device_count, scenario_cost
from wetplan.deployment import DeploymentProblem, grid_oracle, optimize
from wetplan.harvesting import HarvesterCurve, _codeword_powers, dft_codebook, harvest
from wetplan.outage import OutageConfig, _draw, _harvest_trials, sweep_density, trial_seed

from deployment_reference import reference_objective


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_cost_totals_and_ordering():
    params = CostParams()  # defaults: N per beacon 50; horizon T=15 and battery life L=5 are given
    totals = {s: scenario_cost(s, 100, params, 15, 5).grand_total_cents for s in SCENARIOS}
    assert totals["baseline"] == 400_000
    assert totals["green_pb"] == 278_592
    assert totals["grid_pb"] == 299_420
    assert totals["battery_pb"] == 607_000
    assert totals["green_pb"] < totals["grid_pb"] < totals["baseline"] < totals["battery_pb"]
    report(1, "cost totals exact in cents and green < grid < baseline < battery at N=100")


def test_criterion_2_cost_crossover():
    params = CostParams()
    n_star = crossover_device_count(params, 15, 5, n_max=100)
    assert n_star is not None and 1 <= n_star <= 100
    at_5 = {s: scenario_cost(s, 5, params, 15, 5).grand_total_cents for s in SCENARIOS}
    assert all(at_5["baseline"] < at_5[s] for s in SCENARIOS if s != "baseline")
    report(2, f"green beacons undercut the baseline from N*={n_star}; baseline strictly cheapest at N=5")


def test_criterion_3_deployment_against_grid_oracle():
    area = Rect(-10.0, -10.0, 10.0, 10.0)
    pathloss = PathLossParams(exponent=3.0, fixed_loss_db=0.0, reference_distance=1.0)
    amap = AmbientMap(
        (
            GaussianComponent(3.0, (-6.0, 7.0), 3.0),
            GaussianComponent(1.2, (5.0, -4.0), 4.0),
        ),
        area,
    )
    devices = ((-4.0, -6.0), (6.0, 5.0), (0.0, 2.0))
    ratios = []
    for k in (1, 2):
        problem = DeploymentProblem(devices, amap, k=k, cap=1.0, pathloss=pathloss)
        oracle = grid_oracle(problem, resolution=0.5)
        for seed in range(5):
            sol = optimize(problem, seed=seed)
            ratios.append(sol.min_received_power / oracle.min_received_power)
            assert sol.min_received_power >= 0.98 * oracle.min_received_power
            assert all(tx <= 1.0 + 1e-15 for tx in sol.per_pb_tx_power)
            assert all(area.contains(x, y) for x, y in sol.pb_positions)
    # Optimizer beats uniform random placement on 10/10 seeds.
    problem = DeploymentProblem(devices, amap, k=2, cap=1.0, pathloss=pathloss)
    wins = 0
    for seed in range(10):
        sol = optimize(problem, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 777]))
        random_value, _ = reference_objective(rng.uniform(-10.0, 10.0, size=(2, 2)), problem)
        wins += sol.min_received_power >= random_value
    assert wins == 10
    report(3, f"optimize/oracle ratio min {min(ratios):.3f} over k in {{1,2}} x 5 seeds; beats random 10/10")


def test_criterion_4_outage_monotonicity_and_combining():
    pathloss = PathLossParams(exponent=2.7, fixed_loss_db=20.0, reference_distance=1.0)
    config = OutageConfig(pathloss=pathloss, trials=10_000, n_antennas=4)
    density, seed = 0.03, 424

    densities = [0.01, 0.03, 0.08]
    results = [single for (single,) in sweep_density(config, densities, ("single",), seed)]
    for lo, hi in zip(results, results[1:]):
        assert hi.outage_estimate <= lo.outage_estimate + lo.ci95_halfwidth + hi.ci95_halfwidth

    seeds = (trial_seed(seed, t) for t in range(10_000))
    single, dc = _harvest_trials(config, density, ("single", "dc"), 10_000, seeds)
    dominated = int(np.sum(dc >= single))
    assert dominated == 10_000

    cb = dft_codebook(config.n_antennas)
    [rf] = _harvest_trials(config, density, ("rf",), 200, (trial_seed(seed, t) for t in range(200)))
    checked = 0
    for t in range(200):
        incident, mix = _draw(config, density, np.random.default_rng(trial_seed(seed, t)))
        if incident.size == 0:
            continue
        best = _codeword_powers(mix, incident[:, None], cb).max()
        fixed = [float(np.sum(incident * np.abs(mix @ w.conj()) ** 2)) for w in cb]
        for power in fixed:
            assert best >= power * (1.0 - 1e-12)
        assert best <= max(fixed) * (1.0 + 1e-12)
        assert rf[t] == harvest(best, config.curve)
        checked += 1
    assert checked >= 150
    estimates = [f"{r.outage_estimate:.3f}" for r in results]
    report(4, f"outage {estimates} monotone; DC>=single on 10000/10000 trials; RF argmax on {checked} trials")


def test_criterion_5_harvester_properties():
    curve = HarvesterCurve()
    rng = np.random.default_rng(55)
    p = np.sort(np.concatenate([rng.uniform(0.0, 0.2, size=9_996), [0.0, 1e-6, 0.01, 5.0]]))
    out = harvest(p, curve)
    assert np.all(np.diff(out) >= -1e-18)  # monotone
    assert np.all(out <= p)  # never exceeds input
    below = p < 1e-6  # sensitivity is -30 dBm
    assert np.all(out[below] == 0.0)
    above = p >= 0.01  # saturation input is 10 dBm
    assert np.allclose(out[above], 0.005, rtol=1e-12)
    report(5, "harvest monotone, output <= input, dead below sensitivity, flat above saturation (1e4 inputs)")


def test_criterion_6_beam_power():
    # (a) Single pure-LoS device: tx(M) = gamma / (M * gain) within 1e-6.
    gamma = 2e-6
    config = RfChainConfig(rician=RicianParams(1e18), gamma=gamma)
    gain = path_gain(10.0, config.pathloss)
    ms = list(range(1, 33))
    sweep = sweep_rf_chains(config, ms, [(10.0, 0.0)], seed=3)
    for pt in sweep.points:
        expected = gamma / (pt.n_rf * gain)
        assert abs(pt.tx_power - expected) / expected < 1e-6

    # (b) M=2, N=3 within 2% of the discretized brute-force oracle.
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    sol = min_power_precoder(MulticastProblem(h, 1e-3), PrecoderSolver(), seed=2)
    amp = np.linspace(0.0, math.pi / 2, 1000)
    phase = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    a_grid, p_grid = np.meshgrid(amp, phase, indexing="ij")
    w = np.stack([np.cos(a_grid).ravel(), (np.sin(a_grid) * np.exp(1j * p_grid)).ravel()], axis=1)
    tx_oracle = 1e-3 / (np.abs(w @ h.conj().T) ** 2).min(axis=1).max()
    assert abs(sol.tx_power - tx_oracle) <= 0.02 * tx_oracle

    # (c) Nested arrays: transmit power non-increasing within 1%; (d) the
    # default consumption curve has an interior optimum over M in 1..32 and
    # the argmin does not shrink when gamma is raised x10.
    low = sweep_rf_chains(RfChainConfig(gamma=gamma), ms, seed=7)
    high = sweep_rf_chains(RfChainConfig(gamma=10 * gamma), ms, seed=7)
    for points in (low.points, high.points):
        tx = [pt.tx_power for pt in points]
        for a, b in zip(tx, tx[1:]):
            assert b <= a * 1.01
    assert ms[0] < low.optimum_n_rf < ms[-1]
    assert high.optimum_n_rf >= low.optimum_n_rf
    report(
        6,
        "LoS closed form within 1e-6; brute-force gap <= 2%; nested tx non-increasing; "
        f"interior argmin {low.optimum_n_rf} -> {high.optimum_n_rf} when gamma x10",
    )


def test_criterion_7_determinism_and_manifests(tmp_path):
    fast_sets = {
        "cost": ("n_devices=10, 50, 100",),
        "deploy": ("k=2", "solver.n_starts=4"),
        "outage": ("trials=300", "densities=1.0, 2.0", "n_antennas=2"),
        "rfchains": ("m_values=1, 2, 4, 8",),
    }
    for sub, sets in fast_sets.items():
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}_{tag}"
            rc = RunConfig(
                subcommand=sub,
                seed=17,
                output_dir=str(out),
                overrides=sets,
            )
            assert run(rc) == 0
            assert verify_manifest(out / "manifest.txt")
            outputs.append((out / f"{sub}.csv").read_bytes())
        assert outputs[0] == outputs[1], f"{sub}: a rerun changed the CSV bytes"
    report(7, "all four subcommands byte-identical across reruns; manifests verify")
