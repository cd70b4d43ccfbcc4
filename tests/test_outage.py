import dataclasses

import numpy as np
import pytest

from wetplan.channel import ArrayConfig, PathLossParams, Position2D, RicianParams, sample_channels, sample_hppp
from wetplan.harvesting import dft_codebook, harvest, rf_combine
from wetplan.outage import OutageConfig, field_harvest, run_outage, run_trial, sweep_density, trial_seed

# 20 dB fixed loss keeps the 1 mW target reachable at modest densities, which
# gives the Monte Carlo estimates room to move across a density sweep.
TEST_PL = PathLossParams(exponent=2.7, fixed_loss_db=20.0, reference_distance=1.0)


def make_config(**overrides):
    base = dict(density=0.03, pathloss=TEST_PL, trials=2000, seed=99)
    base.update(overrides)
    return OutageConfig(**base)


def test_zero_density_trial_harvests_nothing():
    cfg = make_config(density=0.0)
    assert run_trial(cfg, trial_seed(cfg.seed, 0)) == 0.0


def test_zero_density_outage_is_certain():
    result = run_outage(make_config(density=0.0, trials=500))
    assert result.outage_estimate == 1.0
    assert result.ci95_halfwidth == 0.0
    assert result.mean_harvested == 0.0


def test_forced_transmitter_hand_chain():
    # One LoS transmitter at 1 m with the 40 dB loss of the default scenario:
    # incident power 1e-4 W, so the trial harvests harvest(1e-4).
    cfg = OutageConfig(
        density=0.01,
        pathloss=PathLossParams(2.7, 40.0, 1.0),
        rician=RicianParams(1e12),
        n_antennas=1,
        trials=10,
        seed=0,
    )
    harvested = field_harvest(cfg, [(1.0, 0.0)], seed=5)
    assert np.isclose(harvested, harvest(1e-4, cfg.curve), rtol=1e-4)
    assert np.isclose(harvested, 0.3 * 1e-4, rtol=1e-4)


def test_dc_trial_is_sum_of_per_antenna_rectifiers():
    cfg = make_config(arch="dc", n_antennas=4)
    positions = sample_hppp(cfg.density, cfg.disk_radius, seed=31)
    harvested = field_harvest(cfg, positions, seed=77)
    h = sample_channels(
        positions, Position2D(0.0, 0.0), ArrayConfig(4), cfg.rician, cfg.pathloss, seed=77
    )
    powers = (np.abs(h) ** 2 * cfg.tx_power).sum(axis=0)
    assert np.isclose(harvested, float(np.sum(harvest(powers, cfg.curve))), rtol=1e-12)


def test_dc_dominates_single_per_trial():
    base = make_config(n_antennas=4, trials=400)
    single = dataclasses.replace(base, arch="single")
    dc = dataclasses.replace(base, arch="dc")
    for t in range(400):
        seed = trial_seed(base.seed, t)
        assert run_trial(dc, seed) >= run_trial(single, seed)


def test_rf_trial_uses_best_codeword():
    cfg = make_config(arch="rf", n_antennas=4, trials=10)
    cb = dft_codebook(4)
    for t in range(50):
        rng = np.random.default_rng(trial_seed(cfg.seed, t))
        positions = sample_hppp(cfg.density, cfg.disk_radius, rng)
        if positions.shape[0] == 0:
            continue
        h = sample_channels(positions, Position2D(0.0, 0.0), ArrayConfig(4), cfg.rician, cfg.pathloss, rng)
        _, best = rf_combine((h, cfg.tx_power), cb)
        for w in cb.codewords:
            fixed = float(np.sum(cfg.tx_power * np.abs(h @ w.conj()) ** 2))
            assert best >= fixed * (1.0 - 1e-12)
        assert np.isclose(run_trial(cfg, trial_seed(cfg.seed, t)), harvest(best, cfg.curve), rtol=1e-12)


def test_shared_draws_match_one_architecture_at_a_time():
    base = make_config(n_antennas=4, trials=300)
    archs = ("rf", "single", "dc")
    configs = [dataclasses.replace(base, arch=a) for a in archs]
    for t in range(20):
        seed = trial_seed(base.seed, t)
        assert run_trial(base, seed, archs) == tuple(run_trial(c, seed) for c in configs)
    assert run_outage(base, archs=archs) == tuple(run_outage(c) for c in configs)
    swept = sweep_density(base, [0.02, 0.05], archs=archs)
    for i, c in enumerate(configs):
        assert [r[i] for r in swept] == sweep_density(c, [0.02, 0.05])


def test_shared_draws_reject_bad_architecture_lists():
    cfg = make_config(trials=10)
    with pytest.raises(ValueError):
        run_outage(cfg, archs=())
    with pytest.raises(ValueError):
        run_trial(make_config(density=0.0), trial_seed(0, 0), ("single", "hybrid"))


def test_outage_monotone_in_density():
    cfg = make_config(trials=4000)
    results = sweep_density(cfg, [0.01, 0.03, 0.08])
    for lo, hi in zip(results, results[1:]):
        assert hi.outage_estimate <= lo.outage_estimate + lo.ci95_halfwidth + hi.ci95_halfwidth


def test_outage_monotone_in_target():
    lenient = run_outage(make_config(target=5e-4, trials=1500))
    strict = run_outage(make_config(target=2e-3, trials=1500))
    assert lenient.outage_estimate <= strict.outage_estimate


def test_sweep_density_determinism_and_duplicates():
    cfg = make_config(trials=500)
    first = sweep_density(cfg, [0.02, 0.05, 0.02])
    second = sweep_density(cfg, [0.02, 0.05, 0.02])
    assert first == second
    assert first[0] == first[2]


def test_sweep_density_singleton_matches_run_outage():
    cfg = make_config(trials=500)
    [swept] = sweep_density(cfg, [0.03])
    assert 0.0 <= swept.outage_estimate <= 1.0
    assert swept.trials == 500


def test_sweep_density_rejects_empty():
    with pytest.raises(ValueError):
        sweep_density(make_config(), [])


def test_ci_halfwidth_formula():
    result = run_outage(make_config(trials=2000))
    p = result.outage_estimate
    assert np.isclose(result.ci95_halfwidth, 1.96 * np.sqrt(p * (1 - p) / 2000), rtol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(density=-0.1)
    with pytest.raises(ValueError):
        make_config(target=0.0)
    with pytest.raises(ValueError):
        make_config(arch="hybrid")
    with pytest.raises(ValueError):
        make_config(trials=0)
    with pytest.raises(ValueError):
        make_config(n_antennas=0)
