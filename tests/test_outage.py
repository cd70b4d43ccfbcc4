import dataclasses
import hashlib
import os
import re
import time

import numpy as np
import pytest

import wetplan.outage
from wetplan.channel import ArrayConfig, PathLossParams, RicianParams, sample_channels, sample_hppp
from wetplan.harvesting import ARCHITECTURES, _codeword_powers, dft_codebook, harvest
from wetplan.outage import OutageConfig, run_outage, sweep_density, trial_seed

# 20 dB fixed loss keeps the 1 mW target reachable at modest densities, which
# gives the Monte Carlo estimates room to move across a density sweep.
TEST_PL = PathLossParams(exponent=2.7, fixed_loss_db=20.0, reference_distance=1.0)


def make_config(**overrides):
    base = dict(density=0.03, pathloss=TEST_PL, trials=2000, seed=99)
    base.update(overrides)
    return OutageConfig(**base)


SINGLE = ("single",)


def harvested(cfg, archs, indices):
    """Harvested power of ``cfg``'s trials ``indices``, one row per architecture, from one batched call."""
    indices = list(indices)
    seeds = (trial_seed(cfg.seed, t) for t in indices)
    return wetplan.outage._harvest_trials(cfg, tuple(archs), len(indices), seeds)


def test_zero_density_trial_harvests_nothing():
    cfg = make_config(density=0.0)
    assert harvested(cfg, ARCHITECTURES, [0]).tolist() == [[0.0]] * len(ARCHITECTURES)


def test_zero_density_outage_is_certain():
    for result in run_outage(make_config(density=0.0, trials=500), ARCHITECTURES):
        assert result.outage_estimate == 1.0
        assert result.ci95_halfwidth == 0.0
        assert result.mean_harvested == 0.0


def test_forced_transmitter_hand_chain(monkeypatch):
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
    monkeypatch.setattr(wetplan.outage, "sample_hppp", lambda density, radius, rng: np.array([[1.0, 0.0]]))
    [[power]] = harvested(cfg, SINGLE, [0])
    assert np.isclose(power, harvest(1e-4, cfg.curve), rtol=1e-4)
    assert np.isclose(power, 0.3 * 1e-4, rtol=1e-4)


def test_dc_trial_is_sum_of_per_antenna_rectifiers():
    cfg = make_config(n_antennas=4)
    [dc] = harvested(cfg, ("dc",), range(20))
    checked = 0
    for t in range(20):
        rng = np.random.default_rng(trial_seed(cfg.seed, t))
        positions = sample_hppp(cfg.density, cfg.disk_radius, rng)
        if positions.shape[0] == 0:
            continue
        h = sample_channels(positions, (0.0, 0.0), ArrayConfig(4), cfg.rician, cfg.pathloss, rng)
        powers = (np.abs(h) ** 2 * cfg.tx_power).sum(axis=0)
        assert np.isclose(dc[t], float(np.sum(harvest(powers, cfg.curve))), rtol=1e-12)
        checked += 1
    assert checked >= 10


def test_dc_dominates_single_per_trial():
    base = make_config(n_antennas=4, trials=400)
    single, dc = harvested(base, ("single", "dc"), range(400))
    assert (dc >= single).all()


def test_rf_trial_uses_best_codeword():
    cfg = make_config(n_antennas=4, trials=10)
    cb = dft_codebook(4)
    [rf] = harvested(cfg, ("rf",), range(50))
    for t in range(50):
        rng = np.random.default_rng(trial_seed(cfg.seed, t))
        positions = sample_hppp(cfg.density, cfg.disk_radius, rng)
        if positions.shape[0] == 0:
            continue
        h = sample_channels(positions, (0.0, 0.0), ArrayConfig(4), cfg.rician, cfg.pathloss, rng)
        best = _codeword_powers(h, cfg.tx_power, cb).max()
        fixed = [float(np.sum(cfg.tx_power * np.abs(h @ w.conj()) ** 2)) for w in cb]
        for power in fixed:
            assert best >= power * (1.0 - 1e-12)
        assert best <= max(fixed) * (1.0 + 1e-12)
        assert np.isclose(rf[t], harvest(best, cfg.curve), rtol=1e-12)


def test_shared_draws_match_one_architecture_at_a_time():
    base = make_config(n_antennas=4, trials=300)
    archs = ("rf", "single", "dc")
    shared = harvested(base, archs, range(20))
    for i, a in enumerate(archs):
        assert (shared[i] == harvested(base, (a,), range(20))[0]).all()
    assert run_outage(base, archs) == tuple(run_outage(base, (a,))[0] for a in archs)
    swept = sweep_density(base, [0.02, 0.05], archs)
    for i, a in enumerate(archs):
        assert [r[i] for r in swept] == [r[0] for r in sweep_density(base, [0.02, 0.05], (a,))]


def test_shared_draws_reject_bad_architecture_lists():
    cfg = make_config(trials=10)
    with pytest.raises(ValueError):
        run_outage(cfg, ())
    with pytest.raises(ValueError):
        run_outage(make_config(density=0.0, trials=10), ("single", "hybrid"))


def test_outage_monotone_in_density():
    cfg = make_config(trials=4000)
    results = [single for (single,) in sweep_density(cfg, [0.01, 0.03, 0.08], SINGLE)]
    for lo, hi in zip(results, results[1:]):
        assert hi.outage_estimate <= lo.outage_estimate + lo.ci95_halfwidth + hi.ci95_halfwidth


def test_outage_monotone_in_target():
    [lenient] = run_outage(make_config(target=5e-4, trials=1500), SINGLE)
    [strict] = run_outage(make_config(target=2e-3, trials=1500), SINGLE)
    assert lenient.outage_estimate <= strict.outage_estimate


def test_sweep_density_determinism_and_duplicates():
    cfg = make_config(trials=500)
    first = sweep_density(cfg, [0.02, 0.05, 0.02], ARCHITECTURES)
    second = sweep_density(cfg, [0.02, 0.05, 0.02], ARCHITECTURES)
    assert first == second
    assert first[0] == first[2]


def test_sweep_density_singleton_matches_run_outage():
    cfg = make_config(trials=500)
    [(swept,)] = sweep_density(cfg, [0.03], SINGLE)
    assert 0.0 <= swept.outage_estimate <= 1.0
    assert swept.trials == 500


def test_sweep_density_rejects_empty():
    with pytest.raises(ValueError):
        sweep_density(make_config(), [], SINGLE)


class DrawReached(Exception):
    pass


def _stop_at_first_draw(monkeypatch):
    """Stop a trial at its rf codebook or its first field, on one CPU (no worker is forked)."""

    def refuse(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(wetplan.outage, "dft_codebook", refuse)
    monkeypatch.setattr(wetplan.outage, "sample_hppp", refuse)


@pytest.mark.parametrize(
    "densities, message",
    [
        ([], r"^densities must be non-empty$"),
        ([0.5, -1.0], r"^densities must be finite and >= 0, got -1\.0$"),
        ([0.5, float("nan")], r"^densities must be finite and >= 0, got nan$"),
        ([0.5, float("inf")], r"^densities must be finite and >= 0, got inf$"),
    ],
    ids=["empty", "negative", "nan", "inf"],
)
def test_sweep_density_checks_every_density_before_the_first_trial(monkeypatch, densities, message):
    _stop_at_first_draw(monkeypatch)
    with pytest.raises(ValueError, match=message):
        sweep_density(make_config(), densities, SINGLE)


DEFAULT_DENSITIES = [0.5, 1.0, 2.0, 4.0]
# The CLI's default scenario (4 antennas, densities up to 4) at each size
# limit: fields that fit, the same just past the limit, and the names the
# refusal starts with (after the density's name). 892 m gives 9,998,868
# expected transmitters per trial, 446 m ~9,998,000 channel entries, and
# 3,162 antennas a codebook of 9,998,244 entries.
SIZE_LIMITS = {
    "sources": ({"disk_radius": 892, "n_antennas": 1, "trials": 1}, {"disk_radius": 893}, " and disk_radius"),
    "codebook": ({"n_antennas": 3162, "trials": 1}, {"n_antennas": 3163}, "^n_antennas"),
    "channels": ({"disk_radius": 446, "trials": 1}, {"disk_radius": 447}, ", disk_radius and n_antennas"),
    "power_stack": ({"trials": 2_500_000}, {"trials": 2_500_001}, "^trials and n_antennas"),
}


@pytest.mark.parametrize("entry", ["sweep_density", "run_outage"])
@pytest.mark.parametrize("limit", sorted(SIZE_LIMITS))
def test_scenarios_too_large_to_allocate_are_refused_before_drawing(monkeypatch, entry, limit):
    fits, too_large, names = SIZE_LIMITS[limit]
    if entry == "sweep_density":
        run, name = (lambda cfg: sweep_density(cfg, DEFAULT_DENSITIES, ARCHITECTURES)), "densities"
    else:
        run, name = (lambda cfg: run_outage(dataclasses.replace(cfg, density=4.0), ARCHITECTURES)), "density"
    _stop_at_first_draw(monkeypatch)
    cfg = OutageConfig(density=0.0, **{"n_antennas": 4, **fits})
    with pytest.raises(DrawReached):
        run(cfg)
    pattern = names if names.startswith("^") else f"^{name}{re.escape(names)}"
    with pytest.raises(ValueError, match=rf"{pattern} give .*; the limit is 1e\+07$"):
        run(dataclasses.replace(cfg, **too_large))


def test_the_codebook_limit_applies_only_with_rf(monkeypatch):
    _stop_at_first_draw(monkeypatch)
    cfg = OutageConfig(density=4.0, n_antennas=3163, trials=1)
    with pytest.raises(DrawReached):
        run_outage(cfg, ("single", "dc"))
    with pytest.raises(DrawReached):
        sweep_density(cfg, DEFAULT_DENSITIES, ("single", "dc"))


def test_ci_halfwidth_formula():
    [result] = run_outage(make_config(trials=2000), SINGLE)
    p = result.outage_estimate
    assert np.isclose(result.ci95_halfwidth, 1.96 * np.sqrt(p * (1 - p) / 2000), rtol=1e-12)


@pytest.mark.parametrize("field", ["density", "disk_radius", "tx_power", "target"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make_config(**{field: value})


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(density=-0.1)
    with pytest.raises(ValueError):
        make_config(target=0.0)
    with pytest.raises(ValueError):
        make_config(trials=0)
    with pytest.raises(ValueError):
        make_config(n_antennas=0)


# SHA-256 of the (trials, 3) float64 array of per-trial harvested powers under
# (single, dc, rf), 200 trials of make_config(density=d, n_antennas=m). At
# d = 0.01 (about three sources per disk) 7 of the 200 trials draw no source.
TRIAL_DIGESTS = {
    (0.0, 1): "24ddaa4710480313757f965c38d60208a334556cb244f830d5006a893edd8da7",
    (0.0, 2): "24ddaa4710480313757f965c38d60208a334556cb244f830d5006a893edd8da7",
    (0.0, 4): "24ddaa4710480313757f965c38d60208a334556cb244f830d5006a893edd8da7",
    (0.01, 1): "935539ca4584a2bd4ad51aaea6fbf85b8a13ce7b672644f3ce662248269bbb46",
    (0.01, 2): "1cea1820f452a68bb2d81b112d06a319054fab3745b24f8d85b28df295a5518b",
    (0.01, 4): "f3e36b556bb3861b897ae41117d1f93d1581a1154434956bd6a10ac020b641b8",
    (0.5, 1): "79536513ab9a980015310da9b395e6e58eda56b21701c24645a96e0d9276baf3",
    (0.5, 2): "a9e0e8230f328eb6dfc0708380e89ca3f80f60d4e640788087d53d2f09247c0f",
    (0.5, 4): "14bce56d31aa97dc29636447cfae0622458f0f846cfe8a94eb2a975338d7e163",
    # 16 antennas: numpy sums the dc row pairwise from 8 terms on.
    (0.5, 16): "85f96ca5a87007d1afd1d2c8202f494a0657303d425584495807144f9ffdc005",
}


@pytest.mark.parametrize("density, antennas", sorted(TRIAL_DIGESTS))
def test_per_trial_bytes_are_pinned(density, antennas):
    cfg = make_config(density=density, n_antennas=antennas, trials=200)
    # One row per trial, one column per architecture.
    digest = hashlib.sha256(harvested(cfg, ARCHITECTURES, range(cfg.trials)).T.tobytes()).hexdigest()
    assert digest == TRIAL_DIGESTS[density, antennas]


@pytest.mark.parametrize("density, antennas", sorted(TRIAL_DIGESTS))
def test_batched_trials_equal_each_trial_alone(density, antennas):
    cfg = make_config(density=density, n_antennas=antennas, trials=200)
    for archs in (ARCHITECTURES, ("rf",), ("dc", "single")):
        alone = np.array([harvested(cfg, archs, [t])[:, 0] for t in range(cfg.trials)])
        seeds = [trial_seed(cfg.seed, t) for t in range(cfg.trials)]
        batched = wetplan.outage._harvest_trials(cfg, archs, cfg.trials, iter(seeds))
        assert batched.shape == (len(archs), cfg.trials)
        assert (batched == alone.T).all()


def test_outage_result_bits_are_pinned():
    # float.hex of (outage_estimate, ci95_halfwidth, mean_harvested); the CSV
    # does not carry mean_harvested.
    results = run_outage(make_config(n_antennas=4, trials=500), ARCHITECTURES)
    assert [r.trials for r in results] == [500] * 3
    assert [(r.outage_estimate.hex(), r.ci95_halfwidth.hex(), r.mean_harvested.hex()) for r in results] == [
        ("0x1.4dd2f1a9fbe77p-1", "0x1.5609be3480857p-5", "0x1.3f2bfce05e873p-10"),
        ("0x1.916872b020c4ap-3", "0x1.1d0c21ed270dap-5", "0x1.40de1f6375d8bp-8"),
        ("0x1.999999999999ap-2", "0x1.5fc6be9f91247p-5", "0x1.1680655381712p-9"),
    ]


def _serial(cfg, archs):
    seeds = (trial_seed(cfg.seed, t) for t in range(cfg.trials))
    return wetplan.outage._harvest_trials(cfg, archs, cfg.trials, seeds)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Only a platform that can fork splits the trials.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch):
    forked = []
    real_fork = os.fork

    def counted_fork():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


# 200 trials over 3 CPUs are dealt 67/67/66 and over 7 CPUs 29 or 28 per
# share; 5 trials over 7 CPUs run as 5 one-trial shares, so 4 forks per call.
# Two configs share each fork.
@needs_fork
@pytest.mark.parametrize("trials", [200, 5])
@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
def test_split_trials_are_bit_identical_to_one_serial_call(trials, cpus, monkeypatch):
    _cpus(monkeypatch, cpus)
    forked = _count_forks(monkeypatch)
    configs = [make_config(density=d, n_antennas=4, trials=trials, seed=s) for d, s in ((0.5, 99), (0.1, 7))]
    for archs in (ARCHITECTURES, ("dc",)):
        split = wetplan.outage._harvest_split(configs, archs)
        assert split.shape == (len(configs), len(archs), trials)
        assert split.flags.c_contiguous
        assert split.tobytes() == np.array([_serial(cfg, archs) for cfg in configs]).tobytes()
    assert len(forked) == 2 * (min(cpus, trials) - 1)
    _assert_no_child_left()


@needs_fork
def test_results_do_not_depend_on_the_cpu_count(monkeypatch):
    cfg = make_config(n_antennas=4, trials=300)
    seen = {}
    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        seen[cpus] = (run_outage(cfg, ARCHITECTURES), sweep_density(cfg, [0.02, 0.05], ARCHITECTURES))
    assert seen[1] == seen[3]


# One fork per share for the whole sweep, not one per density.
@needs_fork
def test_a_density_sweep_forks_once_per_share(monkeypatch):
    _cpus(monkeypatch, 3)
    forked = _count_forks(monkeypatch)
    sweep_density(make_config(trials=30), [0.02, 0.05], ARCHITECTURES)
    assert len(forked) == 2
    _assert_no_child_left()


def _failing_in(shares, *, otherwise=None):
    """A ``_harvest_trials`` that raises for the shares whose first trial
    ``shares`` accepts, and runs ``otherwise`` (default: the real one) for the rest."""
    real = wetplan.outage._harvest_trials

    def fake(config, archs, count, seeds):
        seeds = list(seeds)
        first = seeds[0].entropy[1]
        if shares(first):
            raise ValueError(f"no share from trial {first}")
        return (otherwise or real)(config, archs, count, seeds)

    return fake


@needs_fork
def test_a_failing_worker_names_the_density_and_trials(monkeypatch):
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(wetplan.outage, "_harvest_trials", _failing_in(lambda first: first == 1))
    message = r"^outage trials 1 to 28 step 3 at densities 0\.03 failed .*no share from trial 1$"
    with pytest.raises(RuntimeError, match=message):
        run_outage(make_config(trials=30), ARCHITECTURES)
    with pytest.raises(RuntimeError, match=r"^outage trials 1 to 28 step 3 at densities 0\.02, 0\.05 failed "):
        sweep_density(make_config(trials=30), [0.02, 0.05], ARCHITECTURES)
    _assert_no_child_left()


@needs_fork
def test_a_failing_own_block_kills_and_reaps_the_workers(monkeypatch):
    def stall(*args):
        time.sleep(60)

    _cpus(monkeypatch, 3)
    monkeypatch.setattr(wetplan.outage, "_harvest_trials", _failing_in(lambda first: first == 0, otherwise=stall))
    started = time.monotonic()
    with pytest.raises(ValueError, match="no share from trial 0"):
        run_outage(make_config(trials=30), ARCHITECTURES)
    assert time.monotonic() - started < 30
    _assert_no_child_left()
