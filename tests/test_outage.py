import dataclasses
import hashlib
import os
import re
import time

import numpy as np
import pytest

import wetplan.outage
from wetplan.channel import PathLossParams, RicianParams, sample_channels, sample_hppp
from wetplan.harvesting import ARCHITECTURES, _antenna_powers, _codeword_powers, _rectify, dft_codebook, harvest
from wetplan.outage import OutageConfig, sweep_density, trial_seed

# 20 dB fixed loss keeps the 1 mW target reachable at modest densities, which
# gives the Monte Carlo estimates room to move across a density sweep.
TEST_PL = PathLossParams(exponent=2.7, fixed_loss_db=20.0, reference_distance=1.0)


# The density and the trials' scenario seed that a single-density check uses.
DENSITY, SEED = 0.03, 99


def make_config(**overrides):
    return OutageConfig(**{"pathloss": TEST_PL, "trials": 2000, **overrides})


SINGLE = ("single",)


def harvested(cfg, archs, indices, density=DENSITY):
    """Harvested power of ``cfg``'s trials ``indices`` at ``density``, one row per architecture, from one batched
    call; trial ``t`` is seeded ``trial_seed(SEED, t)``."""
    indices = list(indices)
    seeds = (trial_seed(SEED, t) for t in indices)
    return wetplan.outage._harvest_trials(cfg, density, tuple(archs), len(indices), seeds)


def test_zero_density_trial_harvests_nothing():
    assert harvested(make_config(), ARCHITECTURES, [0], density=0.0).tolist() == [[0.0]] * len(ARCHITECTURES)


def test_zero_density_outage_is_certain():
    [results] = sweep_density(make_config(trials=500), [0.0], ARCHITECTURES, seed=SEED)
    for result in results:
        assert result.outage_estimate == 1.0
        assert result.ci95_halfwidth == 0.0
        assert result.mean_harvested == 0.0


class OneSourceAtOneMeter:
    """A generator whose field is one transmitter 1 m from the center of a 10 m disk, at angle 0, with no
    scatter: it answers the outage draw's calls in their order."""

    def __init__(self):
        self.uniforms = [np.array([0.01]), np.array([0.0])]  # the radius 10 * sqrt(0.01), then the angle

    def poisson(self, mean):
        return 1

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.uniforms.pop(0)

    def standard_normal(self, size):
        return np.zeros(size)


def test_forced_transmitter_hand_chain(monkeypatch):
    # One LoS transmitter at 1 m with the 40 dB loss of the default scenario:
    # incident power 1e-4 W, so the trial harvests harvest(1e-4).
    cfg = OutageConfig(
        pathloss=PathLossParams(2.7, 40.0, 1.0),
        rician=RicianParams(1e12),
        n_antennas=1,
        trials=10,
    )
    draw = wetplan.outage._draw

    def draw_one_source(config, density, rng):
        return draw(config, density, OneSourceAtOneMeter())

    monkeypatch.setattr(wetplan.outage, "_draw", draw_one_source)
    [[power]] = harvested(cfg, SINGLE, [0], density=0.01)
    assert np.isclose(power, harvest(1e-4, cfg.curve), rtol=1e-4)
    assert np.isclose(power, 0.3 * 1e-4, rtol=1e-4)


def test_dc_trial_is_sum_of_per_antenna_rectifiers():
    cfg = make_config(n_antennas=4)
    [dc] = harvested(cfg, ("dc",), range(20))
    checked = 0
    for t in range(20):
        rng = np.random.default_rng(trial_seed(SEED, t))
        positions = sample_hppp(DENSITY, cfg.disk_radius, rng)
        if positions.shape[0] == 0:
            continue
        h = sample_channels(positions, (0.0, 0.0), 4, cfg.rician, cfg.pathloss, rng)
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
        rng = np.random.default_rng(trial_seed(SEED, t))
        positions = sample_hppp(DENSITY, cfg.disk_radius, rng)
        if positions.shape[0] == 0:
            continue
        h = sample_channels(positions, (0.0, 0.0), 4, cfg.rician, cfg.pathloss, rng)
        best = _codeword_powers(h, cfg.tx_power, cb).max()
        fixed = [float(np.sum(cfg.tx_power * np.abs(h @ w.conj()) ** 2)) for w in cb]
        for power in fixed:
            assert best >= power * (1.0 - 1e-12)
        assert best <= max(fixed) * (1.0 + 1e-12)
        assert np.isclose(rf[t], harvest(best, cfg.curve), rtol=1e-12)


# Trial by trial, the study's polar draw against the public samplers, whose
# calls it must make in the same order, under the same reductions. The
# default scenario's 40 dB loss leaves the dc and rf outage counts open at
# density 0.5.
@pytest.mark.parametrize("antennas", [1, 2, 4, 16])
@pytest.mark.parametrize("k_factor", [0.0, 10.0, 1e12])
@pytest.mark.parametrize("density", [0.01, 0.5, 4.0])
def test_the_study_draws_what_the_public_samplers_draw(density, k_factor, antennas):
    cfg = OutageConfig(rician=RicianParams(k_factor), n_antennas=antennas, trials=40)
    cb = dft_codebook(antennas)
    reduced = np.zeros((2, cfg.trials, antennas + 1))  # public, study; per trial the antenna powers, then the rf
    for t in range(cfg.trials):
        rng = np.random.default_rng(trial_seed(SEED, t))
        h = sample_channels(sample_hppp(density, cfg.disk_radius, rng), (0.0, 0.0), antennas, cfg.rician,
                            cfg.pathloss, rng)
        reduced[0, t] = *_antenna_powers(h, cfg.tx_power), _codeword_powers(h, cfg.tx_power, cb).max()
        power, mix = wetplan.outage._draw(cfg, density, np.random.default_rng(trial_seed(SEED, t)))
        power = power[:, None]
        reduced[1, t] = *_antenna_powers(mix, power), _codeword_powers(mix, power, cb).max()
    np.testing.assert_allclose(reduced[1], reduced[0], rtol=1e-12, atol=0)
    study = harvested(cfg, ARCHITECTURES, range(cfg.trials), density)
    public = np.array([_rectify(reduced[0, :, :-1], reduced[0, :, -1], arch, cfg.curve) for arch in ARCHITECTURES])
    np.testing.assert_allclose(study, public, rtol=1e-12, atol=0)
    assert ((study < cfg.target).sum(axis=1) == (public < cfg.target).sum(axis=1)).all()


def test_shared_draws_match_one_architecture_at_a_time():
    base = make_config(n_antennas=4, trials=300)
    archs = ("rf", "single", "dc")
    shared = harvested(base, archs, range(20))
    for i, a in enumerate(archs):
        assert (shared[i] == harvested(base, (a,), range(20))[0]).all()
    swept = sweep_density(base, [0.02, 0.05], archs)
    for i, a in enumerate(archs):
        assert [r[i] for r in swept] == [r[0] for r in sweep_density(base, [0.02, 0.05], (a,))]


def test_shared_draws_reject_bad_architecture_lists():
    cfg = make_config(trials=10)
    with pytest.raises(ValueError):
        sweep_density(cfg, [DENSITY], ())
    with pytest.raises(ValueError):
        sweep_density(cfg, [0.0], ("single", "hybrid"))


def test_outage_monotone_in_density():
    cfg = make_config(trials=4000)
    results = [single for (single,) in sweep_density(cfg, [0.01, 0.03, 0.08], SINGLE, seed=SEED)]
    for lo, hi in zip(results, results[1:]):
        assert hi.outage_estimate <= lo.outage_estimate + lo.ci95_halfwidth + hi.ci95_halfwidth


def test_outage_monotone_in_target():
    [[lenient]] = sweep_density(make_config(target=5e-4, trials=1500), [DENSITY], SINGLE, seed=SEED)
    [[strict]] = sweep_density(make_config(target=2e-3, trials=1500), [DENSITY], SINGLE, seed=SEED)
    assert lenient.outage_estimate <= strict.outage_estimate


def test_sweep_density_determinism_and_duplicates():
    cfg = make_config(trials=500)
    first = sweep_density(cfg, [0.02, 0.05, 0.02], ARCHITECTURES)
    second = sweep_density(cfg, [0.02, 0.05, 0.02], ARCHITECTURES)
    assert first == second
    assert first[0] == first[2]


def test_sweep_density_singleton_is_one_estimate():
    cfg = make_config(trials=500)
    [(swept,)] = sweep_density(cfg, [0.03], SINGLE)
    assert 0.0 <= swept.outage_estimate <= 1.0
    assert swept.trials == 500


def test_seeds_give_their_own_estimates():
    cfg = make_config(trials=300)
    assert sweep_density(cfg, [0.05], SINGLE) == sweep_density(cfg, [0.05], SINGLE, seed=0)
    assert sweep_density(cfg, [0.05], SINGLE, seed=1) != sweep_density(cfg, [0.05], SINGLE, seed=2)


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
    monkeypatch.setattr(wetplan.outage, "_draw", refuse)


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


@pytest.mark.parametrize("seed", [2.5, -1, float("nan"), float("inf")])
def test_sweep_density_checks_the_seed_before_the_first_trial(monkeypatch, seed):
    _stop_at_first_draw(monkeypatch)
    with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {re.escape(str(seed))}$"):
        sweep_density(make_config(), [DENSITY], ARCHITECTURES, seed=seed)


DEFAULT_DENSITIES = [0.5, 1.0, 2.0, 4.0]
# The CLI's default scenario (4 antennas, densities up to 4) at each size
# limit: fields that fit, the same just past the limit, and the names the
# refusal starts with (after "densities"). 892 m gives 9,998,868
# expected transmitters per trial, 446 m ~9,998,000 channel entries, and
# 3,162 antennas a codebook of 9,998,244 entries.
SIZE_LIMITS = {
    "sources": ({"disk_radius": 892, "n_antennas": 1, "trials": 1}, {"disk_radius": 893}, " and disk_radius"),
    "codebook": ({"n_antennas": 3162, "trials": 1}, {"n_antennas": 3163}, "^n_antennas"),
    "channels": ({"disk_radius": 446, "trials": 1}, {"disk_radius": 447}, ", disk_radius and n_antennas"),
    "power_stack": ({"trials": 2_500_000}, {"trials": 2_500_001}, "^trials and n_antennas"),
}


# A sweep of one density at the largest checks the same limits as the whole sweep.
@pytest.mark.parametrize("densities", [DEFAULT_DENSITIES, [4.0]], ids=["sweep", "largest"])
@pytest.mark.parametrize("limit", sorted(SIZE_LIMITS))
def test_scenarios_too_large_to_allocate_are_refused_before_drawing(monkeypatch, densities, limit):
    fits, too_large, names = SIZE_LIMITS[limit]
    _stop_at_first_draw(monkeypatch)
    cfg = OutageConfig(**{"n_antennas": 4, **fits})
    with pytest.raises(DrawReached):
        sweep_density(cfg, densities, ARCHITECTURES)
    pattern = names if names.startswith("^") else f"^densities{re.escape(names)}"
    with pytest.raises(ValueError, match=rf"{pattern} give .*; the limit is 1e\+07$"):
        sweep_density(dataclasses.replace(cfg, **too_large), densities, ARCHITECTURES)


@pytest.mark.parametrize("densities", [DEFAULT_DENSITIES, [4.0]], ids=["sweep", "largest"])
def test_the_codebook_limit_applies_only_with_rf(monkeypatch, densities):
    _stop_at_first_draw(monkeypatch)
    cfg = OutageConfig(n_antennas=3163, trials=1)
    with pytest.raises(DrawReached):
        sweep_density(cfg, densities, ("single", "dc"))


def test_ci_halfwidth_formula():
    [[result]] = sweep_density(make_config(trials=2000), [DENSITY], SINGLE, seed=SEED)
    p = result.outage_estimate
    assert np.isclose(result.ci95_halfwidth, 1.96 * np.sqrt(p * (1 - p) / 2000), rtol=1e-12)


@pytest.mark.parametrize("field", ["disk_radius", "tx_power", "target"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make_config(**{field: value})


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(disk_radius=-0.1)
    with pytest.raises(ValueError):
        make_config(target=0.0)
    with pytest.raises(ValueError):
        make_config(trials=0)
    with pytest.raises(ValueError):
        make_config(n_antennas=0)


# SHA-256 of the (trials, 3) float64 array of per-trial harvested powers under
# (single, dc, rf), 200 trials of make_config(n_antennas=m) at density d. At
# d = 0.01 (about three sources per disk) 7 of the 200 trials draw no source.
TRIAL_DIGESTS = {
    (0.0, 1): "24ddaa4710480313757f965c38d60208a334556cb244f830d5006a893edd8da7",
    (0.0, 2): "24ddaa4710480313757f965c38d60208a334556cb244f830d5006a893edd8da7",
    (0.0, 4): "24ddaa4710480313757f965c38d60208a334556cb244f830d5006a893edd8da7",
    (0.01, 1): "1e65a30bd493083dcd7e5f46912b5b7ee49c5fb531c0c5b0397418df9019da4c",
    (0.01, 2): "8833b2fe0f4282a79f8fe2b9978a7db94523b5b0021d5e2053709af9b099c278",
    (0.01, 4): "0a1aafe451d7b3f95e0969abd6e513705a8a4319606ceedd803ff14a7f34f40d",
    (0.5, 1): "79536513ab9a980015310da9b395e6e58eda56b21701c24645a96e0d9276baf3",
    (0.5, 2): "a9e0e8230f328eb6dfc0708380e89ca3f80f60d4e640788087d53d2f09247c0f",
    (0.5, 4): "14bce56d31aa97dc29636447cfae0622458f0f846cfe8a94eb2a975338d7e163",
    # 16 antennas: numpy sums the dc row pairwise from 8 terms on.
    (0.5, 16): "85f96ca5a87007d1afd1d2c8202f494a0657303d425584495807144f9ffdc005",
}


@pytest.mark.parametrize("density, antennas", sorted(TRIAL_DIGESTS))
def test_per_trial_bytes_are_pinned(density, antennas):
    cfg = make_config(n_antennas=antennas, trials=200)
    # One row per trial, one column per architecture.
    digest = hashlib.sha256(harvested(cfg, ARCHITECTURES, range(cfg.trials), density).T.tobytes()).hexdigest()
    assert digest == TRIAL_DIGESTS[density, antennas]


@pytest.mark.parametrize("density, antennas", sorted(TRIAL_DIGESTS))
def test_batched_trials_equal_each_trial_alone(density, antennas):
    cfg = make_config(n_antennas=antennas, trials=200)
    for archs in (ARCHITECTURES, ("rf",), ("dc", "single")):
        alone = np.array([harvested(cfg, archs, [t], density)[:, 0] for t in range(cfg.trials)])
        seeds = [trial_seed(SEED, t) for t in range(cfg.trials)]
        batched = wetplan.outage._harvest_trials(cfg, density, archs, cfg.trials, iter(seeds))
        assert batched.shape == (len(archs), cfg.trials)
        assert (batched == alone.T).all()


def test_outage_result_bits_are_pinned():
    # float.hex of (outage_estimate, ci95_halfwidth, mean_harvested); the CSV
    # does not carry mean_harvested.
    [results] = sweep_density(make_config(n_antennas=4, trials=500), [DENSITY], ARCHITECTURES, seed=SEED)
    assert [r.trials for r in results] == [500] * 3
    assert [(r.outage_estimate.hex(), r.ci95_halfwidth.hex(), r.mean_harvested.hex()) for r in results] == [
        ("0x1.4189374bc6a7fp-1", "0x1.5b10f1a36200fp-5", "0x1.5455a5fdfa0f0p-10"),
        ("0x1.9db22d0e56042p-3", "0x1.204bb20e177f2p-5", "0x1.54e052ba6d42ap-8"),
        ("0x1.8d4fdf3b645a2p-2", "0x1.5de82ed31993ap-5", "0x1.1d9c522eeea44p-9"),
    ]


def _serial(cfg, density, seed, archs):
    seeds = (trial_seed(seed, t) for t in range(cfg.trials))
    return wetplan.outage._harvest_trials(cfg, density, archs, cfg.trials, seeds)


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
# Two (density, seed) pairs share each fork.
@needs_fork
@pytest.mark.parametrize("trials", [200, 5])
@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
def test_split_trials_are_bit_identical_to_one_serial_call(trials, cpus, monkeypatch):
    _cpus(monkeypatch, cpus)
    forked = _count_forks(monkeypatch)
    cfg = make_config(n_antennas=4, trials=trials)
    densities, seeds = [0.5, 0.1], [99, 7]
    for archs in (ARCHITECTURES, ("dc",)):
        split = wetplan.outage._harvest_split(cfg, densities, seeds, archs)
        assert split.shape == (len(densities), len(archs), trials)
        assert split.flags.c_contiguous
        serial = [_serial(cfg, d, s, archs) for d, s in zip(densities, seeds)]
        assert split.tobytes() == np.array(serial).tobytes()
    assert len(forked) == 2 * (min(cpus, trials) - 1)
    _assert_no_child_left()


@needs_fork
def test_results_do_not_depend_on_the_cpu_count(monkeypatch):
    cfg = make_config(n_antennas=4, trials=300)
    seen = {}
    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        seen[cpus] = (sweep_density(cfg, [DENSITY], ARCHITECTURES, seed=SEED),
                      sweep_density(cfg, [0.02, 0.05], ARCHITECTURES))
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

    def fake(config, density, archs, count, seeds):
        seeds = list(seeds)
        first = seeds[0].entropy[1]
        if shares(first):
            raise ValueError(f"no share from trial {first}")
        return (otherwise or real)(config, density, archs, count, seeds)

    return fake


@needs_fork
def test_a_failing_worker_names_the_density_and_trials(monkeypatch):
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(wetplan.outage, "_harvest_trials", _failing_in(lambda first: first == 1))
    message = r"^outage trials 1 to 28 step 3 at densities 0\.03 failed .*no share from trial 1$"
    with pytest.raises(RuntimeError, match=message):
        sweep_density(make_config(trials=30), [DENSITY], ARCHITECTURES)
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
        sweep_density(make_config(trials=30), [DENSITY], ARCHITECTURES)
    assert time.monotonic() - started < 30
    _assert_no_child_left()
