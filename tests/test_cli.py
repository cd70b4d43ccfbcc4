import argparse
import csv
import hashlib
import inspect
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wetplan.beampower
import wetplan.cli
import wetplan.deployment
import wetplan.outage
from wetplan.ambient import AmbientMap, GaussianComponent, Rect
from wetplan.beampower import PrecoderSolver, RfChainConfig
from wetplan.channel import PathLossParams, RicianParams
from wetplan.cli import STUDIES, RunConfig, RunManifest, build_parser, emit_plot_data, main, run, verify_manifest
from wetplan.config import ConfigError, resolve_config
from wetplan.costs import CostParams
from wetplan.deployment import DeploymentProblem, SolverConfig
from wetplan.harvesting import HarvesterCurve
from wetplan.outage import OutageConfig

FAST_OUTAGE = ("trials=200", "densities=1.0, 3.0", "n_antennas=2")

# SHA-256 of outage.csv for GOLDEN_OUTAGE at seed 17, recorded before the
# architectures shared their draws; any change to the outage bytes fails here.
GOLDEN_OUTAGE = ("trials=300", "densities=1.0, 2.0", "n_antennas=2")
GOLDEN_OUTAGE_SHA256 = "4f24aa1132bef346cfc9953f6764da52eaf840b534e348f1dea8d5d705b9dc5c"

# SHA-256 of rfchains.csv for GOLDEN_RFCHAINS at seed 17, recorded while the
# relaxations were still solved one at a time. m = 1..3 reduce to fewer
# dimensions than the 4 devices, and m >= 17 are the slowest relaxations.
GOLDEN_RFCHAINS = ("m_values=" + ", ".join(str(m) for m in range(1, 25)),)
GOLDEN_RFCHAINS_SHA256 = "b73f9b75bc96be135cec52d1d2ebe326ead176fe64b88a5accc0824b6f6fb795"

# SHA-256 of the default rfchains.csv at seeds 1 and 2, recorded while the
# relaxations were still dealt across forked workers.
GOLDEN_RFCHAINS_DEFAULT_SHA256 = {
    1: "c9056c9e5dbe3a21985be60da2586916a87f79c169e4a655158dcca93e201699",
    2: "1a9749e192fc5c966a3a8cb3f1879d0dc95feb0f570a766c2ea9f396dc780e6a",
}

# SHA-256 of rfchains.csv and rfchains.dat for explicit devices and a
# consumption model off its defaults at seed 5, recorded while the sweep
# still computed each point's consumption through ``consumption()``.
GOLDEN_RFCHAINS_EXPLICIT = ("devices=3:4, -5:0, 1:-7, 6:2", "m_values=1, 2, 3, 4, 6, 8, 12", "pa_efficiency=0.6",
                            "p_rf_chain_w=0.25")
GOLDEN_RFCHAINS_EXPLICIT_SHA256 = (
    "69ab5634783bc928a6d765f2129aebcd4d02dfe948ab22264fd0023569633347",
    "c76191221a39b52ffbc86ed21716ba06335c6c25a677feeecc583a46517246d8",
)

# SHA-256 of deploy.csv for GOLDEN_DEPLOY at seed 17, recorded while every
# objective evaluation still rebuilt its arrays and looped over components.
GOLDEN_DEPLOY = ("k=3", "solver.n_starts=2")
GOLDEN_DEPLOY_SHA256 = "ffd699db8d9f1bd46089d263af790e2386cc916e090a30a32491c30224fb511d"

# SHA-256 of cost.csv and cost.dat of a sweep over fleet sizes and of one
# over horizons and battery lives (cost ignores the seed), recorded while
# _run_cost still mapped each schema key to CostParams by hand and each sweep
# was a mode of its own. Every scenario moves keys off their defaults, so a
# key read into the wrong field changes the bytes.
GOLDEN_COST = {
    "devices": (
        ("n_devices=1, 10, 50, 51, 100, 1000", "grid_price_per_kwh=0.13", "battery_lives=3",
         "horizons=12", "include_final_replacement=true", "install_green_pb=333.33"),
        "dbb38d6cef018e31016b3b5c1e32472e8c6bbb90ec945f97997670ba2844ac49",
        "88eb752c48cbc015637cc78bd0fc41e05fb93c5150827abfa1cabd5b76652618",
    ),
    "lifetime": (
        ("horizons=5, 10, 25, 30", "battery_lives=1, 3, 7", "n_devices=120",
         "devices_per_pb=30", "green_pb_replacement_period=7", "annualize_green_replacement=false",
         "battery_pb_annual_fraction=0.27"),
        "a4f69cf4a2daa81be041b30df88a648d69e141c4ae97c8b3dafb83bc74dd9f37",
        "1ffe03911b875dfd156754742a98b0a0d02c7d3eb67b9e75e0be96a2133c7537",
    ),
}

# SHA-256 of the plot data per study at seed 17, recorded while the .dat file
# was still rendered by re-reading the CSV.
GOLDEN_PLOT_DATA = {
    "deploy": (("k=2", "solver.n_starts=1"), "46e0a9183172de42ed44e23ed89c1be06c4a844f755208c7523cbf04cb427c31"),
    "outage": (
        ("trials=100", "densities=1.0, 2.0, 3.0", "archs=single, dc", "n_antennas=2"),
        "1e4bbe6e64b0cd986cb49e70b5026a59fc324b2e1b74742ba60d12789deae794",
    ),
    "rfchains": (("m_values=1, 2, 4, 8",), "6400391b87d6f9f48f98c829d13d2fd321cf1cb3b06b16e3013afa24e1a70924"),
}


def run_cli(subcommand, out, *, sets=(), seed=0, config=None, plot=False):
    rc = RunConfig(
        subcommand=subcommand,
        seed=seed,
        config_path=config,
        output_dir=str(out),
        overrides=tuple(sets),
        plot_data=plot,
    )
    return run(rc)


def test_outage_defaults_match_reference_scenario():
    resolved = resolve_config(STUDIES["outage"].keys, None, [])
    assert resolved["disk_radius"] == 10.0
    assert resolved["tx_power"] == 1.0
    assert resolved["pathloss.exponent"] == 2.7
    assert resolved["pathloss.fixed_loss_db"] == 40.0
    assert resolved["rician.k_factor"] == 10.0
    assert resolved["target"] == 1e-3


def test_override_is_applied_and_recorded(tmp_path):
    out = tmp_path / "run"
    assert run_cli("outage", out, sets=FAST_OUTAGE + ("pathloss.exponent=3",)) == 0
    manifest = RunManifest.from_text((out / "manifest.txt").read_text())
    assert manifest.resolved["pathloss.exponent"] == "3.0"
    assert manifest.seed == 0  # default seed is still recorded explicitly


def test_unknown_key_suggests_sibling():
    with pytest.raises(ConfigError, match="pathloss.exponent"):
        resolve_config(STUDIES["outage"].keys, None, ["pathloss.exponnet=3"])


def test_malformed_and_out_of_range_values():
    # Parsing refuses what is not a value of the key's kind; the range of a
    # library field is checked where the runner builds the library object.
    with pytest.raises(ConfigError, match=r"^--set #1: tx_power: not a number"):
        resolve_config(STUDIES["outage"].keys, None, ["tx_power=watts"])
    for sets, message in ((["trials=-5"], r"^trials must be >= 1, got -5$"), (["target=0"], r"^target must be > 0")):
        resolved = resolve_config(STUDIES["outage"].keys, None, sets)
        with pytest.raises(ConfigError, match=message):
            STUDIES["outage"].runner(resolved, 0)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "outage.cfg"
    cfg.write_text("# comment\ntrials = 300\ndensities = 1.0, 2.0  # inline comment\n")
    resolved = resolve_config(STUDIES["outage"].keys, cfg, [])
    assert resolved["trials"] == 300
    assert resolved["densities"] == (1.0, 2.0)


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        resolve_config(STUDIES["outage"].keys, tmp_path / "missing.cfg", [])
    bad = tmp_path / "bad.cfg"
    bad.write_text("trials 300\n")
    with pytest.raises(ConfigError, match="key = value"):
        resolve_config(STUDIES["outage"].keys, bad, [])


# Each refusal of a malformed config file or override: (file name, its text,
# overrides, message); the message names the file line or override at fault.
CONFIG_REFUSALS = {
    "missing": ("missing.cfg", None, [], r"^config file not found: {dir}/missing\.cfg$"),
    "no-equals": ("bad.cfg", "trials = 300\n\ntrials 300  # bare\n", [],
                  r"^{dir}/bad\.cfg:3: expected 'key = value', got 'trials 300  # bare'$"),
    "empty-key": ("bad.cfg", "# comment\n = 300\n", [], r"^{dir}/bad\.cfg:2: empty key$"),
    "file-origin": ("bad.cfg", "trials = 300\ntrails = 3\n", [],
                    r"^{dir}/bad\.cfg:2: unknown key 'trails'; did you mean 'trials'\?$"),
    "override": (None, None, ["trials=300", "trials"], r"^override 'trials' must look like key=value$"),
    "override-origin": (None, None, ["trials=300", "trials=lots"], r"^--set #2: trials: "),
}


@pytest.mark.parametrize("case", sorted(CONFIG_REFUSALS))
def test_config_refusals_name_their_line_or_override(tmp_path, case):
    name, text, sets, message = CONFIG_REFUSALS[case]
    path = None if name is None else tmp_path / name
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=message.format(dir=re.escape(str(tmp_path)))):
        resolve_config(STUDIES["outage"].keys, path, sets)


def test_cost_run_row_cardinality(tmp_path):
    out = tmp_path / "cost"
    assert run_cli("cost", out, sets=("n_devices=10, 50, 100",)) == 0
    lines = (out / "cost.csv").read_text().splitlines()
    assert len(lines) == 1 + 12  # header + 4 scenarios x 3 counts


def test_cost_sweep_over_horizons_and_battery_lives(tmp_path):
    out = tmp_path / "cost"
    sets = ("horizons=10, 15", "battery_lives=3, 5", "n_devices=100")
    assert run_cli("cost", out, sets=sets, plot=True) == 0
    lines = (out / "cost.csv").read_text().splitlines()
    assert len(lines) == 1 + 16  # header + 4 scenarios x 2 horizons x 2 lives
    text = (out / "cost.dat").read_text()
    assert text.count("# series:") == 8  # 4 scenarios x 2 battery lives


def test_runs_are_byte_identical_across_invocations(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert run_cli("outage", out, sets=FAST_OUTAGE, seed=11) == 0
    assert (first / "outage.csv").read_bytes() == (second / "outage.csv").read_bytes()


def test_outage_csv_matches_golden_digest(tmp_path):
    out = tmp_path / "outage"
    assert run_cli("outage", out, sets=GOLDEN_OUTAGE, seed=17) == 0
    assert hashlib.sha256((out / "outage.csv").read_bytes()).hexdigest() == GOLDEN_OUTAGE_SHA256


def test_rfchains_csv_matches_golden_digest(tmp_path):
    out = tmp_path / "rfchains"
    assert run_cli("rfchains", out, sets=GOLDEN_RFCHAINS, seed=17) == 0
    assert hashlib.sha256((out / "rfchains.csv").read_bytes()).hexdigest() == GOLDEN_RFCHAINS_SHA256


def test_rfchains_with_explicit_devices_matches_golden_digests(tmp_path):
    out = tmp_path / "rfchains"
    assert run_cli("rfchains", out, sets=GOLDEN_RFCHAINS_EXPLICIT, seed=5, plot=True) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("rfchains.csv", "rfchains.dat"))
    assert digests == GOLDEN_RFCHAINS_EXPLICIT_SHA256


@pytest.mark.parametrize("seed", sorted(GOLDEN_RFCHAINS_DEFAULT_SHA256))
def test_default_rfchains_csv_matches_golden_digest(tmp_path, seed):
    out = tmp_path / "rfchains"
    assert run_cli("rfchains", out, seed=seed) == 0
    assert hashlib.sha256((out / "rfchains.csv").read_bytes()).hexdigest() == GOLDEN_RFCHAINS_DEFAULT_SHA256[seed]


def test_deploy_csv_matches_golden_digest(tmp_path):
    out = tmp_path / "deploy"
    assert run_cli("deploy", out, sets=GOLDEN_DEPLOY, seed=17) == 0
    assert hashlib.sha256((out / "deploy.csv").read_bytes()).hexdigest() == GOLDEN_DEPLOY_SHA256


def test_default_deploy_search_path_is_pinned(tmp_path, monkeypatch):
    # Totals over every Nelder–Mead start of the default deploy at seed 0,
    # recorded while each start still ran through scipy's minimize: a search
    # that keeps the CSV bytes by luck but evaluates other points fails here.
    search, runs = wetplan.deployment._nelder_mead, []

    def recorded(*args, **kwargs):
        runs.append(search(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(wetplan.deployment, "_nelder_mead", recorded)
    assert main(["deploy", "--seed", "0", "--out", str(tmp_path / "deploy")]) == 0
    nfev = [int(n) for _, _, stage_nfev, _ in runs for n in stage_nfev]
    nit = [int(n) for _, _, _, stage_nit in runs for n in stage_nit]
    assert (len(nfev), sum(nfev), sum(nit)) == (45, 53_131, 34_648)


@pytest.mark.parametrize("sweep", sorted(GOLDEN_COST))
def test_cost_csv_and_plot_data_match_golden_digests(tmp_path, sweep):
    sets, csv_sha256, dat_sha256 = GOLDEN_COST[sweep]
    out = tmp_path / sweep
    assert run_cli("cost", out, sets=sets, plot=True) == 0
    assert hashlib.sha256((out / "cost.csv").read_bytes()).hexdigest() == csv_sha256
    assert hashlib.sha256((out / "cost.dat").read_bytes()).hexdigest() == dat_sha256


# Per study: where the runner hands its scenario over, and runs of --set
# values that together move every schema key off its default. rfchains needs
# two runs, since explicit devices override n_devices.
OFF_DEFAULT = {
    "cost": ("sweep_costs", [(
        "n_devices=7, 70", "horizons=9, 11", "battery_lives=2, 4", "devices_per_pb=40", "install_grid_pb=301",
        "install_green_pb=321.5", "install_battery_pb=371", "device_install=21", "device_maintenance_fraction=0.4",
        "battery_pb_annual_fraction=0.2", "green_pb_replacement_fraction=0.5", "green_pb_replacement_period=20",
        "pb_avg_power_w=7", "grid_price_per_kwh=0.3", "include_final_replacement=true",
        "annualize_green_replacement=false",
    )]),
    "deploy": ("optimize", [(
        "k=3", "cap=0.75", "devices=-1:2, 3:-4", "map.components=2:1:-1:6, 0.5:-3:3:4",
        "map.area=-20:-25:22:21", "solver.n_starts=3", "solver.greedy_grid=7", "solver.nm_max_iter=41",
        "pathloss.exponent=2.2", "pathloss.fixed_loss_db=3.5", "pathloss.reference_distance=0.5",
    )]),
    "outage": ("sweep_density", [(
        "densities=0.25, 3", "disk_radius=7.5", "tx_power=2.5", "rician.k_factor=3", "target=2e-4",
        "archs=rf, single", "n_antennas=3", "trials=77", "curve.breakpoints=-25:0.1, 5:0.4, 12:0.6",
        "pathloss.exponent=2.1", "pathloss.fixed_loss_db=30", "pathloss.reference_distance=0.8",
    )]),
    "rfchains": ("sweep_rf_chains", [(
        "gamma=3e-6", "m_values=1, 3", "n_devices=5", "disk_radius=7.5", "rician.k_factor=3",
        "pa_efficiency=0.6", "p_rf_chain_w=0.25", "solver.tol=2e-3",
        "pathloss.exponent=2.1", "pathloss.fixed_loss_db=30", "pathloss.reference_distance=0.8",
    ), ("devices=1:1, 2:-3",)]),
}


@pytest.mark.parametrize("study", sorted(OFF_DEFAULT))
def test_every_key_reaches_its_field(monkeypatch, study):
    class Handed(Exception):
        pass

    target, runs = OFF_DEFAULT[study]
    schema, moved, calls = STUDIES[study].keys, set(), []
    signature = inspect.signature(getattr(wetplan.cli, target))

    def capture(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        raise Handed

    for sets in runs:
        resolved = resolve_config(schema, None, sets)
        moved |= {name for name in schema if resolved[name] != schema[name].default}
    assert moved == set(schema)

    monkeypatch.setattr(wetplan.cli, target, capture)
    for sets in runs:
        with pytest.raises(Handed):
            STUDIES[study].runner(resolve_config(schema, None, sets), 11)
    pathloss = PathLossParams(exponent=2.1, fixed_loss_db=30.0, reference_distance=0.8)
    if study == "cost":
        (call,) = calls
        assert call == {
            "params": CostParams(
                devices_per_pb=40,
                install_grid_pb=Fraction(301),
                install_green_pb=Fraction(643, 2),
                install_battery_pb=Fraction(371),
                device_install=Fraction(21),
                device_maintenance_fraction=Fraction(2, 5),
                battery_pb_annual_fraction=Fraction(1, 5),
                green_pb_replacement_fraction=Fraction(1, 2),
                green_pb_replacement_period=20,
                pb_avg_power_w=Fraction(7),
                grid_price_per_kwh=Fraction(3, 10),
                include_final_replacement=True,
                annualize_green_replacement=False,
            ),
            "n_devices": (7, 70),
            "horizons": (9, 11),
            "battery_lives": (2, 4),
        }
    elif study == "deploy":
        (call,) = calls
        area = Rect(-20.0, -25.0, 22.0, 21.0)
        components = (GaussianComponent(2.0, (1.0, -1.0), 6.0),
                      GaussianComponent(0.5, (-3.0, 3.0), 4.0))
        problem = call.pop("problem")
        assert problem.devices.tolist() == [[-1.0, 2.0], [3.0, -4.0]]
        assert {f.name: getattr(problem, f.name) for f in fields(problem) if f.name != "devices"} == {
            "ambient_map": AmbientMap(components, area),
            "k": 3,
            "cap": 0.75,
            "pathloss": PathLossParams(exponent=2.2, fixed_loss_db=3.5, reference_distance=0.5),
        }
        assert call == {
            "solver": SolverConfig(n_starts=3, greedy_grid=7, nm_max_iter=41),
            "seed": 11,
        }
    elif study == "outage":
        (call,) = calls
        assert call == {
            "config": OutageConfig(
                disk_radius=7.5,
                tx_power=2.5,
                pathloss=pathloss,
                rician=RicianParams(3.0),
                target=2e-4,
                n_antennas=3,
                curve=HarvesterCurve(((-25.0, 0.1), (5.0, 0.4), (12.0, 0.6))),
                trials=77,
            ),
            "densities": (0.25, 3.0),
            "archs": ("rf", "single"),
            "seed": 11,
        }
    else:
        drawn, explicit = calls
        assert drawn == {
            "config": RfChainConfig(
                pathloss=pathloss,
                rician=RicianParams(3.0),
                disk_radius=7.5,
                gamma=3e-6,
                n_devices=5,
                pa_efficiency=0.6,
                p_rf_chain_w=0.25,
                solver=PrecoderSolver(tol=2e-3),
            ),
            "m_values": (1, 3),
            "devices": None,
            "seed": 11,
        }
        assert explicit["devices"] == ((1.0, 1.0), (2.0, -3.0))


@pytest.mark.parametrize("study", sorted(GOLDEN_PLOT_DATA))
def test_plot_data_matches_golden_digest(tmp_path, study):
    sets, sha256 = GOLDEN_PLOT_DATA[study]
    out = tmp_path / study
    assert run_cli(study, out, sets=sets, seed=17, plot=True) == 0
    assert hashlib.sha256((out / f"{study}.dat").read_bytes()).hexdigest() == sha256


def test_outage_values_do_not_depend_on_architecture_order(tmp_path):
    values = []
    for order in ("single, dc, rf", "rf, dc, single"):
        out = tmp_path / order.replace(", ", "_")
        assert run_cli("outage", out, sets=GOLDEN_OUTAGE + (f"archs={order}",), seed=17) == 0
        with open(out / "outage.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["architecture"] for r in rows] == [a for a in order.split(", ") for _ in range(2)]
        values.append({(r["architecture"], r["density"]): r for r in rows})
    assert values[0] == values[1]


def test_outage_too_many_sources_fails_before_drawing(tmp_path, monkeypatch):
    _reach_draws(monkeypatch)
    out = tmp_path / "outage"
    assert run_cli("outage", out, sets=("densities=0.5, 1e9",)) == 1
    assert not out.exists()
    for radius in ("disk_radius=1e4", "disk_radius=1e200"):
        with pytest.raises(ValueError, match=r"densities.*disk_radius"):
            STUDIES["outage"].runner(resolve_config(STUDIES["outage"].keys, None, [radius]), 0)


class DrawReached(Exception):
    pass


def _reach_draws(monkeypatch):
    """Stop outage and rfchains at their first draw, or at outage's rf codebook,
    on one CPU (no worker is forked), and deploy where its search begins."""

    def refuse(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for module, name in (
        (wetplan.outage, "dft_codebook"),
        (wetplan.outage, "_draw"),
        (wetplan.beampower, "_uniform_disk"),
        (wetplan.beampower, "sample_channels"),
        (wetplan.deployment, "_Evaluator"),
    ):
        monkeypatch.setattr(module, name, refuse)


# Per product: the study, overrides at the array bound, the same just past
# it, and the keys the refusal names. With 4 antennas the bound is 2,500,000
# trials or a disk radius of 446 m; 2,000 devices fit 5,000 RF chains, the
# 200 Gaussian candidates allow 50,000 RF chains and their margins 3,062
# devices; 3,162 antennas give a codebook of 9,998,244 entries. The deploy
# search's simplices, (1 + n_starts) * (2k + 1) * k * 8 devices, allow
# k = 263 at 8 starts, or 22,726 starts at k = 5.
TOO_LARGE = {
    "codebook": ("outage", ["n_antennas=3162", "trials=1"], ["n_antennas=3163", "trials=1"], "n_antennas"),
    "channels": ("outage", ["disk_radius=446", "trials=1"], ["disk_radius=447", "trials=1"],
                 "densities, disk_radius and n_antennas"),
    "power_stack": ("outage", ["trials=2500000"], ["trials=2500001"], "trials and n_antennas"),
    "disk_area": ("outage", ["densities=0", "disk_radius=1e200", "trials=2"],
                  ["densities=1e-320", "disk_radius=1e160", "trials=2"], "densities and disk_radius"),
    "rfchains_channels": ("rfchains", ["n_devices=2000", "m_values=1, 5000"], ["n_devices=2001", "m_values=1, 5000"],
                          "n_devices and m_values"),
    "candidate_margins": ("rfchains", ["n_devices=3062"], ["n_devices=3063"], "n_devices"),
    "candidates": ("rfchains", ["m_values=50000"], ["m_values=50001"], "m_values"),
    "simplex_k": ("deploy", ["k=263"], ["k=264"], r"k = 264, solver\.n_starts = 8, 8 devices and 4 map\.components"),
    "simplex_starts": ("deploy", ["solver.n_starts=22726"], ["solver.n_starts=22727"],
                       r"k = 5, solver\.n_starts = 22727, 8 devices and 4 map\.components"),
}


@pytest.mark.parametrize("product", sorted(TOO_LARGE))
def test_scenarios_too_large_to_allocate_fail_before_drawing(tmp_path, monkeypatch, capsys, product):
    study, fits, too_large, keys = TOO_LARGE[product]
    _reach_draws(monkeypatch)
    runner = STUDIES[study].runner
    with pytest.raises(DrawReached):
        runner(resolve_config(STUDIES[study].keys, None, fits), 0)
    with pytest.raises(ValueError, match=rf"^{keys} give .*; the limit is 1e\+07$"):
        runner(resolve_config(STUDIES[study].keys, None, too_large), 0)
    out = tmp_path / study
    assert run_cli(study, out, sets=too_large) == 1
    assert re.match(rf"error: {keys} give ", capsys.readouterr().err)
    assert not out.exists()


def test_outage_with_no_transmitters_runs_whatever_the_disk_radius(tmp_path):
    out = tmp_path / "outage"
    assert main(["outage", "--set", "densities=0", "--set", "disk_radius=1e200", "--trials", "2",
                 "--out", str(out)]) == 0
    rows = (out / "outage.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["1.0"] * 3


@pytest.mark.parametrize("sets, keys, device", [
    (["pathloss.exponent=400"], "disk_radius", r"device 0 at \(3\.09, -7\.359\)"),
    (["devices=1e200:0", "m_values=1"], "devices", r"device 0 at \(1e\+200, 0\)"),
    (["devices=1:1, 1e200:0", "m_values=1"], "devices", r"device 1 at \(1e\+200, 0\)"),
], ids=["drawn", "explicit", "second_explicit"])
def test_rfchains_device_whose_path_gain_underflows_is_refused_before_drawing(monkeypatch, capsys, tmp_path,
                                                                              sets, keys, device):
    def refuse(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(wetplan.beampower, "sample_channels", refuse)
    out = tmp_path / "rfchains"
    assert run_cli("rfchains", out, sets=sets) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: pathloss\.\* and {keys} give {device} a path gain of 0, which underflows\n", err)
    assert not out.exists()


def test_rfchains_refuses_path_gains_whose_power_scale_overflows(monkeypatch, capsys, tmp_path):
    # Unrefused, the carried precoder's margins over the normalized floors
    # overflow in a divide, and the run writes about 6e268 W.
    def refuse(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(wetplan.beampower, "sample_channels", refuse)
    out = tmp_path / "rfchains"
    assert run_cli("rfchains", out, sets=["pathloss.exponent=300", "m_values=1,2"]) == 1
    assert re.fullmatch(r"error: gamma, pathloss\.\* and disk_radius give inf as gamma \* max / min\*\*2 of the "
                        r"device path gains; the limit is 1e\+290\n", capsys.readouterr().err)
    assert not out.exists()


def test_outage_codebook_bound_applies_only_with_rf(monkeypatch):
    _reach_draws(monkeypatch)
    sets = ["n_antennas=3163", "trials=1", "archs=single, dc"]
    with pytest.raises(DrawReached):
        STUDIES["outage"].runner(resolve_config(STUDIES["outage"].keys, None, sets), 0)


def test_deploy_k_zero_fails_without_writing_files(tmp_path):
    out = tmp_path / "deploy"
    assert run_cli("deploy", out, sets=("k=0",)) == 1
    assert not out.exists()


def test_deploy_device_outside_area_names_the_keys(tmp_path, capsys):
    out = tmp_path / "deploy"
    assert main(["deploy", "--set", "devices=30:0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: devices (30.0, 0.0) lies outside the map area x [-20.0, 20.0]")
    assert not out.exists()


def test_deploy_bad_component_names_the_key(tmp_path, capsys):
    out = tmp_path / "deploy"
    assert main(["deploy", "--set", "map.components=1:0:0:0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: map.components: width must be > 0, got 0.0\n"
    with pytest.raises(ConfigError, match=r"^map\.area: rectangle must have positive extent"):
        STUDIES["deploy"].runner(resolve_config(STUDIES["deploy"].keys, None, ["map.area=0:0:0:5"]), 0)


def test_deploy_oversized_greedy_grid_fails_before_optimizing(tmp_path, monkeypatch):
    class SearchReached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise SearchReached

    monkeypatch.setattr(wetplan.deployment, "_Evaluator", refuse)
    largest = math.isqrt(wetplan.deployment.MAX_GREEDY_ENTRIES // 8)  # the default scenario has 8 devices
    with pytest.raises(SearchReached):
        STUDIES["deploy"].runner(resolve_config(STUDIES["deploy"].keys, None, [f"solver.greedy_grid={largest}"]), 0)
    out = tmp_path / "deploy"
    assert run_cli("deploy", out, sets=(f"solver.greedy_grid={largest + 1}",)) == 1
    assert not out.exists()
    many_devices = "devices=" + ", ".join(f"{x}:0" for x in range(-10, 10))
    # A grid of 10**200 points per axis gives an int past the range of a float.
    for sets in (["solver.greedy_grid=1000000000"], ["solver.greedy_grid=224", many_devices],
                 [f"solver.greedy_grid={10**200}"]):
        with pytest.raises(ValueError, match=r"^solver\.greedy_grid = "):
            STUDIES["deploy"].runner(resolve_config(STUDIES["deploy"].keys, None, sets), 0)


@pytest.mark.parametrize("value", [10**18, 10**400], ids=["1e18", "400_digits"])
def test_deploy_refuses_an_iteration_budget_past_the_solver_counters(tmp_path, monkeypatch, capsys, value):
    # The last stage runs solver.nm_max_iter * 2k iterations per start, counted in int64.
    _reach_draws(monkeypatch)
    with pytest.raises(DrawReached):
        STUDIES["deploy"].runner(resolve_config(STUDIES["deploy"].keys, None, [f"solver.nm_max_iter={10**17}"]), 0)
    out = tmp_path / "deploy"
    assert run_cli("deploy", out, sets=[f"solver.nm_max_iter={value}"]) == 1
    assert re.fullmatch(rf"error: solver\.nm_max_iter = {value} and k = 5 give \S+ Nelder–Mead iterations per start "
                        r"in the last stage \(solver\.nm_max_iter \* 2k\); the limit is 1e\+18\n",
                        capsys.readouterr().err)
    assert not out.exists()


# Each study's help line in ``wetplan --help``, and the options every study takes.
HELP_LINES = {
    "cost": "total-cost comparison of device powering scenarios",
    "deploy": "max-min placement of ambient-powered beacons",
    "outage": "ambient harvesting outage vs transmitter density",
    "rfchains": "beacon consumption vs number of RF chains",
}
SHARED_OPTIONS = ["-h", "--config", "--set", "--seed", "--out", "--plot-data"]


def test_parser_gives_each_study_its_help_line_and_options():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {a.dest: a.help for a in subparsers._choices_actions} == HELP_LINES
    assert list(subparsers.choices) == list(STUDIES)
    for study, parser in subparsers.choices.items():
        options = [a.option_strings[0] for a in parser._actions]
        assert options == SHARED_OPTIONS + (["--trials"] if "trials" in STUDIES[study].keys else [])
    assert [study for study in STUDIES if "trials" in STUDIES[study].keys] == ["outage"]


def test_an_unknown_subcommand_is_refused_by_name():
    with pytest.raises(ConfigError, match=r"^unknown subcommand 'nope'; expected one of "
                                          r"\('cost', 'deploy', 'outage', 'rfchains'\)$"):
        RunConfig("nope")
    with pytest.raises(ValueError, match=r"^no plot layout for subcommand 'nope'$"):
        emit_plot_data("nope", [], [])


def test_trials_flag_only_for_outage(tmp_path):
    out = tmp_path / "cost"
    with pytest.raises(SystemExit) as exit_info:
        main(["cost", "--trials", "50", "--out", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()


def test_trials_flag_wins_over_set(tmp_path, monkeypatch):
    trials = []

    def capture(config, densities, archs, seed):
        trials.append(config.trials)
        raise RuntimeError("stop before sampling")

    monkeypatch.setattr(wetplan.cli, "sweep_density", capture)
    assert main(["outage", "--set", "trials=5", "--trials", "7", "--out", str(tmp_path / "outage")]) == 1
    assert trials == [7]


def test_manifest_digests_verify_and_detect_tampering(tmp_path):
    out = tmp_path / "run"
    assert run_cli("cost", out) == 0
    manifest = out / "manifest.txt"
    assert verify_manifest(manifest)
    (out / "cost.csv").write_text("tampered\n")
    assert not verify_manifest(manifest)


def test_manifest_that_lists_no_csv_does_not_verify(tmp_path):
    out = tmp_path / "run"
    assert run_cli("cost", out) == 0
    manifest = out / "manifest.txt"
    text = manifest.read_text()
    (out / "empty.txt").write_text("")
    assert not verify_manifest(out / "empty.txt")
    header = "".join(line + "\n" for line in text.splitlines() if not line.startswith(("config.", "output.")))
    manifest.write_text(header)
    assert not verify_manifest(manifest)
    # A manifest whose outputs all match, but which omits the run's CSV.
    plot = out / "cost.dat"
    plot.write_text("# series\n")
    manifest.write_text(header + f"output.cost.dat.sha256 = {hashlib.sha256(plot.read_bytes()).hexdigest()}\n")
    assert not verify_manifest(manifest)


# An output line whose name is a path, or a link in the run's directory,
# reaches a file outside it; its digest matches, but it is no output of the run.
@pytest.mark.parametrize("name", ["absolute", "../outside.txt", "sub/../../outside.txt", "link.txt"])
def test_manifest_output_outside_its_directory_does_not_verify(tmp_path, name):
    out = tmp_path / "run"
    assert run_cli("cost", out) == 0
    manifest = out / "manifest.txt"
    outside = tmp_path / "outside.txt"
    outside.write_text("not an output\n")
    (out / "sub").mkdir()
    (out / "link.txt").symlink_to(outside)
    name = str(outside) if name == "absolute" else name
    text = manifest.read_text()
    manifest.write_text(text + f"output.{name}.sha256 = {hashlib.sha256(outside.read_bytes()).hexdigest()}\n")
    assert not verify_manifest(manifest)
    manifest.write_text(text)
    assert verify_manifest(manifest)


def test_manifest_whose_seed_or_duration_does_not_parse_does_not_verify(tmp_path):
    out = tmp_path / "run"
    assert run_cli("cost", out) == 0
    manifest = out / "manifest.txt"
    text = manifest.read_text()
    assert verify_manifest(manifest)
    for line in ("seed = x", "duration_seconds = soon"):
        key = line.split(" = ")[0]
        manifest.write_text(re.sub(rf"(?m)^{key} = .*$", line, text))
        assert not verify_manifest(manifest)


def test_failed_rerun_leaves_no_stale_manifest(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run_cli("cost", out) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    def fail(*args):
        raise OSError("disk full")

    # The failure comes after this run's cost.csv is written, and its rows
    # differ from the first run's.
    monkeypatch.setattr(wetplan.cli, "emit_plot_data", fail)
    assert run_cli("cost", out, sets=("n_devices=7",), plot=True) == 1
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert sorted(before) == ["cost.csv", "manifest.txt"]
    assert verify_manifest(out / "manifest.txt")


def test_a_run_without_plot_data_removes_an_earlier_runs_plot_data(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run_cli("cost", out, plot=True) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == ["cost.csv", "cost.dat", "manifest.txt"]

    def fail(*args):
        raise OSError("disk full")

    # A failed run leaves the earlier run, plot data included, as it was.
    with monkeypatch.context() as patched:
        patched.setattr(wetplan.cli, "write_csv", fail)
        assert run_cli("cost", out, sets=("horizons=5, 10",)) == 1
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert run_cli("cost", out, sets=("horizons=5, 10",)) == 0
    assert sorted(path.name for path in out.iterdir()) == ["cost.csv", "manifest.txt"]
    assert verify_manifest(out / "manifest.txt")


def test_manifest_env_lines_round_trip_and_are_not_verified(tmp_path):
    manifest = RunManifest("0.1.0", "cost", 3, 0.5, {"n_devices": "10, 50, 100"}, {"cost.csv": "ab"},
                           env={"numpy": "2.1.0", "python": "3.11.7"})
    text = manifest.to_text()
    assert "env.numpy = 2.1.0\nenv.python = 3.11.7\n" in text
    assert RunManifest.from_text(text) == manifest
    out = tmp_path / "run"
    assert run_cli("cost", out) == 0
    written = RunManifest.from_text((out / "manifest.txt").read_text())
    assert written.env == {"numpy": np.__version__, "python": sys.version.split()[0]}
    text = (out / "manifest.txt").read_text()
    (out / "manifest.txt").write_text(text.replace("env.python = ", "env.python = other-"))
    assert verify_manifest(out / "manifest.txt")


# Whichever study ran, and whether or not it dealt trials across CPUs, the
# environment is the Python and numpy versions alone.
@pytest.mark.parametrize("study", sorted(STUDIES))
def test_every_study_records_only_the_python_and_numpy_versions(tmp_path, study):
    sets = GOLDEN_PLOT_DATA[study][0] if study in GOLDEN_PLOT_DATA else ()
    out = tmp_path / study
    assert run_cli(study, out, sets=sets) == 0
    written = RunManifest.from_text((out / "manifest.txt").read_text())
    assert written.env == {"numpy": np.__version__, "python": sys.version.split()[0]}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_failing_outage_worker_exits_1_and_leaves_earlier_outputs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert main(["outage", "--trials", "20", "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    real = wetplan.outage._harvest_trials

    def fail_after_trial_0(config, density, archs, count, seeds):
        seeds = list(seeds)
        if seeds[0].entropy[1] != 0:
            raise MemoryError("worker out of memory")
        return real(config, density, archs, count, seeds)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(wetplan.outage, "_harvest_trials", fail_after_trial_0)
    capsys.readouterr()
    assert main(["outage", "--trials", "20", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: outage trials 1 to 19 step 2 at densities 0.5, 1.0, 2.0, 4.0 failed in a worker process: "
        "MemoryError: worker out of memory\n"
    )
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert verify_manifest(out / "manifest.txt")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_rfchains_relaxation_exits_1_and_leaves_earlier_outputs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    sets = ["--set", "m_values=1, 2, 3, 4"]
    assert main(["rfchains", *sets, "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    real = wetplan.beampower._solve_stack

    # m = 1..3 are solved; the stack of m = 4, the last one, fails.
    def fail_at_m_4(hhat, tau, tol):
        if hhat.shape[2] == 4:
            raise MemoryError("relaxation out of memory")
        return real(hhat, tau, tol)

    monkeypatch.setattr(wetplan.beampower, "_solve_stack", fail_at_m_4)
    capsys.readouterr()
    assert main(["rfchains", *sets, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: relaxation out of memory\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert verify_manifest(out / "manifest.txt")


def test_manifest_config_reproduces_run(tmp_path):
    first = tmp_path / "a"
    assert run_cli("outage", first, sets=FAST_OUTAGE, seed=9) == 0
    manifest = RunManifest.from_text((first / "manifest.txt").read_text())
    cfg = tmp_path / "replay.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in manifest.resolved.items()))
    second = tmp_path / "b"
    assert run_cli("outage", second, config=str(cfg), seed=9) == 0
    assert (first / "outage.csv").read_bytes() == (second / "outage.csv").read_bytes()


def test_plot_data_cost_has_four_series(tmp_path):
    out = tmp_path / "cost"
    assert run_cli("cost", out, plot=True) == 0
    text = (out / "cost.dat").read_text()
    assert text.count("# series:") == 4


# (cost sweep, its plot axis, number of series, the first series' title and points)
COST_AXES = {
    "one-point": (("n_devices=10", "horizons=10", "battery_lives=3"), "n_devices", 4, "baseline", ["10 500.00"]),
    "fleet-sizes": (("n_devices=10, 20",), "n_devices", 4, "baseline", ["10 400.00", "20 800.00"]),
    "horizons": (("n_devices=10", "horizons=5, 10"), "horizon", 4, "baseline battery_life=5",
                 ["5 200.00", "10 300.00"]),
    "battery-lives": (("n_devices=10", "horizons=10", "battery_lives=5, 3"), "horizon", 8,
                      "baseline battery_life=3", ["10 500.00"]),
    "fleet-sizes-and-horizons": (("n_devices=10, 20", "horizons=5, 10"), "n_devices", 4, "baseline",
                                 ["10 200.00", "20 400.00", "10 300.00", "20 600.00"]),
}


@pytest.mark.parametrize("case", sorted(COST_AXES))
def test_cost_plot_axis_is_inferred_from_the_swept_values(tmp_path, case):
    # One fleet size costed over more than one (horizon, battery life) plots
    # against the horizon, one series per battery life; every other sweep,
    # one point included, plots against the fleet size.
    sets, x_name, n_series, first_series, first_points = COST_AXES[case]
    out = tmp_path / "cost"
    assert run_cli("cost", out, sets=sets, plot=True) == 0
    lines = (out / "cost.dat").read_text().splitlines()
    assert lines[0] == f"# cost sweep: x = {x_name}, y = total cost (USD)"
    series = [i for i, line in enumerate(lines) if line.startswith("# series:")]
    assert len(series) == n_series
    first = lines[series[0]:series[1] - 2]
    assert first == [f"# series: {first_series}", f"# columns: {x_name} total", *first_points]


def test_plot_data_outage_groups_by_architecture(tmp_path):
    out = tmp_path / "outage"
    sets = ("trials=100", "densities=1.0, 2.0, 3.0", "archs=single, dc", "n_antennas=2")
    assert run_cli("outage", out, sets=sets, plot=True) == 0
    text = (out / "outage.dat").read_text()
    assert text.count("# series:") == 2
    series_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(series_lines) == 6  # 2 series x 3 densities


def test_plot_data_rfchains_marks_optimum(tmp_path):
    out = tmp_path / "rf"
    assert run_cli("rfchains", out, sets=("m_values=1, 2, 4, 8",), plot=True) == 0
    text = (out / "rfchains.dat").read_text()
    assert "# optimum at m =" in text


def test_main_exit_codes(tmp_path):
    out = tmp_path / "ok"
    assert main(["cost", "--out", str(out)]) == 0
    assert main(["deploy", "--out", str(tmp_path / "bad"), "--set", "k=0"]) == 1


def run_module(*args, cwd):
    """``python -m wetplan args`` in a fresh interpreter, with this checkout's package first on the path."""
    env = {**os.environ, "PYTHONPATH": str(Path(wetplan.cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "wetplan", *args], env=env, cwd=cwd, capture_output=True, text=True)


def test_python_m_wetplan_writes_a_verified_run(tmp_path):
    done = run_module("cost", "--out", str(tmp_path / "run"), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert verify_manifest(tmp_path / "run" / "manifest.txt")
    assert sorted(path.name for path in (tmp_path / "run").iterdir()) == ["cost.csv", "manifest.txt"]


@pytest.mark.parametrize(
    "args, status, message",
    [
        (("--set", "n_devicez=5"), 1, r"unknown key 'n_devicez'; did you mean 'n_devices'\?"),
        (("--seed", "-1"), 2, "seed must be a 64-bit unsigned integer, got -1"),
    ],
    ids=["unknown-key", "negative-seed"],
)
def test_python_m_wetplan_refusals(tmp_path, args, status, message):
    done = run_module("cost", *args, "--out", str(tmp_path / "run"), cwd=tmp_path)
    assert done.returncode == status
    assert re.search(message, done.stderr)
    assert not (tmp_path / "run").exists()


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(subcommand="nope")
    with pytest.raises(ConfigError):
        RunConfig(subcommand="cost", seed=-1)


def test_workers_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["outage", "--workers", "2", "--trials", "10", "--out", str(tmp_path)])
    assert exit_info.value.code == 2


def test_importing_the_cli_leaves_scipy_unloaded():
    # A fresh interpreter: scipy is a test dependency only, and importing it
    # costs every subcommand most of its start-up time and memory. The outage
    # trials fork with os alone, so no process-pool module is loaded either.
    code = (
        "import sys, wetplan, wetplan.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'multiprocessing') or m.startswith('concurrent.futures')))"
    )
    src = str(Path(wetplan.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
