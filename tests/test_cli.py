import csv
import hashlib
import math

import pytest

import wetplan.cli
from wetplan.cli import RunConfig, RunManifest, main, run, verify_manifest
from wetplan.config import SCHEMAS, ConfigError, resolve_config

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

# SHA-256 of deploy.csv for GOLDEN_DEPLOY at seed 17, recorded while every
# objective evaluation still rebuilt its arrays and looped over components.
GOLDEN_DEPLOY = ("k=3", "solver.n_starts=2")
GOLDEN_DEPLOY_SHA256 = "ffd699db8d9f1bd46089d263af790e2386cc916e090a30a32491c30224fb511d"

# SHA-256 of cost.csv and cost.dat per sweep mode (cost ignores the seed),
# recorded while _run_cost still mapped each schema key to CostParams by hand.
# Every scenario moves keys off their defaults, so a key read into the wrong
# field changes the bytes.
GOLDEN_COST = {
    "devices": (
        ("n_devices=1, 10, 50, 51, 100, 1000", "grid_price_per_kwh=0.13", "device_battery_life=3",
         "horizon=12", "include_final_replacement=true", "install_green_pb=333.33"),
        "dbb38d6cef018e31016b3b5c1e32472e8c6bbb90ec945f97997670ba2844ac49",
        "88eb752c48cbc015637cc78bd0fc41e05fb93c5150827abfa1cabd5b76652618",
    ),
    "lifetime": (
        ("mode=lifetime", "horizons=5, 10, 25, 30", "battery_lives=1, 3, 7", "lifetime_n_devices=120",
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


def run_cli(subcommand, out, *, sets=(), seed=0, config=None, trials=None, plot=False):
    rc = RunConfig(
        subcommand=subcommand,
        seed=seed,
        config_path=config,
        output_dir=str(out),
        overrides=tuple(sets),
        trials=trials,
        plot_data=plot,
    )
    return run(rc)


def test_outage_defaults_match_reference_scenario():
    resolved = resolve_config(SCHEMAS["outage"], None, [])
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
        resolve_config(SCHEMAS["outage"], None, ["pathloss.exponnet=3"])


def test_malformed_and_out_of_range_values():
    with pytest.raises(ConfigError, match="trials"):
        resolve_config(SCHEMAS["outage"], None, ["trials=-5"])
    with pytest.raises(ConfigError, match="target"):
        resolve_config(SCHEMAS["outage"], None, ["target=0"])
    with pytest.raises(ConfigError, match="not a number"):
        resolve_config(SCHEMAS["outage"], None, ["tx_power=watts"])


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "outage.cfg"
    cfg.write_text("# comment\ntrials = 300\ndensities = 1.0, 2.0  # inline comment\n")
    resolved = resolve_config(SCHEMAS["outage"], cfg, [])
    assert resolved["trials"] == 300
    assert resolved["densities"] == (1.0, 2.0)


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        resolve_config(SCHEMAS["outage"], tmp_path / "missing.cfg", [])
    bad = tmp_path / "bad.cfg"
    bad.write_text("trials 300\n")
    with pytest.raises(ConfigError, match="key = value"):
        resolve_config(SCHEMAS["outage"], bad, [])


def test_cost_run_row_cardinality(tmp_path):
    out = tmp_path / "cost"
    assert run_cli("cost", out, sets=("n_devices=10, 50, 100",)) == 0
    lines = (out / "cost.csv").read_text().splitlines()
    assert len(lines) == 1 + 12  # header + 4 scenarios x 3 counts


def test_cost_lifetime_mode(tmp_path):
    out = tmp_path / "cost"
    sets = ("mode=lifetime", "horizons=10, 15", "battery_lives=3, 5", "lifetime_n_devices=100")
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


def test_deploy_csv_matches_golden_digest(tmp_path):
    out = tmp_path / "deploy"
    assert run_cli("deploy", out, sets=GOLDEN_DEPLOY, seed=17) == 0
    assert hashlib.sha256((out / "deploy.csv").read_bytes()).hexdigest() == GOLDEN_DEPLOY_SHA256


@pytest.mark.parametrize("mode", sorted(GOLDEN_COST))
def test_cost_csv_and_plot_data_match_golden_digests(tmp_path, mode):
    sets, csv_sha256, dat_sha256 = GOLDEN_COST[mode]
    out = tmp_path / mode
    assert run_cli("cost", out, sets=sets, plot=True) == 0
    assert hashlib.sha256((out / "cost.csv").read_bytes()).hexdigest() == csv_sha256
    assert hashlib.sha256((out / "cost.dat").read_bytes()).hexdigest() == dat_sha256


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
    def refuse(*args, **kwargs):
        raise AssertionError("the outage sweep ran")

    monkeypatch.setattr(wetplan.cli, "sweep_density", refuse)
    out = tmp_path / "outage"
    assert run_cli("outage", out, sets=("densities=0.5, 1e9",)) == 1
    assert not out.exists() or not any(out.iterdir())
    for radius in ("disk_radius=1e4", "disk_radius=1e200"):
        with pytest.raises(ConfigError, match=r"densities.*disk_radius"):
            wetplan.cli._run_outage(resolve_config(SCHEMAS["outage"], None, [radius]), 0)


def test_deploy_k_zero_fails_without_writing_files(tmp_path):
    out = tmp_path / "deploy"
    assert run_cli("deploy", out, sets=("k=0",)) == 1
    assert not out.exists() or not any(out.iterdir())


def test_deploy_device_outside_area_names_the_keys(tmp_path, capsys):
    out = tmp_path / "deploy"
    assert main(["deploy", "--set", "devices=30:0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: devices, map.area: device (30.0, 0.0) lies outside the map area")
    assert not out.exists() or not any(out.iterdir())


def test_deploy_bad_component_names_the_key(tmp_path, capsys):
    out = tmp_path / "deploy"
    assert main(["deploy", "--set", "map.components=1:0:0:0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: map.components: width must be > 0, got 0.0\n"
    with pytest.raises(ConfigError, match=r"^map\.area: rectangle must have positive extent"):
        wetplan.cli._run_deploy(resolve_config(SCHEMAS["deploy"], None, ["map.area=0:0:0:5"]), 0)


def test_deploy_oversized_greedy_grid_fails_before_optimizing(tmp_path, monkeypatch):
    class SearchReached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise SearchReached

    monkeypatch.setattr(wetplan.cli, "optimize", refuse)
    largest = math.isqrt(wetplan.cli.MAX_GREEDY_ENTRIES // 8)  # the default scenario has 8 devices
    with pytest.raises(SearchReached):
        wetplan.cli._run_deploy(resolve_config(SCHEMAS["deploy"], None, [f"solver.greedy_grid={largest}"]), 0)
    out = tmp_path / "deploy"
    assert run_cli("deploy", out, sets=(f"solver.greedy_grid={largest + 1}",)) == 1
    assert not out.exists() or not any(out.iterdir())
    many_devices = "devices=" + ", ".join(f"{x}:0" for x in range(-10, 10))
    for sets in (["solver.greedy_grid=1000000000"], ["solver.greedy_grid=224", many_devices]):
        with pytest.raises(ConfigError, match=r"^solver\.greedy_grid = "):
            wetplan.cli._run_deploy(resolve_config(SCHEMAS["deploy"], None, sets), 0)


def test_trials_flag_only_for_outage(tmp_path):
    out = tmp_path / "cost"
    assert run_cli("cost", out, trials=50) == 1
    assert not out.exists() or not any(out.iterdir())


def test_manifest_digests_verify_and_detect_tampering(tmp_path):
    out = tmp_path / "run"
    assert run_cli("cost", out) == 0
    manifest = out / "manifest.txt"
    assert verify_manifest(manifest)
    (out / "cost.csv").write_text("tampered\n")
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


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(subcommand="nope")
    with pytest.raises(ConfigError):
        RunConfig(subcommand="cost", seed=-1)


def test_workers_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["outage", "--workers", "2", "--trials", "10", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
