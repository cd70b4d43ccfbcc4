"""The four studies' config keys, and how a key that sets a library field is refused."""

import re

import pytest

import wetplan.beampower
import wetplan.cli
import wetplan.costs
import wetplan.deployment
import wetplan.outage
from wetplan.cli import STUDIES, main
from wetplan.config import canonical

M_VALUES = ", ".join(str(m) for m in range(1, 33))
PATHLOSS_27 = {
    "pathloss.exponent": ("float", "2.7", ()),
    "pathloss.fixed_loss_db": ("float", "40.0", ()),
    "pathloss.reference_distance": ("float", "1.0", ()),
}

# Per study, per key: (kind, canonical default, choices). A field added to a
# library dataclass would add a key here, so it has to be added on purpose.
PINNED = {
    "cost": {
        "n_devices": ("int_list", "10, 50, 100", ()),
        "horizons": ("int_list", "15", ()),
        "battery_lives": ("int_list", "5", ()),
        "devices_per_pb": ("int", "50", ()),
        "install_grid_pb": ("decimal", "300", ()),
        "install_green_pb": ("decimal", "320", ()),
        "install_battery_pb": ("decimal", "370", ()),
        "device_install": ("decimal", "20", ()),
        "device_maintenance_fraction": ("decimal", "1/2", ()),
        "battery_pb_annual_fraction": ("decimal", "3/10", ()),
        "green_pb_replacement_fraction": ("decimal", "19/50", ()),
        "green_pb_replacement_period": ("int", "25", ()),
        "pb_avg_power_w": ("decimal", "6", ()),
        "grid_price_per_kwh": ("decimal", "1/4", ()),
        "include_final_replacement": ("bool", "false", ()),
        "annualize_green_replacement": ("bool", "true", ()),
    },
    "deploy": {
        "k": ("int", "5", ()),
        "cap": ("float", "1.0", ()),
        "devices": (
            "pair_list",
            "-15.0:-5.0, -8.0:12.0, -2.0:-16.0, 3.0:4.0, 9.0:16.0, 14.0:-3.0, 16.0:9.0, -17.0:15.0",
            (),
        ),
        "map.components": (
            "quad_list", "4.0:-12.0:10.0:4.0, 3.0:8.0:14.0:5.0, 2.5:12.0:-8.0:4.0, 1.5:-6.0:-14.0:6.0", ()
        ),
        "map.area": ("rect", "-20.0:-20.0:20.0:20.0", ()),
        "solver.n_starts": ("int", "8", ()),
        "solver.greedy_grid": ("int", "24", ()),
        "solver.nm_max_iter": ("int", "250", ()),
        "pathloss.exponent": ("float", "3.0", ()),
        "pathloss.fixed_loss_db": ("float", "0.0", ()),
        "pathloss.reference_distance": ("float", "1.0", ()),
    },
    "outage": {
        "densities": ("float_list", "0.5, 1.0, 2.0, 4.0", ()),
        "disk_radius": ("float", "10.0", ()),
        "tx_power": ("float", "1.0", ()),
        "rician.k_factor": ("float", "10.0", ()),
        "target": ("float", "0.001", ()),
        "archs": ("str_list", "single, dc, rf", ("single", "dc", "rf")),
        "n_antennas": ("int", "4", ()),
        "trials": ("int", "10000", ()),
        "curve.breakpoints": ("pair_list", "-30.0:0.05, -20.0:0.15, -10.0:0.3, 0.0:0.45, 10.0:0.5", ()),
        **PATHLOSS_27,
    },
    "rfchains": {
        "gamma": ("float", "2e-06", ()),
        "m_values": ("int_list", M_VALUES, ()),
        "n_devices": ("int", "4", ()),
        "devices": ("pair_list", "", ()),
        "disk_radius": ("float", "10.0", ()),
        "rician.k_factor": ("float", "10.0", ()),
        "pa_efficiency": ("float", "0.35", ()),
        "p_rf_chain_w": ("float", "0.5", ()),
        "solver.tol": ("float", "0.0001", ()),
        **PATHLOSS_27,
    },
}

# The keys with no library field: each is written out in the schema. Every
# other key is generated from a library field.
STUDY_KEYS = {
    "cost": {"n_devices", "horizons", "battery_lives"},
    "deploy": {"k", "devices", "map.components", "map.area"},
    "outage": {"densities", "archs"},
    "rfchains": {"m_values", "devices"},
}


@pytest.mark.parametrize("study", sorted(PINNED))
def test_schema_keys_are_pinned(study):
    schema = STUDIES[study].keys
    assert {name: (key.kind, canonical(key, key.default), key.choices) for name, key in schema.items()} == PINNED[study]
    assert STUDY_KEYS[study] <= set(schema)


# Per study, (generated key, a value out of its range). The library object the
# key sets refuses the value when the runner builds it.
OUT_OF_RANGE = {
    "cost": [
        ("devices_per_pb", "0"),
        ("install_grid_pb", "-1"),
        ("install_green_pb", "-0.01"),
        ("install_battery_pb", "-370"),
        ("device_install", "-1/3"),
        ("device_maintenance_fraction", "-0.5"),
        ("battery_pb_annual_fraction", "-1"),
        ("green_pb_replacement_fraction", "-1"),
        ("green_pb_replacement_period", "0"),
        ("pb_avg_power_w", "-6"),
        ("grid_price_per_kwh", "-0.25"),
    ],
    "deploy": [
        ("cap", "0"),
        ("solver.n_starts", "-1"),
        ("solver.greedy_grid", "1"),
        ("solver.nm_max_iter", "0"),
        ("pathloss.exponent", "0"),
        ("pathloss.fixed_loss_db", "-1"),
        ("pathloss.reference_distance", "0"),
    ],
    "outage": [
        ("disk_radius", "0"),
        ("disk_radius", "-1e200"),  # past the size bound too, once squared
        ("tx_power", "-1"),
        ("rician.k_factor", "-0.5"),
        ("target", "0"),
        ("n_antennas", "0"),
        ("trials", "0"),
        ("curve.breakpoints", "-30:0.05"),
        ("curve.breakpoints", "-20:0.1, -30:0.2"),
        ("curve.breakpoints", "-30:0.05, -20:1.5"),
        ("pathloss.exponent", "-2.7"),
        ("pathloss.fixed_loss_db", "-40"),
        ("pathloss.reference_distance", "-1"),
    ],
    "rfchains": [
        ("disk_radius", "0"),
        ("rician.k_factor", "-1"),
        ("pathloss.exponent", "0"),
        ("pathloss.fixed_loss_db", "-0.5"),
        ("pathloss.reference_distance", "0"),
        ("gamma", "0"),
        ("gamma", "-1e-6"),
        ("n_devices", "0"),
        ("pa_efficiency", "0"),
        ("pa_efficiency", "1.5"),
        ("p_rf_chain_w", "-0.5"),
        ("solver.tol", "0"),
    ],
}
OUT_OF_RANGE_CASES = [(study, key, value) for study, cases in sorted(OUT_OF_RANGE.items()) for key, value in cases]


@pytest.mark.parametrize("study", sorted(OUT_OF_RANGE))
def test_every_ranged_generated_key_has_a_case(study):
    schema = STUDIES[study].keys
    ranged = {name for name in set(schema) - STUDY_KEYS[study] if schema[name].kind != "bool"}
    assert {key for key, _ in OUT_OF_RANGE[study]} == ranged


def _refuse_work(monkeypatch):
    """Make every study fail loudly if it computes costs, builds a search or draws a sample."""

    def refuse(*args, **kwargs):
        raise AssertionError("the study computed costs, started its search or drew a sample")

    for module, name in (
        (wetplan.costs, "scenario_cost"),
        (wetplan.deployment, "_Evaluator"),
        (wetplan.outage, "_draw"),
        (wetplan.beampower, "_uniform_disk"),
        (wetplan.beampower, "sample_channels"),
    ):
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize(
    "study, key, value", OUT_OF_RANGE_CASES, ids=[f"{s}:{k}={v}" for s, k, v in OUT_OF_RANGE_CASES]
)
def test_out_of_range_field_value_is_refused_by_name(tmp_path, monkeypatch, capsys, study, key, value):
    _refuse_work(monkeypatch)
    out = tmp_path / study
    assert main([study, "--set", f"{key}={value}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert not out.exists()


# Per study, (key with no library field, a value out of its range). The
# library refuses the value, before any work, and the refusal names the key.
STUDY_OUT_OF_RANGE = {
    "cost": [
        ("n_devices", ""),
        ("n_devices", "10, 0"),
        ("horizons", "5, -1"),
        ("horizons", ""),
        ("battery_lives", "0"),
    ],
    "deploy": [
        ("k", "0"),
        ("devices", ""),
        ("map.components", ""),
        ("map.area", "5:0:-5:10"),
    ],
    "outage": [
        ("densities", ""),
        ("densities", "0.5, -1"),
        ("archs", ""),
        ("archs", "single, hybrid"),
    ],
    "rfchains": [
        ("m_values", ""),
        ("m_values", "0, 1"),
        ("m_values", "2, 2"),
    ],
}
# Study keys that take any value of their kind: explicit rfchains devices
# (an empty list draws n_devices of them).
ANY_VALUE = {"rfchains": {"devices"}}
STUDY_CASES = [(study, key, value) for study, cases in sorted(STUDY_OUT_OF_RANGE.items()) for key, value in cases]


@pytest.mark.parametrize("study", sorted(STUDY_OUT_OF_RANGE))
def test_every_ranged_study_key_has_a_case(study):
    assert {key for key, _ in STUDY_OUT_OF_RANGE[study]} == STUDY_KEYS[study] - ANY_VALUE.get(study, set())


@pytest.mark.parametrize("study, key, value", STUDY_CASES, ids=[f"{s}:{k}={v}" for s, k, v in STUDY_CASES])
def test_out_of_range_study_value_is_refused_by_name(tmp_path, monkeypatch, capsys, study, key, value):
    _refuse_work(monkeypatch)
    out = tmp_path / study
    assert main([study, "--set", f"{key}={value}", "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])", line), line
    assert not out.exists()


def test_n_devices_is_checked_when_explicit_devices_override_it(tmp_path, monkeypatch, capsys):
    _refuse_work(monkeypatch)
    out = tmp_path / "rfchains"
    assert main(["rfchains", "--set", "devices=3:4,-5:0", "--set", "n_devices=0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: n_devices must be >= 1, got 0\n"
    assert not out.exists()


# Keys the cost study no longer has, and the key each error suggests: the
# sweep's mode, the fleet size of its other mode, and the single horizon and
# battery life that the swept lists replace.
REMOVED_COST_KEYS = [
    ("mode=lifetime", "mode", ""),
    ("lifetime_n_devices=100", "lifetime_n_devices", "; did you mean 'n_devices'?"),
    ("horizon=15", "horizon", "; did you mean 'horizons'?"),
    ("device_battery_life=5", "device_battery_life", "; did you mean 'battery_lives'?"),
]


@pytest.mark.parametrize("setting, key, hint", REMOVED_COST_KEYS, ids=[key for _, key, _ in REMOVED_COST_KEYS])
def test_removed_cost_keys_are_refused_as_unknown_by_name(tmp_path, monkeypatch, capsys, setting, key, hint):
    _refuse_work(monkeypatch)
    out = tmp_path / "cost"
    assert main(["cost", "--set", setting, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --set #1: unknown key {key!r}{hint}\n"
    assert not out.exists()


# The Gaussian candidates' count is a constant of the extraction, not a key.
def test_removed_randomizations_key_is_refused_as_unknown_by_name(tmp_path, monkeypatch, capsys):
    _refuse_work(monkeypatch)
    out = tmp_path / "rfchains"
    assert main(["rfchains", "--set", "solver.randomizations=17", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --set #1: unknown key 'solver.randomizations'\n"
    assert not out.exists()


# Every int key, and the overrides that make its study use it: without rf
# outage has no codebook to bound n_antennas before a float multiplies it.
INT_KEYS = [(study, name) for study in sorted(STUDIES) for name, key in STUDIES[study].keys.items()
            if key.kind in ("int", "int_list")]
INT_KEY_SETS = {("outage", "n_antennas"): ["archs=single"]}


@pytest.mark.parametrize("study, key", INT_KEYS, ids=[f"{s}:{k}" for s, k in INT_KEYS])
def test_an_int_key_past_the_range_of_a_float_is_computed_exactly_or_refused_by_name(tmp_path, capsys, study, key):
    huge = 10**400
    out = tmp_path / study
    code = main([study, "--set", f"{key}={huge}", *(f"--set={s}" for s in INT_KEY_SETS.get((study, key), ())),
                 "--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert not err
        assert f"config.{key} = {huge}\n" in (out / "manifest.txt").read_text()
    else:
        (line,) = err.splitlines()
        assert re.search(rf"^error: (.* )?{re.escape(key)}(?![\w.])", line), line
        assert not out.exists()
