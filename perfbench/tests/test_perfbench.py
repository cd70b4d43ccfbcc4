"""Tests of the benchmark's own logic: self time, invariants, digests, tracer.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

OUTAGE_CSV = b"""density,architecture,antennas,trials,outage,ci95
0.5,single,4,100,0.9,0.05
1.0,single,4,100,0.5,0.09
0.5,dc,4,100,0.8,0.07
1.0,dc,4,100,0.3,0.08
0.5,rf,4,100,0.7,0.08
1.0,rf,4,100,0.2,0.07
"""

DEPLOY_CSV = b"""row_type,index,x,y,tx_power_w,received_power_w,is_worst
pb,0,-10.0,13.0,1.0,,
pb,1,12.0,-1.5,0.73,,
device,0,-15.0,-5.0,,0.0032657,0
device,1,3.0,4.0,,0.0032653,1
device,2,9.0,16.0,,0.0526,0
"""

RFCHAINS_CSV = b"""m,tx_power_w,consumption_w,is_optimum
1,8.9,25.9,0
2,4.5,13.9,0
3,2.2,9.5,1
4,2.1,9.9,0
"""

DEPLOY_RESOLVED = {"map.area": "-20.0:-20.0:20.0:20.0", "cap": "1.0"}


def corrupt(data: bytes, old: bytes, new: bytes) -> list[dict]:
    assert old in data
    return checks.read_rows(data.replace(old, new, 1))


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # Two children from worker threads overlap on [3, 4]; the union is [2, 6].
    spans = [["root", 0.0, 10.0, -1, None], ["x", 2.0, 4.0, 0, None], ["y", 3.0, 6.0, 0, None]]
    assert tracing.self_times(spans)[0] == pytest.approx(6.0)


def test_uncorrupted_csvs_pass_every_invariant():
    assert checks.outage_violations(checks.read_rows(OUTAGE_CSV)) == []
    assert checks.deploy_violations(checks.read_rows(DEPLOY_CSV), DEPLOY_RESOLVED) == []
    assert checks.rfchains_violations(checks.read_rows(RFCHAINS_CSV)) == []


def test_outage_rejects_dc_above_single():
    rows = corrupt(OUTAGE_CSV, b"1.0,dc,4,100,0.3", b"1.0,dc,4,100,0.6")
    assert any("dc outage" in v for v in checks.outage_violations(rows))


@pytest.mark.parametrize(
    "old, new, message",
    [
        (b"pb,1,12.0,-1.5", b"pb,1,21.0,-1.5", "outside the area"),
        (b"pb,0,-10.0,13.0,1.0", b"pb,0,-10.0,13.0,1.5", "cap"),
        (b"0.0032657,0", b"0.0032657,1", "2 device rows"),
        (b"0.0032653,1", b"0.0032653,0", "0 device rows"),
        (b"0.0032657,0", b"0.0032600,0", "above the minimum"),
    ],
)
def test_deploy_rejects_each_corruption(old, new, message):
    rows = corrupt(DEPLOY_CSV, old, new)
    assert any(message in v for v in checks.deploy_violations(rows, DEPLOY_RESOLVED))


@pytest.mark.parametrize(
    "old, new, message",
    [
        (b"4,2.1,9.9,0", b"4,2.3,9.9,0", "rises"),
        (b"4,2.1,9.9,0", b"4,2.1,9.9,1", "2 rows"),
        (b"3,2.2,9.5,1", b"3,2.2,9.5,0", "0 rows"),
        (b"4,2.1,9.9,0", b"4,2.1,9.4,0", "above the minimum"),
    ],
)
def test_rfchains_rejects_each_corruption(old, new, message):
    rows = corrupt(RFCHAINS_CSV, old, new)
    assert any(message in v for v in checks.rfchains_violations(rows))


def test_digest_check_flags_a_one_byte_change():
    digests = {"rfchains-m32": {"7": checks.sha256(RFCHAINS_CSV)}}
    assert checks.digest_violations(RFCHAINS_CSV, "rfchains-m32", 7, digests) == []
    changed = RFCHAINS_CSV.replace(b"8.9", b"8.8", 1)
    assert len(changed) == len(RFCHAINS_CSV)
    assert checks.digest_violations(changed, "rfchains-m32", 7, digests)
    assert checks.digest_violations(changed, "rfchains-m32", 8, digests) == []  # none recorded


def test_tracer_records_nesting_and_reports_absent_points(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.outer = lambda n: module.inner(n) + 1
    module.inner = lambda n: n * 2
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = tracing.Tracer()
    tracer.install(
        (
            ("fake.outer", "fake_layer", "outer", None),
            ("fake.inner", "fake_layer", "inner", lambda a, k, r: {"rows": r}),
            ("fake.gone", "fake_layer", "gone", None),
        )
    )
    assert module.outer(3) == 7
    tracer.uninstall()
    assert module.outer(3) == 7 and not hasattr(module.inner, "__wrapped__")
    assert "fake.gone" in tracer.absent
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("fake.outer", -1, None), ("fake.inner", 0, {"rows": 6})]


def test_useful_draw_ratio_counts_distinct_trial_seeds_per_draw():
    # Two architectures run the same trial seed; a third trial has its own.
    spans = []
    for key in ("a", "a", "b"):
        spans.append(["outage.run_trial", 0.0, 2.0, -1, {"key": key}])
        spans.append(["channel.sample_channels", 0.5, 1.0, len(spans) - 1, {"rows": 10, "bytes": 640}])
    m = tracing.layer_metrics(spans, [], 0.5, 0.1)
    assert m["channel.useful_draw_ratio"] == pytest.approx(2 / 3)
    assert m["outage.run_trial.calls"] == 3 and m["channel.sample_channels.rows"] == 30
    assert m["outage.run_trial.self_s"] == pytest.approx(4.5)
    assert list(m) == [name for name, _, _ in tracing.LAYER_METRICS]


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracing.LAYER_METRICS)
