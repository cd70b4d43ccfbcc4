"""wetplan benchmark: time whole CLI runs, check their outputs, trace the layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Each run calls ``wetplan.cli.main(argv)`` in a fresh interpreter (see
``child.py``), one run at a time, for about ``--seconds``; then a few
more interpreters only import the CLI, so that the set-up time is taken over
several. With ``--trace 1`` one traced run follows and the result reports the
per-layer metrics instead of the end-to-end ones. The last line of standard
output is the JSON result; the lines above it are for people.

See README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT = ".perfbench_out"
SETUP_SAMPLES = 7
MIN_RUNS = 3
RUN_TIMEOUT_S = 120.0
# Start no run that could end past this many seconds, so that one
# invocation stays well inside three minutes.
BUDGET_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    study: str
    args: tuple[str, ...]
    points: int  # trials x densities x archs for an outage workload, else 0
    fixed_seed: int | None = None  # run at this CLI seed whatever --seed is


# Why each workload is here: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("outage-mixed", "outage", ("--trials", "400"), 400 * 4 * 3),
        Workload("deploy-k5", "deploy", (), 0),
        # The relaxation's iteration count, and so the run time, changes 2.5x
        # from seed to seed (3.0 to 7.6 s over five seeds even with the device
        # layout held fixed), more than any run length here could average out.
        # So this workload always runs the default seed.
        Workload("rfchains-m32", "rfchains", (), 0, fixed_seed=0),
    )
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# How each end-to-end metric sums up its samples. On a shared host the CPU
# runs at full speed only while its neighbours idle, and the share of such
# time drifts from minute to minute, while the fully shared speed holds
# steady. The slowest sample of an invocation tracks that steady speed, so
# the times report it; README.md, "Noise", has the measurements.
SUMMARY = {"wall_s": max, "setup_s": max, "peak_rss_mb": statistics.median}


def cli_seed(workload: Workload, seed: int) -> int:
    return seed if workload.fixed_seed is None else workload.fixed_seed


def argv_for(workload: Workload, seed: int, out_dir: Path) -> list[str]:
    return [workload.study, *workload.args, "--seed", str(cli_seed(workload, seed)), "--out", str(out_dir)]


def spawn(root: Path, result: Path, flags: list[str], argv: list[str]) -> dict:
    """Run ``child.py`` once; returns its result plus the set-up time, or an ``error``."""
    result.unlink(missing_ok=True)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(result), *flags, "--", *argv],
            cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready"] - started
    return out


def gate(workload: Workload, seed: int, run: dict, out_dir: Path, digests, first_digest) -> list[str]:
    """Why the run counts as failed; empty when it passed."""
    if "error" in run:
        return [run["error"]]
    if run["rc"] != 0:
        return [f"wetplan exited {run['rc']}"]
    problems = [] if run["manifest_ok"] else ["verify_manifest returned false"]
    data = (out_dir / f"{workload.study}.csv").read_bytes()
    run["sha256"] = checks.sha256(data)
    run["csv"] = data
    if first_digest is not None and run["sha256"] != first_digest:
        problems.append(f"CSV sha256 {run['sha256']} differs from this seed's first run {first_digest}")
    problems += checks.digest_violations(data, workload.name, cli_seed(workload, seed), digests)
    resolved = checks.read_resolved((out_dir / "manifest.txt").read_text())
    problems += checks.INVARIANTS[workload.study](checks.read_rows(data), resolved)
    return problems


def quality(workload: Workload, data: bytes, wall_s: float) -> dict[str, tuple[float, str]]:
    """The workload's own figures, printed beside the end-to-end metrics."""
    rows = checks.read_rows(data)
    if workload.study == "outage":
        return {"trials_per_s": (workload.points / wall_s, "1/s")}
    if workload.study == "deploy":
        return {"quality.min_rx_w": (min(float(r["received_power_w"]) for r in rows if r["row_type"] == "device"), "W")}
    best = [float(r["consumption_w"]) for r in rows if r["is_optimum"] == "1"]
    return {"quality.opt_consumption_w": (best[0], "W")}


def environment(root: Path) -> dict:
    commit = "unknown: not a git checkout"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    # OpenBLAS reads these in this order and otherwise uses every CPU.
    blas = next(
        (f"{os.environ[v]} ({v})" for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS") if v in os.environ),
        f"{nproc} (default: nproc)",
    )

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "commit": commit, "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": nproc, "openblas_threads": blas, "cpu_model": cpu,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One invocation's runs, gate and metrics."""
    work = root / OUT / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = checks.load_digests()
    started = time.monotonic()
    spawn(root, work / "warmup.json", ["--setup-only"], [])  # compiles bytecode, fills the file cache

    runs, failures = [], []
    failed = 0
    first_digest = None
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        # Start no run that would likely end past --seconds, once there are
        # enough of them, so that an invocation lasts about --seconds.
        if len(runs) >= MIN_RUNS and elapsed + longest > seconds:
            break
        if runs and elapsed + 2.0 * longest > BUDGET_S:
            break
        out_dir = work / f"run{len(runs)}"
        t0 = time.monotonic()
        run = spawn(root, work / "run.json", [], argv_for(workload, seed, out_dir))
        longest = max(longest, time.monotonic() - t0)
        problems = gate(workload, seed, run, out_dir, digests, first_digest)
        first_digest = first_digest or run.get("sha256")
        runs.append(run)
        failed += bool(problems)
        failures += [f"run {len(runs) - 1}: {p}" for p in problems]
        shutil.rmtree(out_dir, ignore_errors=True)

    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    probes = 0
    while len(setups) < SETUP_SAMPLES:
        probes += 1
        probe = spawn(root, work / "setup.json", ["--setup-only"], [])
        if "error" in probe:
            failures.append(f"set-up probe: {probe['error']}")
            failed += 1
            break
        setups.append(probe["setup_s"])

    good = [r for r in runs if "wall_s" in r]
    walls = [r["wall_s"] for r in good]
    result = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "attempted": len(runs) + probes,
        "failures": failures,
        "wall_s": walls, "setup_s": setups, "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "sha256": first_digest,
    }
    result["end_to_end"] = {
        name: SUMMARY[name](result[name]) if result[name] else 0.0 for name, _ in END_TO_END
    }
    wall = result["end_to_end"]["wall_s"]
    result["quality"] = quality(workload, good[0]["csv"], wall) if good and not failures else {}

    if trace:
        out_dir = work / "traced"
        run = spawn(root, work / "traced.json", ["--trace"], argv_for(workload, seed, out_dir))
        problems = gate(workload, seed, run, out_dir, digests, first_digest)
        result["attempted"] += 1
        failed += bool(problems)
        failures += [f"traced run: {p}" for p in problems]
        if "spans" in run:
            result["absent"] = run["absent"]
            result["spans"] = len(run["spans"])
            typical = statistics.median(walls) if walls else 0.0
            result["per_layer"] = tracing.layer_metrics(
                run["spans"], run["absent"], run["import_s"], run["wall_s"] - typical
            )
        else:
            result["per_layer"] = {name: 0.0 for name, _, _ in tracing.LAYER_METRICS}
    result["failed"] = failed
    shutil.rmtree(work, ignore_errors=True)
    return result


def report(result: dict, env: dict) -> dict:
    """Print the human summary and return the result object for the last output line."""
    failed = result["failed"]
    attempted = result["attempted"]
    print(
        f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{attempted} runs, {failed} failed, fail_ratio {failed / max(attempted, 1):.3f}, "
        f"gate {'passed' if not failed else 'FAILED'}"
    )
    for line in result["failures"]:
        print(f"  failure: {line}")
    for name, unit in END_TO_END:
        values = result[name]
        q1, med, q3 = quartiles(values) if values else (0.0, 0.0, 0.0)
        print(
            f"  {name:<28} {result['end_to_end'][name]:12.6g} {unit:<5} {SUMMARY[name].__name__} of {len(values)}"
            f" (q1 {q1:.6g}, median {med:.6g}, q3 {q3:.6g})"
        )
    for name, (value, unit) in result["quality"].items():
        print(f"  {name:<28} {value:12.6g} {unit}")
    if result["trace"]:
        if result.get("absent"):
            print(f"  absent patch points: {', '.join(result['absent'])}")
        for name, unit, _ in tracing.LAYER_METRICS:
            print(f"  {name:<40} {result['per_layer'][name]:14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    metrics = (
        {name: {"value": result["per_layer"][name], "unit": unit} for name, unit, _ in tracing.LAYER_METRICS}
        if result["trace"]
        else {name: {"value": result["end_to_end"][name], "unit": unit} for name, unit in END_TO_END}
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "wetplan" / "cli.py").is_file():
        print(f"error: no src/wetplan/cli.py under {root}; run from the root of a wetplan checkout",
              file=sys.stderr)
        return 2
    env = environment(root)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = root / OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        result = measure(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        line = report(result, env)
        record = {**result, "env": env, "result": line}
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True, default=str) + "\n"
        )
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
