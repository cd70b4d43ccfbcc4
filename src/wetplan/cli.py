"""Batch command line: cost, deploy, outage, and rfchains experiments.

Each run writes one CSV (fixed column order, LF endings, locale-independent
numbers) plus ``manifest.txt`` recording the toolkit version, the fully
resolved configuration in re-parseable ``config.<key> = value`` form, the
seed, and a SHA-256 digest per output file. Re-running the manifest's config
with the same seed reproduces the CSVs byte for byte.

The manifest also records the environment that produced the bytes
(``env.<name> = value`` lines: Python and numpy versions, and the CPUs the
outage and rfchains work was dealt across); ``verify_manifest`` ignores them.

A runner builds the library objects from the resolved config, calls the
study's library entry point and returns a header and rows. The library is
the only range check (a field's range is declared at the field) and refuses
a scenario too large to allocate before it computes or draws; a size refusal
reads ``<names> give <n> <what>; the limit is <limit>``. A refusal names the
config key of the same name; where the names differ, one helper, ``_keyed``,
puts the key's prefix in front (``solver.``, ``map.area: ``) or spells the
argument as its key (the rfchains sweep's ``devices``, ``p_rf``, ``tol`` and
``n_randomizations``, the lifetime sweep's ``n_devices``). The rows are
formatted into cells once, and both the CSV and the optional plot data are
written from those cells. Outputs are renamed into place only after all of
them are written, so a failed run leaves an earlier run in the same
directory as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._fork import usable_cpus
from .ambient import AmbientMap, GaussianComponent, Rect
from .beampower import ChannelModel, sweep_rf_chains
from .channel import Position2D
from .config import SCHEMAS, ConfigError, canonical, resolve_config
from .costs import CostParams, cents_to_dollars, sweep_devices, sweep_hardware_lifetime
from .deployment import DeploymentProblem, SolverConfig, optimize, received_power
from .outage import OutageConfig, sweep_density

__all__ = ["RunConfig", "RunManifest", "main", "run", "emit_plot_data", "verify_manifest"]

SUBCOMMANDS = ("cost", "deploy", "outage", "rfchains")


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: a subcommand plus its inputs and output directory."""

    subcommand: str
    seed: int = 0
    config_path: str | None = None
    output_dir: str = "out"
    overrides: tuple[str, ...] = ()
    plot_data: bool = False

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ConfigError(f"unknown subcommand {self.subcommand!r}; expected one of {SUBCOMMANDS}")
        if self.seed < 0 or self.seed >= 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class RunManifest:
    """What a run did: version, resolved config, seed, duration, file digests,
    and the environment that ran it."""

    version: str
    subcommand: str
    seed: int
    duration_seconds: float
    resolved: dict[str, str]
    outputs: dict[str, str]
    env: dict[str, str] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"toolkit_version = {self.version}",
            f"subcommand = {self.subcommand}",
            f"seed = {self.seed}",
            f"duration_seconds = {self.duration_seconds!r}",
        ]
        lines.extend(f"env.{key} = {value}" for key, value in sorted(self.env.items()))
        lines.extend(f"config.{key} = {value}" for key, value in sorted(self.resolved.items()))
        lines.extend(f"output.{name}.sha256 = {digest}" for name, digest in sorted(self.outputs.items()))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunManifest":
        fields: dict[str, str] = {}
        resolved: dict[str, str] = {}
        outputs: dict[str, str] = {}
        env: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            key, _, value = line.partition(" = ")
            if key.startswith("config."):
                resolved[key[len("config."):]] = value
            elif key.startswith("output.") and key.endswith(".sha256"):
                outputs[key[len("output."):-len(".sha256")]] = value
            elif key.startswith("env."):
                env[key[len("env."):]] = value
            else:
                fields[key] = value
        return cls(
            version=fields.get("toolkit_version", ""),
            subcommand=fields.get("subcommand", ""),
            seed=int(fields.get("seed", "0")),
            duration_seconds=float(fields.get("duration_seconds", "0")),
            resolved=resolved,
            outputs=outputs,
            env=env,
        )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_manifest(manifest_path) -> bool:
    """Recompute the digests of the manifest's output files; True if all match
    and they include the subcommand's CSV, which every run writes."""
    path = Path(manifest_path)
    try:
        manifest = RunManifest.from_text(path.read_text())
    except ValueError:  # a seed or duration that does not parse
        return False
    if f"{manifest.subcommand}.csv" not in manifest.outputs:
        return False
    for name, digest in manifest.outputs.items():
        target = path.parent / name
        if not target.is_file() or _sha256(target) != digest:
            return False
    return True


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header: list[str], cells: list[list[str]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)


def _build(cls, resolved, prefix: str = "", **given):
    """A ``cls`` dataclass whose fields are read from the config keys of the same name.

    Field ``f`` reads ``resolved[prefix + f]``; a field whose default is a
    dataclass is built from the keys under ``prefix + f + "."``; any other
    field keeps its default. ``given`` supplies the values no key holds.
    ``cls`` checks the values itself, and its refusal names the key.
    """
    values = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        key = prefix + f.name
        if key in resolved:
            values[f.name] = resolved[key]
        elif is_dataclass(f.default):
            values[f.name] = _build(type(f.default), resolved, key + ".")
    with _keyed(prefix):
        return cls(**values)


@contextlib.contextmanager
def _keyed(prefix: str = "", **spelled: str):
    """Report a library ``ValueError`` as a ``ConfigError`` that names the config key:
    ``prefix`` goes in front, and each word in ``spelled`` is spelled as its key."""
    try:
        yield
    except ValueError as err:
        message = str(err)
        if spelled:
            message = re.sub(rf"\b({'|'.join(spelled)})\b", lambda m: spelled[m[0]], message)
        raise ConfigError(prefix + message) from err


def _run_cost(resolved, seed: int):
    params = _build(CostParams, resolved)
    # A sweep checks its values when called and computes rows only as they are
    # read, so both modes' values are checked before any cost is computed.
    devices = sweep_devices(params, resolved["n_devices"])
    with _keyed(n_devices="lifetime_n_devices"):
        lifetime = sweep_hardware_lifetime(
            params, resolved["horizons"], resolved["battery_lives"], resolved["lifetime_n_devices"]
        )
    breakdowns = devices if resolved["mode"] == "devices" else lifetime
    header = [
        "scenario", "n_devices", "horizon", "battery_life",
        "device_install", "device_maintenance", "pb_install", "pb_opex", "total",
    ]
    rows = [
        (
            b.scenario,
            b.n_devices,
            b.horizon_years,
            b.battery_life_years,
            cents_to_dollars(b.device_install_cents),
            cents_to_dollars(b.device_maintenance_cents),
            cents_to_dollars(b.pb_install_cents),
            cents_to_dollars(b.pb_opex_cents),
            cents_to_dollars(b.grand_total_cents),
        )
        for b in breakdowns
    ]
    return header, rows


def _run_deploy(resolved, seed: int):
    with _keyed("map.area: "):
        area = Rect(*resolved["map.area"])
    with _keyed("map.components: "):
        ambient_map = AmbientMap(
            tuple(GaussianComponent(w, Position2D(x, y), width) for w, x, y, width in resolved["map.components"]),
            area,
        )
    problem = _build(DeploymentProblem, resolved, ambient_map=ambient_map)
    solution = optimize(problem, _build(SolverConfig, resolved, "solver."), seed=seed)
    header = ["row_type", "index", "x", "y", "tx_power_w", "received_power_w", "is_worst"]
    pbs = solution.pb_positions
    rows = [("pb", i, pb.x, pb.y, tx, "", "") for i, (pb, tx) in enumerate(zip(pbs, solution.per_pb_tx_power))]
    rows += [
        ("device", j, d.x, d.y, "", received_power(d, pbs, problem), int(j == solution.worst_device_index))
        for j, d in enumerate(problem.devices)
    ]
    return header, rows


def _run_outage(resolved, seed: int):
    """Outage vs density, one row per (architecture, density), architecture-major.

    The architectures share draws (common random numbers): each trial's field
    and channels are sampled once per density and rectified under every
    architecture in ``archs``.
    """
    base = _build(OutageConfig, resolved, density=0.0, seed=seed)
    densities, archs = resolved["densities"], resolved["archs"]
    per_density = sweep_density(base, densities, archs)
    header = ["density", "architecture", "antennas", "trials", "outage", "ci95"]
    rows = [
        (density, arch, base.n_antennas, results[i].trials, results[i].outage_estimate, results[i].ci95_halfwidth)
        for i, arch in enumerate(archs)
        for density, results in zip(densities, per_density)
    ]
    return header, rows


def _run_rfchains(resolved, seed: int):
    model = _build(ChannelModel, resolved)
    devices = [Position2D(x, y) for x, y in resolved["devices"]] or resolved["n_devices"]
    with _keyed(devices="n_devices (or devices)", p_rf="p_rf_chain_w", tol="solver.tol",
                n_randomizations="solver.randomizations"):
        sweep = sweep_rf_chains(
            devices, resolved["gamma"], resolved["m_values"], model=model, seed=seed,
            pa_efficiency=resolved["pa_efficiency"], p_rf=resolved["p_rf_chain_w"],
            tol=resolved["solver.tol"], n_randomizations=resolved["solver.randomizations"],
        )
    header = ["m", "tx_power_w", "consumption_w", "is_optimum"]
    rows = [(pt.n_rf, pt.tx_power, pt.total_consumption, int(pt.n_rf == sweep.optimum_n_rf)) for pt in sweep.points]
    return header, rows


_RUNNERS = {
    "cost": _run_cost,
    "deploy": _run_deploy,
    "outage": _run_outage,
    "rfchains": _run_rfchains,
}


def emit_plot_data(subcommand: str, header: list[str], cells: list[list[str]], resolved) -> str:
    """Render a run's CSV cells as gnuplot-style columnar text, one block per series.

    ``resolved`` is the run's resolved config; the cost sweep's ``mode`` sets
    its x axis.
    """
    col = {name: i for i, name in enumerate(header)}
    out: list[str] = []

    def block(title: str, columns: list[str], rows) -> None:
        if out:
            out.append("")
            out.append("")
        out.append(f"# series: {title}")
        out.append("# columns: " + " ".join(columns))
        out.extend(" ".join(r[col[c]] for c in columns) for r in rows)

    if subcommand == "cost":
        x_name = "n_devices" if resolved["mode"] == "devices" else "horizon"
        out.append(f"# cost sweep: x = {x_name}, y = total cost (USD)")
        for scenario in sorted({r[col["scenario"]] for r in cells}):
            series = [r for r in cells if r[col["scenario"]] == scenario]
            if x_name == "n_devices":
                block(scenario, [x_name, "total"], series)
            else:
                for life in sorted({r[col["battery_life"]] for r in series}, key=float):
                    sub = [r for r in series if r[col["battery_life"]] == life]
                    block(f"{scenario} battery_life={life}", [x_name, "total"], sub)
    elif subcommand == "outage":
        out.append("# outage vs density: x = transmitters per m^2, y = outage probability")
        for arch, antennas in sorted({(r[col["architecture"]], r[col["antennas"]]) for r in cells}):
            series = [r for r in cells if r[col["architecture"]] == arch and r[col["antennas"]] == antennas]
            block(f"{arch} antennas={antennas}", ["density", "outage", "ci95"], series)
    elif subcommand == "rfchains":
        best = [r for r in cells if r[col["is_optimum"]] == "1"]
        out.append("# consumption vs RF chains: x = active chains, y = beacon consumption (W)")
        if best:
            out.append(f"# optimum at m = {best[0][col['m']]}")
        block("consumption", ["m", "tx_power_w", "consumption_w", "is_optimum"], cells)
    elif subcommand == "deploy":
        out.append("# deployment: positions in meters; powers in watts")
        for kind, columns in (("pb", ["x", "y", "tx_power_w"]), ("device", ["x", "y", "received_power_w", "is_worst"])):
            block(kind, columns, [r for r in cells if r[col["row_type"]] == kind])
    else:
        raise ValueError(f"no plot layout for subcommand {subcommand!r}")
    return "\n".join(out) + "\n"


def run(rc: RunConfig) -> int:
    """Execute one run; returns the process exit status.

    Every output is written under a temporary name in the output directory
    and renamed into place, the manifest last, once all of them are written.
    On any failure only the temporary files are removed, so an earlier run's
    outputs stay as they were.
    """
    started = time.perf_counter()
    out_dir = Path(rc.output_dir)
    staged: dict[Path, Path] = {}  # final path -> temporary path

    def stage(name: str) -> Path:
        staged[out_dir / name] = out_dir / f".{name}.tmp"
        return staged[out_dir / name]

    try:
        schema = SCHEMAS[rc.subcommand]
        resolved = resolve_config(schema, rc.config_path, rc.overrides)

        header, rows = _RUNNERS[rc.subcommand](resolved, rc.seed)
        cells = [[_fmt(v) for v in row] for row in rows]
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(stage(f"{rc.subcommand}.csv"), header, cells)
        if rc.plot_data:
            stage(f"{rc.subcommand}.dat").write_text(emit_plot_data(rc.subcommand, header, cells, resolved))

        manifest = RunManifest(
            version=__version__,
            subcommand=rc.subcommand,
            seed=rc.seed,
            duration_seconds=time.perf_counter() - started,
            resolved={name: canonical(schema[name], value) for name, value in resolved.items()},
            outputs={final.name: _sha256(tmp) for final, tmp in staged.items()},
            env={"cpus": str(usable_cpus()), "numpy": np.__version__, "python": sys.version.split()[0]},
        )
        stage("manifest.txt").write_text(manifest.to_text())
        # With the earlier manifest gone first, a rename that fails leaves no
        # manifest listing outputs this run has already replaced.
        (out_dir / "manifest.txt").unlink(missing_ok=True)
        for final, tmp in staged.items():
            os.replace(tmp, final)
        return 0
    except Exception as err:  # argparse-level issues never reach here
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        print(f"error: {err}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wetplan",
        description="Planning and simulation batches for wireless energy transfer networks",
    )
    parser.add_argument("--version", action="version", version=f"wetplan {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    helps = {
        "cost": "total-cost comparison of device powering scenarios",
        "deploy": "max-min placement of ambient-powered beacons",
        "outage": "ambient harvesting outage vs transmitter density",
        "rfchains": "beacon consumption vs number of RF chains",
    }
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, default=0, help="64-bit unsigned run seed (default 0)")
        p.add_argument("--out", default="out", help="output directory (default ./out)")
        p.add_argument("--plot-data", action="store_true", help="also emit gnuplot-style .dat series")
        if name == "outage":
            p.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # --trials (outage only) is the last override, so it wins over --set trials=.
    trials = getattr(args, "trials", None)
    try:
        rc = RunConfig(
            subcommand=args.subcommand,
            seed=args.seed,
            config_path=args.config,
            output_dir=args.out,
            overrides=tuple(args.set) + (() if trials is None else (f"trials={trials}",)),
            plot_data=args.plot_data,
        )
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return run(rc)


if __name__ == "__main__":
    sys.exit(main())
