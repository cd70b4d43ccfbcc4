"""Batch command line: the cost, deploy, outage and rfchains studies.

Each study is one record in ``STUDIES``: its help line, config keys, runner
and plot layout, written next to each other below.

Each run writes one CSV (fixed column order, LF endings, locale-independent
numbers) plus ``manifest.txt`` recording the toolkit version, the fully
resolved configuration in re-parseable ``config.<key> = value`` form, the
seed, and a SHA-256 digest per output file. Re-running the manifest's config
with the same seed reproduces the CSVs byte for byte.

The manifest also records the environment that produced the bytes
(``env.<name> = value`` lines: Python and numpy versions, and the CPUs the
outage trials were dealt across); ``verify_manifest`` ignores them.

A runner builds the library objects from the resolved config, calls the
study's library entry point and returns a header and rows. A key that sets
a field of a library record is generated from that field, and ``_build``
builds the record from such keys; a study writes out only the keys no field
holds. The library is the only range check (a field's range is declared at
the field) and refuses a scenario too large to allocate before it computes
or draws; a size refusal reads ``<names> give <n> <what>; the limit is
<limit>``. A refusal names the config key of the same name; for a nested
record, one helper, ``_keyed``, puts the key's prefix in front (``solver.``,
``map.area: ``). The rows are formatted into cells once, and both the CSV
and the optional plot data are written from those cells. Outputs are
renamed into place only after all of them are written, so a failed run
leaves an earlier run in the same directory as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import astuple, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._fork import usable_cpus
from .ambient import AmbientMap, GaussianComponent, Rect, example_map
from .beampower import RfChainConfig, sweep_rf_chains
from .config import ConfigError, ConfigKey, _field_keys, canonical, resolve_config
from .costs import CostParams, cents_to_dollars, sweep_costs
from .deployment import DeploymentProblem, SolverConfig, optimize, received_power
from .harvesting import ARCHITECTURES
from .outage import OutageConfig, sweep_density

__all__ = ["RunConfig", "RunManifest", "STUDIES", "main", "run", "emit_plot_data", "verify_manifest"]


@dataclass(frozen=True)
class Study:
    """One subcommand. ``runner(resolved, seed)`` returns the CSV header and rows; ``layout(rows)`` yields
    the lines of the plot data, each row a dict of one CSV row's cells by column name."""

    help: str
    keys: dict[str, ConfigKey]
    runner: Callable[[dict, int], tuple[list[str], list[tuple]]]
    layout: Callable[[list[dict[str, str]]], Iterable[str]]


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
        if self.subcommand not in STUDIES:
            raise ConfigError(f"unknown subcommand {self.subcommand!r}; expected one of {tuple(STUDIES)}")
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
    and they include the subcommand's CSV, which every run writes. An output
    is a regular file in the manifest's directory, named plainly: a name with
    a path in it, or a symbolic link, could reach any file and fails the check."""
    path = Path(manifest_path)
    try:
        manifest = RunManifest.from_text(path.read_text())
    except ValueError:  # a seed or duration that does not parse
        return False
    if f"{manifest.subcommand}.csv" not in manifest.outputs:
        return False
    for name, digest in manifest.outputs.items():
        target = path.parent / name
        if Path(name).name != name or target.is_symlink() or not target.is_file() or _sha256(target) != digest:
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
def _keyed(prefix: str = ""):
    """Report a library ``ValueError`` as a ``ConfigError`` that names the config key, ``prefix`` in front."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(prefix + str(err)) from err


def _keys(*keys: ConfigKey) -> dict[str, ConfigKey]:
    return {k.name: k for k in keys}


def _series(title: str, columns: list[str], rows) -> Iterator[str]:
    """One block of plot data: two blank lines, its title and columns, then those cells of each row."""
    yield from ("", "", f"# series: {title}", "# columns: " + " ".join(columns))
    for r in rows:
        yield " ".join(r[c] for c in columns)


def emit_plot_data(subcommand: str, header: list[str], cells: list[list[str]]) -> str:
    """Render a run's CSV cells as gnuplot-style columnar text, one block per series, in the study's layout."""
    if subcommand not in STUDIES:
        raise ValueError(f"no plot layout for subcommand {subcommand!r}")
    rows = [dict(zip(header, r)) for r in cells]
    return "\n".join(STUDIES[subcommand].layout(rows)) + "\n"


def _run_cost(resolved, seed: int):
    params = _build(CostParams, resolved)
    breakdowns = sweep_costs(params, resolved["n_devices"], resolved["horizons"], resolved["battery_lives"])
    header = [
        "scenario", "n_devices", "horizon", "battery_life",
        "device_install", "device_maintenance", "pb_install", "pb_opex", "total",
    ]
    # A breakdown's fields are the columns in order: four that name the row, then five totals in cents.
    rows = [(*astuple(b)[:4], *map(cents_to_dollars, astuple(b)[4:])) for b in breakdowns]
    return header, rows


def _plot_cost(rows):
    # One fleet costed over several horizons or battery lives plots against the
    # horizon, one series per battery life; any other sweep against the fleet size.
    over_time = len({r["n_devices"] for r in rows}) == 1 and len({(r["horizon"], r["battery_life"]) for r in rows}) > 1
    x_name = "horizon" if over_time else "n_devices"
    yield f"# cost sweep: x = {x_name}, y = total cost (USD)"
    for scenario in sorted({r["scenario"] for r in rows}):
        series = [r for r in rows if r["scenario"] == scenario]
        if not over_time:
            yield from _series(scenario, [x_name, "total"], series)
            continue
        for life in sorted({r["battery_life"] for r in series}, key=float):
            sub = [r for r in series if r["battery_life"] == life]
            yield from _series(f"{scenario} battery_life={life}", [x_name, "total"], sub)


_COST = Study(
    "total-cost comparison of device powering scenarios",
    _keys(
        ConfigKey("n_devices", "int_list", (10, 50, 100)),
        ConfigKey("horizons", "int_list", (15,)),
        ConfigKey("battery_lives", "int_list", (5,)),
        *_field_keys(CostParams),
    ),
    _run_cost,
    _plot_cost,
)


def _run_deploy(resolved, seed: int):
    with _keyed("map.area: "):
        area = Rect(*resolved["map.area"])
    with _keyed("map.components: "):
        ambient_map = AmbientMap(
            tuple(GaussianComponent(w, (x, y), width) for w, x, y, width in resolved["map.components"]),
            area,
        )
    problem = _build(DeploymentProblem, resolved, ambient_map=ambient_map)
    solution = optimize(problem, _build(SolverConfig, resolved, "solver."), seed=seed)
    header = ["row_type", "index", "x", "y", "tx_power_w", "received_power_w", "is_worst"]
    pbs = solution.pb_positions
    rows = [("pb", i, x, y, tx, "", "") for i, ((x, y), tx) in enumerate(zip(pbs.tolist(), solution.per_pb_tx_power))]
    rows += [
        ("device", j, x, y, "", received_power((x, y), pbs, problem), int(j == solution.worst_device_index))
        for j, (x, y) in enumerate(problem.devices.tolist())
    ]
    return header, rows


def _plot_deploy(rows):
    yield "# deployment: positions in meters; powers in watts"
    for kind, columns in (("pb", ["x", "y", "tx_power_w"]), ("device", ["x", "y", "received_power_w", "is_worst"])):
        yield from _series(kind, columns, [r for r in rows if r["row_type"] == kind])


_EXAMPLE_MAP = example_map()
_DEPLOY = Study(
    "max-min placement of ambient-powered beacons",
    _keys(
        ConfigKey("k", "int", 5),
        # Devices spread over the 40x40 m area of the shipped ambient map.
        ConfigKey("devices", "pair_list", ((-15.0, -5.0), (-8.0, 12.0), (-2.0, -16.0), (3.0, 4.0),
                                           (9.0, 16.0), (14.0, -3.0), (16.0, 9.0), (-17.0, 15.0))),
        ConfigKey("map.components", "quad_list",
                  tuple((c.weight, *c.center, c.width) for c in _EXAMPLE_MAP.components)),
        ConfigKey("map.area", "rect", astuple(_EXAMPLE_MAP.area)),
        *_field_keys(DeploymentProblem),
        *_field_keys(SolverConfig, "solver."),
    ),
    _run_deploy,
    _plot_deploy,
)


def _run_outage(resolved, seed: int):
    """Outage vs density, one row per (architecture, density), architecture-major.

    The architectures share draws (common random numbers): each trial's field
    and channels are sampled once per density and rectified under every
    architecture in ``archs``.
    """
    base = _build(OutageConfig, resolved)
    densities, archs = resolved["densities"], resolved["archs"]
    per_density = sweep_density(base, densities, archs, seed=seed)
    header = ["density", "architecture", "antennas", "trials", "outage", "ci95"]
    rows = [
        (density, arch, base.n_antennas, results[i].trials, results[i].outage_estimate, results[i].ci95_halfwidth)
        for i, arch in enumerate(archs)
        for density, results in zip(densities, per_density)
    ]
    return header, rows


def _plot_outage(rows):
    yield "# outage vs density: x = transmitters per m^2, y = outage probability"
    for arch, antennas in sorted({(r["architecture"], r["antennas"]) for r in rows}):
        series = [r for r in rows if r["architecture"] == arch and r["antennas"] == antennas]
        yield from _series(f"{arch} antennas={antennas}", ["density", "outage", "ci95"], series)


_OUTAGE = Study(
    "ambient harvesting outage vs transmitter density",
    _keys(
        ConfigKey("densities", "float_list", (0.5, 1.0, 2.0, 4.0)),
        ConfigKey("archs", "str_list", ARCHITECTURES, choices=ARCHITECTURES),
        # The reference scenario has 4 antennas, against OutageConfig's 1.
        *_field_keys(OutageConfig(n_antennas=4)),
    ),
    _run_outage,
    _plot_outage,
)


def _run_rfchains(resolved, seed: int):
    # Explicit devices override the n_devices drawn ones; no devices is the empty list.
    sweep = sweep_rf_chains(_build(RfChainConfig, resolved), resolved["m_values"], resolved["devices"] or None, seed)
    header = ["m", "tx_power_w", "consumption_w", "is_optimum"]
    rows = [(pt.n_rf, pt.tx_power, pt.total_consumption, int(pt.n_rf == sweep.optimum_n_rf)) for pt in sweep.points]
    return header, rows


def _plot_rfchains(rows):
    yield "# consumption vs RF chains: x = active chains, y = beacon consumption (W)"
    best = [r["m"] for r in rows if r["is_optimum"] == "1"]
    if best:
        yield f"# optimum at m = {best[0]}"
    yield from _series("consumption", ["m", "tx_power_w", "consumption_w", "is_optimum"], rows)


_RFCHAINS = Study(
    "beacon consumption vs number of RF chains",
    _keys(
        ConfigKey("m_values", "int_list", tuple(range(1, 33))),
        ConfigKey("devices", "pair_list", ()),
        *_field_keys(RfChainConfig),
    ),
    _run_rfchains,
    _plot_rfchains,
)


STUDIES: dict[str, Study] = {"cost": _COST, "deploy": _DEPLOY, "outage": _OUTAGE, "rfchains": _RFCHAINS}


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
        study = STUDIES[rc.subcommand]
        resolved = resolve_config(study.keys, rc.config_path, rc.overrides)

        header, rows = study.runner(resolved, rc.seed)
        cells = [[_fmt(v) for v in row] for row in rows]
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(stage(f"{rc.subcommand}.csv"), header, cells)
        if rc.plot_data:
            stage(f"{rc.subcommand}.dat").write_text(emit_plot_data(rc.subcommand, header, cells))

        manifest = RunManifest(
            version=__version__,
            subcommand=rc.subcommand,
            seed=rc.seed,
            duration_seconds=time.perf_counter() - started,
            resolved={name: canonical(study.keys[name], value) for name, value in resolved.items()},
            outputs={final.name: _sha256(tmp) for final, tmp in staged.items()},
            env={"cpus": str(usable_cpus()), "numpy": np.__version__, "python": sys.version.split()[0]},
        )
        stage("manifest.txt").write_text(manifest.to_text())
        # With the earlier manifest gone first, a rename that fails leaves no
        # manifest listing outputs this run has already replaced; an earlier
        # run's plot data goes with it, so none is left beside this run's CSV.
        (out_dir / "manifest.txt").unlink(missing_ok=True)
        if not rc.plot_data:
            (out_dir / f"{rc.subcommand}.dat").unlink(missing_ok=True)
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
    for name, study in STUDIES.items():
        p = sub.add_parser(name, help=study.help)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, default=0, help="64-bit unsigned run seed (default 0)")
        p.add_argument("--out", default="out", help="output directory (default ./out)")
        p.add_argument("--plot-data", action="store_true", help="also emit gnuplot-style .dat series")
        if "trials" in study.keys:
            p.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # --trials (studies with a trials key) is the last override, so it wins over --set trials=.
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
