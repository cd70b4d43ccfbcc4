"""Span tracing for the benchmark's traced run, and the per-layer metrics.

The traced run wraps the public functions of each ``wetplan`` layer from the
benchmark's side: nothing under ``src/`` records spans. Names are bound with
``from .x import y``, so each function is patched where its caller looks it
up, not where it is defined. ``numpy.linalg.eigh`` and ``eigvalsh`` are
patched only while ``sweep_rf_chains`` runs, so that other studies' calls
into numpy are left alone.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span in the same thread (-1 at the top) and ``attrs`` holds
counts read from the call's arguments or result. Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict


def _rows(args, kwargs, result):
    return {"rows": int(result.shape[0]), "bytes": int(result.nbytes)}


def _sources(args, kwargs, result):
    return {"sources": int(result.shape[0])}


def _trial_key(args, kwargs, result):
    seed = args[1] if len(args) > 1 else kwargs.get("seed")
    entropy = getattr(seed, "entropy", seed)
    return {"key": repr((entropy, getattr(seed, "spawn_key", ())))}


def _nm_result(args, kwargs, result):
    return {"nfev": int(result.nfev), "nit": int(result.nit)}


def _sdr_ratio(args, kwargs, result):
    bound = result.sdr_lower_bound
    return {"sdr_ratio": float(result.tx_power / bound) if bound > 0 else 0.0}


def _csv_size(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (span name, module the caller looks the name up in, attribute, counts)
PATCH_POINTS = (
    ("config.resolve_config", "wetplan.cli", "resolve_config", None),
    ("cli.write_csv", "wetplan.cli", "write_csv", _csv_size),
    ("deployment.optimize", "wetplan.cli", "optimize", None),
    ("deployment.received_power", "wetplan.cli", "received_power", None),
    ("beampower.sweep_rf_chains", "wetplan.cli", "sweep_rf_chains", None),
    ("outage.run_outage", "wetplan.outage", "run_outage", None),
    ("outage.run_trial", "wetplan.outage", "run_trial", _trial_key),
    ("channel.sample_hppp", "wetplan.outage", "sample_hppp", _sources),
    ("channel.sample_channels", "wetplan.outage", "sample_channels", _rows),
    ("harvesting.harvest_architecture", "wetplan.outage", "harvest_architecture", None),
    ("harvesting.rf_combine", "wetplan.harvesting", "rf_combine", None),
    ("harvesting.harvest", "wetplan.harvesting", "harvest", None),
    ("ambient.transmit_power_xy", "wetplan.deployment", "transmit_power_xy", None),
    ("ambient.transmit_power", "wetplan.deployment", "transmit_power", None),
    ("channel.path_gain", "wetplan.deployment", "path_gain", None),
    ("deployment.minimize", "wetplan.deployment", "minimize", _nm_result),
    ("beampower.min_power_precoder", "wetplan.beampower", "min_power_precoder", _sdr_ratio),
)

# Patched on entry to the span named by the key and restored on its exit.
DURING = {
    "beampower.sweep_rf_chains": (
        ("beampower.eigh", "numpy.linalg", "eigh", None),
        ("beampower.eigvalsh", "numpy.linalg", "eigvalsh", None),
    ),
}


class Tracer:
    """Records spans around patched functions; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._installed: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counts=None):
        during = DURING.get(name, ())

        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            patched = [self._patch(*point) for point in during]
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                for restore in reversed(patched):
                    if restore is not None:
                        setattr(*restore)
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _lookup(self, name, module_name, attr):
        """The module and the callable at a patch point, or None after noting it absent."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            if name not in self.absent:
                self.absent.append(name)
            return None
        return module, original

    def _patch(self, name, module_name, attr, counts):
        """Wrap one patch point; returns what restores it, or None if it is absent."""
        found = self._lookup(name, module_name, attr)
        if found is None:
            return None
        module, original = found
        setattr(module, attr, self.wrap(name, original, counts))
        return (module, attr, original)

    def install(self, points=PATCH_POINTS) -> None:
        for point in points:
            restore = self._patch(*point)
            if restore is not None:
                self._installed.append(restore)
        for inner in DURING.values():
            for name, module_name, attr, _ in inner:
                self._lookup(name, module_name, attr)

    def uninstall(self) -> None:
        while self._installed:
            setattr(*self._installed.pop())


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        inside = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        out.append((end - start) - _covered(inside))
    return out


# (metric, unit, better); the README's per-layer table lists what each one should move.
LAYER_METRICS = (
    ("setup.import_s", "s", "lower"),
    ("config.resolve_config.self_s", "s", "lower"),
    ("cli.write_csv.self_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("outage.run_outage.calls", "count", "lower"),
    ("outage.run_trial.calls", "count", "lower"),
    ("outage.run_trial.self_s", "s", "lower"),
    ("outage.trial_us", "us", "lower"),
    ("channel.sample_hppp.calls", "count", "lower"),
    ("channel.sample_hppp.self_s", "s", "lower"),
    ("channel.sources_drawn", "count", "lower"),
    ("channel.sample_channels.calls", "count", "lower"),
    ("channel.sample_channels.self_s", "s", "lower"),
    ("channel.sample_channels.rows", "count", "lower"),
    ("channel.sample_channels.bytes_out", "bytes", "lower"),
    ("channel.useful_draw_ratio", "ratio", "higher"),
    ("channel.path_gain.calls", "count", "lower"),
    ("channel.path_gain.self_s", "s", "lower"),
    ("harvesting.harvest_architecture.calls", "count", "lower"),
    ("harvesting.harvest_architecture.self_s", "s", "lower"),
    ("harvesting.rf_combine.calls", "count", "lower"),
    ("harvesting.rf_combine.self_s", "s", "lower"),
    ("harvesting.harvest.calls", "count", "lower"),
    ("harvesting.harvest.self_s", "s", "lower"),
    ("ambient.transmit_power_xy.calls", "count", "lower"),
    ("ambient.transmit_power_xy.self_s", "s", "lower"),
    ("ambient.transmit_power.calls", "count", "lower"),
    ("ambient.transmit_power.self_s", "s", "lower"),
    ("deployment.optimize.s", "s", "lower"),
    ("deployment.nm_runs", "count", "lower"),
    ("deployment.nm_nfev", "count", "lower"),
    ("deployment.nm_nit", "count", "lower"),
    ("deployment.minimize.self_s", "s", "lower"),
    ("deployment.eval_us", "us", "lower"),
    ("deployment.received_power.calls", "count", "lower"),
    ("deployment.received_power.self_s", "s", "lower"),
    ("beampower.sweep_rf_chains.s", "s", "lower"),
    ("beampower.min_power_precoder.calls", "count", "lower"),
    ("beampower.min_power_precoder.self_s", "s", "lower"),
    ("beampower.eigh.calls", "count", "lower"),
    ("beampower.eigvalsh.calls", "count", "lower"),
    ("beampower.iter_us", "us", "lower"),
    ("beampower.sdr_ratio_max", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.absent_points", "count", "lower"),
)


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans, absent, import_s: float, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer that did not run reads 0."""
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    selfs = defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(int))
    for span, self_s in zip(spans, own):
        name = span[0]
        calls[name] += 1
        total[name] += span[2] - span[1]
        selfs[name] += self_s
        for key, value in (span[4] or {}).items():
            if key == "sdr_ratio":
                attrs[name][key] = max(attrs[name][key], value)
            elif key != "key":
                attrs[name][key] += value

    trial_keys = set()
    for i, span in enumerate(spans):
        if span[0] != "channel.sample_channels":
            continue
        j, key = span[3], ("span", i)
        while j >= 0:
            if spans[j][0] == "outage.run_trial":
                key = spans[j][4]["key"]
                break
            j = spans[j][3]
        trial_keys.add(key)

    m = {"setup.import_s": import_s, "trace.overhead_s": overhead_s, "trace.absent_points": len(absent)}
    for name in (
        "config.resolve_config", "cli.write_csv", "outage.run_trial", "channel.sample_hppp",
        "channel.sample_channels", "channel.path_gain", "harvesting.harvest_architecture",
        "harvesting.rf_combine", "harvesting.harvest", "ambient.transmit_power_xy",
        "ambient.transmit_power", "deployment.minimize", "deployment.received_power",
        "beampower.min_power_precoder",
    ):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = selfs[name]
    for name in ("outage.run_outage", "beampower.eigh", "beampower.eigvalsh"):
        m[f"{name}.calls"] = calls[name]
    m["cli.csv_bytes"] = attrs["cli.write_csv"]["bytes"]
    m["outage.trial_us"] = _ratio(total["outage.run_trial"], calls["outage.run_trial"], 1e6)
    m["channel.sources_drawn"] = attrs["channel.sample_hppp"]["sources"]
    m["channel.sample_channels.rows"] = attrs["channel.sample_channels"]["rows"]
    m["channel.sample_channels.bytes_out"] = attrs["channel.sample_channels"]["bytes"]
    m["channel.useful_draw_ratio"] = _ratio(len(trial_keys), calls["channel.sample_channels"])
    m["deployment.optimize.s"] = total["deployment.optimize"]
    m["deployment.nm_runs"] = calls["deployment.minimize"]
    m["deployment.nm_nfev"] = attrs["deployment.minimize"]["nfev"]
    m["deployment.nm_nit"] = attrs["deployment.minimize"]["nit"]
    m["deployment.eval_us"] = _ratio(total["deployment.minimize"], attrs["deployment.minimize"]["nfev"], 1e6)
    m["beampower.sweep_rf_chains.s"] = total["beampower.sweep_rf_chains"]
    m["beampower.iter_us"] = _ratio(total["beampower.min_power_precoder"], calls["beampower.eigh"], 1e6)
    m["beampower.sdr_ratio_max"] = attrs["beampower.min_power_precoder"]["sdr_ratio"]
    # Drop the unlisted pairs the loops above add (run_trial.self_s is listed, minimize.calls is nm_runs).
    return {name: m[name] for name, _, _ in LAYER_METRICS}
