"""Correctness gate: study invariants on a run's CSV and its recorded digest.

Each ``*_violations`` function takes the CSV's rows as dicts (and, where the
invariant needs it, the resolved config from the manifest) and returns a list
of messages, empty when every invariant holds. The invariants hold for any
seed, unlike the digests, which are recorded per workload and seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")

# The CSV's received powers come from the scalar ``received_power`` while the
# worst index comes from the vectorized objective; the two agree to rounding.
WORST_RTOL = 1e-12


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def read_resolved(manifest_text: str) -> dict[str, str]:
    """The ``config.<key> = value`` lines of a manifest, keyed without the prefix."""
    out = {}
    for line in manifest_text.splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("config."):
            out[key[len("config."):]] = value
    return out


def outage_violations(rows, resolved=None) -> list[str]:
    """DC combining rectifies antenna 0 too, on the same trials, so it never
    misses the target more often than the single-antenna receiver."""
    outage = {(r["architecture"], r["density"]): float(r["outage"]) for r in rows}
    out = []
    for (arch, density), single in sorted(outage.items()):
        dc = outage.get(("dc", density))
        if arch == "single" and dc is not None and dc > single:
            out.append(f"dc outage {dc} above single outage {single} at density {density}")
    return out


def deploy_violations(rows, resolved) -> list[str]:
    """Beacons lie in the area with power under the cap; exactly one device is
    marked worst and it receives the least power."""
    x_min, y_min, x_max, y_max = (float(v) for v in resolved["map.area"].split(":"))
    cap = float(resolved["cap"])
    out = []
    for r in rows:
        if r["row_type"] != "pb":
            continue
        x, y, tx = float(r["x"]), float(r["y"]), float(r["tx_power_w"])
        if not (x_min <= x <= x_max and y_min <= y <= y_max):
            out.append(f"beacon {r['index']} at ({x}, {y}) lies outside the area")
        if not 0.0 <= tx <= cap:
            out.append(f"beacon {r['index']} transmits {tx} W, outside [0, cap {cap}]")
    devices = [r for r in rows if r["row_type"] == "device"]
    worst = [r for r in devices if r["is_worst"] == "1"]
    if len(worst) != 1:
        return out + [f"{len(worst)} device rows are marked is_worst, expected 1"]
    floor = min(float(r["received_power_w"]) for r in devices)
    value = float(worst[0]["received_power_w"])
    if value > floor * (1.0 + WORST_RTOL):
        out.append(f"is_worst device {worst[0]['index']} receives {value} W, above the minimum {floor} W")
    return out


def rfchains_violations(rows, resolved=None) -> list[str]:
    """Transmit power never rises with the chain count, and the one optimum
    row has the lowest consumption."""
    out = []
    points = sorted(rows, key=lambda r: int(r["m"]))
    for a, b in zip(points, points[1:]):
        if float(b["tx_power_w"]) > float(a["tx_power_w"]):
            out.append(f"tx_power_w rises from m={a['m']} ({a['tx_power_w']}) to m={b['m']} ({b['tx_power_w']})")
    best = [r for r in points if r["is_optimum"] == "1"]
    if len(best) != 1:
        return out + [f"{len(best)} rows are marked is_optimum, expected 1"]
    floor = min(float(r["consumption_w"]) for r in points)
    if float(best[0]["consumption_w"]) != floor:
        out.append(f"is_optimum row m={best[0]['m']} consumes {best[0]['consumption_w']} W, above the minimum {floor} W")
    return out


INVARIANTS = {
    "outage": outage_violations,
    "deploy": deploy_violations,
    "rfchains": rfchains_violations,
}


def load_digests(path=DIGESTS) -> dict[str, dict[str, str]]:
    """Recorded CSV digests: ``{workload: {seed: sha256}}``."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return {}


def digest_violations(data: bytes, workload: str, seed: int, digests) -> list[str]:
    """A mismatch with the digest recorded for this workload and seed; no
    message when none is recorded."""
    expected = digests.get(workload, {}).get(str(seed))
    actual = sha256(data)
    if expected is not None and actual != expected:
        return [f"CSV sha256 {actual} differs from the recorded {expected}"]
    return []
