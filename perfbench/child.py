"""One benchmark run in a fresh interpreter: import the CLI, run it, report.

Usage: python3 perfbench/child.py RESULT_JSON [--setup-only] [--trace] -- WETPLAN_ARGV...

Run from the root of a checkout; ``wetplan`` is imported from ``src/``. The
result file holds the monotonic time at which the parser was built (the
parent subtracts its spawn time to get the set-up time), the import time, and
for a full run the exit status, the seconds spent inside ``main(argv)``, the
peak RSS, whether the manifest verifies and, when traced, every span.
"""

import os
import sys
import time

started = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import wetplan.cli as cli  # noqa: E402

cli.build_parser()
ready = time.monotonic()
import_s = time.perf_counter() - started


def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def main() -> int:
    import json

    result_path = sys.argv[1]
    flags = sys.argv[2:sys.argv.index("--")]
    argv = sys.argv[sys.argv.index("--") + 1:]
    result = {"ready": ready, "import_s": import_s}
    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            result.update(spans=tracer.spans, absent=tracer.absent)
        out_dir = argv[argv.index("--out") + 1]
        manifest = os.path.join(out_dir, "manifest.txt")
        result.update(
            rc=rc,
            wall_s=wall_s,
            peak_rss_mb=_peak_rss_mb(),
            manifest_ok=rc == 0 and os.path.isfile(manifest) and cli.verify_manifest(manifest),
        )
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
