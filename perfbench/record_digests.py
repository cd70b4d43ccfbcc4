"""Record the CSV digest of every workload at seeds 0..N-1 into digests.json.

Usage, from the root of a checkout: python3 perfbench/record_digests.py [N]

Run it only at a commit whose outputs are known good: the benchmark then
fails any later run whose CSV differs from these bytes at the same seed. A
run that breaks a study invariant is not recorded.
"""

import json
import shutil
import sys
from pathlib import Path

import checks
import run


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    root = Path.cwd()
    work = root / run.OUT / "record"
    digests = {}
    for workload in run.WORKLOADS.values():
        seeds = range(n) if workload.fixed_seed is None else [workload.fixed_seed]
        for seed in seeds:
            out_dir = work / f"{workload.name}-{seed}"
            result = run.spawn(root, work / "result.json", [], run.argv_for(workload, seed, out_dir))
            problems = run.gate(workload, seed, result, out_dir, {}, None)
            if problems:
                print(f"{workload.name} seed {seed}: not recorded: {problems}", file=sys.stderr)
                return 1
            digests.setdefault(workload.name, {})[str(seed)] = result["sha256"]
            print(f"{workload.name} seed {seed}: {result['sha256']}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    checks.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
