"""Record the output digests that run.py compares every run against.

    python3 bench/record_golden.py 0-39 [WORKLOAD ...]

Runs each workload (default: all) once per seed in the range, untraced, and
merges the per-invocation digests into golden_digests.json.  Record only
from a commit whose outputs are known to be right: later runs fail on any
changed byte.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys

import run
import workloads


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # reap the worker
    lo, _, hi = sys.argv[1].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.is_file() else {}
    rundir = run.WORK / f"record-{os.getpid()}"
    try:
        for workload in sys.argv[2:] or workloads.WORKLOADS:
            for seed in seeds:
                sub = rundir / f"{workload}-{seed}"
                plan_path, plan = run.prepare(workload, seed, sub)
                res = run.spawn(plan_path, sub / "w", "plain")
                if res is None or any(c != 0 for c in res["codes"]):
                    print(f"{workload} seed {seed}: sbpu failed", file=sys.stderr)
                    return 1
                digests = [run.digest_outputs(sub / "w" / inv["out"], inv["outputs"])
                           for inv in plan["invocations"]]
                if None in digests:
                    print(f"{workload} seed {seed}: unexpected output files", file=sys.stderr)
                    return 1
                golden.setdefault(workload, {})[str(seed)] = digests
                print(workload, seed, digests, flush=True)
                shutil.rmtree(sub)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
