"""One benchmark worker: a fresh process that runs a workload's invocations once.

    python3 bench/worker.py PLAN_JSON T_SPAWN MODE

PLAN_JSON is written by run.py; T_SPAWN is the parent's time.monotonic()
just before it started this process; MODE is "plain" (only the work timer is
installed) or "trace" (every span of hooks.SPANS).  The worker runs in its
own directory, sends sbpu's standard output nowhere, and prints one JSON
line with its measurements.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import sbpu.cli  # noqa: E402

import hooks  # noqa: E402


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _invoke(argv: list[str]) -> int | None:
    """sbpu's exit code, or None when it raised instead of returning one."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return sbpu.cli.main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        return None


def main() -> int:
    plan_path, t_spawn, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    with open(plan_path) as fh:
        plan = json.load(fh)
    timer = hooks.WorkTimer(plan["unit"]) if mode == "plain" else None
    tracer = hooks.Tracer() if mode == "trace" else None
    hook = timer or tracer
    before = hooks.snapshot()
    hook.install()
    t_begin = time.monotonic()
    try:
        codes = [_invoke(inv["argv"]) for inv in plan["invocations"]]
        t_end = time.monotonic()
    finally:
        hook.uninstall()
    if hooks.snapshot() != before:
        print("a hook was left installed", file=sys.stderr)
        return 1

    work_start = timer.first_start if timer and timer.first_start else t_begin
    result = {
        "codes": codes,
        "setup_s": work_start - t_spawn,
        "run_s": t_end - work_start,
        "work_s": t_end - t_begin,      # every invocation, set-up included
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": sum(_bytes_under(Path(inv["out"])) for inv in plan["invocations"]
                             if Path(inv["out"]).is_dir()),
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["numpy"] = np.__version__
    result["blas"] = f"{blas.get('name')} {blas.get('version')}"
    if timer:
        result["unit_s"] = timer.durations
    if tracer:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
