"""Run one sbpu benchmark workload and print its metrics.

    python3 bench/run.py --workload quad-mc --seed 1 --seconds 20 --trace 0

Run from anywhere: the sources are found next to this directory, in
../src.  The run is a closed loop of fresh worker processes, one at a time,
each with one thread and BLAS threads fixed at 1.  A worker imports sbpu and
runs the workload's fixed invocations once through `sbpu.cli.main`.  Workers
are started until --seconds have passed and at least MIN_WORKERS have run.

Every worker's outputs are digested and compared with the digests recorded
in golden_digests.json for this seed, or, for a seed not recorded there,
with the first worker's.  An invocation fails when its exit code is not 0
or a digest differs.

--trace 0 reports the end-to-end metrics from untraced workers.  --trace 1
alternates untraced and traced workers and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import hooks  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
GOLDEN = BENCH / "golden_digests.json"

MIN_WORKERS = 5          # set-up is measured once per worker; report the median
MIN_TRACED_PAIRS = 2
WORKER_TIMEOUT_S = 45.0
LAUNCH_DEADLINE_S = 120.0  # start no worker after this, so a run ends within 180 s
BLAS_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                             "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {"setup_s": "s", "unit_ms_min": "ms", "peak_rss_mb": "MB"}


def prepare(workload: str, seed: int, rundir: Path) -> tuple[Path, dict]:
    """Write the workload's configs and plan into rundir; return both."""
    plan = workloads.plan(workload, seed)
    rundir.mkdir(parents=True)
    for name, cfg in plan["configs"].items():
        (rundir / name).write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    path = rundir / "plan.json"
    path.write_text(json.dumps(plan, indent=1) + "\n")
    return path, plan


def spawn(plan_path: Path, wdir: Path, mode: str) -> dict | None:
    """Run one worker to completion; its result, or None when it failed."""
    wdir.mkdir()
    env = dict(os.environ, **BLAS_ENV)
    argv = [sys.executable, str(BENCH / "worker.py"), str(plan_path),
            repr(time.monotonic()), mode]
    try:
        proc = subprocess.run(argv, cwd=wdir, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker in {wdir.name} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"worker in {wdir.name} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if any(c != 0 for c in result["codes"]):
        print(f"worker in {wdir.name}: exit codes {result['codes']}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
    return result


def digest_outputs(out: Path, expected: list[str]) -> str | None:
    """A 64-bit digest of an invocation's output files, or None if the set differs."""
    if not out.is_dir():
        return None
    names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    if names != expected:
        return None
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + hashlib.sha256((out / name).read_bytes()).digest())
    return h.hexdigest()[:16]


def golden_digests(workload: str, seed: int) -> list[str] | None:
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "sbpu" / "cli.py").is_file():
        print(f"error: sbpu sources not found under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)

    load_before = os.getloadavg()
    rundir = WORK / f"sbpu-{args.workload}-{os.getpid()}"
    plan_path, plan = prepare(args.workload, args.seed, rundir)
    invocations = plan["invocations"]
    reference = golden_digests(args.workload, args.seed)
    ref_source = "golden_digests.json" if reference else "first worker"

    modes = ["plain", "trace"] if args.trace else ["plain"]
    runs: dict[str, list[dict]] = {m: [] for m in modes}
    attempted = failed = 0
    t0 = time.monotonic()
    try:
        i = 0
        while True:
            elapsed = time.monotonic() - t0
            enough = (min(len(r) for r in runs.values()) >= MIN_TRACED_PAIRS
                      if args.trace else len(runs["plain"]) >= MIN_WORKERS)
            if (enough and elapsed >= args.seconds) or elapsed >= LAUNCH_DEADLINE_S:
                break
            mode = modes[i % len(modes)]
            wdir = rundir / f"w{i:03d}"
            res = spawn(plan_path, wdir, mode)
            codes = res["codes"] if res else [None] * len(invocations)
            digests = [digest_outputs(wdir / inv["out"], inv["outputs"])
                       for inv in invocations]
            if reference is None:
                reference = digests
            bad = [c != 0 or d is None or d != r
                   for c, d, r in zip(codes, digests, reference)]
            attempted += len(invocations)
            failed += sum(bad)
            if res and all(c == 0 for c in codes):   # time only work that completed
                runs[mode].append(res)
                print(f"worker {i:>2} {mode:<5} setup {res['setup_s']:.4f} s  "
                      f"run {res['run_s']:.4f} s  rss {res['peak_rss_mb']:.1f} MB  "
                      f"codes {codes}  failed {sum(bad)}")
            shutil.rmtree(wdir)
            i += 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    load_after = os.getloadavg()

    plain = runs["plain"]
    any_run = next((r for m in modes for r in runs[m]), {})
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "cpu": cpu_model(), "python": platform.python_version(),
           "numpy": any_run.get("numpy"),
           "blas": any_run.get("blas"), "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
           "loadavg_before": load_before, "loadavg_after": load_after}
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed}: {attempted} invocations, "
          f"{failed} failed, digests compared with {ref_source}")
    print(f"error_rate {failed / max(attempted, 1):.4g} ({failed}/{attempted})")

    correct = failed == 0 and all(runs.values())
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if plain and not args.trace:
        unit_ms = [1e3 * u for r in plain for u in r["unit_s"]]
        # Printed, but not bounded: on a host that slows the CPU in bursts,
        # medians of whole runs and rounds vary far more than any bound.
        print(f"run_s {median_of(plain, 'run_s'):.6g} s (median over workers)")
        print(f"unit_ms_p50 {statistics.median(unit_ms):.6g} ms over {len(unit_ms)} units")
        units = END_TO_END_UNITS
        metrics = {
            "setup_s": median_of(plain, "setup_s"),
            "unit_ms_min": min(unit_ms),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
    elif args.trace and runs["trace"]:
        traced = runs["trace"]
        units = hooks.per_layer_units()
        layers = [dict(r["layers"], **{"cli.bytes_written": r["bytes_written"]})
                  for r in traced]
        exact = [n for n, u in units.items() if u in ("count", "bytes")]
        if any(l[n] != layers[0][n] for l in layers for n in exact):
            print("error: traced counts differ between workers", file=sys.stderr)
            correct = False
        metrics = {n: (layers[0][n] if n in exact else
                       statistics.median(l[n] for l in layers))
                   for n in units if n != "trace.overhead_frac"}
        if plain:
            metrics["trace.overhead_frac"] = (median_of(traced, "work_s")
                                              / median_of(plain, "work_s") - 1.0)
    for name, value in metrics.items():
        print(f"{name:<45} {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
