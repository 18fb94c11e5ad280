"""Self-tests of the benchmark.  Run with: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import hooks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import sbpu.cli  # noqa: E402


def changed(before: dict) -> set:
    after = hooks.snapshot()
    return {key for key in before.keys() | after.keys() if before.get(key) != after.get(key)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_configs_depend_only_on_the_seed(workload):
    first = json.dumps(workloads.plan(workload, 7), sort_keys=True)
    assert json.dumps(workloads.plan(workload, 7), sort_keys=True) == first
    assert workloads.plan(workload, 8)["configs"] != workloads.plan(workload, 7)["configs"]


@pytest.mark.parametrize("unit", sorted(hooks.UNIT_TARGETS))
def test_untraced_run_installs_only_the_work_timer(unit):
    allowed = {t.rpartition(":")[2].rpartition(".")[2] for t in hooks.UNIT_TARGETS[unit]}
    before = hooks.snapshot()
    timer = hooks.WorkTimer(unit)
    timer.install()
    try:
        assert {attr for _, attr in changed(before)} == allowed
    finally:
        timer.uninstall()
    assert not changed(before)


def test_tracer_removes_every_wrapper():
    before = hooks.snapshot()
    tracer = hooks.Tracer()
    tracer.install()
    try:
        assert {("cli", "main"), ("federation", "run_round"), ("Layer", "__post_init__"),
                ("QuadraticObjective", "stochastic_grad")} <= {
            (ns.__name__.rpartition(".")[2], attr) for ns, attr in changed(before)}
    finally:
        tracer.uninstall()
    assert not changed(before)


def _tiny_config(tmp_path: Path) -> Path:
    cfg = workloads.plan("quad-mc", 3)["configs"]["quad-mc.json"]
    cfg.update(rounds=3, K=2)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    return path


def test_spans_of_a_round_share_its_trace_id_and_self_times_add_up(tmp_path):
    import numpy as np

    tracer = hooks.Tracer()
    tracer.install()
    try:
        code = sbpu.cli.main(["convergence", "--config", str(_tiny_config(tmp_path)),
                              "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    parent = np.frombuffer(tracer.s_parent, dtype=np.int32)
    trace = np.frombuffer(tracer.s_trace, dtype=np.int32)
    name = np.array([tracer.names[i] for i in tracer.s_name])
    rounds = np.flatnonzero(name == "federation.run_round")
    assert rounds.size == 3 and len(set(trace[rounds])) == 3
    for i in range(parent.size):          # walk up to the enclosing round, if any
        j = i
        while j >= 0 and name[j] != "federation.run_round":
            j = parent[j]
        if j >= 0:
            assert trace[i] == trace[j]
    m = tracer.metrics()
    assert m["federation.run_round.calls"] == 3
    assert m["seeds.stream.calls"] == 3 * 2 * 2 + 2 * 2   # sbpu + train streams, objectives
    dur = np.frombuffer(tracer.s_end) - np.frombuffer(tracer.s_start)
    self_total = sum(m[k] for k in hooks.LAYER_SELF_S) + sum(
        m[f"{n}.self_s"] for n in hooks.SELF_S
        if not n.startswith(tuple(hooks.LAYER_SELF_S.values())))
    assert self_total == pytest.approx(dur[parent < 0].sum(), rel=1e-9)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload, tmp_path):
    plan_path, _ = run.prepare(workload, 11, tmp_path / "run")
    units = hooks.per_layer_units()
    counts = []
    for i in range(2):
        res = run.spawn(plan_path, tmp_path / "run" / f"w{i}", "trace")
        assert res is not None and res["codes"] == [0] * len(res["codes"])
        counts.append({n: v for n, v in res["layers"].items() if units[n] == "count"})
        counts[-1]["cli.bytes_written"] = res["bytes_written"]
    assert counts[0] == counts[1]
    assert counts[0]["cli.bytes_written"] > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == hooks.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_golden_digests_cover_every_workload():
    golden = json.loads(run.GOLDEN.read_text())
    for workload in workloads.WORKLOADS:
        n = len(workloads.plan(workload, 0)["invocations"])
        assert golden[workload] and all(len(d) == n for d in golden[workload].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "clf-dp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
