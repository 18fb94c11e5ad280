"""Hooks the benchmark installs on sbpu from outside: the work timer and the tracer.

Nothing here edits sbpu's sources.  Both hooks replace module or class
attributes with wrappers and put the originals back on `uninstall`.  A
function is replaced wherever sbpu imported it by name (for example
`run_round` in both `sbpu.federation` and `sbpu.cli`), so every call site
goes through the wrapper.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

# The unit of work of each workload (workloads.UNIT): the end-to-end timer
# wraps these and nothing else.
UNIT_TARGETS = {
    "round": ["sbpu.federation:run_round"],
    "grad": ["sbpu.objectives:ClassifierObjective.grad"],
}

# Traced spans: span name -> the functions or methods it covers.  Every
# public function of sbpu.params is added as "params.<name>".
SPANS = {
    "cli.main": ["sbpu.cli:main"],
    "config.build_plan": ["sbpu.config:FederationConfig.build_plan"],
    "seeds.stream": ["sbpu.seeds:stream"],
    "seeds.fisher_yates": ["sbpu.seeds:fisher_yates"],
    "mutation.generate_diverse_models": ["sbpu.mutation:generate_diverse_models"],
    "mutation.check_neighborhood_bound": ["sbpu.mutation:check_neighborhood_bound"],
    "objectives.grad": ["sbpu.objectives:QuadraticObjective.grad",
                        "sbpu.objectives:QuadraticObjective.stochastic_grad",
                        "sbpu.objectives:ClassifierObjective.grad"],
    "objectives.loss": ["sbpu.objectives:QuadraticObjective.loss",
                        "sbpu.objectives:ClassifierObjective.loss"],
    "objectives.sgd_step": ["sbpu.objectives:sgd_step"],
    "federation.run_round": ["sbpu.federation:run_round"],
    "federation.local_train": ["sbpu.federation:local_train"],
    "federation.apply_defense": ["sbpu.federation:apply_defense"],
    "federation.aggregate": ["sbpu.federation:aggregate"],
    "convergence.run_convergence_experiment": ["sbpu.convergence:run_convergence_experiment"],
    "convergence.measure_divergence": ["sbpu.convergence:measure_divergence"],
    "attacks.lia_experiment": ["sbpu.attacks:lia_experiment"],
    "attacks.mia_experiment": ["sbpu.attacks:mia_experiment"],
    "attacks.ir_experiment": ["sbpu.attacks:ir_experiment"],
    "attacks.ir_reconstruct": ["sbpu.attacks:ir_reconstruct"],
    "attacks.adam_train": ["sbpu.attacks:adam_train"],
}
# Spans that start a new trace ID: one per CLI invocation, per round and per
# attack experiment call.  Every other span takes its parent's ID.
TRACE_ROOTS = {"cli.main", "federation.run_round", "attacks.lia_experiment",
               "attacks.mia_experiment", "attacks.ir_experiment"}
# Counted only: Layer builds are the most frequent call (51,011 per quad-mc
# worker), so a span on each would add the most tracing overhead.
COUNTERS = {"params.layer_builds": "sbpu.params:Layer.__post_init__"}

# Per-layer metrics of one worker's fixed work, in report order.  The
# runner adds trace.overhead_frac, which needs an untraced worker too.
CALLS = ["seeds.stream", "seeds.fisher_yates", "params.check_same_shape",
         "mutation.generate_diverse_models", "mutation.check_neighborhood_bound",
         "objectives.grad", "objectives.loss", "objectives.sgd_step",
         "federation.run_round", "federation.local_train",
         "federation.apply_defense", "federation.aggregate",
         "convergence.measure_divergence",
         "attacks.ir_reconstruct", "attacks.adam_train"]
SELF_S = ["seeds.stream", "seeds.fisher_yates",
          "mutation.generate_diverse_models", "mutation.check_neighborhood_bound",
          "objectives.grad", "objectives.loss", "objectives.sgd_step",
          "federation.run_round", "federation.local_train",
          "federation.apply_defense", "federation.aggregate",
          "convergence.run_convergence_experiment", "convergence.measure_divergence",
          "attacks.ir_reconstruct", "attacks.adam_train", "config.build_plan"]
# Self time summed over every span of a layer.
LAYER_SELF_S = {"params.self_s": "params.", "attacks.self_s": "attacks.",
                "cli.self_s": "cli."}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({f"{n}.self_s": "s" for n in SELF_S})
    units.update({n: "s" for n in LAYER_SELF_S})
    units.update({"params.layer_builds": "count",
                  "federation.run_round.p90_ms": "ms",
                  "federation.divergence_errors": "count",
                  "cli.bytes_written": "bytes",
                  "trace.overhead_frac": "ratio"})
    return units


def resolve(target: str):
    """'pkg.module:func' or 'pkg.module:Class.attr' -> (owner or None, attr, object)."""
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(owner, cls_name)
        return cls, attr, cls.__dict__[attr]
    return None, path, getattr(owner, path)


def sbpu_namespaces() -> list:
    """Every loaded sbpu module and every class defined in one."""
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "sbpu" or n.startswith("sbpu.")]
    classes = [v for m in mods for v in vars(m).values()
               if inspect.isclass(v) and v.__module__ == m.__name__]
    return mods + classes


def snapshot() -> dict:
    """(namespace, attribute) -> object identity, for checking installs."""
    return {(ns, k): id(v) for ns in sbpu_namespaces() for k, v in vars(ns).items()}


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list = []

    def replace(self, target: str, make_wrapper) -> None:
        owner, attr, original = resolve(target)
        wrapper = make_wrapper(original)
        if owner is not None:
            self._set(owner, attr, wrapper)
            return
        for ns in sbpu_namespaces():
            if inspect.ismodule(ns) and vars(ns).get(attr) is original:
                self._set(ns, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class WorkTimer:
    """Times each unit of work of a workload; the only hook of an untraced run."""

    def __init__(self, unit: str):
        self.targets = UNIT_TARGETS[unit]
        self.first_start: float | None = None   # time.monotonic() at the first unit
        self.durations: list[float] = []
        self._patches = Patches()

    def install(self) -> None:
        for target in self.targets:
            self._patches.replace(target, self._timed)

    def uninstall(self) -> None:
        self._patches.restore()

    def _timed(self, fn):
        durations = self.durations

        def timed(*args, **kwargs):
            if self.first_start is None:
                self.first_start = time.monotonic()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - t0)
        return timed


class Tracer:
    """Records a span around each call listed in SPANS, kept in memory.

    A span is (name, parent span, trace ID, start, end), stored column-wise
    in typed arrays so that hundreds of thousands of spans stay small.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_trace = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.errors: Counter = Counter()      # (span name, exception type) -> count
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._traces = 0
        self._patches = Patches()

    def install(self) -> None:
        import sbpu.params as params
        spans = dict(SPANS)
        for name, fn in vars(params).items():
            if (inspect.isfunction(fn) and fn.__module__ == params.__name__
                    and not name.startswith("_")):
                spans[f"params.{name}"] = [f"sbpu.params:{name}"]
        for span, targets in spans.items():
            for target in targets:
                self._patches.replace(target, lambda fn, span=span: self._span(span, fn))
        for counter, target in COUNTERS.items():
            self._patches.replace(target, lambda fn, c=counter: self._counted(c, fn))

    def uninstall(self) -> None:
        self._patches.restore()

    def _counted(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name: str, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid, root = self.name_ids[name], name in TRACE_ROOTS
        stack, perf = self._stack, time.perf_counter
        s_name, s_parent, s_trace = self.s_name, self.s_parent, self.s_trace
        s_start, s_end = self.s_start, self.s_end

        def traced(*args, **kwargs):
            i = len(s_start)
            parent = stack[-1] if stack else -1
            if root or parent < 0:
                self._traces += 1
                trace = self._traces
            else:
                trace = s_trace[parent]
            s_name.append(nid)
            s_parent.append(parent)
            s_trace.append(trace)
            s_end.append(0.0)
            stack.append(i)
            s_start.append(perf())
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                self.errors[(name, type(e).__name__)] += 1
                raise
            finally:
                s_end[i] = perf()
                stack.pop()
        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self times and round p90 from the recorded spans."""
        import numpy as np

        name = np.frombuffer(self.s_name, dtype=np.int32)
        parent = np.frombuffer(self.s_parent, dtype=np.int32)
        dur = np.frombuffer(self.s_end) - np.frombuffer(self.s_start)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))

        ids = self.name_ids        # every span name is registered at install
        out = {f"{n}.calls": int(calls[ids[n]]) for n in CALLS}
        out.update({f"{n}.self_s": float(self_s[ids[n]]) for n in SELF_S})
        for metric, prefix in LAYER_SELF_S.items():
            out[metric] = float(sum(self_s[i] for n, i in ids.items()
                                    if n.startswith(prefix)))
        out["params.layer_builds"] = self.counts["params.layer_builds"]
        rounds = dur[name == ids["federation.run_round"]]
        out["federation.run_round.p90_ms"] = (
            float(np.percentile(rounds, 90)) * 1e3 if rounds.size else 0.0)
        out["federation.divergence_errors"] = self.errors[
            ("federation.local_train", "DivergenceError")]
        return out
