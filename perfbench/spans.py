"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions and methods of the library layers
(walkgraph, evolution, bounds, optimizer, simulator) from outside: nothing
under src/ changes. Modules import functions by name (evolution imports
load_or_build_tables, optimizer imports batched_peak_search), so a
function wrapper replaces every frameless module attribute that refers to
the original object; methods are replaced on their class.

Spans are (span id, name, start, end, parent span id, run id) tuples kept
in memory; layer metrics are computed from them and from counters
recorded at the same boundaries when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("walkgraph", "evolution", "bounds", "optimizer", "simulator")

ENGINE_PREFIX = {
    "CoopEngine": "evolution.coop",
    "NoncoopEngine": "evolution.noncoop",
    "BoundEngine": "bounds",
}
FRAME_KINDS = {
    "run_frame": "frameless",
    "run_fixed_frame": "fixed",
    "run_spatio_temporal": "spatio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        # run id -> counter name -> value
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # --- spans ---

    def _wrap(self, qualname: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (
                    span_id, qualname, start, end, parent, tracer.run_id
                )
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def add(self, key: str, n: float = 1):
        self.counts[self.run_id][key] += n

    # --- installation ---

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import frameless  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "frameless"]
        for layer in LAYERS:
            mod = sys.modules[f"frameless.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(f"{layer}.{name}", obj, _HOOKS.get(name))
                    for other in modules:
                        for attr, val in list(vars(other).items()):
                            if val is obj:
                                self._patches.append((other, attr, val))
                                setattr(other, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls):
        for name, member in list(vars(cls).items()):
            if not isinstance(member, types.FunctionType):
                continue
            if name.startswith("_") and name != "__init__":
                continue
            if name == "__init__" and dataclasses.is_dataclass(cls):
                continue
            key = f"{cls.__name__}.{name}"
            self._patches.append((cls, name, member))
            setattr(cls, name, self._wrap(f"{layer}.{key}", member, _HOOKS.get(key)))

    def uninstall(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    # --- results ---

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            out[sid] = end - start
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics for one set-up followed by one operation.

        Counts and times recorded under run id "setup" are taken whole;
        those of the traced operations are averaged over n_ops.
        """
        op_weight = 1.0 / max(n_ops, 1)

        def weight(run_id: str) -> float:
            return 1.0 if run_id == "setup" else op_weight

        c: dict[str, float] = defaultdict(float)
        for run_id, counts in self.counts.items():
            for key, val in counts.items():
                c[key] += weight(run_id) * val
        self_t = self.self_times()
        dur_by_name: dict[str, float] = defaultdict(float)
        self_by_name: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, run_id in self.spans:
            w = weight(run_id)
            dur_by_name[name] += w * (end - start)
            self_by_name[name] += w * self_t[sid]
            layer_self[name.split(".")[0]] += w * self_t[sid]

        m: dict[str, float] = {}
        loads = c["walkgraph.table_loads"]
        m["walkgraph.tables_built"] = c["walkgraph.tables_built"]
        m["walkgraph.cache_hit_ratio"] = _ratio(c["walkgraph.cache_hits"], loads)
        m["walkgraph.build_s"] = dur_by_name["walkgraph.build_retrievability_table"]
        m["walkgraph.table_load_s"] = dur_by_name["walkgraph.load_table"]
        m["walkgraph.dag_compile_s"] = dur_by_name["walkgraph.PatternDag.__init__"]
        m["walkgraph.dag_nodes"] = c["walkgraph.dag_nodes"]
        m["walkgraph.dag_eval_calls"] = c["walkgraph.dag_eval_calls"]
        m["walkgraph.dag_eval_s"] = dur_by_name["walkgraph.PatternDag.evaluate"]
        m["walkgraph.dag_node_evals"] = c["walkgraph.dag_node_evals"]

        for cls_name, prefix in ENGINE_PREFIX.items():
            layer = prefix.split(".")[0]
            span = f"{layer}.{cls_name}.evaluate"
            rows = c[f"{prefix}.rows"]
            row_iters = c[f"{prefix}.row_iters"]
            lock = c[f"{prefix}.lockstep_iters"]
            total = dur_by_name[span]
            m[f"{prefix}.evaluate_calls"] = c[f"{prefix}.evaluate_calls"]
            m[f"{prefix}.rows"] = rows
            m[f"{prefix}.row_iters"] = row_iters
            m[f"{prefix}.lockstep_iters"] = lock
            m[f"{prefix}.nonconverged_rows"] = c[f"{prefix}.nonconverged_rows"]
            m[f"{prefix}.converged_ratio"] = _ratio(
                rows - c[f"{prefix}.nonconverged_rows"], rows
            )
            m[f"{prefix}.self_s"] = self_by_name[span]
            m[f"{prefix}.s_per_lockstep_iter"] = _ratio(total, lock)
            m[f"{prefix}.s_per_row_iter"] = _ratio(total, row_iters)

        m["evolution.points_per_peak"] = _ratio(
            c["evolution.peak_points"], c["evolution.peak_candidates"]
        )
        m["evolution.nonconverged_peaks"] = c["evolution.nonconverged_peaks"]

        runs = c["optimizer.runs"]
        requested = c["optimizer.requested"]
        m["optimizer.evals"] = c["optimizer.evals"]
        m["optimizer.cache_hit_ratio"] = (
            1.0 - _ratio(c["optimizer.evals"], requested) if requested else 0.0
        )
        m["optimizer.generation_s"] = _ratio(
            dur_by_name["optimizer.optimize"], c["optimizer.generations"] + runs
        )
        m["optimizer.self_s"] = layer_self["optimizer"]

        frameless = c["simulator.frames.frameless"]
        m["simulator.frames"] = sum(c[f"simulator.frames.{k}"] for k in FRAME_KINDS.values())
        m["simulator.slots"] = c["simulator.slots"]
        m["simulator.retrieved"] = c["simulator.retrieved"]
        for fn_name, kind in FRAME_KINDS.items():
            m[f"simulator.frame_s.{kind}"] = _ratio(
                dur_by_name[f"simulator.{fn_name}"], c[f"simulator.frames.{kind}"]
            )
        m["simulator.threshold_ratio"] = _ratio(c["simulator.threshold_frames"], frameless)

        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = layer_self[layer]
        return m

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- counter hooks, keyed by function name or Class.method ---


def _hook_load_table(tr: Tracer, args, result):
    tr.add("walkgraph.table_loads")
    if result is not None:
        tr.add("walkgraph.cache_hits")


def _hook_build_table(tr: Tracer, args, result):
    tr.add("walkgraph.tables_built")


def _hook_dag_init(tr: Tracer, args, result):
    tr.add("walkgraph.dag_nodes", args[0].num_nodes)


def _hook_dag_eval(tr: Tracer, args, result):
    dag, v = args[0], args[1]
    batch = 1
    for n in v.shape[2:]:
        batch *= n
    tr.add("walkgraph.dag_eval_calls")
    tr.add("walkgraph.dag_node_evals", dag.num_nodes * batch)


def _engine_hook(prefix: str):
    def hook(tr: Tracer, args, out):
        tr.add(f"{prefix}.evaluate_calls")
        tr.add(f"{prefix}.rows", len(out.iterations))
        tr.add(f"{prefix}.row_iters", int(out.iterations.sum()))
        tr.add(f"{prefix}.lockstep_iters", int(out.iterations.max(initial=0)))
        tr.add(f"{prefix}.nonconverged_rows", int((~out.converged).sum()))

    return hook


def _hook_batched_peak(tr: Tracer, args, seen):
    tr.add("evolution.peak_candidates", len(seen))
    tr.add("evolution.peak_points", sum(len(s) for s in seen))


def _hook_peak(tr: Tracer, args, peak):
    if not peak.converged:
        tr.add("evolution.nonconverged_peaks")


def _hook_optimize(tr: Tracer, args, result):
    spec = args[0]
    tr.add("optimizer.runs")
    tr.add("optimizer.generations", len(result.history) - 1)
    tr.add("optimizer.requested", spec.population * len(result.history))
    tr.add("optimizer.evals", result.n_evaluations)


def _frame_hook(kind: str):
    def hook(tr: Tracer, args, frame):
        tr.add(f"simulator.frames.{kind}")
        tr.add("simulator.slots", frame.t)
        tr.add("simulator.retrieved", frame.n_ret)
        if frame.terminated_by == "threshold":
            tr.add("simulator.threshold_frames")

    return hook


_HOOKS = {
    "load_table": _hook_load_table,
    "build_retrievability_table": _hook_build_table,
    "PatternDag.__init__": _hook_dag_init,
    "PatternDag.evaluate": _hook_dag_eval,
    "batched_peak_search": _hook_batched_peak,
    "peak_search": _hook_peak,
    "optimize": _hook_optimize,
    **{f"{cls}.evaluate": _engine_hook(prefix) for cls, prefix in ENGINE_PREFIX.items()},
    **{fn: _frame_hook(kind) for fn, kind in FRAME_KINDS.items()},
}
