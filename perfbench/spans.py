"""Span tracing of canids' public functions, from outside the package.

A traced run replaces each function in ``LAYERS`` with a timing wrapper in
every ``canids`` module that binds it (``from .x import f`` copies count), so
calls between modules are caught too, and in ``tests/helpers.py``, which
builds the traffic. No program file changes.

Each wrapped call records one span: name, start, end, parent span and run id
(the setup or iteration it belongs to). Spans live in flat arrays in memory and
are written out once, at the end of the run. A span's self time is its
duration minus the durations of its direct children; since children nest
inside their parent, the self times of all spans in a run add up to the time
covered by its root spans, and whatever the run's wall time leaves over is
reported as unattributed.

Observers attached to some functions record counts (graphs built, nodes,
adjacency bytes and fill, floats checked, graph-steps) at the same boundary.
Their cost falls inside the span they observe.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from canids import can_log, cli, evaluate, gcn, graph_builder, kernel, traffic_synth

# The dense adjacency takes part in A @ X and A @ H1 forward (2 and HIDDEN
# columns) and in A^T @ (dZ2 W2^T) backward (HIDDEN columns).
FORWARD_ADJ_COLUMNS = gcn.IN_FEATURES + gcn.HIDDEN
BACKWARD_ADJ_COLUMNS = gcn.HIDDEN


def _obs_graph(counters, args, kwargs, result):
    counters["graph_builder.windows"] += 1
    counters.setdefault("nodes", []).append(result.num_nodes)


def _obs_assemble(counters, args, kwargs, result):
    prepared = args[0] if args else kwargs["prepared"]
    n = result.adjacency.shape[0]
    counters["graph_builder.adj_bytes"] += n * n * result.adjacency.itemsize
    counters["adj_entries"] += n * n
    counters["adj_nonzero"] += sum(int(np.count_nonzero(adj)) for adj, _, _ in prepared)


def _obs_check_finite(counters, args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    counters["kernel.check_finite_bytes"] += m.nbytes


def _obs_forward(counters, args, kwargs, result):
    batch = args[0] if args else kwargs["batch"]
    n = batch.adjacency.shape[0]
    counters["gcn.forward_calls"] += 1
    counters["gcn.adj_matmul_flops"] += 2 * n * n * FORWARD_ADJ_COLUMNS
    training = (args[2] if len(args) > 2 else kwargs.get("rng")) is not None
    if training:
        counters["graph_steps"] += batch.num_graphs
    else:
        counters["inference_forwards"] += 1
        counters["inference_graphs"] += batch.num_graphs


def _obs_backward(counters, args, kwargs, result):
    cache = args[0] if args else kwargs["cache"]
    n = cache.adjacency.shape[0]
    counters["gcn.adj_matmul_flops"] += 2 * n * n * BACKWARD_ADJ_COLUMNS


# layer metric -> [(module, function, observer)]; each span's self time goes
# to the layer metric of its function.
LAYERS: dict[str, list[tuple[object, str, object]]] = {
    "can_log.parse_s": [(can_log, "parse_log", None), (can_log, "parse_line", None)],
    "can_log.serialize_s": [(can_log, "serialize_frame", None)],
    "traffic_synth.generate_s": [(traffic_synth, "generate_normal", None)],
    "traffic_synth.inject_s": [
        (traffic_synth, name, None)
        for name in ("mix_attacks", "inject", "inject_dos", "inject_fuzzy",
                     "inject_spoofing", "inject_replay")
    ],
    "graph_builder.build_s": [
        (graph_builder, "graphs_from_frames", None),
        (graph_builder, "build_windows", None),
        (graph_builder, "build_graph", None),
        (graph_builder, "graph_from_ids", _obs_graph),
    ],
    "graph_builder.prepare_s": [
        (graph_builder, name, None)
        for name in ("batch_graphs", "prepare_graph", "conv_adjacency", "node_features")
    ],
    "graph_builder.assemble_s": [(graph_builder, "assemble_batch", _obs_assemble)],
    "kernel.check_finite_s": [(kernel, "check_finite", _obs_check_finite)],
    "kernel.segment_mean_s": [(kernel, "segment_mean", None)],
    "kernel.softmax_rows_s": [(kernel, "softmax_rows", None)],
    "kernel.dropout_mask_s": [(kernel, "dropout_mask", None)],
    "gcn.forward_s": [(gcn, "forward", _obs_forward)],
    "gcn.backward_s": [(gcn, "backward", _obs_backward)],
    "gcn.train_self_s": [(gcn, "train", None)],
    "gcn.predict_s": [(gcn, "predict", None), (gcn, "predict_many", None)],
    "evaluate.score_s": [
        (evaluate, name, None) for name in ("scenario_report", "confusion", "metrics")
    ],
    "cli.detect_self_s": [(cli, "main", None)],
}

COUNT_METRICS = (
    "can_log.rejected_lines", "graph_builder.windows", "graph_builder.adj_bytes",
    "kernel.check_finite_bytes", "gcn.forward_calls", "gcn.adj_matmul_flops",
    "cli.verdicts",
)

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYERS},
    "can_log.lines_per_s": "lines/s",
    "can_log.rejected_lines": "count",
    "graph_builder.windows": "count",
    "graph_builder.nodes_p50": "nodes",
    "graph_builder.nodes_max": "nodes",
    "graph_builder.adj_bytes": "bytes",
    "graph_builder.adj_fill": "ratio",
    "kernel.check_finite_bytes": "bytes",
    "gcn.forward_calls": "count",
    "gcn.graph_steps_per_s": "1/s",
    "gcn.adj_matmul_flops": "flop",
    "gcn.graphs_per_forward": "graphs",
    "cli.verdicts": "count",
    "bench.trace_overhead_frac": "ratio",
    "bench.unattributed_s": "s",
    "bench.traced_wall_s": "s",
}


def _patched(module_name: str) -> bool:
    """canids' own modules, plus tests/helpers.py, which builds the
    benchmark's traffic from functions it imports by name."""
    return module_name.split(".")[0] == "canids" or module_name == "helpers"


class Tracer:
    """Span store plus the function patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.stack = [-1]
        self.run_id = -1
        self.runs: list[tuple[str, float, float]] = []   # (phase, start, end)
        self.counters: list[defaultdict] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for layer, funcs in LAYERS.items():
            for module, fname, observer in funcs:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{module.__name__}.{fname}", layer, original, observer)
                for mod in [m for n, m in sys.modules.items() if _patched(n)]:
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, span_name, layer, fn, observer):
        name_id = len(self.names)
        self.names.append(span_name)
        self.layer_of.append(layer)
        starts, ends, names, parents, runs, stack = (
            self.start, self.end, self.name, self.parent, self.run, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            names.append(name_id)
            parents.append(stack[-1])
            runs.append(self.run_id)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observer is not None:
                    observer(self.counters[self.run_id], args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def begin(self, phase: str) -> None:
        """Open a new run (one set-up or one pass) and install the wrappers."""
        self.run_id = len(self.runs)
        self.runs.append((phase, perf_counter(), 0.0))
        self.counters.append(defaultdict(int))
        self.install()

    def finish(self) -> None:
        self.uninstall()
        phase, t0, _ = self.runs[self.run_id]
        self.runs[self.run_id] = (phase, t0, perf_counter())

    def layer_times(self) -> list[dict[str, float]]:
        """Per run: self time of each layer plus the unattributed residual."""
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent)
        run = np.array(self.run)
        name = np.array(self.name)
        child_time = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        per_name = np.zeros((len(self.runs), len(self.names)))
        np.add.at(per_name, (run, name), self_time)
        root_time = np.bincount(run[~has_parent], weights=dur[~has_parent],
                                minlength=len(self.runs))
        out = []
        for r, (_, t0, t1) in enumerate(self.runs):
            layers = dict.fromkeys(LAYERS, 0.0)
            for n, layer in enumerate(self.layer_of):
                layers[layer] += per_name[r, n]
            wall = t1 - t0
            layers["bench.traced_wall_s"] = wall
            layers["bench.unattributed_s"] = wall - root_time[r]
            # self times partition the root spans exactly; check the books close
            if abs(sum(layers[k] for k in LAYERS) - root_time[r]) > 1e-6 * max(1.0, wall):
                raise RuntimeError("layer self times do not add up to the root spans")
            out.append(layers)
        return out

    def span_totals(self, span_name: str) -> np.ndarray:
        """Per run: summed duration of the spans of one function."""
        name_id = self.names.index(span_name)
        pick = np.array(self.name) == name_id
        dur = np.array(self.end)[pick] - np.array(self.start)[pick]
        return np.bincount(np.array(self.run)[pick], weights=dur, minlength=len(self.runs))

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.array(self.start),
            end=np.array(self.end),
            name=np.array(self.name),
            parent=np.array(self.parent),
            run=np.array(self.run),
            run_phase=np.array([p for p, _, _ in self.runs]),
            run_start=np.array([t0 for _, t0, _ in self.runs]),
            run_end=np.array([t1 for _, _, t1 in self.runs]),
        )


def per_layer(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics for one set-up plus one iteration.

    Times are the mean over the traced runs of each phase, summed over the
    phases; counts must be identical across the runs of a phase.
    """
    problems = []
    times = tracer.layer_times()
    train_total = tracer.span_totals("canids.gcn.train")
    time_keys = [*LAYERS, "bench.unattributed_s", "bench.traced_wall_s"]
    sums = dict.fromkeys(time_keys, 0.0)
    counts: dict[str, float] = defaultdict(int)
    train_s = 0.0
    nodes: list[int] = []
    for phase in ("setup", "iteration"):
        ids = [r for r, (p, _, _) in enumerate(tracer.runs) if p == phase]
        if not ids:
            problems.append(f"no traced {phase} completed")
            continue
        for key in time_keys:
            sums[key] += statistics.fmean(times[r][key] for r in ids)
        train_s += statistics.fmean(train_total[r] for r in ids)
        first = tracer.counters[ids[0]]
        for r in ids[1:]:
            if tracer.counters[r] != first:
                problems.append(f"counts differ between traced {phase} runs of one seed")
        for key, value in first.items():
            if key != "nodes":
                counts[key] += value
        if phase == "iteration":
            nodes = first.get("nodes", [])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {key: sums[key] for key in LAYERS}
    m["can_log.lines_per_s"] = ratio(counts["parsed_lines"], m["can_log.parse_s"])
    m["graph_builder.nodes_p50"] = float(np.median(nodes)) if nodes else 0.0
    m["graph_builder.nodes_max"] = float(max(nodes)) if nodes else 0.0
    m["graph_builder.adj_fill"] = ratio(counts["adj_nonzero"], counts["adj_entries"])
    m["gcn.graph_steps_per_s"] = ratio(counts["graph_steps"], train_s)
    m["gcn.graphs_per_forward"] = ratio(counts["inference_graphs"], counts["inference_forwards"])
    for key in COUNT_METRICS:
        m[key] = counts[key]
    m["bench.unattributed_s"] = sums["bench.unattributed_s"]
    m["bench.traced_wall_s"] = sums["bench.traced_wall_s"]
    if m["bench.unattributed_s"] < -1e-6:
        problems.append("layer self times exceed the traced wall time")
    return m, problems
