"""Span recording for the traced benchmark run, plus output taps.

Both work by swapping a module attribute for a wrapper, at the place
where the caller looks the function up (``crfqp.evaluate.solve`` is the
``solve`` that ``evaluate_scene`` calls).  Nothing inside ``src/`` is
edited; uninstalling puts the original attributes back.

A span is one call: ``(name, unit, parent, start, end, counters)``.
``unit`` names the request (or set-up step) the call belongs to, and
``parent`` is the index of the enclosing span.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the time
its direct children cover; since calls nest on one thread, the self
times of one unit's spans add up to the duration of its root span.
"""

import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from functools import wraps

# Every benchmark time is CPU time of the benchmark process.  The
# workloads run on one thread with BLAS capped at one thread, so this is
# wall time minus the time the host takes the CPU away from the process,
# which on a shared machine is the largest source of run-to-run noise.
CLOCK = time.process_time
_clock = CLOCK


def _solve_counts(args, kwargs, result):
    graph = args[0]
    report = result[1]
    e, k = graph.num_edges, graph.num_labels
    dim = graph.num_nodes * k
    nnz = 2 * e * k * k
    # One CSR matvec reads 8 + 4 bytes per stored entry, the row
    # pointers and the input vector, and writes the output vector.
    matvec_bytes = 12 * nnz + 4 * (dim + 1) + 16 * dim
    return {
        "iterations": report.iterations,
        "converged": int(report.converged),
        "calls": 1,
        "operator_nnz": nnz,
        "matvec_bytes": (report.iterations + 1) * matvec_bytes,
    }


def _lbp_counts(args, kwargs, result):
    graph = args[0]
    report = result[1]
    k = graph.num_labels
    return {
        "iterations": report.iterations,
        "converged": int(report.converged),
        "calls": 1,
        "message_flops": 2 * graph.num_edges * k * k,
    }


def _reduce_counts(args, kwargs, result):
    graph = args[0]
    return {
        "supernodes": result.super_graph.num_nodes,
        "super_edges": result.super_graph.num_edges,
        "nodes": graph.num_nodes,
    }


def _ground_counts(args, kwargs, result):
    return {"points": len(args[0]), "points_kept": len(result[1])}


def _save_counts(args, kwargs, result):
    return {"file_bytes": os.path.getsize(args[1])}


# (module, attribute, span name, counter function).  Every entry is a
# call site inside crfqp, or a function the benchmark itself calls
# through its module.
TRACE_POINTS = (
    ("crfqp.synthetic", "generate_scene", "synthetic.generate_scene", None),
    (
        "crfqp.synthetic",
        "build_edges",
        "potentials.build_edges",
        lambda a, k, r: {"edges": len(r)},
    ),
    ("crfqp.synthetic", "edge_dissimilarities", "potentials.edge_dissimilarities", None),
    ("crfqp.synthetic", "CrfGraph", "core.crfgraph", None),
    ("crfqp.reduction", "CrfGraph", "core.crfgraph", None),
    ("crfqp.problem_io", "CrfGraph", "core.crfgraph", None),
    ("crfqp.evaluate", "evaluate_scene", "evaluate.evaluate_scene", None),
    ("crfqp.evaluate", "solve", "solver.solve", _solve_counts),
    ("crfqp.evaluate", "solve_constrained", "solver.solve_constrained", None),
    ("crfqp.evaluate", "lbp_map", "baselines.lbp_map", _lbp_counts),
    (
        "crfqp.evaluate",
        "build_constraint_sets",
        "cloud.build_constraint_sets",
        lambda a, k, r: {"sets": len(r)},
    ),
    ("crfqp.evaluate", "compute_metrics", "metrics.compute_metrics", None),
    ("crfqp.evaluate", "objective_of_labeling", "core.objective_of_labeling", None),
    ("crfqp.cloud", "remove_ground_plane", "cloud.remove_ground_plane", _ground_counts),
    (
        "crfqp.cloud",
        "euclidean_cluster",
        "cloud.euclidean_cluster",
        lambda a, k, r: {"clusters": len(r)},
    ),
    ("crfqp.solver", "solve", "solver.solve", _solve_counts),
    ("crfqp.solver", "solve_constrained", "solver.solve_constrained", None),
    ("crfqp.solver", "iterate", "solver.iterate", None),
    ("crfqp.solver", "shift_to_floor", "solver.shift_to_floor", None),
    ("crfqp.solver", "reduce_problem", "reduction.reduce_problem", _reduce_counts),
    ("crfqp.solver", "expand_solution", "reduction.expand_solution", None),
    ("crfqp.baselines", "lbp_map", "baselines.lbp_map", _lbp_counts),
    ("crfqp.baselines", "shift_to_floor", "solver.shift_to_floor", None),
    ("crfqp.baselines", "objective_of_labeling", "core.objective_of_labeling", None),
    ("crfqp.problem_io", "save_problem", "problem_io.save_problem", _save_counts),
    ("crfqp.cli", "load_problem", "problem_io.load_problem", None),
    ("crfqp.cli", "solve", "solver.solve", _solve_counts),
    ("crfqp.cli", "solve_constrained", "solver.solve_constrained", None),
    ("crfqp.cli", "lbp_map", "baselines.lbp_map", _lbp_counts),
    ("crfqp.cli", "objective_of_labeling", "core.objective_of_labeling", None),
    ("crfqp.cli", "main", "cli.solve", None),
)


class _Patches:
    """Module attributes swapped for wrappers, restored in reverse."""

    def __init__(self):
        self._saved = []

    def swap(self, module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, make_wrapper(original))
        self._saved.append((module, attr, original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """Records a span around every call made through ``TRACE_POINTS``
    while installed, and a root span per request or set-up step."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._unit = None
        self._patches = _Patches()

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            record = [name, self._unit, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[3] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = _clock()
                stack.pop()
            if counts is not None:
                record[5] = counts(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name, counts in TRACE_POINTS:
            self._patches.swap(
                module_name, attr, lambda fn, n=name, c=counts: self._wrap(n, fn, c)
            )

    def uninstall(self):
        self._patches.restore()

    @contextmanager
    def unit(self, unit_id, root_name):
        """Root span of one request or set-up step."""
        self._unit = unit_id
        record = [root_name, unit_id, -1, 0.0, 0.0, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[3] = _clock()
        try:
            yield
        finally:
            record[4] = _clock()
            self._stack.pop()
            self._unit = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "unit", "parent", "start", "end", "counters"],
                    "spans": self.spans,
                },
                handle,
            )


class Tap:
    """Keeps what chosen library calls return, and how long they took,
    so the benchmark can check outputs its caller does not hand back."""

    POINTS = (
        ("crfqp.evaluate", "solve", "qp"),
        ("crfqp.evaluate", "solve_constrained", "cqp"),
        ("crfqp.evaluate", "lbp_map", "lbp"),
        ("crfqp.evaluate", "build_constraint_sets", "sets"),
        ("crfqp.cli", "solve", "qp"),
        ("crfqp.cli", "solve_constrained", "cqp"),
        ("crfqp.cli", "lbp_map", "lbp"),
        ("crfqp.solver", "reduce_problem", "reduce"),
    )

    def __init__(self):
        self.calls = {}
        self._patches = _Patches()

    def _wrap(self, key, fn):
        @wraps(fn)
        def tapped(*args, **kwargs):
            start = _clock()
            result = fn(*args, **kwargs)
            self.calls.setdefault(key, []).append((result, _clock() - start))
            return result

        return tapped

    def install(self):
        for module_name, attr, key in self.POINTS:
            self._patches.swap(
                module_name, attr, lambda fn, k=key: self._wrap(k, fn)
            )

    def uninstall(self):
        self._patches.restore()

    def take(self):
        calls, self.calls = self.calls, {}
        return calls


def self_times(spans):
    """Self time of every span, in span order."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans, request_root, setup_root, scale=1.0):
    """Per-layer figures from one traced pass.

    Each span name is summed per unit (a request, or a set-up step for
    layers that run only in set-up), then the median over units is
    taken.  Times are in ms, those of requests multiplied by ``scale``;
    counters are summed the same way.
    """
    own = self_times(spans)
    units = {}
    for span, self_s in zip(spans, own):
        unit = units.setdefault(
            span[1], {"root": None, "spans": 0, "total": {}, "self": {}, "counts": {}}
        )
        unit["spans"] += 1
        if span[2] < 0:
            unit["root"] = span
        name = span[0]
        unit["total"][name] = unit["total"].get(name, 0.0) + (span[4] - span[3])
        unit["self"][name] = unit["self"].get(name, 0.0) + self_s
        for key, value in (span[5] or {}).items():
            counts = unit["counts"].setdefault(name, {})
            counts[key] = counts.get(key, 0) + value

    requests = [u for u in units.values() if u["root"][0] == request_root]
    setups = [u for u in units.values() if u["root"][0] == setup_root]

    def pool(name):
        inside = [u for u in requests if name in u["total"]]
        return requests if inside else [u for u in setups if name in u["total"]]

    def ms(name):
        """Seconds to reported ms for spans of ``name``."""
        inside = any(name in u["total"] for u in requests)
        return 1e3 * (scale if inside else 1.0)

    def total_ms(name):
        return _median([ms(name) * u["total"].get(name, 0.0) for u in pool(name)])

    def self_ms(name):
        return _median([ms(name) * u["self"].get(name, 0.0) for u in pool(name)])

    def count(name, key):
        return _median([u["counts"].get(name, {}).get(key, 0) for u in pool(name)])

    def ratio(name, num, den):
        values = []
        for u in pool(name):
            c = u["counts"].get(name, {})
            if c.get(den):
                values.append(c.get(num, 0) / c[den])
        return _median(values)

    def frac(name, key):
        hits = sum(u["counts"].get(name, {}).get(key, 0) for u in pool(name))
        calls = sum(u["counts"].get(name, {}).get("calls", 0) for u in pool(name))
        return hits / calls if calls else 0.0

    def per_iter_ms(name):
        values = []
        for u in pool(name):
            its = u["counts"].get(name, {}).get("iterations", 0)
            if its:
                values.append(ms(name) * u["total"][name] / its)
        return _median(values)

    residual = 0.0
    for unit in units.values():
        root = unit["root"]
        covered = sum(unit["self"].values())
        residual = max(residual, abs((root[4] - root[3]) - covered))

    out = {
        "synthetic.generate_scene_ms": total_ms("synthetic.generate_scene"),
        "potentials.build_edges_ms": total_ms("potentials.build_edges"),
        "potentials.edge_dissimilarities_ms": total_ms("potentials.edge_dissimilarities"),
        "potentials.edges": count("potentials.build_edges", "edges"),
        "core.crfgraph_ms": total_ms("core.crfgraph"),
        "core.objective_of_labeling_ms": total_ms("core.objective_of_labeling"),
        "cloud.build_constraint_sets_ms": total_ms("cloud.build_constraint_sets"),
        "cloud.remove_ground_plane_ms": total_ms("cloud.remove_ground_plane"),
        "cloud.euclidean_cluster_ms": total_ms("cloud.euclidean_cluster"),
        "cloud.points": count("cloud.remove_ground_plane", "points"),
        "cloud.points_kept": count("cloud.remove_ground_plane", "points_kept"),
        "cloud.clusters": count("cloud.euclidean_cluster", "clusters"),
        "cloud.sets": count("cloud.build_constraint_sets", "sets"),
        "reduction.reduce_problem_ms": total_ms("reduction.reduce_problem"),
        "reduction.expand_solution_ms": total_ms("reduction.expand_solution"),
        "reduction.supernodes": count("reduction.reduce_problem", "supernodes"),
        "reduction.super_edges": count("reduction.reduce_problem", "super_edges"),
        "reduction.var_ratio": ratio("reduction.reduce_problem", "supernodes", "nodes"),
        "solver.solve_ms": total_ms("solver.solve"),
        "solver.solve_self_ms": self_ms("solver.solve"),
        "solver.iterations": count("solver.solve", "iterations"),
        "solver.ms_per_iter": per_iter_ms("solver.solve"),
        "solver.shift_to_floor_ms": total_ms("solver.shift_to_floor"),
        "solver.iterate_ms": total_ms("solver.iterate"),
        "solver.converged_frac": frac("solver.solve", "converged"),
        "solver.operator_nnz": count("solver.solve", "operator_nnz"),
        "solver.matvec_bytes": count("solver.solve", "matvec_bytes"),
        "baselines.lbp_map_ms": total_ms("baselines.lbp_map"),
        "baselines.lbp_iterations": count("baselines.lbp_map", "iterations"),
        "baselines.lbp_converged_frac": frac("baselines.lbp_map", "converged"),
        "baselines.message_flops": count("baselines.lbp_map", "message_flops"),
        "evaluate.evaluate_scene_ms": total_ms("evaluate.evaluate_scene"),
        "evaluate.evaluate_scene_self_ms": self_ms("evaluate.evaluate_scene"),
        "metrics.compute_metrics_ms": total_ms("metrics.compute_metrics"),
        "problem_io.save_problem_ms": total_ms("problem_io.save_problem"),
        "problem_io.load_problem_ms": total_ms("problem_io.load_problem"),
        "problem_io.file_bytes": count("problem_io.save_problem", "file_bytes"),
        "cli.solve_ms": total_ms("cli.solve"),
        "cli.solve_self_ms": self_ms("cli.solve"),
        "request.total_ms": total_ms(request_root),
        "request.self_ms": self_ms(request_root),
        "trace.selftime_residual_ms": 1e3 * residual,
        "trace.spans_per_request": _median([u["spans"] for u in requests]),
    }
    return out


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_flops"):
        return "flop"
    return "count"


PER_LAYER = (
    "synthetic.generate_scene_ms",
    "potentials.build_edges_ms",
    "potentials.edge_dissimilarities_ms",
    "potentials.edges",
    "core.crfgraph_ms",
    "core.objective_of_labeling_ms",
    "cloud.build_constraint_sets_ms",
    "cloud.remove_ground_plane_ms",
    "cloud.euclidean_cluster_ms",
    "cloud.points",
    "cloud.points_kept",
    "cloud.clusters",
    "cloud.sets",
    "reduction.reduce_problem_ms",
    "reduction.expand_solution_ms",
    "reduction.supernodes",
    "reduction.super_edges",
    "reduction.var_ratio",
    "solver.solve_ms",
    "solver.solve_self_ms",
    "solver.iterations",
    "solver.ms_per_iter",
    "solver.shift_to_floor_ms",
    "solver.iterate_ms",
    "solver.converged_frac",
    "solver.operator_nnz",
    "solver.matvec_bytes",
    "baselines.lbp_map_ms",
    "baselines.lbp_iterations",
    "baselines.lbp_converged_frac",
    "baselines.message_flops",
    "evaluate.evaluate_scene_ms",
    "evaluate.evaluate_scene_self_ms",
    "metrics.compute_metrics_ms",
    "problem_io.save_problem_ms",
    "problem_io.load_problem_ms",
    "problem_io.file_bytes",
    "cli.solve_ms",
    "cli.solve_self_ms",
    "request.total_ms",
    "request.self_ms",
    "trace.selftime_residual_ms",
    "trace.spans_per_request",
    "trace.untraced_requests_per_s",
    "trace.traced_requests_per_s",
    "trace.overhead_pct",
)
UNITS = {name: _unit(name) for name in PER_LAYER}
UNITS["solver.ms_per_iter"] = "ms"
