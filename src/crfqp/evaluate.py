"""Method comparison harness for planted scenes, and the decoder
registry that it, the CLI and the runtime benchmark share.

Runs the standard four decoders (unary argmax, loopy max-sum, the
relaxed QP, and the constrained QP fed by cloud-derived constraint
sets) against a scene's ground truth and scores each with macro
segmentation metrics.
"""

from dataclasses import dataclass

import numpy as np

from .baselines import brute_force_map, lbp_map
from .cloud import CloudParams, build_constraint_sets
from .core import extract_labeling, objective_of_labeling
from .metrics import MetricsReport, compute_metrics
from .solver import SolverConfig, solve, solve_constrained

__all__ = ["evaluate_scene", "summarize_reports"]

METHODS = ("unary", "lbp", "qp", "cqp")


def _qp(graph, potentials, sets, config):
    marginals, report = solve(graph, potentials, config)
    return extract_labeling(marginals), report


# (graph, potentials, sets, config) -> (labeling, report).  Entries look
# their solver up here when called, so the benchmark's taps see each call.
DECODERS = {
    "unary": lambda g, p, s, c: (np.argmax(p.unary, axis=1), None),
    "lbp": lambda g, p, s, c: lbp_map(g, p),
    "qp": _qp,
    "cqp": lambda g, p, s, c: solve_constrained(g, p, s, c)[1:],
    "brute": lambda g, p, s, c: (brute_force_map(g, p)[0], None),
}


def decode(method, graph, potentials, constraint_sets, config):
    """Run decoder `method` (only cqp reads `constraint_sets`); returns
    (labeling, report), report None for unary and brute."""
    if method not in DECODERS:
        raise ValueError(f"unknown method {method!r}")
    return DECODERS[method](graph, potentials, constraint_sets, config)


@dataclass(frozen=True)
class MethodResult:
    method: str
    labeling: np.ndarray
    metrics: MetricsReport
    objective: float
    iterations: int


def evaluate_scene(scene, methods=METHODS, solver_config=None, constraint_sets=None):
    """Run the requested methods on one scene.

    Constraint sets for "cqp" default to the full cloud pipeline on the
    scene's synthetic point cloud; pass `constraint_sets` to override.
    Returns {method: MethodResult}.
    """
    config = solver_config or SolverConfig()
    sets = constraint_sets
    results = {}
    for method in methods:
        if sets is None and method == "cqp":
            params = CloudParams(rng_seed=scene.seed)
            sets = build_constraint_sets(scene.cloud, params, scene.projection)
        labeling, report = decode(method, scene.graph, scene.potentials, sets, config)
        results[method] = MethodResult(
            method=method,
            labeling=labeling,
            metrics=compute_metrics(scene.true_labels, labeling, scene.num_labels),
            objective=objective_of_labeling(scene.graph, scene.potentials, labeling),
            iterations=0 if report is None else report.iterations,
        )
    return results


def summarize_reports(reports_by_method):
    """Aggregate per-scene metric reports into a mean +/- std table.

    `reports_by_method` maps method name to a list of MetricsReport.
    Returns the formatted table as a string, columns ordered precision,
    recall, accuracy, F1.
    """
    columns = ("precision", "recall", "accuracy", "f1")
    header = f"{'method':<8}" + "".join(f"{c.capitalize():>20}" for c in columns)
    lines = [header]
    for method, reports in reports_by_method.items():
        cells = [f"{method:<8}"]
        for col in columns:
            values = np.array([getattr(r, f"macro_{col}") for r in reports])
            cells.append(f"{values.mean():>12.4f} +/- {values.std():.3f}")
        lines.append("".join(cells))
    return "\n".join(lines)
