"""Method comparison harness for planted scenes.

Runs the standard four decoders (unary argmax, loopy max-sum, the
relaxed QP, and the constrained QP fed by cloud-derived constraint
sets) against a scene's ground truth and scores each with macro
segmentation metrics.
"""

import time
from dataclasses import dataclass

import numpy as np

from .baselines import lbp_map
from .cloud import CloudParams, build_constraint_sets
from .core import extract_labeling, objective_of_labeling
from .metrics import MetricsReport, compute_metrics
from .solver import SolverConfig, solve, solve_constrained

__all__ = ["evaluate_scene", "summarize_reports"]

METHODS = ("unary", "lbp", "qp", "cqp")


@dataclass(frozen=True)
class MethodResult:
    method: str
    labeling: np.ndarray
    metrics: MetricsReport
    objective: float
    wall_time: float
    iterations: int


def _score(scene, method, labeling, wall, iterations):
    return MethodResult(
        method=method,
        labeling=labeling,
        metrics=compute_metrics(scene.true_labels, labeling, scene.num_labels),
        objective=objective_of_labeling(scene.graph, scene.potentials, labeling),
        wall_time=wall,
        iterations=iterations,
    )


def evaluate_scene(scene, methods=METHODS, solver_config=None, constraint_sets=None):
    """Run the requested methods on one scene.

    Constraint sets for "cqp" default to the full cloud pipeline on the
    scene's synthetic point cloud; pass `constraint_sets` to override.
    Returns {method: MethodResult}.
    """
    config = solver_config or SolverConfig()
    results = {}
    for method in methods:
        start = time.perf_counter()
        if method == "unary":
            labeling = np.argmax(scene.potentials.unary, axis=1)
            iterations = 0
        elif method == "lbp":
            labeling, report = lbp_map(scene.graph, scene.potentials)
            iterations = report.iterations
        elif method == "qp":
            marginals, report = solve(scene.graph, scene.potentials, config)
            labeling = extract_labeling(marginals)
            iterations = report.iterations
        elif method == "cqp":
            sets = constraint_sets
            if sets is None:
                params = CloudParams(rng_seed=scene.seed)
                sets = build_constraint_sets(scene.cloud, params, scene.projection)
            _, labeling, report = solve_constrained(
                scene.graph, scene.potentials, sets, config
            )
            iterations = report.iterations
        else:
            raise ValueError(f"unknown method {method!r}")
        wall = time.perf_counter() - start
        results[method] = _score(scene, method, labeling, wall, iterations)
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
