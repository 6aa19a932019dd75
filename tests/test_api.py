"""The public surface: which names `crfqp` exports, where each one is
defined, and that the benchmark's patch points still resolve."""

import importlib
import importlib.util
from pathlib import Path

import crfqp

# Module -> the public names its `__all__` declares.
PUBLIC = {
    "baselines": {"brute_force_map", "lbp_map"},
    "bench": {"run_benchmark", "rows_to_csv", "speedup_summary"},
    "cloud": {
        "CloudParams",
        "NodeProjection",
        "remove_ground_plane",
        "euclidean_cluster",
        "build_constraint_sets",
    },
    "core": {"CrfGraph", "Potentials", "objective_of_labeling", "extract_labeling"},
    "evaluate": {"evaluate_scene", "summarize_reports"},
    "metrics": {"compute_metrics"},
    "potentials": {"bhattacharyya_distance"},
    "problem_io": {"ProblemFile", "load_problem", "save_problem"},
    "reduction": {
        "ConstraintSets",
        "build_constraint_matrix",
        "expansion_operator",
        "reduce_problem",
    },
    "solver": {
        "SolverConfig",
        "SolverFailure",
        "compute_gradient",
        "solve",
        "solve_constrained",
    },
    "synthetic": {"generate_scene"},
}

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_public_surface_is_pinned():
    names = crfqp.__all__
    assert len(names) == len(set(names)) == 31
    assert set(names) == set().union(*PUBLIC.values())
    for name in names:
        assert hasattr(crfqp, name), name


def test_each_public_name_is_defined_where_it_is_declared():
    for module_name, expected in PUBLIC.items():
        module = importlib.import_module(f"crfqp.{module_name}")
        assert set(module.__all__) == expected, module_name
        for name in module.__all__:
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__, (module_name, name)
            assert getattr(crfqp, name) is obj


def test_benchmark_patch_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    points = [p[:2] for p in spans.TRACE_POINTS] + [p[:2] for p in spans.Tap.POINTS]
    assert points
    for module_name, attr in points:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
