"""The public surface: which names `crfqp` exports, where each one is
defined, and that the benchmark's patch points still resolve and see
every decoder call."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import crfqp
import crfqp.cli as cli
import crfqp.solver as solver
from crfqp import (
    ConstraintSets,
    ProblemFile,
    SolverConfig,
    evaluate_scene,
    generate_scene,
    load_problem,
    save_problem,
)
from helpers import random_instance

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


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_patch_points_resolve():
    spans = _load_spans()
    points = [p[:2] for p in spans.TRACE_POINTS] + [p[:2] for p in spans.Tap.POINTS]
    assert points
    for module_name, attr in points:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_each_decoder_call_passes_one_benchmark_tap(tmp_path):
    # The benchmark's checks take exactly one tapped call per key from a
    # request (`_only` in perfbench/workloads.py).
    problem = tmp_path / "p.json"
    synth = ["synth", "--width", "12", "--height", "10", "--objects", "2"]
    assert cli.main(synth + ["--labels", "4", "--seed", "3", "--out", str(problem)]) == 0
    scene = generate_scene(width=12, height=10, num_objects=2, num_labels=4, seed=3)
    tap = _load_spans().Tap()
    tap.install()
    try:
        for solver in ("qp", "cqp", "lbp"):
            labels = str(tmp_path / f"{solver}.labels")
            argv = ["solve", str(problem), "--solver", solver, "--output", labels]
            assert cli.main(argv + ["--max-iters", "20"]) == 0
        from_cli = tap.take()
        evaluate_scene(scene, solver_config=SolverConfig(max_iterations=20))
        from_scene = tap.take()
    finally:
        tap.uninstall()
    counts = {key: len(calls) for key, calls in from_cli.items()}
    assert counts == {"qp": 1, "cqp": 1, "lbp": 1, "reduce": 1}
    counts = {key: len(calls) for key, calls in from_scene.items()}
    assert counts == {"qp": 1, "cqp": 1, "lbp": 1, "sets": 1, "reduce": 1}


def test_each_decoder_call_shifts_once(tmp_path, monkeypatch):
    # The benchmark times `solver.shift_to_floor` as its own layer, so
    # every decoder must shift through it, on Potts and general input.
    potts = tmp_path / "potts.json"
    synth = ["synth", "--width", "12", "--height", "10", "--objects", "2"]
    assert cli.main(synth + ["--labels", "4", "--seed", "3", "--out", str(potts)]) == 0
    graph, pot = random_instance(np.random.default_rng(2), 30, 4, edge_prob=0.2)
    general = tmp_path / "general.json"
    save_problem(ProblemFile(graph, pot, ConstraintSets([(0, 1, 2)]), None), general)
    shift, calls = solver.shift_to_floor, []

    def counted(*args):
        calls.append(args)
        return shift(*args)

    monkeypatch.setattr(solver, "shift_to_floor", counted)
    for path, is_potts in ((potts, True), (general, False)):
        assert (load_problem(path).potentials.potts is not None) == is_potts
        for name in ("qp", "cqp", "lbp"):
            calls.clear()
            argv = ["solve", str(path), "--solver", name, "--max-iters", "5"]
            assert cli.main(argv + ["--output", str(tmp_path / "x.labels")]) == 0
            assert len(calls) == 1, (path.name, name)
