"""crfqp: MAP labeling on pairwise graphs via a simplex-constrained
quadratic relaxation, with hard label-consistency constraints handled
by null-space reduction.

Public surface: graph/potential containers and the objective (core),
feature-based potential construction (potentials), constraint sets and
reduction (reduction), the multiplicative-update solver (solver),
reference decoders (baselines), point-cloud constraint extraction
(cloud), metrics, planted scenes (synthetic), the evaluation harness
(evaluate), the runtime benchmark (bench), and problem-file I/O
(problem_io).
"""

from .baselines import BRUTE_FORCE_LIMIT, brute_force_map, lbp_map
from .bench import (
    BenchmarkRow,
    benchmark_constraint_sets,
    constraint_prefix,
    grid_for_size,
    rows_to_csv,
    run_benchmark,
    speedup_summary,
)
from .cloud import (
    CloudParams,
    NodeProjection,
    PlaneModel,
    build_constraint_sets,
    euclidean_cluster,
    remove_ground_plane,
)
from .core import (
    CrfGraph,
    Potentials,
    check_labeling,
    check_marginals,
    extract_labeling,
    objective,
    objective_of_labeling,
    one_hot,
)
from .evaluate import METHODS, MethodResult, evaluate_scene, summarize_reports
from .metrics import MetricsReport, compute_metrics, confusion_matrix
from .potentials import (
    NodeFeatures,
    PotentialParams,
    bhattacharyya_distance,
    build_edges,
    edge_dissimilarities,
    pairwise_potential,
)
from .problem_io import (
    SCHEMA_VERSION,
    ProblemFile,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from .reduction import (
    ConstraintSets,
    ReducedProblem,
    build_constraint_matrix,
    build_null_space_operator,
    expand_solution,
    expansion_operator,
    reduce_problem,
)
from .solver import (
    ShiftOffsets,
    SolveReport,
    SolverConfig,
    SolverFailure,
    compute_gradient,
    iterate,
    shift_to_floor,
    solve,
    solve_constrained,
)
from .synthetic import (
    Box,
    PlantedScene,
    generate_scene,
    tile_constraint_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "BenchmarkRow",
    "Box",
    "CloudParams",
    "ConstraintSets",
    "CrfGraph",
    "METHODS",
    "MethodResult",
    "MetricsReport",
    "NodeFeatures",
    "NodeProjection",
    "PlaneModel",
    "PlantedScene",
    "PotentialParams",
    "Potentials",
    "ProblemFile",
    "ReducedProblem",
    "SCHEMA_VERSION",
    "ShiftOffsets",
    "SolveReport",
    "SolverConfig",
    "SolverFailure",
    "benchmark_constraint_sets",
    "bhattacharyya_distance",
    "brute_force_map",
    "build_constraint_matrix",
    "build_constraint_sets",
    "build_edges",
    "build_null_space_operator",
    "check_labeling",
    "check_marginals",
    "compute_gradient",
    "compute_metrics",
    "confusion_matrix",
    "constraint_prefix",
    "edge_dissimilarities",
    "euclidean_cluster",
    "evaluate_scene",
    "expand_solution",
    "expansion_operator",
    "extract_labeling",
    "generate_scene",
    "grid_for_size",
    "iterate",
    "lbp_map",
    "load_problem",
    "objective",
    "objective_of_labeling",
    "one_hot",
    "pairwise_potential",
    "problem_from_dict",
    "problem_to_dict",
    "reduce_problem",
    "remove_ground_plane",
    "rows_to_csv",
    "run_benchmark",
    "save_problem",
    "shift_to_floor",
    "solve",
    "solve_constrained",
    "speedup_summary",
    "summarize_reports",
    "tile_constraint_candidates",
]
