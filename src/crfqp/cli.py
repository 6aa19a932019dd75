"""Command-line interface.

Subcommands: solve (run a decoder on a problem file), synth (generate a
planted scene as a problem file plus truth labeling), eval (score a
predicted labeling against truth), bench (runtime benchmark CSV).

Exit codes: 0 success, 2 input error, 3 solver error.
"""

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

# lbp_map, solve and solve_constrained go unused (decoders run through
# `decode`), but perfbench/spans.py patches them on this module.
from .baselines import lbp_map  # noqa: F401
from .bench import BENCH_NOISE, rows_to_csv, run_benchmark, speedup_summary
from .cloud import CloudParams, build_constraint_sets
from .core import objective_of_labeling
from .evaluate import DECODERS, decode
from .metrics import _COLUMNS, compute_metrics
from .problem_io import ProblemFile, load_problem, save_problem
from .solver import SolverConfig, SolverFailure, solve, solve_constrained  # noqa: F401
from .synthetic import generate_scene

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crfqp",
        description="Pairwise labeling problems: relaxed QP solver with "
        "hard label-consistency constraints, plus baselines and tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem", help="problem file (JSON)")
    p_solve.add_argument(
        "--solver",
        choices=tuple(DECODERS),
        default="cqp",
        help="decoder to run (default: cqp)",
    )
    p_solve.add_argument(
        "--max-iters",
        type=int,
        default=1000,
        help="iteration cap for qp/cqp; lbp ignores it and stops after 200",
    )
    p_solve.add_argument(
        "--tol",
        type=float,
        default=1e-6,
        help="max-change tolerance for qp/cqp; lbp ignores it and uses 1e-6",
    )
    p_solve.add_argument(
        "--init",
        choices=("uniform", "unary_softmax"),
        default="uniform",
        help="marginal initialization for qp/cqp",
    )
    p_solve.add_argument(
        "--output",
        default=None,
        help="labeling output path (default: <problem>.labels)",
    )
    p_solve.add_argument(
        "--report",
        default=None,
        help="report JSON path (default: <output>.report.json)",
    )

    p_synth = sub.add_parser("synth", help="generate a planted problem file")
    p_synth.add_argument("--width", type=int, default=40)
    p_synth.add_argument("--height", type=int, default=40)
    p_synth.add_argument("--objects", type=int, default=6)
    p_synth.add_argument("--labels", type=int, default=7)
    p_synth.add_argument("--noise", type=float, default=0.6)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument(
        "--out", default="problem.json", help="problem file output path"
    )
    p_synth.add_argument(
        "--truth",
        default=None,
        help="truth labeling output path (default: <out>.truth.labels)",
    )

    p_eval = sub.add_parser("eval", help="score predicted labels against truth")
    p_eval.add_argument("predicted", help="labeling file, one label per line")
    p_eval.add_argument("truth", help="labeling file, one label per line")
    p_eval.add_argument(
        "--labels",
        type=int,
        default=None,
        help="label count (default: inferred from the files)",
    )
    p_eval.add_argument("--format", choices=("table", "csv"), default="table")

    p_bench = sub.add_parser("bench", help="runtime benchmark")
    p_bench.add_argument(
        "--sizes",
        default="176,219,787,1628",
        help="comma-separated target node counts",
    )
    p_bench.add_argument(
        "--fractions",
        default="0.25,0.5,0.75",
        help="comma-separated constraint fractions in [0,1]",
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--labels", type=int, default=7)
    p_bench.add_argument("--noise", type=float, default=BENCH_NOISE)
    p_bench.add_argument("--out", default="bench.csv", help="CSV output path")
    return parser


def _write_labeling(path, labeling):
    Path(path).write_text("".join(f"{int(x)}\n" for x in labeling), encoding="utf-8")


def _read_labeling(path):
    labels = []
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        text = raw.strip()
        if not text:
            continue
        try:
            labels.append(int(text))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not an integer label: {text!r}")
    if not labels:
        raise ValueError(f"{path}: no labels found")
    return np.array(labels, dtype=np.int64)


def _cmd_solve(args):
    problem = load_problem(args.problem)
    config = SolverConfig(
        max_iterations=args.max_iters, tol=args.tol, init=args.init
    )
    start = time.perf_counter()
    labeling, report = decode(
        args.solver, problem.graph, problem.potentials, problem.constraint_sets, config
    )
    wall = time.perf_counter() - start

    satisfied = all(
        len({int(labeling[node]) for node in group}) == 1
        for group in problem.constraint_sets.sets
    )
    out_path = args.output or f"{args.problem}.labels"
    report_path = args.report or f"{out_path}.report.json"
    _write_labeling(out_path, labeling)
    report_doc = {
        "solver": args.solver,
        "iterations": 0 if report is None else report.iterations,
        "converged": True if report is None else report.converged,
        "objective": objective_of_labeling(
            problem.graph, problem.potentials, labeling
        ),
        "wall_time_s": wall,
        "constraints_satisfied": satisfied,
        "labeling_path": str(out_path),
    }
    Path(report_path).write_text(
        json.dumps(report_doc, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(report_doc, indent=1))
    return 0


def _cmd_synth(args):
    scene = generate_scene(
        width=args.width,
        height=args.height,
        num_objects=args.objects,
        num_labels=args.labels,
        noise=args.noise,
        seed=args.seed,
    )
    constraint_sets = build_constraint_sets(
        scene.cloud, CloudParams(rng_seed=args.seed), scene.projection
    )
    problem = ProblemFile(
        graph=scene.graph,
        potentials=scene.potentials,
        constraint_sets=constraint_sets,
        features=scene.features,
    )
    truth_path = args.truth or f"{args.out}.truth.labels"
    save_problem(problem, args.out)
    _write_labeling(truth_path, scene.true_labels)
    print(
        f"wrote {args.out} ({scene.num_nodes} nodes, {scene.num_labels} labels, "
        f"{len(constraint_sets.sets)} constraint sets) and {truth_path}"
    )
    return 0


def _format_metrics(report, fmt):
    stats = report.per_class
    rows = [(k, [stats[k][c] for c in _COLUMNS]) for k in sorted(stats)]
    rows.append(("macro", [getattr(report, f"macro_{c}") for c in _COLUMNS]))
    if fmt == "csv":
        lines = ["class," + ",".join(_COLUMNS)]
        lines += [f"{k}" + "".join(f",{v:.6f}" for v in vs) for k, vs in rows]
    else:
        lines = [f"{'class':>8}" + "".join(f"{c.capitalize():>12}" for c in _COLUMNS)]
        lines += [f"{k:>8}" + "".join(f"{v:>12.4f}" for v in vs) for k, vs in rows]
    return "\n".join(lines)


def _cmd_eval(args):
    predicted = _read_labeling(args.predicted)
    truth = _read_labeling(args.truth)
    if predicted.shape != truth.shape:
        raise ValueError(
            f"length mismatch: {args.predicted} has {predicted.size} labels, "
            f"{args.truth} has {truth.size}"
        )
    num_labels = args.labels or int(max(predicted.max(), truth.max())) + 1
    report = compute_metrics(truth, predicted, num_labels)
    print(_format_metrics(report, args.format))
    return 0


def _parse_list(text, kind, flag):
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated {kind.__name__}s: {text!r}")


def _cmd_bench(args):
    sizes = _parse_list(args.sizes, int, "--sizes")
    fractions = _parse_list(args.fractions, float, "--fractions")
    if not sizes or not fractions:
        raise ValueError("need at least one size and one fraction")
    rows = run_benchmark(
        sizes, fractions, seed=args.seed, num_labels=args.labels, noise=args.noise
    )
    Path(args.out).write_text(rows_to_csv(rows), encoding="utf-8")
    print(f"wrote {args.out} ({len(rows)} rows)")
    print(speedup_summary(rows))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "synth": _cmd_synth,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


@functools.cache
def _parser():
    """The parser `main` uses, built on first use: parsing leaves it
    unchanged, so one serves every call in a process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SolverFailure as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
