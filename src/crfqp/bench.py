"""Runtime benchmark: unconstrained vs constrained solves across scene
sizes and constraint coverage levels, emitted as CSV."""

import csv
import io
import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .evaluate import decode
from .reduction import ConstraintSets
from .solver import SolverConfig
from .synthetic import generate_scene, tile_constraint_candidates

__all__ = ["run_benchmark", "rows_to_csv", "speedup_summary"]


@dataclass(frozen=True)
class BenchmarkRow:
    nodes: int
    labels: int
    constraint_fraction: float
    reduced_vars: int
    iterations: int
    wall_ms: float
    objective: float
    solver: str


CSV_COLUMNS = tuple(f.name for f in fields(BenchmarkRow))


def grid_for_size(target_nodes):
    """Nearest W x H grid to a requested node count.

    Non-rectangular targets (e.g. primes) land on the closest feasible
    grid; callers should report the actual node count.
    """
    if target_nodes < 1:
        raise ValueError("node count must be positive")
    width = max(1, round(math.sqrt(target_nodes)))
    height = max(1, round(target_nodes / width))
    return width, height


def constraint_prefix(candidates, fraction, seed):
    """Seeded shuffle + prefix.  The shuffle depends only on the seed, so
    calls with the same seed and growing fractions select nested subsets
    and coverage grows monotonically."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("constraint fraction must lie in [0, 1]")
    order = np.random.default_rng(seed).permutation(len(candidates))
    count = int(round(fraction * len(candidates)))
    return ConstraintSets([candidates[i] for i in order[:count]])


def benchmark_constraint_sets(scene, fraction, seed):
    """Constraint selection for benchmark scenes.

    Object-label groups are always included: they model cloud-derived
    constraints, which exist wherever an object produced a blob.  The
    fraction scales background coverage (how much of the remaining
    scene has consistent 3D support), through `constraint_prefix`, so
    selections for one seed are nested across fractions.
    """
    candidates = tile_constraint_candidates(
        scene.true_labels, scene.width, scene.height
    )
    objects = [c for c in candidates if scene.true_labels[c[0]] != 0]
    background = [c for c in candidates if scene.true_labels[c[0]] == 0]
    chosen = constraint_prefix(background, fraction, seed)
    return ConstraintSets(objects + list(chosen))


BENCH_NOISE = 0.57
BENCH_PAIRWISE_WEIGHT = 0.15


def _scene_for_size(size, seed, num_labels, noise):
    width, height = grid_for_size(size)
    num_objects = max(2, min(6, (width * height) // 64))
    return generate_scene(
        width=width,
        height=height,
        num_objects=num_objects,
        num_labels=num_labels,
        noise=noise,
        seed=seed,
        pairwise_weight=BENCH_PAIRWISE_WEIGHT,
    )


def _timed_decode(method, scene, sets, config):
    start = time.perf_counter()
    _, report = decode(method, scene.graph, scene.potentials, sets, config)
    return report, 1e3 * (time.perf_counter() - start)


def run_benchmark(
    sizes, fractions, seed=0, num_labels=7, noise=BENCH_NOISE, config=None
):
    """One (qp, cqp) row pair per (size, fraction) cell.

    Constraint sets come from truth-aligned tile groups with object
    groups always included (see benchmark_constraint_sets); within a
    size the per-fraction background selections are nested prefixes of
    one seeded shuffle, so `reduced_vars` strictly decreases as the
    fraction grows.  qp does not depend on the fraction: it is solved
    once per size, and the qp rows of one size share that solve, its
    `wall_ms` too.  Wall times cover the full call including constraint
    reduction.  The default noise level sits where the unconstrained
    solver converges under its iteration cap at every size while still
    leaving slow conflicted rows for constraints to absorb.
    """
    config = config or SolverConfig()
    rows = []
    for size_index, size in enumerate(sizes):
        scene = _scene_for_size(size, seed + size_index, num_labels, noise)
        n, k = scene.num_nodes, scene.num_labels
        qp = _timed_decode("qp", scene, None, config)
        for fraction in fractions:
            sets = benchmark_constraint_sets(scene, fraction, seed + size_index)
            supernodes = n - sum(len(s) - 1 for s in sets)
            cqp = _timed_decode("cqp", scene, sets, config)
            runs = (("qp", n, qp), ("cqp", supernodes, cqp))
            for solver, reduced_nodes, (report, wall_ms) in runs:
                rows.append(
                    BenchmarkRow(
                        nodes=n,
                        labels=k,
                        constraint_fraction=fraction,
                        reduced_vars=reduced_nodes * k,
                        iterations=report.iterations,
                        wall_ms=wall_ms,
                        objective=report.final_objective,
                        solver=solver,
                    )
                )
    return rows


def rows_to_csv(rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(astuple(row) for row in rows)
    return buffer.getvalue()


def speedup_summary(rows):
    """Per (size, fraction) wall-time ratio of qp over cqp."""
    cells = {}
    for row in rows:
        cells.setdefault((row.nodes, row.constraint_fraction), {})[row.solver] = row
    lines = []
    for (nodes, fraction), pair in sorted(cells.items()):
        if "qp" in pair and "cqp" in pair and pair["cqp"].wall_ms > 0:
            ratio = pair["qp"].wall_ms / pair["cqp"].wall_ms
            lines.append(
                f"nodes={nodes} fraction={fraction:g}: "
                f"qp {pair['qp'].wall_ms:.1f} ms / cqp {pair['cqp'].wall_ms:.1f} ms "
                f"= {ratio:.2f}x"
            )
    return "\n".join(lines)
