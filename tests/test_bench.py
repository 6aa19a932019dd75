"""Benchmark harness: grid sizing, constraint selection, CSV round trip."""

import csv
import dataclasses
import io

import numpy as np
import pytest

from crfqp import generate_scene, reduce_problem
from crfqp.bench import (
    BENCH_NOISE,
    BenchmarkRow,
    benchmark_constraint_sets,
    constraint_prefix,
    grid_for_size,
    rows_to_csv,
    run_benchmark,
    _scene_for_size,
    speedup_summary,
)


def test_grid_for_size_pinned_values():
    assert grid_for_size(176) == (13, 14)
    assert grid_for_size(219) == (15, 15)
    assert grid_for_size(787) == (28, 28)
    assert grid_for_size(1628) == (40, 41)
    assert grid_for_size(1) == (1, 1)
    with pytest.raises(ValueError, match="positive"):
        grid_for_size(0)


def test_constraint_prefix_is_nested_and_seeded():
    candidates = [(2 * i, 2 * i + 1) for i in range(10)]
    small = constraint_prefix(candidates, 0.3, seed=7)
    large = constraint_prefix(candidates, 0.7, seed=7)
    assert len(small) == 3 and len(large) == 7
    assert set(small) <= set(large)
    assert set(constraint_prefix(candidates, 1.0, seed=7)) == set(
        tuple(c) for c in candidates
    )
    assert len(constraint_prefix(candidates, 0.0, seed=7)) == 0
    other = constraint_prefix(candidates, 0.3, seed=8)
    assert set(other) != set(small) or True  # seeds may collide, order must not
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        constraint_prefix(candidates, 1.2, seed=0)


def test_benchmark_sets_always_cover_objects():
    scene = generate_scene(16, 16, 3, 5, noise=0.5, seed=2)
    zero = benchmark_constraint_sets(scene, 0.0, seed=2)
    full = benchmark_constraint_sets(scene, 1.0, seed=2)
    half = benchmark_constraint_sets(scene, 0.5, seed=2)
    # fraction scales background tiles only; object groups are always in
    assert all(scene.true_labels[s[0]] != 0 for s in zero)
    assert len(zero) > 0
    assert len(zero) < len(half) < len(full)
    assert set(zero) <= set(half) <= set(full)
    covered = sorted(n for s in full for n in s)
    assert len(covered) == len(set(covered))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        benchmark_constraint_sets(scene, -0.1, seed=0)


def test_run_benchmark_row_grid():
    rows = run_benchmark(sizes=(100, 225), fractions=(0.25, 0.75), seed=0)
    assert len(rows) == 8
    assert [r.solver for r in rows] == ["qp", "cqp"] * 4
    for qp, cqp in zip(rows[::2], rows[1::2]):
        assert qp.nodes == cqp.nodes and qp.labels == cqp.labels == 7
        assert qp.constraint_fraction == cqp.constraint_fraction
        assert qp.reduced_vars == qp.nodes * qp.labels
        assert cqp.reduced_vars < qp.reduced_vars
        assert qp.wall_ms > 0 and cqp.wall_ms > 0
    # more constraints, fewer free variables
    for offset in (1, 5):
        assert rows[offset + 2].reduced_vars < rows[offset].reduced_vars
    # reduced_vars counts the supernodes that the reduction builds
    for size_index, size in enumerate((100, 225)):
        scene = _scene_for_size(size, size_index, 7, BENCH_NOISE)
        for f_index, fraction in enumerate((0.25, 0.75)):
            sets = benchmark_constraint_sets(scene, fraction, size_index)
            reduced = reduce_problem(scene.graph, scene.potentials, sets)
            cqp = rows[4 * size_index + 2 * f_index + 1]
            assert cqp.reduced_vars == reduced.num_supernodes * 7


def test_run_benchmark_is_deterministic_up_to_timing():
    a = run_benchmark(sizes=(100,), fractions=(0.5,), seed=1)
    b = run_benchmark(sizes=(100,), fractions=(0.5,), seed=1)
    for ra, rb in zip(a, b):
        da, db = dataclasses.asdict(ra), dataclasses.asdict(rb)
        da.pop("wall_ms"), db.pop("wall_ms")
        assert da == db


def test_csv_round_trip_is_lossless():
    rows = run_benchmark(sizes=(100,), fractions=(0.0, 1.0), seed=3)
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == (
        "nodes,labels,constraint_fraction,reduced_vars,"
        "iterations,wall_ms,objective,solver"
    )
    records = list(csv.DictReader(io.StringIO(text)))
    assert len(records) == len(rows)
    for record, row in zip(records, rows):
        for name, value in dataclasses.asdict(row).items():
            assert type(value)(record[name]) == value


def test_speedup_summary_formats_ratios():
    def row(solver, wall):
        return BenchmarkRow(
            nodes=64,
            labels=7,
            constraint_fraction=0.5,
            reduced_vars=448 if solver == "qp" else 200,
            iterations=10,
            wall_ms=wall,
            objective=1.0,
            solver=solver,
        )

    summary = speedup_summary([row("qp", 50.0), row("cqp", 25.0)])
    assert summary == "nodes=64 fraction=0.5: qp 50.0 ms / cqp 25.0 ms = 2.00x"
    assert speedup_summary([row("qp", 50.0)]) == ""
