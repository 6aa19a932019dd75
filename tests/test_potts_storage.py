"""Potts potentials stored as (E, 2) (diagonal, off-diagonal) weights.

Every decoder, the reduction, the integer objective and the problem
writer must give, bit for bit, what they give on the (E, K, K) blocks
the weights stand for, which take the block path and its Potts check.
"""

import tracemalloc

import numpy as np
import pytest

from crfqp import (
    ConstraintSets,
    CrfGraph,
    Potentials,
    SolverConfig,
    generate_scene,
    lbp_map,
    objective_of_labeling,
    reduce_problem,
    solve,
    solve_constrained,
)
from crfqp.bench import BENCH_NOISE, BENCH_PAIRWISE_WEIGHT, benchmark_constraint_sets
from crfqp.cloud import CloudParams, build_constraint_sets
from crfqp.core import extract_labeling
from crfqp.potentials import pairwise_potential, potts_weights
from crfqp.problem_io import ProblemFile, save_problem
from helpers import block_twin, loop_reduction, random_disjoint_sets, random_graph


def _scene_sweep(seed):
    scene = generate_scene(40, 40, 6, 7, noise=0.6, seed=seed)
    sets = build_constraint_sets(scene.cloud, CloudParams(), scene.projection)
    return scene, sets, SolverConfig(max_iterations=100, tol=1e-300)


def _large_grid(seed):
    scene = generate_scene(
        80, 80, 6, 7, noise=BENCH_NOISE, seed=seed, pairwise_weight=BENCH_PAIRWISE_WEIGHT
    )
    sets = benchmark_constraint_sets(scene, 0.75, seed)
    return scene, sets, SolverConfig(max_iterations=40)


def _bits(*values):
    """The bytes of arrays, traces and numbers, so that -0.0 != 0.0."""
    return [np.ascontiguousarray(v).tobytes() for v in values]


def _report_bits(report):
    return _bits(report.objective_trace, report.final_objective) + [
        report.iterations,
        report.converged,
    ]


def _outputs(scene, pot, sets, config, path):
    graph, out = scene.graph, {}
    mu, report = solve(graph, pot, config)
    qp_labels = extract_labeling(mu)
    out["qp"] = _bits(mu, qp_labels) + _report_bits(report)
    mu, cqp_labels, report = solve_constrained(graph, pot, sets, config)
    out["cqp"] = _bits(mu, cqp_labels) + _report_bits(report)
    labelings = [qp_labels, cqp_labels, scene.true_labels]
    for iters in (15, 200):
        labels, report = lbp_map(graph, pot, max_iters=iters)
        out[f"lbp-{iters}"] = _bits(labels) + _report_bits(report)
        labelings.append(labels)
    reduced = reduce_problem(graph, pot, sets)
    out["reduce"] = _bits(
        reduced.reduced.unary,
        reduced.reduced.pairwise,
        reduced.super_graph.edges,
        reduced.node_to_super,
    )
    out["objective"] = _bits([objective_of_labeling(graph, pot, x) for x in labelings])
    save_problem(ProblemFile(graph, pot, sets, None), path)
    out["save"] = path.read_bytes()
    return out, reduced


@pytest.mark.parametrize(
    "recipe, seed",
    [(_scene_sweep, 0), (_scene_sweep, 1), (_scene_sweep, 2), (_large_grid, 0)],
    ids=["scene-sweep-0", "scene-sweep-1", "scene-sweep-2", "large-grid-0"],
)
def test_potts_weights_give_the_outputs_of_their_blocks_bitwise(recipe, seed, tmp_path):
    scene, sets, config = recipe(seed)
    compact = scene.potentials
    twin = block_twin(compact)
    assert compact.potts is not None and twin.potts is None
    got, reduced = _outputs(scene, compact, sets, config, tmp_path / "weights.json")
    want, twin_reduced = _outputs(scene, twin, sets, config, tmp_path / "blocks.json")
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name
    # Potts weights reduce to Potts weights; blocks to blocks
    assert reduced.reduced.potts is not None and twin_reduced.reduced.potts is None


def _random_weights(rng, graph):
    """Random Potts weights with signed zeros, in Fortran order."""
    weights = rng.uniform(-1.0, 1.0, size=(graph.num_edges, 2))
    weights *= np.where(rng.uniform(size=weights.shape) < 0.2, -0.0, 1.0)
    return np.asfortranarray(weights)


def test_potts_reduction_and_objective_are_the_block_paths_bitwise():
    rng = np.random.default_rng(41)
    for trial in range(40):
        n, k = int(rng.integers(2, 60)), int(rng.integers(2, 7))
        graph = random_graph(rng, n, k, edge_prob=float(rng.uniform(0.05, 0.5)))
        order = rng.permutation(graph.num_edges)
        graph = CrfGraph(n, k, graph.edges[order])
        compact = Potentials(rng.uniform(-1.0, 1.0, size=(n, k)), potts=_random_weights(rng, graph))
        twin = block_twin(compact)
        sets = ConstraintSets(random_disjoint_sets(rng, n, max_sets=n, max_size=12))
        got, want = reduce_problem(graph, compact, sets), reduce_problem(graph, twin, sets)
        assert got.reduced.potts is not None
        assert got.reduced.unary.tobytes() == want.reduced.unary.tobytes()
        assert got.reduced.pairwise.tobytes() == want.reduced.pairwise.tobytes()
        assert np.array_equal(got.super_graph.edges, want.super_graph.edges)
        unary, _, blocks = loop_reduction(graph, compact, got.node_to_super)
        assert got.reduced.unary.tobytes() == unary.tobytes()
        assert got.reduced.pairwise.tobytes() == blocks.tobytes()
        for _ in range(5):
            x = rng.integers(0, k, size=n)
            a, b = objective_of_labeling(graph, compact, x), objective_of_labeling(graph, twin, x)
            assert np.float64(a).tobytes() == np.float64(b).tobytes()


def test_pairwise_of_potts_weights_is_a_new_block_array_each_time():
    dis = np.array([0.0, 0.25, 1.0])
    pot = Potentials(np.zeros((4, 3)), potts=0.5 * potts_weights(dis))
    blocks = pot.pairwise
    assert blocks.shape == (3, 3, 3) and blocks is not pot.pairwise
    assert blocks.tobytes() == (0.5 * pairwise_potential(dis, 3)).tobytes()
    blocks[0] = 7.0  # a caller's copy: the stored weights do not change
    assert pot.potts.tolist() == [[0.5, 0.0], [0.46875, 0.03125], [0.0, 0.5]]
    with pytest.raises(ValueError, match="3 pairwise matrices for 2 edges"):
        objective_of_labeling(CrfGraph(4, 3, [(0, 1), (1, 2)]), pot, [0, 0, 0, 0])


def test_reduction_of_potts_weights_builds_no_block():
    scene, sets, _ = _large_grid(0)
    graph, pot = scene.graph, scene.potentials
    block_bytes = graph.num_edges * graph.num_labels**2 * 8
    tracemalloc.start()
    try:
        reduce_problem(graph, pot, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # blocks in and out would take about 1.15 (E, K, K) arrays
    assert peak < 0.5 * block_bytes
