"""Exhaustive MAP search and loopy max-sum against enumeration oracles."""

import tracemalloc

import numpy as np
import pytest

from crfqp import (
    ConstraintSets,
    CrfGraph,
    Potentials,
    SolverFailure,
    brute_force_map,
    generate_scene,
    lbp_map,
    reduce_problem,
)
from crfqp.baselines import BRUTE_FORCE_LIMIT, _belief_sum
from crfqp.solver import _decoder_terms
from helpers import (
    dense_lbp,
    enumerate_map,
    random_disjoint_sets,
    random_instance,
    random_potts_instance,
    random_tree,
)


def test_brute_force_single_node():
    graph = CrfGraph(1, 2)
    labeling, value = brute_force_map(graph, Potentials([[3.0, 1.0]]))
    assert labeling.tolist() == [0]
    assert value == pytest.approx(3.0, abs=1e-12)


def test_brute_force_two_node_agreement_cases():
    graph = CrfGraph(2, 2, [(0, 1)])
    psi = np.eye(2)
    # unary pull vs agreement bonus, all four regimes enumerated by hand
    cases = [
        ([[5.0, 0.0], [5.0, 0.0]], [0, 0], 12.0),
        ([[0.0, 5.0], [0.0, 5.0]], [1, 1], 12.0),
        ([[5.0, 0.0], [0.0, 5.0]], [0, 1], 10.0),  # unaries beat the bonus
        ([[0.0, 0.1], [5.0, 0.0]], [0, 0], 7.0),  # bonus beats the 0.1 pull
    ]
    for unary, want_lab, want_val in cases:
        labeling, value = brute_force_map(graph, Potentials(unary, [psi]))
        assert labeling.tolist() == want_lab
        assert value == pytest.approx(want_val, abs=1e-12)


def test_brute_force_ties_break_lexicographically():
    graph = CrfGraph(3, 3, [(0, 1), (1, 2)])
    pot = Potentials(np.zeros((3, 3)), np.zeros((2, 3, 3)))
    labeling, value = brute_force_map(graph, pot)
    assert labeling.tolist() == [0, 0, 0]
    assert value == 0.0


def test_brute_force_matches_enumeration_oracle():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, 4))
        graph, pot = random_instance(rng, n, k, edge_prob=0.5)
        labeling, value = brute_force_map(graph, pot)
        want_lab, want_val = enumerate_map(graph, pot)
        assert value == pytest.approx(want_val, abs=1e-12)
        assert labeling.tolist() == want_lab.tolist()


def test_brute_force_refuses_huge_instances():
    graph = CrfGraph(25, 2)
    pot = Potentials(np.zeros((25, 2)))
    assert 2**25 > BRUTE_FORCE_LIMIT
    with pytest.raises(ValueError, match="too large"):
        brute_force_map(graph, pot)


def test_lbp_on_trees_matches_brute_force():
    rng = np.random.default_rng(67)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(2, 4))
        graph, pot = random_tree(rng, n, k)
        labeling, report = lbp_map(graph, pot, damping=0.0)
        brute_lab, brute_val = brute_force_map(graph, pot)
        assert report.converged
        assert report.final_objective == pytest.approx(brute_val, abs=1e-9)
        assert labeling.tolist() == brute_lab.tolist()


def test_lbp_without_pairwise_reduces_to_unary_argmax():
    rng = np.random.default_rng(71)
    graph = CrfGraph(6, 3, [(0, 1), (2, 3), (4, 5)])
    unary = rng.uniform(-1, 1, size=(6, 3))
    pot = Potentials(unary, np.zeros((3, 3, 3)))
    labeling, _ = lbp_map(graph, pot)
    assert labeling.tolist() == np.argmax(unary, axis=1).tolist()


def test_lbp_edgeless_graph_short_circuits():
    graph = CrfGraph(3, 2)
    pot = Potentials([[1.0, 2.0], [4.0, 3.0], [0.0, 1.0]])
    labeling, report = lbp_map(graph, pot)
    assert labeling.tolist() == [1, 0, 1]
    assert report.iterations == 0 and report.converged


def test_lbp_near_optimal_on_small_grids():
    # 3x3 grid, nonnegative potentials: decoded value within 5% of the
    # optimum on at least 90 of 100 seeds
    edges = []
    for r in range(3):
        for c in range(3):
            i = 3 * r + c
            if c + 1 < 3:
                edges.append((i, i + 1))
            if r + 1 < 3:
                edges.append((i, i + 3))
    graph = CrfGraph(9, 3, sorted(edges))
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pot = Potentials(
            rng.uniform(0, 1, size=(9, 3)), rng.uniform(0, 1, size=(12, 3, 3))
        )
        labeling, report = lbp_map(graph, pot)
        _, best = brute_force_map(graph, pot)
        assert report.final_objective <= best + 1e-9
        if report.final_objective >= 0.95 * best:
            hits += 1
    assert hits >= 90


def test_lbp_damping_validation_and_iteration_cap():
    graph = CrfGraph(2, 2, [(0, 1)])
    pot = Potentials([[1.0, 0.0], [0.0, 1.0]], [np.eye(2)])
    with pytest.raises(ValueError, match="damping"):
        lbp_map(graph, pot, damping=1.0)
    _, report = lbp_map(graph, pot, max_iters=3)
    assert report.iterations <= 3


def _assert_same_run(graph, pot, **kwargs):
    labeling, report = lbp_map(graph, pot, **kwargs)
    want_lab, want = dense_lbp(graph, pot, **kwargs)
    assert labeling.tolist() == want_lab.tolist()
    assert report.objective_trace == want.objective_trace
    assert report.final_objective == want.final_objective
    assert (report.iterations, report.converged) == (want.iterations, want.converged)


def _is_potts(pot):
    """Whether lbp_map takes the Potts path."""
    return _decoder_terms(pot).potts is not None


def test_lbp_matches_dense_reference_bitwise_on_potts_scenes():
    for seed in range(4):
        scene = generate_scene(18, 15, num_objects=3, num_labels=5, seed=seed)
        assert _is_potts(scene.potentials)
        for kwargs in ({}, {"max_iters": 7}, {"damping": 0.0, "max_iters": 40}):
            _assert_same_run(scene.graph, scene.potentials, **kwargs)
    rng = np.random.default_rng(73)
    for _ in range(30):
        n = int(rng.integers(2, 25))
        graph, pot = random_potts_instance(rng, n, int(rng.integers(2, 7)))
        sets = ConstraintSets(random_disjoint_sets(rng, n, max_sets=4))
        reduced = reduce_problem(graph, pot, sets)
        for g, p in ((graph, pot), (reduced.super_graph, reduced.reduced)):
            assert _is_potts(p)
            _assert_same_run(g, p, max_iters=60)


def test_lbp_matches_dense_reference_bitwise_on_general_blocks():
    rng = np.random.default_rng(79)
    for _ in range(30):
        n = int(rng.integers(2, 25))
        graph, pot = random_instance(rng, n, int(rng.integers(2, 6)), edge_prob=0.3)
        if graph.num_edges:
            assert not _is_potts(pot)
        _assert_same_run(graph, pot, max_iters=60)
    # a Potts graph with one entry of one block moved off the pattern
    graph, pot = random_potts_instance(np.random.default_rng(83), 12, 4, edge_prob=0.5)
    pairwise = pot.pairwise.copy()
    pairwise[0, 1, 2] += 1e-9
    moved = Potentials(pot.unary, pairwise)
    assert _is_potts(pot) and not _is_potts(moved)
    _assert_same_run(graph, moved)


def test_lbp_raises_when_messages_turn_non_finite():
    graph = CrfGraph(3, 2, [(0, 1), (1, 2)])
    unary = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
    # psi + psi^T overflows on the diagonal, on the Potts path and on
    # the dense one
    for block, potts in (
        (np.where(np.eye(2, dtype=bool), 1.5e308, 0.0), True),
        (np.diag([1.5e308, 1.0]), False),
    ):
        pot = Potentials(unary, [block, block])
        with np.errstate(over="ignore", invalid="ignore"):
            assert _is_potts(pot) == potts
            with pytest.raises(SolverFailure, match="non-finite messages at iteration 1"):
                lbp_map(graph, pot)


def test_belief_sums_match_sequential_scatter():
    rng = np.random.default_rng(89)
    cases = []
    for _ in range(20):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 80))
        cases.append((n, rng.integers(0, n, size=d)))
    for _ in range(5):
        # wide enough for contiguous slots, with a hub that is not node 0
        n = int(rng.integers(40, 120))
        tgt = np.concatenate([rng.integers(0, n, size=6 * n), np.full(90, n // 2)])
        cases.append((n, rng.permutation(tgt)))
    for n, tgt in cases:
        k, d = int(rng.integers(2, 6)), tgt.size
        # magnitudes spread wide, so summation order shows in the low bits
        messages = rng.normal(size=(k, d)) * 10.0 ** rng.integers(-8, 8, size=(k, d))
        base = rng.uniform(0.5, 1.0, size=(n, k))
        want = base.copy()
        np.add.at(want, tgt, messages.T)
        rank, add = _belief_sum(tgt, n)
        got = np.empty((k, n))
        got[:, rank] = base.T
        add(got, messages)
        assert np.array_equal(got[:, rank].T, want)


def test_lbp_on_a_star_is_exact_and_linear_in_memory():
    # one hub with 4,000 leaves: a per-node table padded to the largest
    # in-degree would need 4,000 x 4,001 entries
    leaves = 4000
    rng = np.random.default_rng(97)
    graph = CrfGraph(leaves + 1, 3, [(0, j) for j in range(1, leaves + 1)])
    unary = rng.uniform(-1.0, 1.0, size=(leaves + 1, 3))
    potts = Potentials(unary, np.broadcast_to(0.2 + 0.3 * np.eye(3), (leaves, 3, 3)))
    dense = Potentials(unary, rng.uniform(-1.0, 1.0, size=(leaves, 3, 3)))
    for pot in (potts, dense):
        _assert_same_run(graph, pot, max_iters=5)
        tracemalloc.start()
        try:
            lbp_map(graph, pot, max_iters=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
