"""Constraint systems, the replication null space, and supernode merging."""

import itertools

import numpy as np
import pytest

from crfqp import (
    ConstraintSets,
    CrfGraph,
    Potentials,
    build_constraint_matrix,
    expansion_operator,
    objective_of_labeling,
    reduce_problem,
)
from crfqp.reduction import build_null_space_operator, expand_solution
from helpers import (
    loop_reduction,
    random_disjoint_sets,
    random_instance,
    random_marginals,
)


def test_constraint_matrix_two_nodes_two_labels():
    graph = CrfGraph(2, 2, [(0, 1)])
    e_mat, d = build_constraint_matrix(graph, ConstraintSets([(0, 1)]))
    assert e_mat.toarray().tolist() == [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ]
    assert d.shape == (2,) and not d.any()


def test_constraint_matrix_three_node_set_rank():
    graph = CrfGraph(3, 3)
    e_mat, _ = build_constraint_matrix(graph, ConstraintSets([(0, 1, 2)]))
    assert e_mat.shape == (6, 9)
    assert np.linalg.matrix_rank(e_mat.toarray()) == 6


def test_constraint_matrix_without_sets_is_empty():
    graph = CrfGraph(4, 2)
    e_mat, d = build_constraint_matrix(graph, ConstraintSets())
    assert e_mat.shape == (0, 8)
    assert d.shape == (0,)


def test_constraint_sets_validation():
    with pytest.raises(ValueError, match="overlap"):
        ConstraintSets([(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="fewer than 2"):
        ConstraintSets([(3,)])
    with pytest.raises(ValueError, match="duplicate"):
        ConstraintSets([(2, 2)])
    # a negative index would wrap around to a node counted from the end
    with pytest.raises(ValueError, match=r"set \(-1, 0\) has a negative node index"):
        ConstraintSets([(0, -1)])
    sets = ConstraintSets([(5, 1)])
    assert sets.sets == ((1, 5),)  # members are stored sorted
    with pytest.raises(ValueError, match="exceeds node count"):
        sets.check_bounds(4)


def test_supernode_numbering_by_first_appearance():
    graph = CrfGraph(4, 2)
    mapping = build_null_space_operator(graph, ConstraintSets([(1, 2)]))
    assert mapping.tolist() == [0, 1, 1, 2]

    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        sets = ConstraintSets(random_disjoint_sets(rng, n, max_sets=4))
        mapping = build_null_space_operator(CrfGraph(n, 2), sets)
        # reference: walk the nodes, opening a new id at each unseen group
        group_of = {i: i for i in range(n)}
        for members in sets:
            for i in members:
                group_of[i] = ("set", members)
        ids, expected = {}, []
        for i in range(n):
            expected.append(ids.setdefault(group_of[i], len(ids)))
        assert mapping.tolist() == expected
        m = len(ids)
        assert sorted(set(mapping.tolist())) == list(range(m))
        smallest = [min(np.flatnonzero(mapping == s)) for s in range(m)]
        assert smallest == sorted(smallest)
        for members in sets:
            assert len({int(mapping[i]) for i in members}) == 1


def test_replication_operator_annihilates_constraints():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(2, 5))
        graph = CrfGraph(n, k)
        sets = ConstraintSets(random_disjoint_sets(rng, n))
        e_mat, _ = build_constraint_matrix(graph, sets)
        mapping = build_null_space_operator(graph, sets)
        z_mat = expansion_operator(mapping, k)
        product = np.abs((e_mat @ z_mat).toarray())
        assert product.max(initial=0.0) == 0.0


def test_merged_unary_rows_are_summed():
    graph = CrfGraph(2, 2)
    pot = Potentials([[1.0, 2.0], [3.0, 4.0]])
    reduced = reduce_problem(graph, pot, ConstraintSets([(0, 1)]))
    assert reduced.super_graph.num_nodes == 1
    assert reduced.reduced.unary.tolist() == [[4.0, 6.0]]


def test_internal_edge_folds_into_diagonal():
    graph = CrfGraph(2, 2, [(0, 1)])
    psi = np.array([[0.7, 0.2], [0.1, 0.4]])
    pot = Potentials(np.zeros((2, 2)), [psi])
    reduced = reduce_problem(graph, pot, ConstraintSets([(0, 1)]))
    assert reduced.super_graph.num_edges == 0
    assert reduced.reduced.unary.tolist() == [[1.4, 0.8]]  # 2 * diag(psi)


def test_crossing_edges_merge_with_orientation():
    # nodes 0 and 2 merge; edge (1, 2) reverses orientation on the way in
    graph = CrfGraph(3, 2, [(0, 1), (1, 2)])
    psi_01 = np.array([[1.0, 2.0], [3.0, 4.0]])
    psi_12 = np.array([[10.0, 20.0], [30.0, 40.0]])
    pot = Potentials(np.zeros((3, 2)), [psi_01, psi_12])
    reduced = reduce_problem(graph, pot, ConstraintSets([(0, 2)]))
    assert reduced.node_to_super.tolist() == [0, 1, 0]
    assert reduced.super_graph.edges.tolist() == [[0, 1]]
    np.testing.assert_allclose(reduced.reduced.pairwise[0], psi_01 + psi_12.T)


def test_reduction_matches_edge_loop_bitwise():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        k = int(rng.integers(2, 5))
        graph, pot = random_instance(rng, n, k, edge_prob=float(rng.uniform(0.2, 0.9)))
        # shuffled edge order, asymmetric blocks, and signed zeros
        order = rng.permutation(graph.num_edges)
        pairwise = pot.pairwise[order] * (rng.uniform(size=pot.pairwise.shape) < 0.8)
        graph = CrfGraph(n, k, graph.edges[order])
        pot = Potentials(pot.unary, pairwise)
        sets = ConstraintSets(random_disjoint_sets(rng, n, max_sets=4))
        reduced = reduce_problem(graph, pot, sets)
        unary, super_edges, blocks = loop_reduction(graph, pot, reduced.node_to_super)
        assert reduced.reduced.unary.tobytes() == unary.tobytes()
        assert reduced.super_graph.edges.tolist() == [list(e) for e in super_edges]
        assert reduced.reduced.pairwise.tobytes() == blocks.tobytes()


def test_reduction_without_sets_is_identity():
    rng = np.random.default_rng(5)
    graph, pot = random_instance(rng, 6, 3, edge_prob=0.5)
    reduced = reduce_problem(graph, pot, ConstraintSets())
    assert reduced.node_to_super.tolist() == list(range(6))
    assert np.array_equal(reduced.super_graph.edges, graph.edges)
    np.testing.assert_array_equal(reduced.reduced.unary, pot.unary)
    np.testing.assert_array_equal(reduced.reduced.pairwise, pot.pairwise)


def test_reduced_objective_exact_at_integral_points():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, 4))
        graph, pot = random_instance(rng, n, k, edge_prob=0.6)
        sets = ConstraintSets(random_disjoint_sets(rng, n, max_sets=2))
        reduced = reduce_problem(graph, pot, sets)
        m = reduced.num_supernodes
        if m > 4:
            continue
        for assign in itertools.product(range(k), repeat=m):
            super_lab = np.array(assign, dtype=np.int64)
            node_lab = super_lab[reduced.node_to_super]
            got = objective_of_labeling(
                reduced.super_graph, reduced.reduced, super_lab
            )
            want = objective_of_labeling(graph, pot, node_lab)
            assert got == pytest.approx(want, abs=1e-10)


def test_expanded_marginals_replicate_rows():
    rng = np.random.default_rng(2)
    graph = CrfGraph(5, 3)
    sets = ConstraintSets([(0, 3), (1, 4)])
    reduced = reduce_problem(graph, Potentials(np.zeros((5, 3))), sets)
    reduced_mu = random_marginals(rng, reduced.num_supernodes, 3)
    mu = expand_solution(reduced, reduced_mu)
    assert mu.shape == (5, 3)
    np.testing.assert_allclose(mu.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(mu[0], mu[3])
    np.testing.assert_array_equal(mu[1], mu[4])


def test_out_of_range_sets_are_rejected():
    graph = CrfGraph(3, 2)
    with pytest.raises(ValueError, match="exceeds node count"):
        reduce_problem(graph, Potentials(np.zeros((3, 2))), ConstraintSets([(1, 5)]))
