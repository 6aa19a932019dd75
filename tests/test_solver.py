"""Floor shift, the closed-form gradient (the sparse operator `solve`
iterates with), the multiplicative update, and the full solve loops."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from crfqp import (
    ConstraintSets,
    CrfGraph,
    Potentials,
    SolverConfig,
    SolverFailure,
    compute_gradient,
    extract_labeling,
    generate_scene,
    lbp_map,
    reduce_problem,
    solve,
    solve_constrained,
)
from crfqp.core import _potts_weights, check_marginals
from crfqp.potentials import pairwise_potential
from crfqp.solver import (
    _PROBE,
    _decoder_terms,
    _initial_marginals,
    _quadratic_operator,
    iterate,
    shift_to_floor,
)
from helpers import (
    block_twin,
    coo_general_csr,
    dense_lbp,
    fd_gradient,
    loop_pairwise_matvec,
    objective,
    random_disjoint_sets,
    random_graph,
    random_instance,
    random_marginals,
    random_potts_instance,
)


def test_shift_lowers_positive_minimum_to_floor():
    pot = Potentials([[1.0, 2.0]], [np.array([[3.0, 4.0], [5.0, 6.0]])])
    unary, pairwise, offset = shift_to_floor(pot.unary, pot.pairwise)
    assert offset == (1e-9 - 1.0) * 1 + (1e-9 - 3.0) * 2
    assert unary.min() == 1e-9
    assert pairwise.min() == 1e-9
    # arrays already on the floor come back unchanged
    on_floor = Potentials([[1e-9, 2.0]], [np.array([[1e-9, 4.0], [5.0, 6.0]])])
    unary, pairwise, offset = shift_to_floor(on_floor.unary, on_floor.pairwise)
    assert unary is on_floor.unary and pairwise is on_floor.pairwise
    assert offset == 0.0


def test_shift_lifts_minimum_to_epsilon():
    pot = Potentials([[-2.0, 1.0]], [np.array([[0.5, -0.25], [0.0, 0.0]])])
    unary, pairwise, offset = shift_to_floor(pot.unary, pot.pairwise)
    assert offset == pytest.approx((2.0 + 1e-9) * 1 + (0.25 + 1e-9) * 2, rel=1e-12)
    assert unary.min() == 1e-9
    assert pairwise.min() == 1e-9


def test_shift_offset_accounts_for_objective_change():
    rng = np.random.default_rng(4)
    # negative minima are lifted, positive ones lowered
    for low, high in ((-1.0, 1.0), (0.5, 2.0)):
        graph, pot = random_instance(rng, 5, 3, edge_prob=0.6, low=low, high=high)
        unary, pairwise, delta = shift_to_floor(pot.unary, pot.pairwise)
        shifted = Potentials(unary, pairwise)
        for _ in range(10):
            mu = random_marginals(rng, 5, 3)
            assert objective(graph, shifted, mu) - objective(
                graph, pot, mu
            ) == pytest.approx(delta, abs=1e-9)


def test_shift_lands_exactly_on_the_floor_at_any_offset():
    rng = np.random.default_rng(5)
    graph, pot = random_instance(rng, 12, 3, edge_prob=0.5)
    _, potts = random_potts_instance(rng, 12, 3, edge_prob=0.5)
    for c in (0.0, 1e7, 1e9, 1e12, -1e12):
        # the general path, on the blocks
        unary, pairwise, _ = shift_to_floor(pot.unary + c, pot.pairwise + c)
        assert unary.min() == 1e-9 and pairwise.min() == 1e-9
        again = shift_to_floor(unary, pairwise)
        assert again[0] is unary and again[1] is pairwise and again[2] == 0.0
        # the Potts path, on the (diagonal, off-diagonal) weights
        moved = Potentials(potts.unary + c, potts.pairwise + c)
        terms = _decoder_terms(moved)
        assert terms.sums is None
        assert terms.unary.min() == 1e-9 and terms.potts.min() == 2e-9
        unary, _, offset = shift_to_floor(terms.unary, 0.5 * terms.potts)
        assert unary is terms.unary and offset == 0.0


def test_gradient_without_edges_is_the_unary():
    graph = CrfGraph(3, 2)
    pot = Potentials([[1.0, 2.0], [3.0, 4.0], [0.5, 0.5]])
    mu = np.full((3, 2), 0.5)
    np.testing.assert_array_equal(compute_gradient(graph, pot, mu), pot.unary)


def test_solve_without_edges_steps_along_the_unary():
    # an edgeless graph takes the Potts operator with an empty adjacency,
    # whose product is bitwise zero
    rng = np.random.default_rng(41)
    for n, k in ((1, 2), (4, 3), (6, 5)):
        graph = CrfGraph(n, k)
        pot = Potentials(rng.uniform(-1.0, 1.0, size=(n, k)))
        mu = random_marginals(rng, n, k)
        np.testing.assert_array_equal(compute_gradient(graph, pot, mu), pot.unary)
        _assert_steps_along_compute_gradient(graph, pot, 5)


def test_gradient_two_node_identity_edge():
    graph = CrfGraph(2, 2, [(0, 1)])
    pot = Potentials(np.zeros((2, 2)), [np.eye(2)])
    mu = np.array([[0.5, 0.5], [1.0, 0.0]])
    q = compute_gradient(graph, pot, mu)
    np.testing.assert_allclose(q[0], [2.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(q[1], [1.0, 1.0], atol=1e-15)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(29)
    for trial in range(40):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(2, 4))
        # odd trials are Potts, so the gradient runs the Potts operator
        make = random_potts_instance if trial % 2 else random_instance
        graph, pot = make(rng, n, k, edge_prob=0.6)
        mu = random_marginals(rng, n, k)
        closed = compute_gradient(graph, pot, mu)
        fd = fd_gradient(graph, pot, mu)
        err = np.max(np.abs(closed - fd)) / max(1.0, np.max(np.abs(fd)))
        assert err < 1e-5


def _assert_steps_along_compute_gradient(graph, pot, iterations):
    """Each kept iterate of `solve` is bitwise the public update along
    the public gradient at the one before.  The callback keeps the
    arrays it is handed, uncopied, so an iterate that a later step
    wrote over would fail the comparison."""
    steps = []
    solve(
        graph,
        pot,
        SolverConfig(max_iterations=iterations, tol=1e-300),
        callback=lambda _, mu: steps.append(mu),
    )
    assert len(steps) == iterations
    assert len({id(mu) for mu in steps}) == iterations
    shifted = Potentials(*shift_to_floor(pot.unary, pot.pairwise)[:2])
    prev = _initial_marginals(shifted.unary, "uniform")
    for got in steps:
        expected = iterate(prev, compute_gradient(graph, shifted, prev))
        np.testing.assert_array_equal(got, expected)
        prev = got


def test_solve_steps_along_compute_gradient():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(2, 5))
        make = random_potts_instance if trial % 2 else random_instance
        graph, pot = make(rng, n, k, edge_prob=0.5)
        _assert_steps_along_compute_gradient(graph, pot, 5)


def test_solve_steps_along_compute_gradient_at_benchmark_scale():
    # a general instance of the problem-files size (400 nodes, K = 5,
    # about 1,100 edges) and a Potts scene of the scene-sweep size
    rng = np.random.default_rng(32)
    graph, pot = random_instance(rng, 400, 5, edge_prob=0.014)
    assert graph.num_edges > 1000 and _potts_weights(pot.pairwise) is None
    _assert_steps_along_compute_gradient(graph, pot, 6)
    scene = generate_scene(width=40, height=40, num_objects=6, num_labels=7, seed=3)
    # the scene stores Potts weights; `Potentials` finds its block
    # twin's raw blocks Potts and stores them as weights too
    twin = block_twin(scene.potentials)
    assert _potts_weights(twin.pairwise) is not None
    for pot in (scene.potentials, twin):
        _assert_steps_along_compute_gradient(scene.graph, pot, 6)


def test_uniform_start_is_bitwise_the_remainder_formula():
    def digest(mu):
        return hashlib.sha256(np.ascontiguousarray(mu).tobytes()).hexdigest()

    for n, k in (
        (1, 2), (1, 7), (3, 5), (13, 3), (400, 5), (1600, 7), (6400, 7), (5, 1000),
    ):
        flat = np.arange(n * k, dtype=np.float64)
        want = 1.0 / k + 1e-6 * (np.remainder(flat, 7.0) / 7.0).reshape(n, k)
        want /= want.sum(axis=1, keepdims=True)
        got = _initial_marginals(np.zeros((n, k)), "uniform")
        assert got.shape == (n, k) and got.dtype == np.float64
        assert digest(got) == digest(want), (n, k)


def _operator_error(graph, pairwise, mu):
    unshifted = Potentials(np.zeros(mu.shape), pairwise)
    got = _quadratic_operator(graph, _decoder_terms(unshifted, shift=False))(mu)
    # Q mu: twice the edge loop's symmetric-part product
    want = 2.0 * loop_pairwise_matvec(graph, pairwise, mu)
    assert got.shape == want.shape
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


def test_potts_operator_matches_edge_loop():
    rng = np.random.default_rng(37)
    for trial in range(60):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(2, 8))
        graph, pot = random_potts_instance(rng, n, k, edge_prob=0.3)
        if trial % 3 == 0:
            dis = rng.uniform(0.0, 1.0, size=graph.num_edges)
            pot = Potentials(pot.unary, pairwise_potential(dis, k))
        sets = random_disjoint_sets(rng, n, max_sets=4)
        reduced = reduce_problem(graph, pot, ConstraintSets(sets))
        # supernode merging sums and transposes Potts blocks: still Potts
        cases = ((graph, pot), (reduced.super_graph, reduced.reduced))
        for g, p in cases:
            if not g.num_edges:
                continue
            assert _potts_weights(p.pairwise) is not None
            mu = random_marginals(rng, g.num_nodes, k)
            assert _operator_error(g, p.pairwise, mu) < 1e-12
    # dense blocks take the K x K operator, checked against the same loop
    for _ in range(20):
        graph, pot = random_instance(rng, 8, 4, edge_prob=0.5)
        mu = random_marginals(rng, 8, 4)
        assert _operator_error(graph, pot.pairwise, mu) < 1e-12


def _off_diagonal_reach(graph, pairwise):
    """max_i sum_j |o_ij|, o_ij the off-diagonal weight of edge (i, j)'s
    symmetric part, summed edge by edge."""
    reach = np.zeros(graph.num_nodes)
    for e, (i, j) in enumerate(graph.edges.tolist()):
        off = abs(0.5 * (pairwise[e, 0, 1] + pairwise[e, 1, 0]))
        reach[i] += off
        reach[j] += off
    return reach.max(initial=0.0)


def test_potts_gradient_off_the_simplex_stays_in_its_envelope():
    """The Potts operator takes every row sum as 1.  At rows that sum to
    1 +- delta, as `check_marginals` lets through, `compute_gradient`
    differs from the polynomial gradient by at most
    2 * delta * max_i sum_j |o_ij|."""
    rng = np.random.default_rng(43)
    delta = 1e-10
    for trial in range(30):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(2, 8))
        graph, pot = random_potts_instance(rng, n, k, edge_prob=0.3)
        if not graph.num_edges:
            continue
        if trial % 3 == 0:
            dis = rng.uniform(0.0, 1.0, size=graph.num_edges)
            pot = Potentials(pot.unary, pairwise_potential(dis, k))
        mu = random_marginals(rng, n, k)
        mu *= (1.0 + rng.choice([-delta, delta], size=n))[:, None]
        rows = np.abs(mu.sum(axis=1) - 1.0)
        assert rows.max() < 1.01 * delta and rows.min() > 0.99 * delta
        got = compute_gradient(graph, pot, mu)
        want = pot.unary + 2.0 * loop_pairwise_matvec(graph, pot.pairwise, mu)
        bound = 2.0 * rows.max() * _off_diagonal_reach(graph, pot.pairwise)
        error = np.max(np.abs(got - want))
        rounding = 1e-14 * max(1.0, np.max(np.abs(want)))
        assert error <= bound + rounding, (trial, error, bound)


def test_potts_solve_follows_an_edge_loop_iteration():
    """`solve` on scene-sweep-recipe scenes against iterates built with
    no code of `_quadratic_operator`: each step is `iterate` along the
    edge-loop gradient of the floor-shifted potentials, from the same
    uniform start."""
    steps = 30
    config = SolverConfig(max_iterations=steps, tol=1e-300)
    for seed in range(3):
        scene = generate_scene(20, 20, 6, 7, noise=0.6, seed=seed)
        graph, pot = scene.graph, scene.potentials
        assert _potts_weights(pot.pairwise) is not None
        got = []
        solve(graph, pot, config, callback=lambda _, mu: got.append(mu))
        assert len(got) == steps
        unary, pairwise, _ = shift_to_floor(pot.unary, pot.pairwise)
        want = _initial_marginals(unary, "uniform")
        for it, mu in enumerate(got, 1):
            gradient = unary + 2.0 * loop_pairwise_matvec(graph, pairwise, want)
            want = iterate(want, gradient)
            assert np.max(np.abs(mu - want)) <= 1e-12, (seed, it)
            assert extract_labeling(mu).tolist() == extract_labeling(want).tolist()


def test_general_operator_is_the_coo_construction():
    """The general operator's product equals, bit for bit, that of
    scipy's COO conversion of the pairwise sums: the BSR layout on the
    sorted edge pattern leaves the order of every sum unchanged."""
    rng = np.random.default_rng(71)

    def check(graph):
        # raw blocks, asymmetric, with signed zeros among them
        n, k = graph.num_nodes, graph.num_labels
        blocks = rng.uniform(-1.0, 1.0, size=(graph.num_edges, k, k))
        blocks[rng.uniform(size=blocks.shape) < 0.1] = -0.0
        check_terms(graph, _decoder_terms(Potentials(np.zeros((n, k)), blocks), shift=False))

    def check_terms(graph, terms):
        n, k = graph.num_nodes, graph.num_labels
        if graph.num_edges:
            assert terms.potts is None
            sums = terms.sums
        else:
            sums = np.zeros((0, k, k))
        mu = random_marginals(rng, n, k)
        want = coo_general_csr(graph, sums) @ mu.ravel()
        got = _quadratic_operator(graph, terms)(mu)
        assert got.shape == (n, k)
        assert got.tobytes() == want.tobytes()

    for trial in range(40):
        n = int(rng.integers(1, 25))
        k = 2 if trial % 4 == 0 else int(rng.integers(3, 7))
        # sparse graphs leave isolated nodes, E = 0 among them
        check(random_graph(rng, n, k, edge_prob=float(rng.uniform(0.0, 0.4))))
    check(CrfGraph(3, 2))
    # a hub of degree 45 in the middle of the node order, among other
    # edges and isolated nodes
    edges = {(min(20, j), max(20, j)) for j in range(60) if j != 20 and j % 4}
    edges |= {(i, i + 1) for i in range(0, 60, 7)}
    hub = CrfGraph(64, 3, sorted(edges))
    assert np.bincount(hub.edges.ravel())[20] >= 40
    check(hub)
    # the blocks the solver sees: supernode reductions, whose merged
    # blocks are sums and transposes of the raw ones, shifted or not
    for _ in range(10):
        graph, pot = random_instance(rng, 20, 4, edge_prob=0.3)
        sets = ConstraintSets(random_disjoint_sets(rng, 20, max_sets=5))
        reduced = reduce_problem(graph, pot, sets)
        check(reduced.super_graph)
        for shift in (True, False):
            check_terms(reduced.super_graph, _decoder_terms(reduced.reduced, shift=shift))


def test_pairwise_sums_are_bitwise_symmetric():
    """Both general decoders give the two directions of an edge one
    block of `_DecoderTerms.sums`, which holds because psi + psi^T is
    its own transpose bit for bit: signed zeros and overflows included."""
    rng = np.random.default_rng(29)

    def check(pot, shifts=(True, False)):
        """The sums of `pot` under each shift, checked symmetric."""
        out = []
        for shift in shifts:
            with np.errstate(over="ignore"):
                sums = _decoder_terms(pot, shift=shift).sums
            assert sums is not None
            assert sums.tobytes() == np.ascontiguousarray(sums.transpose(0, 2, 1)).tobytes()
            out.append(sums)
        return out

    def blocks(graph, values):
        k = graph.num_labels
        return rng.choice(values, size=(graph.num_edges, k, k))

    for trial in range(20):
        graph = random_graph(rng, 12, 2 + trial % 5, edge_prob=0.5)
        n, k = graph.num_nodes, graph.num_labels
        unary = rng.uniform(-1.0, 1.0, size=(n, k))
        # asymmetric blocks with signed zeros
        raw = rng.uniform(-1.0, 1.0, size=(graph.num_edges, k, k))
        raw[rng.uniform(size=raw.shape) < 0.3] = 0.0
        raw[rng.uniform(size=raw.shape) < 0.3] = -0.0
        check(Potentials(unary, raw))
        # sums overflowing to +inf after the shift, and to +-inf without
        large = blocks(graph, [0.0, -0.0, 1.0, 1e308, 1.7e308])
        for sums in check(Potentials(unary, large)):
            assert np.isposinf(sums).any()
        signed = blocks(graph, [0.0, -0.0, 1.0, -1.7e308, 1e308, 1.7e308])
        (sums,) = check(Potentials(unary, signed), shifts=(False,))
        assert np.isposinf(sums).any() and np.isneginf(sums).any()
    for _ in range(10):
        graph, pot = random_instance(rng, 20, 4, edge_prob=0.3)
        sets = ConstraintSets(random_disjoint_sets(rng, 20, max_sets=5))
        check(reduce_problem(graph, pot, sets).reduced)


def test_potts_detection_is_bitwise_and_per_graph():
    eye = np.eye(3, dtype=bool)
    sym = np.where(eye, np.array([0.75, -2.0])[:, None, None], np.array([0.25, 0.5])[:, None, None])
    diag, off = _potts_weights(sym).T
    assert diag.tolist() == [0.75, -2.0] and off.tolist() == [0.25, 0.5]
    # one entry of one block moved by one ulp sends the whole graph to
    # the general path
    for p, q in ((0, 1), (2, 1), (1, 1)):
        moved = sym.copy()
        moved[1, p, q] = np.nextafter(moved[1, p, q], np.inf)
        assert _potts_weights(moved) is None
    graph = CrfGraph(3, 3, [(0, 1), (1, 2)])
    moved = sym.copy()
    moved[0, 0, 2] = moved[0, 2, 0] = np.nextafter(0.25, 1.0)
    mu = random_marginals(np.random.default_rng(3), 3, 3)
    assert _potts_weights(0.5 * (moved + moved.transpose(0, 2, 1))) is None
    assert _operator_error(graph, moved, mu) < 1e-15
    assert _operator_error(graph, sym, mu) < 1e-15


def test_potts_is_decided_from_the_raw_blocks():
    # The unary and pairwise minima sit on the floor, so the shift is 0
    # and cannot round a moved entry back.  0.25 + ulp and 0.75 + ulp
    # have odd last bits, so the half-ulp tie of an entry moved by one
    # ulp plus its unmoved transpose rounds away from the unmoved sum.
    # A negated entry of a zero block is -0.0, equal to 0.0 as a float.
    floor = 1e-9
    d, o = np.nextafter(0.75, 1.0), np.nextafter(0.25, 1.0)
    moves = (lambda x: np.nextafter(x, -np.inf), lambda x: np.nextafter(x, np.inf), np.negative)
    for k in (2, 3, 7):
        eye = np.eye(k, dtype=bool)
        pairwise = np.stack([np.full((k, k), floor), np.where(eye, d, o)])
        zero = np.zeros((2, k, k))
        unary = np.ones((3, k))
        unary[0, 0] = floor
        terms = _decoder_terms(Potentials(unary, pairwise))
        assert terms.offset == 0.0 and terms.sums is None
        assert terms.potts.tolist() == [[2 * floor, 2 * floor], [2 * d, 2 * o]]
        assert Potentials(unary, zero).potts.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        for p, q in np.ndindex(k, k):
            for move, blocks in itertools.product(moves, (pairwise, zero)):
                moved = blocks.copy()
                moved[1, p, q] = move(moved[1, p, q])
                assert _potts_weights(moved) is None
                terms = _decoder_terms(Potentials(unary, moved))
                assert terms.potts is None and terms.sums.shape == (2, k, k)


def test_asymmetric_blocks_with_a_potts_symmetric_part_take_the_general_path():
    rng = np.random.default_rng(61)
    graph, pot = random_potts_instance(rng, 10, 3, edge_prob=0.5)
    # off-diagonals 0.25 +- 0.125 across the diagonal: no raw block is
    # Potts, every symmetric part is, and the diagonal 1e-9 is the floor
    # (a zero pairwise shift), so 0.375 + 0.125 == 0.25 + 0.25 exactly
    skew = np.triu(np.full((3, 3), 0.125), 1)
    block = np.where(np.eye(3, dtype=bool), 1e-9, 0.25) + skew - skew.T
    pot = Potentials(pot.unary, np.broadcast_to(block, (graph.num_edges, 3, 3)))
    assert _potts_weights(pot.pairwise) is None
    potts_sums = np.where(np.eye(3, dtype=bool), 2e-9, 0.5)
    for shift in (True, False):
        terms = _decoder_terms(pot, shift)
        assert terms.potts is None
        assert terms.sums.shape == (graph.num_edges, 3, 3)
        assert (terms.sums.view(np.uint64) == potts_sums.view(np.uint64)).all()
    mu = random_marginals(rng, 10, 3)
    assert _operator_error(graph, pot.pairwise, mu) < 1e-12
    want = pot.unary + 2.0 * loop_pairwise_matvec(graph, pot.pairwise, mu)
    np.testing.assert_allclose(compute_gradient(graph, pot, mu), want, rtol=1e-12)
    steps = []
    config = SolverConfig(max_iterations=5, tol=1e-300)
    solve(graph, pot, config, callback=lambda _, mu: steps.append(mu.copy()))
    shifted = Potentials(*shift_to_floor(pot.unary, pot.pairwise)[:2])
    prev = _initial_marginals(shifted.unary, "uniform")
    for got in steps:
        np.testing.assert_array_equal(got, iterate(prev, compute_gradient(graph, shifted, prev)))
        prev = got
    labeling, report = lbp_map(graph, pot, max_iters=30)
    want_lab, want_report = dense_lbp(graph, pot, max_iters=30)
    assert labeling.tolist() == want_lab.tolist()
    assert report.objective_trace == want_report.objective_trace
    assert report.iterations == want_report.iterations


def test_floor_shift_overflow_is_rejected():
    graph = CrfGraph(3, 3, [(0, 1), (1, 2)])
    eye = np.eye(3, dtype=bool)
    wide_unary = np.zeros((3, 3))
    wide_unary[0, :2] = 1e308, -1e308
    cases = (
        Potentials(wide_unary, [np.where(eye, 0.5, 0.25)] * 2),
        Potentials(np.zeros((3, 3)), [np.where(eye, 1e308, -1e308)] * 2),
        Potentials(np.zeros((3, 3)), [np.diag([1e308, -1e308, 0.0])] * 2),
    )
    mu = np.full((3, 3), 1.0 / 3.0)
    for pot in cases:
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="potentials must be finite"):
                solve(graph, pot)
            with pytest.raises(ValueError, match="potentials must be finite"):
                lbp_map(graph, pot)
    # the gradient is that of the unshifted objective: no shift runs, so
    # the wide unary alone stays finite
    pot = cases[0]
    want = pot.unary + 2.0 * loop_pairwise_matvec(graph, pot.pairwise, mu)
    np.testing.assert_allclose(compute_gradient(graph, pot, mu), want, rtol=1e-12)
    # psi + psi^T overflows in the other two: the reference gradient is
    # all NaN, or rows of +-inf, and compute_gradient refuses it
    for pot in cases[1:]:
        with np.errstate(over="ignore", invalid="ignore"):
            want = pot.unary + 2.0 * loop_pairwise_matvec(graph, pot.pairwise, mu)
            assert not np.isfinite(want).all(axis=1).any()
            with pytest.raises(ValueError, match="gradient overflows"):
                compute_gradient(graph, pot, mu)


def test_potts_set_up_copies_no_block():
    scene = generate_scene(40, 40, num_objects=3, num_labels=7, seed=0)
    graph = scene.graph
    mu = np.full((graph.num_nodes, 7), 1.0 / 7.0)
    # peak traced bytes, in units of the (E, K, K) pairwise array
    block_bytes = graph.num_edges * 7 * 7 * 8
    # stored Potts weights, and the blocks they stand for
    for pot in (scene.potentials, block_twin(scene.potentials)):
        runs = (
            (lambda: solve(graph, pot, SolverConfig(max_iterations=5)), 1),
            (lambda: compute_gradient(graph, pot, mu), 1),
            (lambda: lbp_map(graph, pot, max_iters=5), 2),
        )
        for run, limit in runs:
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit * block_bytes


def test_iterate_known_step():
    out = iterate(np.array([[0.5, 0.5]]), np.array([[2.0, 1.0]]))
    np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_iterate_fixed_points():
    mu = np.array([[0.3, 0.7], [1.0, 0.0]])
    # constant gradient rows leave the iterate unchanged
    np.testing.assert_allclose(iterate(mu, np.full((2, 2), 4.0)), mu, atol=1e-15)
    # vertices are fixed for any positive gradient
    vertex = np.array([[0.0, 1.0]])
    np.testing.assert_allclose(iterate(vertex, [[5.0, 2.0]]), vertex, atol=1e-15)


def test_iterate_degenerate_and_invalid_input():
    mu = np.array([[0.4, 0.6]])
    np.testing.assert_array_equal(iterate(mu, [[0.0, 0.0]]), mu)
    # zero-normalizer rows are kept, the other rows still update
    rows = np.array([[0.4, 0.6], [0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
    q = np.array([[0.0, 0.0], [2.0, 1.0], [0.0, 3.0], [1.0, 1.0]])
    out = iterate(rows, q)
    np.testing.assert_array_equal(out[[0, 2]], rows[[0, 2]])
    np.testing.assert_array_equal(out[1], np.array([1.0, 0.5]) / 1.5)
    np.testing.assert_array_equal(out[3], rows[3])
    with pytest.raises(ValueError, match="negative"):
        iterate(mu, [[-1.0, 1.0]])
    with pytest.raises(ValueError, match="shape"):
        iterate(mu, [[1.0, 1.0, 1.0]])


def test_step_is_bitwise_the_broadcast_divide():
    """`iterate` and the softmax start divide rows by their normalizers
    repeated K times; that equals `x / norms[:, None]` bit for bit, zero
    rows (kept from the previous iterate) included."""
    rng = np.random.default_rng(83)
    for n, k in ((1, 2), (13, 3), (400, 5), (1600, 7), (6400, 7), (5, 1000)):
        mu = random_marginals(rng, n, k)
        q = rng.uniform(0.0, 3.0, size=(n, k))
        q[rng.uniform(size=(n, k)) < 0.2] = 0.0
        # every fourth row from the second is a zero row: none at n = 1
        q[1::4] = 0.0
        mu[rng.uniform(size=(n, k)) < 0.1] = 0.0
        mu_in, q_in = mu.copy(), q.copy()
        out = mu * q
        norms = out @ np.ones(k)
        degenerate = norms == 0.0
        assert degenerate.any() == (n > 1)
        norms[degenerate] = 1.0
        want = out / norms[:, None]
        want[degenerate] = mu[degenerate]
        got = iterate(mu, q)
        assert got.tobytes() == want.tobytes(), (n, k)
        # neither argument is written: the step goes into a new array
        assert mu.tobytes() == mu_in.tobytes() and q.tobytes() == q_in.tobytes()
        assert got is not mu and got is not q
        unary = rng.uniform(-5.0, 5.0, size=(n, k))
        exp = np.exp(unary - unary.max(axis=1, keepdims=True))
        want = exp / exp.sum(axis=1, keepdims=True)
        assert _initial_marginals(unary, "unary_softmax").tobytes() == want.tobytes()


def test_kept_iterates_survive_the_solve():
    """Each iterate is written into the operator's fresh output, so a
    callback that keeps the arrays it is handed still holds, once
    `solve` returns, what it was handed, on Potts and general graphs,
    constrained or not."""
    rng = np.random.default_rng(89)
    scene = generate_scene(20, 20, 4, 5, seed=2)
    general = random_instance(rng, 60, 4, edge_prob=0.1)
    sets = ConstraintSets(random_disjoint_sets(rng, 60, max_sets=5))
    config = SolverConfig(max_iterations=12, tol=1e-300)
    runs = (
        (scene.graph, scene.potentials, None),
        (*general, None),
        (*general, sets),
    )
    for graph, pot, constraint_sets in runs:
        kept = []

        def keep(_, mu):
            kept.append((mu, mu.copy()))

        if constraint_sets is None:
            solve(graph, pot, config, callback=keep)
        else:
            solve_constrained(graph, pot, constraint_sets, config, callback=keep)
        assert len(kept) == 12 and len({id(mu) for mu, _ in kept}) == 12
        for mu, copy in kept:
            assert mu.tobytes() == copy.tobytes()


def test_solve_single_node_reaches_the_vertex():
    graph = CrfGraph(1, 2)
    pot = Potentials([[3.0, 1.0]])
    mu, report = solve(graph, pot)
    assert extract_labeling(mu).tolist() == [0]
    assert mu[0, 0] > 0.999
    assert report.converged
    assert report.final_objective == pytest.approx(3.0, abs=1e-3)
    assert report.final_objective == report.objective_trace[-1]


def test_solve_trace_monotone_and_iterates_on_simplex():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(2, 5))
        graph, pot = random_instance(rng, n, k, edge_prob=0.5)

        seen = []

        def watch(_, mu):
            rows = mu.sum(axis=1)
            assert np.all(np.abs(rows - 1.0) <= 1e-9)
            assert mu.min() >= -1e-12 and mu.max() <= 1.0 + 1e-12
            seen.append(True)

        _, report = solve(graph, pot, callback=watch)
        assert len(seen) == report.iterations
        steps = np.diff(report.objective_trace)
        assert steps.min(initial=0.0) >= -1e-9


def test_uniform_shift_never_changes_the_labeling():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(2, 4))
        graph, pot = random_instance(rng, n, k, edge_prob=0.5)
        lifted = Potentials(pot.unary + 5.0, pot.pairwise + 5.0)
        mu_a, _ = solve(graph, pot)
        mu_b, _ = solve(graph, lifted)
        assert extract_labeling(mu_a).tolist() == extract_labeling(mu_b).tolist()
        # at any fixed point the reported objectives differ by the offset
        gap = 5.0 * n + 5.0 * 2 * graph.num_edges
        assert objective(graph, lifted, mu_a) - objective(graph, pot, mu_a) == pytest.approx(
            gap, abs=1e-9
        )


def test_solve_handles_all_zero_potentials():
    graph = CrfGraph(3, 2, [(0, 1), (1, 2)])
    pot = Potentials(np.zeros((3, 2)), np.zeros((2, 2, 2)))
    mu, report = solve(graph, pot)
    assert np.all(np.isfinite(mu))
    assert report.converged


def test_unary_softmax_init_agrees_on_easy_instance():
    graph = CrfGraph(2, 2, [(0, 1)])
    pot = Potentials([[4.0, 0.0], [4.0, 0.0]], [np.eye(2)])
    for init in ("uniform", "unary_softmax"):
        mu, _ = solve(graph, pot, SolverConfig(init=init))
        assert extract_labeling(mu).tolist() == [0, 0]


def _probe_instance(seed, lead):
    """150 nodes, K = 4: the leading nodes, whose rows fill the probed
    entries of the iterate, are isolated with flat unaries (they never
    move) or one strong label (they settle within a few steps); the
    others carry random unaries and Potts edges, and settle slowly."""
    rng = np.random.default_rng(seed)
    n, k = 150, 4
    nl = _PROBE // k
    edges = random_graph(rng, n - nl, k, edge_prob=0.05).edges + nl
    unary = rng.uniform(-1.0, 1.0, size=(n, k))
    unary[:nl] = 0.0
    if lead == "strong":
        unary[np.arange(nl), rng.integers(0, k, nl)] = 3.0
    diag, off = rng.uniform(0.0, 1.0, size=(2, len(edges), 1, 1))
    pairwise = np.where(np.eye(k, dtype=bool), diag, off)
    return CrfGraph(n, k, edges), Potentials(unary, pairwise)


@pytest.mark.parametrize(
    "lead, config",
    [
        ("flat", SolverConfig(tol=1e-4)),
        ("strong", SolverConfig(tol=1e-3)),
        ("strong", SolverConfig(max_iterations=30, tol=1e-6)),
    ],
)
def test_stop_test_probe_matches_a_whole_iterate_scan(lead, config):
    graph, pot = _probe_instance(3, lead)
    kept = []
    mu, report = solve(graph, pot, config, callback=lambda _, m: kept.append(m))

    # the whole-scan stop and trace, replayed over the kept iterates
    terms = _decoder_terms(pot)
    matvec = _quadratic_operator(graph, terms)
    b = terms.unary.ravel()

    def value(m):
        a = m.ravel()
        return float(b @ a + 0.5 * (a @ matvec(m).ravel())) - terms.offset

    prev = _initial_marginals(terms.unary, config.init)
    trace, heads, changes = [value(prev)], [], []
    for m in kept:
        step = np.abs(m - prev).ravel()
        heads.append(step[:_PROBE].max())
        changes.append(step.max())
        trace.append(value(m))
        prev = m
    converged = changes[-1] < config.tol
    assert min(changes[:-1], default=np.inf) >= config.tol
    assert report.iterations == len(kept)
    assert converged == report.converged
    assert converged or report.iterations == config.max_iterations
    assert np.asarray(report.objective_trace).tobytes() == np.asarray(trace).tobytes()
    assert mu is kept[-1]

    # the probed entries settle while the whole iterate still moves:
    # from the first step (flat), or after probes at or above tol
    settled = [t for t, h in enumerate(heads) if h < config.tol <= changes[t]]
    assert settled
    assert (settled[0] == 0) == (lead == "flat")


def test_solver_config_validation():
    for cap in (0, -1, 2.5, 3.0, True, np.bool_(True), "3"):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=cap)
    # numpy integers pass
    graph, pot = CrfGraph(1, 2, []), Potentials([[1.0, 0.0]], np.zeros((0, 2, 2)))
    _, report = solve(graph, pot, SolverConfig(max_iterations=np.int64(1), tol=1e-300))
    assert report.iterations == 1
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)
    with pytest.raises(ValueError, match="init"):
        SolverConfig(init="zeros")
    with pytest.raises(TypeError):
        SolverConfig(epsilon_shift=1e-6)


def test_poisoned_iterate_raises_solver_failure():
    graph = CrfGraph(2, 2, [(0, 1)])
    pot = Potentials([[1.0, 0.5], [0.5, 1.0]], [np.eye(2)])

    for bad in (np.nan, np.inf, -np.inf):

        def poison(iteration, mu):
            # corrupt the running iterate to exercise the failure path
            mu[:] = bad

        # inf / inf rows warn on their way to NaN
        with np.errstate(invalid="ignore"), pytest.raises(SolverFailure, match="non-finite"):
            solve(graph, pot, callback=poison)


def test_non_finite_iterate_raises_non_finite_marginals():
    # node 2 is isolated, so its poisoned row never reaches the gradient
    # of the other rows, and its own gradient row stays its finite unary
    graph = CrfGraph(3, 2, [(0, 1)])
    pot = Potentials([[1.0, 0.5], [0.5, 1.0], [0.2, 0.3]], [np.eye(2)])

    for bad in (np.inf, np.nan):

        def poison(iteration, mu):
            if iteration == 3:
                mu[2] = bad

        with np.errstate(invalid="ignore"), pytest.raises(SolverFailure) as failure:
            solve(graph, pot, SolverConfig(tol=1e-300), callback=poison)
        assert str(failure.value) == "non-finite marginals at iteration 4"


def test_infinite_objective_raises_solver_failure():
    # a star whose three edges each score 4e307 on (0, 0): the first
    # step's gradient is finite, its objective is not
    graph = CrfGraph(4, 2, [(0, 1), (0, 2), (0, 3)])
    pairwise = np.zeros((3, 2, 2))
    pairwise[:, 0, 0] = 4e307
    unary = np.zeros((4, 2))
    unary[1:] = 1.0
    pot = Potentials(unary, pairwise)
    for cap, failure in ((1, "non-finite objective at iteration 1"),
                         (2, "non-finite gradient at iteration 2")):
        with pytest.raises(SolverFailure) as raised:
            solve(graph, pot, SolverConfig(max_iterations=cap))
        assert str(raised.value) == failure


def test_constrained_solve_with_no_sets_matches_unconstrained():
    rng = np.random.default_rng(47)
    graph, pot = random_instance(rng, 7, 3, edge_prob=0.5)
    mu_plain, rep_plain = solve(graph, pot)
    mu_con, labeling, rep_con = solve_constrained(graph, pot, ConstraintSets())
    np.testing.assert_allclose(mu_con, mu_plain, atol=1e-12)
    assert labeling.tolist() == extract_labeling(mu_plain).tolist()
    assert rep_con.final_objective == pytest.approx(rep_plain.final_objective, abs=1e-12)


def test_single_set_covering_all_nodes_picks_best_common_label():
    rng = np.random.default_rng(53)
    for _ in range(10):
        n, k = 5, 3
        graph, pot = random_instance(rng, n, k, edge_prob=0.7)
        sets = ConstraintSets([tuple(range(n))])
        _, labeling, _ = solve_constrained(graph, pot, sets)
        # the reduced problem is a single node: best common label by
        # summed unaries plus both directions of every edge diagonal
        scores = pot.unary.sum(axis=0)
        for e in range(graph.num_edges):
            scores = scores + 2.0 * np.diag(pot.pairwise[e])
        assert labeling.tolist() == [int(np.argmax(scores))] * n


def test_constrained_solve_never_splits_a_set():
    rng = np.random.default_rng(59)
    for _ in range(25):
        n = int(rng.integers(5, 12))
        k = int(rng.integers(2, 5))
        graph, pot = random_instance(rng, n, k, edge_prob=0.4)
        sets = ConstraintSets(random_disjoint_sets(rng, n))
        mu, labeling, _ = solve_constrained(graph, pot, sets)
        for members in sets:
            values = {int(labeling[i]) for i in members}
            assert len(values) == 1
            for i in members[1:]:
                np.testing.assert_array_equal(mu[i], mu[members[0]])


# Property tests of the floor shift's envelope: inputs at scales from
# 1e-12 to 1e8, pre-rounded at offsets up to 1e12 as (p + c) - c, on the
# Potts and the general path, on the shapes where a shift or a step is
# most likely to break.
PROPERTY_SCALES = (1e-12, 1e-4, 1.0, 1e8)
PROPERTY_OFFSETS = (0.0, 1e6, 1e12, -1e12)
PROPERTY_CONFIG = SolverConfig(max_iterations=60, tol=1e-6)


PROPERTY_GRAPHS = [
    pytest.param(CrfGraph(6, 2, [(i, i + 1) for i in range(5)] + [(0, 5)]), [(1, 4)], id="K=2"),
    pytest.param(CrfGraph(1, 3), [], id="N=1"),
    pytest.param(CrfGraph(5, 3), [(0, 2)], id="edgeless"),
    pytest.param(
        CrfGraph(6, 3, [(0, 1), (1, 2), (3, 4), (4, 5)]), [(0, 5)], id="disconnected"
    ),
    pytest.param(CrfGraph(5, 3, [(0, 1), (1, 2), (2, 3), (3, 4)]), [range(5)], id="one-set"),
]


def _property_potentials(rng, graph, path, scale, offset):
    """Potentials (p + c) - c with p drawn at `scale`: tied (every entry
    equal), Potts (one diagonal and one off-diagonal value per edge) or
    general (every block entry drawn)."""
    n, k, e = graph.num_nodes, graph.num_labels, graph.num_edges
    if path == "tied":
        unary = np.full((n, k), scale)
        pairwise = np.full((e, k, k), scale)
    else:
        unary = rng.uniform(-scale, scale, size=(n, k))
        if path == "potts":
            diag = rng.uniform(-scale, scale, size=(e, 1, 1))
            off = rng.uniform(-scale, scale, size=(e, 1, 1))
            pairwise = np.where(np.eye(k, dtype=bool), diag, off)
        else:
            pairwise = rng.uniform(-scale, scale, size=(e, k, k))
    return Potentials((unary + offset) - offset, (pairwise + offset) - offset)


def _uniform_start(n, k):
    # the documented start: 1/k + 1e-6 * (m % 7) / 7 per flat entry m
    flat = np.arange(n * k, dtype=np.float64)
    start = 1.0 / k + 1e-6 * (np.remainder(flat, 7.0) / 7.0).reshape(n, k)
    return start / start.sum(axis=1, keepdims=True)


def _shifted_scale(graph, pot):
    """A bound on the shifted objective: every shifted entry lies within
    the spread of its array plus the floor."""
    spread = [np.ptp(x) + 1e-9 if x.size else 0.0 for x in (pot.unary, pot.pairwise)]
    return graph.num_nodes * spread[0] + 2 * graph.num_edges * spread[1]


def _assert_solve_properties(mu, report, iterates, config, scale):
    """Simplex rows, a trace that never falls beyond roundoff at `scale`,
    the size of the shifted objective, and a stop that `converged` and
    `iterations` explain exactly."""
    for x in [mu, *iterates]:
        check_marginals(x)
    assert iterates[-1] is mu or report.iterations == 0
    trace = np.asarray(report.objective_trace)
    assert trace.shape == (report.iterations + 1,)
    assert report.final_objective == trace[-1]
    # the shifted objective's roundoff, plus the rounding of subtracting
    # the shift's offset, which moves every entry by up to an ulp
    slack = 1e-12 * scale + 4 * np.spacing(np.abs(trace).max())
    assert np.diff(trace).min(initial=0.0) >= -slack
    previous = [_uniform_start(*mu.shape), *iterates[:-1]]
    changes = [float(np.abs(b - a).max()) for a, b in zip(previous, iterates)]
    assert len(changes) == report.iterations >= 1
    assert all(c >= config.tol for c in changes[:-1])
    if report.converged:
        assert changes[-1] < config.tol
    else:
        assert changes[-1] >= config.tol
        assert report.iterations == config.max_iterations


@pytest.mark.parametrize("graph, sets", PROPERTY_GRAPHS)
def test_solve_properties_hold_across_scales_and_offsets(graph, sets):
    rng = np.random.default_rng(61)
    sets = ConstraintSets(sets)
    for path in ("tied", "potts", "general"):
        for scale in PROPERTY_SCALES:
            for offset in PROPERTY_OFFSETS:
                pot = _property_potentials(rng, graph, path, scale, offset)
                bound = _shifted_scale(graph, pot)
                iterates = []
                mu, report = solve(
                    graph, pot, PROPERTY_CONFIG, callback=lambda _, m: iterates.append(m)
                )
                _assert_solve_properties(mu, report, iterates, PROPERTY_CONFIG, bound)
                if path == "tied":
                    # the uniform start's perturbation is the only signal
                    assert report.iterations >= 1

                reduced = []
                mu_c, labeling, report_c = solve_constrained(
                    graph, pot, sets, PROPERTY_CONFIG, callback=lambda _, m: reduced.append(m)
                )
                _assert_solve_properties(reduced[-1], report_c, reduced, PROPERTY_CONFIG, bound)
                check_marginals(mu_c, graph.num_nodes, graph.num_labels)
                assert labeling.tolist() == extract_labeling(mu_c).tolist()
                for members in sets:
                    assert len({int(labeling[i]) for i in members}) == 1
                    for i in members:
                        assert np.array_equal(mu_c[i], mu_c[members[0]])

                # pre-rounded inputs take their offset back exactly, so both
                # shift to the same floor-relative potentials and solve alike
                lifted = Potentials(pot.unary + offset, pot.pairwise + offset)
                assert np.array_equal(lifted.unary - offset, pot.unary)
                assert np.array_equal(lifted.pairwise - offset, pot.pairwise)
                mu_l, report_l = solve(graph, lifted, PROPERTY_CONFIG)
                assert mu_l.tobytes() == mu.tobytes()
                assert report_l.iterations == report.iterations
