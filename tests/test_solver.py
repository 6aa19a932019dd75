"""Floor shift, the closed-form gradient (the sparse operator `solve`
iterates with), the multiplicative update, and the full solve loops."""

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
from crfqp.core import objective
from crfqp.potentials import pairwise_potential
from crfqp.solver import (
    ShiftOffsets,
    _decoder_terms,
    _initial_marginals,
    _potts_weights,
    _quadratic_operator,
    iterate,
    shift_to_floor,
)
from helpers import (
    dense_lbp,
    fd_gradient,
    loop_pairwise_matvec,
    random_disjoint_sets,
    random_instance,
    random_marginals,
    random_potts_instance,
)


def test_shift_lowers_positive_minimum_to_floor():
    pot = Potentials([[1.0, 2.0]], [np.array([[3.0, 4.0], [5.0, 6.0]])])
    shifted, offsets = shift_to_floor(pot)
    assert offsets.unary == 1e-9 - 1.0
    assert offsets.pairwise == 1e-9 - 3.0
    assert shifted.unary.min() == pytest.approx(1e-9, rel=1e-6)
    assert shifted.pairwise.min() == pytest.approx(1e-9, rel=1e-6)
    # a problem already on the floor comes back unchanged
    on_floor = Potentials([[1e-9, 2.0]], [np.array([[1e-9, 4.0], [5.0, 6.0]])])
    same, offsets = shift_to_floor(on_floor)
    assert same is on_floor
    assert offsets.unary == 0.0 and offsets.pairwise == 0.0


def test_shift_lifts_minimum_to_epsilon():
    pot = Potentials([[-2.0, 1.0]], [np.array([[0.5, -0.25], [0.0, 0.0]])])
    shifted, offsets = shift_to_floor(pot)
    assert offsets.unary == pytest.approx(2.0 + 1e-9, rel=1e-12)
    assert offsets.pairwise == pytest.approx(0.25 + 1e-9, rel=1e-12)
    assert shifted.unary.min() == pytest.approx(1e-9, rel=1e-6)
    assert shifted.pairwise.min() == pytest.approx(1e-9, rel=1e-6)


def test_shift_offset_accounts_for_objective_change():
    rng = np.random.default_rng(4)
    # negative minima are lifted, positive ones lowered
    for low, high in ((-1.0, 1.0), (0.5, 2.0)):
        graph, pot = random_instance(rng, 5, 3, edge_prob=0.6, low=low, high=high)
        shifted, offsets = shift_to_floor(pot)
        delta = offsets.objective_offset(graph)
        for _ in range(10):
            mu = random_marginals(rng, 5, 3)
            assert objective(graph, shifted, mu) - objective(
                graph, pot, mu
            ) == pytest.approx(delta, abs=1e-9)


def test_gradient_without_edges_is_the_unary():
    graph = CrfGraph(3, 2)
    pot = Potentials([[1.0, 2.0], [3.0, 4.0], [0.5, 0.5]])
    mu = np.full((3, 2), 0.5)
    np.testing.assert_array_equal(compute_gradient(graph, pot, mu), pot.unary)


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


def test_solve_steps_along_compute_gradient():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(2, 5))
        make = random_potts_instance if trial % 2 else random_instance
        graph, pot = make(rng, n, k, edge_prob=0.5)
        steps = []
        solve(
            graph,
            pot,
            SolverConfig(max_iterations=5, tol=1e-300),
            callback=lambda _, mu: steps.append(mu.copy()),
        )
        assert len(steps) == 5
        shifted, _ = shift_to_floor(pot)
        prev = _initial_marginals(shifted.unary, "uniform")
        # each step is bitwise the public update along the public gradient
        for got in steps:
            expected = iterate(prev, compute_gradient(graph, shifted, prev))
            np.testing.assert_array_equal(got, expected)
            prev = got


def _operator_error(graph, pairwise, mu):
    unshifted = Potentials(np.zeros(mu.shape), pairwise)
    got = _quadratic_operator(graph, _decoder_terms(unshifted, shift=False))(mu)
    want = loop_pairwise_matvec(graph, pairwise, mu)
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
    k, floor = 3, 1e-9
    eye = np.eye(k, dtype=bool)
    d, o = np.nextafter(0.75, 1.0), np.nextafter(0.25, 1.0)
    pairwise = np.stack([np.full((k, k), floor), np.where(eye, d, o)])
    unary = np.ones((3, k))
    unary[0, 0] = floor
    terms = _decoder_terms(Potentials(unary, pairwise))
    assert terms.offsets == ShiftOffsets(0.0, 0.0) and terms.sums is None
    assert terms.potts.tolist() == [[2 * floor, 2 * floor], [2 * d, 2 * o]]
    for p in range(k):
        for q in range(k):
            for direction in (-np.inf, np.inf):
                moved = pairwise.copy()
                moved[1, p, q] = np.nextafter(moved[1, p, q], direction)
                assert _potts_weights(moved) is None
                terms = _decoder_terms(Potentials(unary, moved))
                assert terms.potts is None and terms.sums.shape == (2, k, k)


def test_asymmetric_blocks_with_a_potts_symmetric_part_take_the_potts_path():
    rng = np.random.default_rng(61)
    graph, pot = random_potts_instance(rng, 10, 3, edge_prob=0.5)
    # off-diagonals 0.25 +- 0.125 across the diagonal: no raw block is
    # Potts, every symmetric part is, and the diagonal 1e-9 is the floor
    # (a zero pairwise shift), so 0.375 + 0.125 == 0.25 + 0.25 exactly
    skew = np.triu(np.full((3, 3), 0.125), 1)
    block = np.where(np.eye(3, dtype=bool), 1e-9, 0.25) + skew - skew.T
    pot = Potentials(pot.unary, np.broadcast_to(block, (graph.num_edges, 3, 3)))
    assert _potts_weights(pot.pairwise) is None
    for shift in (True, False):
        terms = _decoder_terms(pot, shift)
        assert terms.sums is None
        assert terms.potts.tolist() == [[2e-9, 0.5]] * graph.num_edges
    mu = random_marginals(rng, 10, 3)
    assert _operator_error(graph, pot.pairwise, mu) < 1e-12
    want = pot.unary + 2.0 * loop_pairwise_matvec(graph, pot.pairwise, mu)
    np.testing.assert_allclose(compute_gradient(graph, pot, mu), want, rtol=1e-12)
    steps = []
    config = SolverConfig(max_iterations=5, tol=1e-300)
    solve(graph, pot, config, callback=lambda _, mu: steps.append(mu.copy()))
    shifted, _ = shift_to_floor(pot)
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
    graph, pot = scene.graph, scene.potentials
    mu = np.full((graph.num_nodes, 7), 1.0 / 7.0)
    # peak traced bytes, in units of the (E, K, K) pairwise array
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
        assert peak < limit * pot.pairwise.nbytes


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


def test_solver_config_validation():
    with pytest.raises(ValueError, match="max_iterations"):
        SolverConfig(max_iterations=0)
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
