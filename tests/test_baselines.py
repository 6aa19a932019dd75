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
from crfqp.baselines import (
    _PROBE_COLUMNS,
    BRUTE_FORCE_LIMIT,
    _belief_sum,
    _halving_is_exact,
)
from crfqp.solver import _decoder_terms
from helpers import (
    dense_lbp,
    enumerate_map,
    random_disjoint_sets,
    random_graph,
    random_instance,
    random_potts_instance,
    random_tree,
)


def _grid(width, height, num_labels):
    """A width x height 4-neighbour grid, edges sorted."""
    edges = [(i, i + 1) for i in range(width * height) if (i + 1) % width]
    edges += [(i, i + width) for i in range(width * (height - 1))]
    return CrfGraph(width * height, num_labels, sorted(edges))


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
    graph = _grid(3, 3, 3)
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
    for cap in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="max_iters"):
            lbp_map(graph, pot, max_iters=cap)
    _, report = lbp_map(graph, pot, max_iters=np.int64(1))
    assert report.iterations == 1


def _outcome(decoder, graph, pot, **kwargs):
    """A decoder's labeling, trace, best value, iteration count and
    convergence, or the message of its `SolverFailure`."""
    try:
        labeling, report = decoder(graph, pot, **kwargs)
    except SolverFailure as exc:
        return str(exc)
    return (
        labeling.tolist(),
        report.objective_trace,
        report.final_objective,
        report.iterations,
        report.converged,
    )


def _assert_same_run(graph, pot, **kwargs):
    want = _outcome(dense_lbp, graph, pot, **kwargs)
    assert not isinstance(want, str), want
    assert _outcome(lbp_map, graph, pot, **kwargs) == want


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


def _halves(graph, pot, max_iters=200):
    """Whether lbp_map damps in two passes (at damping 0.5)."""
    max_degree = int(np.bincount(graph.edges.ravel(), minlength=graph.num_nodes).max())
    return _halving_is_exact(_decoder_terms(pot), max_degree, max_iters)


def test_lbp_matches_dense_reference_near_overflow():
    # sparse potentials between 1e305 and 8e307: where new + old
    # overflows, damping must fall back to three passes
    graph = _grid(4, 4, 3)
    shape = (graph.num_nodes, 3), (graph.num_edges, 3, 3)
    fallbacks = finished = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for probe in range(150):
            rng = np.random.default_rng([101, probe])
            unary, pairwise = (
                10 ** rng.uniform(305, np.log10(8e307))
                * (rng.uniform(size=s) < 0.4)
                * rng.uniform(0.5, 1.0, size=s)
                for s in shape
            )
            pot = Potentials(unary, pairwise)
            fallbacks += not _halves(graph, pot, 50)
            want = _outcome(dense_lbp, graph, pot, max_iters=50)
            assert _outcome(lbp_map, graph, pot, max_iters=50) == want
            finished += not isinstance(want, str)
    # both damping forms run, and nearly every run finishes
    assert 40 < fallbacks < 110 and finished > 140


def _settling_lead(seed, potts):
    """A chain of strongly labelled nodes whose edges come first, so its
    messages fill the probed columns, then a weakly labelled 8 x 8 grid
    whose messages settle later; K = 3, Potts or general blocks."""
    rng = np.random.default_rng(seed)
    k, lead = 3, _PROBE_COLUMNS + 1
    grid = _grid(8, 8, k).edges + lead
    edges = [(i, i + 1) for i in range(lead - 1)] + grid.tolist()
    n = lead + 64
    unary = rng.uniform(-1.0, 1.0, size=(n, k))
    unary[:lead] = 0.0
    unary[np.arange(lead), rng.integers(0, k, lead)] = 5.0
    if potts:
        diag, off = rng.uniform(0.0, 0.6, size=(2, len(edges), 1, 1))
        pairwise = np.where(np.eye(k, dtype=bool), diag, off)
    else:
        pairwise = rng.uniform(0.0, 0.6, size=(len(edges), k, k))
    return CrfGraph(n, k, edges), Potentials(unary, pairwise)


@pytest.mark.parametrize("potts, seeds", [(True, (0, 1)), (False, (1, 2))])
def test_lbp_stop_test_probe_matches_dense_reference(potts, seeds):
    cases = [_settling_lead(seed, potts) for seed in seeds]
    if potts:
        scenes = [generate_scene(16, 16, 3, 4, seed=seed) for seed in range(2)]
        cases += [(scene.graph, scene.potentials) for scene in scenes]
    else:
        rng = np.random.default_rng(113)
        cases += [random_tree(rng, 60, 4) for _ in range(2)]
    settled_first = 0
    for graph, pot in cases:
        assert _halves(graph, pot)
        changes = []
        want = _outcome(dense_lbp, graph, pot, changes=changes)
        assert _outcome(lbp_map, graph, pot) == want
        assert want[-1]  # converged
        # iterations where the probed columns have settled and others not
        heads = [c[:_PROBE_COLUMNS].max() for c in changes]
        settled_first += any(h < 1e-6 <= c.max() for h, c in zip(heads, changes))
    assert settled_first >= len(seeds)


def test_lbp_matches_dense_reference_at_other_dampings():
    scene = generate_scene(18, 15, num_objects=3, num_labels=5, seed=1)
    rng = np.random.default_rng(103)
    cases = [(scene.graph, scene.potentials)]
    for _ in range(6):
        n, k = int(rng.integers(2, 20)), int(rng.integers(2, 6))
        cases.append(random_potts_instance(rng, n, k))
        cases.append(random_instance(rng, n, k, edge_prob=0.3))
    for damping in (0.25, 0.75, 0.5):
        for graph, pot in cases:
            _assert_same_run(graph, pot, damping=damping, max_iters=60)
    # past the iteration cap for two-pass damping
    graph, pot = random_instance(np.random.default_rng(107), 9, 3, edge_prob=0.6)
    assert _halves(graph, pot, 900) and not _halves(graph, pot, 901)
    _assert_same_run(graph, pot, max_iters=901)


def test_lbp_matches_dense_reference_at_extreme_scales_and_offsets():
    rng = np.random.default_rng(109)
    for scale, offset in ((1e-300, 0.0), (1e-300, 1.0), (1.0, 1e3), (1.0, 1e6),
                          (1.0, 1e9), (1.0, -1e12), (1e3, 1e12)):
        for make in (random_potts_instance, random_instance):
            graph, pot = make(rng, 12, 4)
            moved = Potentials(
                scale * pot.unary + offset, scale * pot.pairwise + offset
            )
            # the grid argument of two-pass damping: every shifted value
            # is at least 2^-30
            terms = _decoder_terms(moved)
            for values in (terms.unary, terms.potts if terms.sums is None else terms.sums):
                assert values.min() >= 2.0**-30
            assert _halves(graph, moved)
            _assert_same_run(graph, moved, max_iters=80)


def test_lbp_matches_dense_reference_on_repulsive_potts_edges():
    rng = np.random.default_rng(113)
    for _ in range(10):
        n, k = int(rng.integers(3, 20)), int(rng.integers(2, 6))
        graph = random_graph(rng, n, k, edge_prob=0.5)
        diag = rng.uniform(0.0, 0.5, size=(graph.num_edges, 1, 1))
        off = diag + rng.uniform(0.1, 1.0, size=(graph.num_edges, 1, 1))
        pot = Potentials(
            rng.uniform(-1.0, 1.0, size=(n, k)),
            np.where(np.eye(k, dtype=bool), diag, off),
        )
        assert _is_potts(pot)
        for damping in (0.5, 0.25):
            _assert_same_run(graph, pot, damping=damping, max_iters=60)


def test_lbp_decodes_tied_beliefs_to_label_zero():
    # every belief of every node tied, on the Potts path and the dense one
    graph = _grid(5, 4, 4)
    dense = np.eye(4) + 0.5 * np.roll(np.eye(4), 2, axis=1)
    for block in (np.full((4, 4), 0.3), np.eye(4), dense):
        pot = Potentials(np.full((20, 4), 0.7), np.broadcast_to(block, (graph.num_edges, 4, 4)))
        assert _is_potts(pot) == (block is not dense)
        labeling, _ = lbp_map(graph, pot)
        assert labeling.tolist() == [0] * 20
        _assert_same_run(graph, pot)


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
        rank, add, max_degree = _belief_sum(tgt, n)
        assert max_degree == np.bincount(tgt).max()
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
