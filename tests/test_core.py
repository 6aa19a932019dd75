"""Graph containers, the double-counted objective, labeling helpers,
and the input rules every library boundary shares."""

import argparse

import numpy as np
import pytest

import crfqp.cli as cli
from crfqp import (
    CloudParams,
    ConstraintSets,
    CrfGraph,
    NodeProjection,
    Potentials,
    SolverConfig,
    bhattacharyya_distance,
    compute_metrics,
    expansion_operator,
    extract_labeling,
    generate_scene,
    lbp_map,
    objective_of_labeling,
)
from crfqp.bench import constraint_prefix
from crfqp.cloud import euclidean_cluster
from crfqp.core import check_labeling, check_marginals
from crfqp.potentials import NodeFeatures, PotentialParams, pairwise_potential
from crfqp.synthetic import tile_constraint_candidates
from helpers import (
    fancy_objective_of_labeling,
    naive_objective,
    objective,
    quad_objective,
    random_instance,
    random_marginals,
    random_potts_instance,
)


def test_single_node_unary_objective():
    graph = CrfGraph(1, 2)
    pot = Potentials([[3.0, 1.0]])
    assert objective(graph, pot, [[1.0, 0.0]]) == pytest.approx(3.0, abs=1e-12)
    assert objective(graph, pot, [[0.0, 1.0]]) == pytest.approx(1.0, abs=1e-12)
    assert objective_of_labeling(graph, pot, [1]) == pytest.approx(1.0, abs=1e-12)


def test_two_node_identity_edge_counts_both_directions():
    graph = CrfGraph(2, 2, [(0, 1)])
    pot = Potentials(np.zeros((2, 2)), [np.eye(2)])
    mu = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert objective(graph, pot, mu) == pytest.approx(2.0, abs=1e-12)


def test_three_node_chain_constant_labeling():
    graph = CrfGraph(3, 2, [(0, 1), (1, 2)])
    potts = np.eye(2)
    pot = Potentials(np.zeros((3, 2)), [potts, potts])
    assert objective_of_labeling(graph, pot, [0, 0, 0]) == pytest.approx(4.0, abs=1e-12)
    assert objective_of_labeling(graph, pot, [1, 1, 1]) == pytest.approx(4.0, abs=1e-12)
    # disagreeing neighbors earn nothing under a diagonal matrix
    assert objective_of_labeling(graph, pot, [0, 1, 0]) == pytest.approx(0.0, abs=1e-12)


def test_objective_matches_loop_oracles():
    rng = np.random.default_rng(7)
    for _ in range(15):
        graph, pot = random_instance(rng, 5, 3, edge_prob=0.6)
        mu = random_marginals(rng, 5, 3)
        expected = naive_objective(graph, pot, mu)
        assert objective(graph, pot, mu) == pytest.approx(expected, abs=1e-12)
        assert quad_objective(graph, pot, mu) == pytest.approx(expected, abs=1e-12)


def test_labeling_objective_is_bitwise_the_fancy_indexed_sum():
    rng = np.random.default_rng(15)
    cases = []
    for n, k, prob in ((9, 4, 0.5), (12, 2, 0.4), (6, 3, 0.0), (1, 5, 0.0)):
        cases.append(random_instance(rng, n, k, edge_prob=prob))
        cases.append(random_potts_instance(rng, n, k, edge_prob=prob))
    # large magnitudes of both signs make any change of summation order show
    graph, pot = random_instance(rng, 40, 3, edge_prob=0.3, low=-1e6, high=1e6)
    cases.append((graph, pot))
    assert any(g.num_edges == 0 for g, _ in cases)
    for graph, pot in cases:
        for _ in range(4):
            x = rng.integers(0, graph.num_labels, size=graph.num_nodes)
            got = objective_of_labeling(graph, pot, x)
            want = fancy_objective_of_labeling(graph, pot, x)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_labeling_objective_equals_one_hot_relaxation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, 4))
        graph, pot = random_instance(rng, n, k, edge_prob=0.5)
        labeling = rng.integers(0, k, size=n)
        direct = objective_of_labeling(graph, pot, labeling)
        relaxed = objective(graph, pot, np.eye(k)[labeling])
        assert direct == pytest.approx(relaxed, abs=1e-12)


def test_transposing_edge_matrices_preserves_objective():
    # both directions of every edge are summed, so orientation washes out
    rng = np.random.default_rng(3)
    graph, pot = random_instance(rng, 6, 3, edge_prob=0.7)
    flipped = Potentials(pot.unary, pot.pairwise.transpose(0, 2, 1))
    mu = random_marginals(rng, 6, 3)
    assert objective(graph, pot, mu) == pytest.approx(
        objective(graph, flipped, mu), abs=1e-12
    )


def test_extract_labeling_argmax_and_ties():
    assert extract_labeling([[0.0, 1.0]]).tolist() == [1]
    assert extract_labeling([[0.5, 0.5]]).tolist() == [0]
    assert extract_labeling([[0.2, 0.3, 0.5]]).tolist() == [2]
    assert extract_labeling([[0.1, 0.8, 0.1], [0.7, 0.2, 0.1]]).tolist() == [1, 0]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        CrfGraph(3, 2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        CrfGraph(3, 2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="0 <= i < j"):
        CrfGraph(3, 2, [(2, 1)])
    with pytest.raises(ValueError, match="0 <= i < j"):
        CrfGraph(3, 2, [(0, 3)])
    # arrays are checked the same way, and the first bad edge is named
    with pytest.raises(ValueError, match=r"self-loop \(2, 2\)"):
        CrfGraph(3, 2, np.array([[0, 1], [2, 2], [0, 1]]))
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        CrfGraph(3, 2, np.array([[0, 1], [1, 2], [0, 1], [2, 2]]))
    with pytest.raises(ValueError, match=r"edge \(-1, 2\) must satisfy 0 <= i < j < 3"):
        CrfGraph(3, 2, np.array([[0, 1], [-1, 2], [1, 1]]))
    with pytest.raises(ValueError, match=r"shape \(E, 2\)"):
        CrfGraph(3, 2, np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match=r"shape \(E, 2\)"):
        CrfGraph(3, 2, np.array([0, 1]))
    source = np.array([[0, 1], [1, 2]])
    graph = CrfGraph(3, 2, source)
    assert graph.edges.dtype == np.int64 and graph.edges.shape == (2, 2)
    assert not graph.edges.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        graph.edges[0, 0] = 1
    source[0, 0] = 2  # the graph holds its own copy
    assert graph.edges.tolist() == [[0, 1], [1, 2]]
    assert CrfGraph(3, 2, np.zeros((0, 2), dtype=np.int32)).edges.shape == (0, 2)
    assert CrfGraph(3, 2).edges.shape == (0, 2)
    with pytest.raises(ValueError, match="num_labels"):
        CrfGraph(3, 1)
    with pytest.raises(ValueError, match="num_nodes"):
        CrfGraph(0, 2)


def test_potentials_validation():
    with pytest.raises(ValueError, match="finite"):
        Potentials([[np.inf, 0.0]])
    with pytest.raises(ValueError, match="2-D"):
        Potentials([1.0, 2.0])
    with pytest.raises(ValueError, match="pairwise"):
        Potentials(np.zeros((2, 2)), np.zeros((1, 3, 3)))
    for shape in ((3,), (3, 3), (3, 2, 2)):
        with pytest.raises(ValueError, match=r"potts must have shape \(E, 2\)"):
            Potentials(np.zeros((2, 2)), potts=np.zeros(shape))
    with pytest.raises(ValueError, match="not both"):
        Potentials(np.zeros((2, 2)), np.zeros((1, 2, 2)), potts=np.zeros((1, 2)))
    with pytest.raises(ValueError, match="finite"):
        Potentials(np.zeros((2, 2)), potts=[[0.5, np.nan]])
    # no edges: the empty blocks, or empty weights
    assert Potentials(np.zeros((2, 3))).pairwise.shape == (0, 3, 3)
    assert Potentials(np.zeros((2, 3)), potts=np.zeros((0, 2))).pairwise.shape == (0, 3, 3)


def test_dimension_mismatch_is_rejected():
    graph = CrfGraph(2, 2, [(0, 1)])
    with pytest.raises(ValueError, match="unary shape"):
        objective(graph, Potentials(np.zeros((3, 2))), np.full((3, 2), 0.5))
    with pytest.raises(ValueError, match="pairwise matrices"):
        objective(graph, Potentials(np.zeros((2, 2))), np.full((2, 2), 0.5))


def test_check_marginals_enforces_simplex():
    ok = check_marginals([[0.25, 0.75]], 1, 2)
    assert ok.dtype == np.float64
    with pytest.raises(ValueError, match="sums to"):
        check_marginals([[0.5, 0.6]])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        check_marginals([[-0.2, 1.2]])
    with pytest.raises(ValueError, match="rows"):
        check_marginals([[1.0, 0.0]], num_nodes=2)


def test_check_marginals_rejects_nan():
    for mu in (np.full((2, 2), np.nan), [[0.5, 0.5], [np.nan, 1.0]]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_marginals(mu)


def test_check_labeling_bounds():
    out = check_labeling([0, 1, 1], 3, 2)
    assert out.dtype == np.int64
    with pytest.raises(ValueError, match="labels must lie"):
        check_labeling([0, 2], 2, 2)
    with pytest.raises(ValueError, match="shape"):
        check_labeling([0, 1], 3, 2)


def test_non_integral_labels_are_rejected():
    graph = CrfGraph(2, 2, [(0, 1)])
    pot = Potentials(np.zeros((2, 2)), [np.eye(2)])
    # truncation would score [0, 1], which is worth 0.0, not an error
    for bad in ([0.9, 1.7], [0.0, np.nan], [np.inf, 0.0], [1e30, 0.0]):
        with pytest.raises(ValueError, match="labels must be integers"):
            objective_of_labeling(graph, pot, bad)
    assert check_labeling([1.0, 0.0], 2, 2).tolist() == [1, 0]
    assert check_labeling(np.array([1, 0], dtype=np.uint8), 2, 2).dtype == np.int64
    # numpy integers inside lists are labels and edge ends; only bools are not
    assert check_labeling([np.int64(1), 0.0], 2, 2).tolist() == [1, 0]
    edges = CrfGraph(3, 2, [(0, np.uint8(1)), [1, 2.0], np.array([0, 2])]).edges
    assert edges.tolist() == [[0, 1], [1, 2], [0, 2]]


def _scene(**kwargs):
    args = dict(width=12, height=12, num_objects=1, num_labels=3, noise=0.5)
    args.update(kwargs)
    return generate_scene(**args)


def _eval_labels(tmp_path, value):
    path = tmp_path / "x.labels"
    path.write_text("0\n1\n0\n", encoding="utf-8")
    namespace = argparse.Namespace(predicted=path, truth=path, labels=value, format="csv")
    return cli._cmd_eval(namespace)


_PAIR = (CrfGraph(2, 2, [(0, 1)]), Potentials(np.zeros((2, 2)), [np.eye(2)]))


def _rows(value, count):
    """`count` copies of `value` as the rows of one value of its own
    kind: a list of lists, or a numpy array."""
    return np.stack([value] * count) if isinstance(value, np.ndarray) else [value] * count


def _point(value):
    """The two entries of `value` and its first again, as one 3-D point
    of its own kind."""
    if isinstance(value, np.ndarray):
        return np.concatenate([value, value[:1]])
    return [*value, value[0]]


# (boundary, kind, field the message names, call taking the value)
BOUNDARIES = [
    ("CrfGraph", "count", "num_nodes", lambda v, _: CrfGraph(v, 2)),
    ("CrfGraph", "count", "num_labels", lambda v, _: CrfGraph(3, v)),
    ("SolverConfig", "count", "max_iterations", lambda v, _: SolverConfig(max_iterations=v)),
    ("lbp_map", "count", "max_iters", lambda v, _: lbp_map(*_PAIR, max_iters=v)),
    ("CloudParams", "count", "ransac_iterations", lambda v, _: CloudParams(ransac_iterations=v)),
    ("CloudParams", "count", "min_cluster_size", lambda v, _: CloudParams(min_cluster_size=v)),
    ("generate_scene", "count", "width", lambda v, _: _scene(width=v)),
    ("generate_scene", "count", "height", lambda v, _: _scene(height=v)),
    ("generate_scene", "count", "num_objects", lambda v, _: _scene(num_objects=v)),
    ("generate_scene", "count", "num_labels", lambda v, _: _scene(num_labels=v)),
    ("eval", "count", "--labels", lambda v, tmp: _eval_labels(tmp, v)),
    ("expansion_operator", "count", "num_labels", lambda v, _: expansion_operator([0, 1], v)),
    ("compute_metrics", "count", "num_labels", lambda v, _: compute_metrics([0, 1], [0, 1], v)),
    ("SolverConfig", "positive", "tol", lambda v, _: SolverConfig(tol=v)),
    (
        "CloudParams",
        "positive",
        "plane_inlier_threshold",
        lambda v, _: CloudParams(plane_inlier_threshold=v),
    ),
    ("CloudParams", "positive", "cluster_radius", lambda v, _: CloudParams(cluster_radius=v)),
    ("PotentialParams", "positive", "theta", lambda v, _: PotentialParams(v, 1.0, 1.0)),
    ("PotentialParams", "positive", "theta_c", lambda v, _: PotentialParams(1.0, v, 1.0)),
    ("PotentialParams", "positive", "theta_l", lambda v, _: PotentialParams(1.0, 1.0, v)),
    ("generate_scene", "positive", "pairwise_weight", lambda v, _: _scene(pairwise_weight=v)),
    ("generate_scene", "fraction", "noise", lambda v, _: _scene(noise=v)),
    ("lbp_map", "fraction", "damping", lambda v, _: lbp_map(*_PAIR, damping=v)),
    (
        "constraint_prefix",
        "fraction",
        "constraint fraction",
        lambda v, _: constraint_prefix([(0, 1)], v, 0),
    ),
    # these take the array the test builds, np.full(2, value) or [0, 1]
    # in a valid dtype; edges reshape it to one pair
    ("CrfGraph", "array", "edges", lambda a, _: CrfGraph(3, 2, a.reshape(1, 2))),
    ("check_labeling", "array", "labels", lambda a, _: check_labeling(a, 2, 2)),
    ("NodeProjection", "array", "node indices", lambda a, _: NodeProjection(a)),
    ("ConstraintSets", "array", "constraint set node", lambda a, _: ConstraintSets([list(a)])),
    ("expansion_operator", "array", "supernode indices", lambda a, _: expansion_operator(a, 2)),
    (
        "tile_constraint_candidates",
        "array",
        "true_labels",
        lambda a, _: tile_constraint_candidates(a, 2, 1),
    ),
    # these take a list [0.0, value] or np.full(2, value) of bad values,
    # or the array [0, 1] in a valid dtype, as one row of K = 2 entries
    ("Potentials", "floats", "unary", lambda v, _: Potentials(_rows(v, 1))),
    (
        "Potentials",
        "floats",
        "pairwise",
        lambda v, _: Potentials(np.zeros((2, 2)), _rows(_rows(v, 2), 1)),
    ),
    ("Potentials", "floats", "potts", lambda v, _: Potentials(np.zeros((2, 2)), potts=_rows(v, 1))),
    ("pairwise_potential", "floats", "dissimilarity", lambda v, _: pairwise_potential(v, 2)),
    ("check_marginals", "floats", "marginals", lambda v, _: check_marginals(_rows(v, 1), 1, 2)),
    ("extract_labeling", "floats", "marginals", lambda v, _: extract_labeling(_rows(v, 1))),
    (
        "bhattacharyya_distance",
        "floats",
        "histograms",
        lambda v, _: bhattacharyya_distance(v, [1.0, 1.0]),
    ),
    (
        "euclidean_cluster",
        "floats",
        "point cloud",
        lambda v, _: euclidean_cluster(_rows(_point(v), 1), 0.5),
    ),
    (
        "NodeFeatures",
        "floats",
        "centroids",
        lambda v, _: NodeFeatures(_rows(v, 1), [[0.5, 0.5, 0.5]], [[1.0]]),
    ),
]

# Python and numpy forms of the same value, a string, and non-finite floats
_BAD = {
    "count": (True, np.True_, 2.5, np.float64(3.0), "3", np.nan, np.inf, 0, -1),
    "positive": (True, np.True_, "3", np.nan, np.inf, -np.inf, 0.0, -1.0, None),
    "fraction": (True, np.True_, "0.5", None, np.nan, np.inf, -0.5, 1.5),
    "array": (True, 2.5, "3", np.nan, np.inf),
    "floats": (True, np.True_, "0.5", None),
}
_GOOD = {
    "count": (3, np.int64(3), np.int32(3), np.uint8(3)),
    "positive": (2.5, 1, np.float32(0.5), np.float64(0.5), np.int64(2)),
    "fraction": (0, 0.5, np.float32(0.25), np.float64(0.5), np.int64(0)),
    # dtypes of the array [0, 1]
    "array": (int, np.int64, np.int32, np.uint8, float, np.float32),
    "floats": (int, np.int64, np.uint8, float, np.float32, np.float64),
}


def _bad_forms(kind, value):
    """What the test hands a boundary of `kind` for the bad `value`."""
    if kind == "array":
        return [np.full(2, value)]
    if kind == "floats":
        return [np.full(2, value), [0.0, value]]
    return [value]


@pytest.mark.parametrize(
    "kind, field, call", [b[1:] for b in BOUNDARIES], ids=[f"{b[0]}-{b[2]}" for b in BOUNDARIES]
)
def test_every_boundary_applies_its_rule(kind, field, call, tmp_path):
    """One rule per kind of input, the same at every boundary: a count
    is an integer, a positive number a finite real above 0, a fraction
    a real in [0, 1], an integer array holds integers or integral
    floats, and a float array numbers.  Bools are none of them; numpy scalars and dtypes pass like
    their Python forms."""
    for value in _BAD[kind]:
        for form in _bad_forms(kind, value):
            with pytest.raises(ValueError, match=field):
                call(form, tmp_path)
    for value in _GOOD[kind]:
        good = np.array([0, 1], dtype=value) if kind in ("array", "floats") else value
        call(good, tmp_path)


# each of these was read as something else, without an error; the
# scene's fractional width raised TypeError
CORRUPTED = {
    "fractional-edge-ends": (
        "edges must hold integer node indices, got 0.5",
        lambda: CrfGraph(3, 2, [(0.5, 1.7), (1, 2)]),
    ),
    "fractional-counts": ("num_nodes", lambda: CrfGraph(2.5, 3.9)),
    "bool-node": (
        "constraint set node True is not an integer",
        lambda: ConstraintSets([(True, 2)]),
    ),
    "nan-theta": ("PotentialParams.theta ", lambda: PotentialParams(np.nan, 1, 1)),
    "bool-tol": ("tol must be positive", lambda: SolverConfig(tol=True)),
    "infinite-tol": ("tol must be positive", lambda: SolverConfig(tol=np.inf)),
    "fractional-width": ("width", lambda: generate_scene(width=4.5)),
    "bool-labeling": (
        "labels must be integers, got True",
        lambda: check_labeling(np.array([True, False]), 2, 2),
    ),
    # numpy reads a bool inside a list of numbers as one of them
    "bool-edge-end-in-list": (
        "edges must hold integer node indices, got True",
        lambda: CrfGraph(3, 2, [(0, True)]),
    ),
    "numpy-bool-edge-end-in-list": (
        "edges must hold integer node indices, got np.False_",
        lambda: CrfGraph(3, 2, [[1, 2], np.array([np.False_, np.True_])]),
    ),
    "bool-label-in-list": (
        "labels must be integers, got True",
        lambda: check_labeling([True, 0], 2, 2),
    ),
    "bool-among-float-labels": (
        "labels must be integers, got False",
        lambda: check_labeling((1.0, False), 2, 2),
    ),
    # numpy casts a number among strings or None with them: the message
    # names the string or None, not the number
    "string-edge-end-in-list": (
        "edges must hold integer node indices, got '1'",
        lambda: CrfGraph(3, 2, [(0, "1")]),
    ),
    "none-edge-end-in-list": (
        "edges must hold integer node indices, got None",
        lambda: CrfGraph(3, 2, [(0, None)]),
    ),
    "none-label-in-list": (
        "labels must be integers, got None",
        lambda: check_labeling([0, None, 1], 3, 2),
    ),
    "none-node": (
        "constraint set node None is not an integer",
        lambda: ConstraintSets([[0, None]]),
    ),
    # numpy converts strings and bools of a list to the floats they spell
    "string-unary-in-list": (
        "unary must hold numbers, got '1.5'",
        lambda: Potentials([["1.5", "0"], ["0", "1"]]),
    ),
    "bool-unary-in-list": (
        "unary must hold numbers, got True",
        lambda: Potentials([[True, False], [False, True]]),
    ),
    "string-dissimilarity": (
        "dissimilarity must be a number, got '0.5'",
        lambda: pairwise_potential("0.5", 2),
    ),
    "bool-dissimilarity": (
        "dissimilarity must be a number, got True",
        lambda: pairwise_potential(True, 2),
    ),
    # a Python integer beyond float64 raised OverflowError
    "too-large-integer-pairwise": (
        "pairwise must hold numbers, got 1000",
        lambda: Potentials(np.zeros((1, 2)), [[[0, 10**400], [0, 0]]]),
    ),
}


@pytest.mark.parametrize("message, call", CORRUPTED.values(), ids=CORRUPTED.keys())
def test_inputs_that_were_corrupted_now_fail(message, call):
    with pytest.raises(ValueError, match=message):
        call()
