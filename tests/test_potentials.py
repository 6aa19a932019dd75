"""Feature descriptors, histogram distance, edge construction, and the
Potts-style pairwise matrices."""

import math
import tracemalloc

import numpy as np
import pytest

from crfqp import bhattacharyya_distance
from crfqp.potentials import (
    NodeFeatures,
    PotentialParams,
    build_edges,
    edge_dissimilarities,
    pairwise_potential,
)
from helpers import brute_force_edges, dissimilarity


def _table(rows):
    """NodeFeatures from (centroid, mean_color, histogram) rows."""
    return NodeFeatures(*zip(*rows))


def _params(theta=1.1, theta_c=1.0, theta_l=0.1):
    return PotentialParams(theta=theta, theta_c=theta_c, theta_l=theta_l)


def test_histogram_distance_known_values():
    assert bhattacharyya_distance([1.0, 1.0], [1.0, 1.0]) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )
    assert bhattacharyya_distance([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
        math.sqrt(1.0 - 1.0 / math.sqrt(8.0)), abs=1e-12
    )
    assert bhattacharyya_distance([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
        0.8040, abs=1e-4
    )


def test_histogram_distance_disjoint_supports_is_one():
    assert bhattacharyya_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert bhattacharyya_distance([0.0, 3.0, 0.0], [2.0, 0.0, 5.0]) == 1.0


def test_histogram_self_distance_depends_only_on_bin_count():
    # sum(sqrt(h*h)) = sum(h) exactly, so D(h, h) = sqrt(1 - 1/N)
    rng = np.random.default_rng(17)
    for n in (2, 4, 8, 16):
        h = rng.uniform(0.0, 5.0, size=n) + 0.01
        assert bhattacharyya_distance(h, h) == pytest.approx(
            math.sqrt(1.0 - 1.0 / n), abs=1e-12
        )


def test_histogram_distance_symmetric_and_bounded():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        a = rng.uniform(0.0, 1.0, size=n)
        b = rng.uniform(0.0, 1.0, size=n)
        a[a < 0.1] = 0.0
        b[b < 0.1] = 0.0
        if a.sum() == 0 or b.sum() == 0:
            continue
        d_ab = bhattacharyya_distance(a, b)
        d_ba = bhattacharyya_distance(b, a)
        assert abs(d_ab - d_ba) <= 1e-15
        assert 0.0 <= d_ab <= 1.0


def test_histogram_distance_validation():
    with pytest.raises(ValueError, match="positive sums"):
        bhattacharyya_distance([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        bhattacharyya_distance([1.0, 1.0], [1.0, 1.0, 1.0])


def test_edges_require_strictly_closer_than_threshold():
    pair = [(0.0, 0.0), (1.0, 0.0)]
    assert build_edges(pair, 1.0).tolist() == []
    assert build_edges(pair, 1.0 + 1e-9).tolist() == [[0, 1]]
    # lattices spaced exactly at theta, the next float above it, and the
    # diagonal; with exactly representable spacings the axis neighbors
    # drop out at theta and all 49 come back just above it
    rng = np.random.default_rng(11)
    for spacing in (1.0, 0.1, 0.3, 1.1, 2.5, 7.0 / 3.0):
        cols, rows = np.meshgrid(np.arange(6), np.arange(5))
        points = spacing * np.column_stack([cols.ravel(), rows.ravel()]) + 0.5
        for theta in (spacing, np.nextafter(spacing, np.inf), spacing * np.sqrt(2)):
            edges = build_edges(points, theta)
            assert edges.tolist() == [
                list(pair) for pair in brute_force_edges(points, theta)
            ]
        if spacing in (1.0, 2.5):
            assert len(build_edges(points, spacing)) == 0
            assert len(build_edges(points, np.nextafter(spacing, np.inf))) == 49
    for _ in range(100):
        n = int(rng.integers(1, 40))
        points = rng.uniform(0.0, 5.0, size=(n, 2))
        if rng.uniform() < 0.3:
            points = np.round(points * 2.0) / 2.0  # ties and repeated points
        theta = float(rng.uniform(0.1, 3.0))
        edges = build_edges(points, theta)
        assert edges.tolist() == [list(pair) for pair in brute_force_edges(points, theta)]


def test_grid_edge_counts():
    grid = [(c, r) for r in range(3) for c in range(3)]
    # 4-neighborhood at threshold 1.1: diagonal pairs sit at sqrt(2)
    assert len(build_edges(grid, 1.1)) == 12
    assert len(build_edges(grid, 10.0)) == 36
    assert build_edges(grid, 1.0).tolist() == []


def test_edges_are_canonical_pairs():
    edges = build_edges([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], 0.6)
    assert edges.tolist() == [[0, 1], [1, 2]]
    assert edges.dtype == np.int64 and edges.shape == (2, 2)
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        points = rng.normal(size=(n, 2))
        edges = build_edges(points, 1.0)
        assert edges.shape == (len(edges), 2)
        assert np.all(edges[:, 0] < edges[:, 1])
        keys = edges[:, 0] * n + edges[:, 1]
        assert np.all(np.diff(keys) > 0)  # sorted by (i, j), no repeats


def test_edges_on_large_lattice_use_linear_memory():
    side = 160
    cols, rows = np.meshgrid(np.arange(side), np.arange(side))
    centroids = np.column_stack([cols.ravel(), rows.ravel()]) + 0.5
    tracemalloc.start()
    try:
        edges = build_edges(centroids, 1.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 2 * side * (side - 1) == 50_880
    assert peak < 32 * 2**20


def test_pairwise_matrix_structure():
    np.testing.assert_array_equal(pairwise_potential(0.0, 3), np.eye(3))
    full_dis = pairwise_potential(1.0, 3)
    np.testing.assert_array_equal(full_dis, 1.0 - np.eye(3))
    half = pairwise_potential(0.5, 2)
    np.testing.assert_allclose(half, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)
    # arrays of dissimilarities give one matrix per entry
    dis = np.array([[0.0, 0.3], [0.9, 1.0]])
    batch = pairwise_potential(dis, 4)
    assert batch.shape == (2, 2, 4, 4)
    for idx in np.ndindex(dis.shape):
        want = pairwise_potential(float(dis[idx]), 4)
        np.testing.assert_array_equal(batch[idx], want)
    assert pairwise_potential(np.zeros(0), 3).shape == (0, 3, 3)


def test_pairwise_matrix_row_sums():
    for k in (2, 3, 7):
        for dis in (0.0, 0.3, 0.9, 1.0):
            psi = pairwise_potential(dis, k)
            expected = 1.0 + (k - 2) * dis * dis
            np.testing.assert_allclose(psi.sum(axis=1), expected, atol=1e-12)


def test_pairwise_matrix_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        pairwise_potential(1.5, 3)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        pairwise_potential(-0.1, 3)
    with pytest.raises(ValueError, match=r"\[0, 1\], got 1.5"):
        pairwise_potential(np.array([0.2, 1.5]), 3)


def test_dissimilarity_of_identical_features():
    row = ((2.0, 3.0), (0.5, 0.5, 0.5), (0.2, 0.8))
    expected = bhattacharyya_distance(row[2], row[2]) / 3.0
    dis = edge_dissimilarities(_table([row, row]), [(0, 1)], _params())
    assert dis[0] == pytest.approx(expected, abs=1e-15)


def test_dissimilarity_clamps_each_term():
    a = ((0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0))
    b = ((100.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0))
    # all three terms saturate at 1
    params = _params(theta_c=5.0, theta_l=1.0)
    dis = edge_dissimilarities(_table([a, b]), [(0, 1)], params)
    assert dis[0] == pytest.approx(1.0, abs=1e-15)


def test_dissimilarity_edge_ends_must_be_integers():
    row = ((2.0, 3.0), (0.5, 0.5, 0.5), (0.2, 0.8))
    table = _table([row, row, row])
    # (0.5, 1.7) was read as edge (0, 1)
    for edges, bad in (([(0.5, 1.7)], "0.5"), (np.array([[0.0, np.inf]]), "inf"), ([(0, True)], "True")):
        with pytest.raises(ValueError, match=f"edges must hold integer node indices, got {bad}"):
            edge_dissimilarities(table, edges, _params())
    want = edge_dissimilarities(table, [(0, 1), (1, 2)], _params())
    got = edge_dissimilarities(table, np.array([[0.0, 1.0], [1.0, 2.0]]), _params())
    assert got.tolist() == want.tolist()


def test_dissimilarity_stays_in_unit_interval():
    rng = np.random.default_rng(23)
    params = _params(theta_c=2.0, theta_l=0.05)
    rows = [
        (
            rng.uniform(-50, 50, size=2),
            rng.uniform(0, 1, size=3),
            rng.uniform(0, 1, size=8) + 1e-6,
        )
        for _ in range(2000)
    ]
    pairs = np.arange(2000).reshape(1000, 2)  # nodes 2k and 2k + 1
    dis = edge_dissimilarities(_table(rows), pairs, params)
    assert dis.shape == (1000,)
    assert np.all((dis >= 0.0) & (dis <= 1.0))


def test_vectorized_dissimilarities_match_scalar():
    rng = np.random.default_rng(31)
    feats = _table(
        [
            (
                rng.uniform(0, 10, size=2),
                rng.uniform(0, 1, size=3),
                rng.uniform(0.01, 1, size=6),
            )
            for _ in range(12)
        ]
    )
    params = _params(theta_c=1.5, theta_l=0.2)
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12)][::3]
    batch = edge_dissimilarities(feats, edges, params)
    for value, (i, j) in zip(batch, edges):
        assert value == pytest.approx(dissimilarity(feats, i, j, params), abs=1e-15)
    assert edge_dissimilarities(feats, [], params).shape == (0,)


def test_feature_validation():
    centroids = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    colors = [(0.1, 0.2, 0.3)] * 3
    hists = [(0.5, 0.5)] * 3
    for bad in ([(1.0, 2.0, 3.0)] * 3, (1.0, 2.0), np.zeros((0, 2))):
        with pytest.raises(ValueError, match=r"^centroids must have shape \(N, 2\)"):
            NodeFeatures(bad, colors, hists)
    for bad in ((0.5,), [(0.1, 0.2, 0.3, 0.4)] * 3, colors[:2]):
        with pytest.raises(ValueError, match=r"^mean_colors must have shape \(3, 3\)"):
            NodeFeatures(centroids, bad, hists)
    for bad in (hists[:2], hists + hists[:1], 0.5):
        with pytest.raises(ValueError, match=r"^histograms must have 3 rows, got"):
            NodeFeatures(centroids, colors, bad)
    # B = 0, or rows that are not 1-D, fail at node 0 like every row
    for bad in (np.ones((3, 0)), np.ones((3, 1, 2)), (0.5, 0.5, 0.5)):
        with pytest.raises(
            ValueError, match=r"^features\[0\]: histogram must be a non-empty 1-D"
        ):
            NodeFeatures(centroids, colors, bad)
    # the first bad row is named, past a good node 0 and before later bad rows
    for bad, node in (
        ([(0.5, 0.5), (0.5, 0.5), (-1.0, 2.0)], 2),
        ([(0.5, 0.5), (0.0, 0.0), (-1.0, 1.0)], 1),
    ):
        message = rf"^features\[{node}\]: histogram must be nonnegative and not all zero$"
        with pytest.raises(ValueError, match=message):
            NodeFeatures(centroids, colors, bad)

    # every column must be finite and mean colours lie in [0, 1]; the
    # first bad node is named, with its first fault in column order
    nan, inf = float("nan"), float("inf")
    above_one = float(np.nextafter(1.0, 2.0))
    color_fault = r"mean color must lie in \[0, 1\]"
    good = (centroids, colors, hists)
    for column, rows, node, fault in (
        (0, [(0.0, 0.0), (nan, 0.0), (2.0, inf)], 1, "centroid must be finite"),
        (1, [(0.1, 0.2, 0.3)] * 2 + [(5.0, -2.0, 0.1)], 2, color_fault),
        (1, [(0.1, nan, 0.3)] + colors[1:], 0, color_fault),
        (1, colors[:2] + [(0.1, 0.2, above_one)], 2, color_fault),
        (2, [(0.5, 0.5), (inf, 0.5), (0.5, 0.5)], 1, "histogram must be finite"),
        (2, [(0.5, 0.5), (0.5, 0.5), (nan, 0.5)], 2, "histogram must be finite"),
    ):
        table = list(good)
        table[column] = rows
        with pytest.raises(ValueError, match=rf"^features\[{node}\]: {fault}$"):
            NodeFeatures(*table)
    # node 1's centroid is reported before its colour and node 2's histogram
    cents = [(0.0, 0.0), (inf, 0.0), (2.0, 0.0)]
    cols = [(0.1, 0.2, 0.3), (2.0, 0.2, 0.3), (0.1, 0.2, 0.3)]
    with pytest.raises(ValueError, match=r"^features\[1\]: centroid must be finite$"):
        NodeFeatures(cents, cols, [(0.5, 0.5), (0.5, 0.5), (-1.0, 0.5)])
    with pytest.raises(ValueError, match=r"^features\[1\]: mean color must lie"):
        NodeFeatures(centroids, cols, [(0.5, 0.5), (0.5, 0.5), (-1.0, 0.5)])
    # the ends of [0, 1] are mean colours too
    NodeFeatures(centroids, [(0.0, 1.0, 0.5)] * 3, hists)

    # the table holds read-only float64 copies of its inputs
    given = [np.array(centroids), np.array(colors), np.array(hists)]
    feats = NodeFeatures(*given)
    held = [feats.centroids, feats.mean_colors, feats.histograms]
    for source, column in zip(given, held):
        assert column.dtype == np.float64 and not column.flags.writeable
        assert not np.shares_memory(source, column)
        before = column.copy()
        source += 1.0
        assert np.array_equal(column, before)
        with pytest.raises(ValueError, match="read-only"):
            column[0, 0] = 7.0


def test_params_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        PotentialParams(theta=0.0, theta_c=1.0, theta_l=1.0)
    with pytest.raises(ValueError, match="positive"):
        PotentialParams(theta=1.0, theta_c=-2.0, theta_l=1.0)
