"""Ground-plane removal, clustering, and cloud-to-constraint extraction."""

import tracemalloc

import numpy as np
import pytest

from crfqp import cloud as cloud_module
from crfqp import (
    CloudParams,
    NodeProjection,
    build_constraint_sets,
    euclidean_cluster,
    generate_scene,
    remove_ground_plane,
)
from helpers import full_matrix_ground_plane, single_link_partition


def grid_plane(side, spacing=1.0, z=0.0):
    xs, ys = np.meshgrid(np.arange(side) * spacing, np.arange(side) * spacing)
    pts = np.stack([xs.ravel(), ys.ravel(), np.full(side * side, z)], axis=1)
    return pts


def blob(rng, center, count, spread=0.2):
    return np.asarray(center) + rng.uniform(-spread, spread, size=(count, 3))


def test_ground_plane_removed_when_dominant():
    rng = np.random.default_rng(5)
    ground = grid_plane(10)
    elevated = blob(rng, (4.0, 4.0, 5.0), 10)
    cloud = np.vstack([ground, elevated])
    plane, kept = remove_ground_plane(cloud, CloudParams())
    assert kept.tolist() == list(range(100, 110))
    # normal aligned with z, plane passing through z = 0
    assert abs(plane.normal[2]) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(ground @ plane.normal + plane.offset).max() < 1e-9


def test_small_plane_is_reported_but_not_removed():
    rng = np.random.default_rng(9)
    on_plane = grid_plane(7)[:40]
    scattered = np.column_stack(
        [
            rng.uniform(0, 10, size=60),
            rng.uniform(0, 10, size=60),
            rng.uniform(1.0, 10.0, size=60),
        ]
    )
    cloud = np.vstack([on_plane, scattered])
    _, kept = remove_ground_plane(cloud, CloudParams())
    assert kept.tolist() == list(range(100))


def test_ground_removal_is_deterministic():
    rng = np.random.default_rng(11)
    cloud = np.vstack([grid_plane(12), blob(rng, (3.0, 3.0, 4.0), 30)])
    params = CloudParams(rng_seed=42)
    plane_a, kept_a = remove_ground_plane(cloud, params)
    plane_b, kept_b = remove_ground_plane(cloud, params)
    assert np.array_equal(kept_a, kept_b)
    assert np.array_equal(plane_a.normal, plane_b.normal)
    assert plane_a.offset == plane_b.offset


def test_ground_removal_matches_full_matrix_oracle(monkeypatch):
    rng = np.random.default_rng(13)
    cases = []
    for seed in range(20):
        scene = generate_scene(24, 24, num_objects=3, num_labels=4, seed=seed)
        cases.append((scene.cloud, CloudParams(rng_seed=seed)))
    # candidate counts on both sides of a block boundary, at the default
    # block size and at 3 rows per block, and one plane
    rows = 3
    for iterations in (1, 2, 15, 16, 17, 33, 200, rows - 1, rows, rows + 1, 2 * rows + 1):
        cloud = np.vstack([grid_plane(15), blob(rng, (3.0, 3.0, 2.0), 80)])
        cloud += rng.normal(scale=0.05, size=cloud.shape)
        cases.append((cloud, CloudParams(ransac_iterations=iterations, rng_seed=iterations)))
    default_budget = cloud_module._SCORE_BUFFER_BYTES
    for cloud, params in cases:
        normal, offset, want_kept = full_matrix_ground_plane(cloud, params)
        for budget in (default_budget, rows * 8 * len(cloud)):
            monkeypatch.setattr(cloud_module, "_SCORE_BUFFER_BYTES", budget)
            plane, kept = remove_ground_plane(cloud, params)
            assert np.array_equal(plane.normal, normal)
            assert plane.offset == offset
            assert np.array_equal(kept, want_kept)


def test_ground_removal_ignores_memory_layout():
    scene = generate_scene(24, 24, num_objects=3, num_labels=4, seed=3)
    cloud = np.ascontiguousarray(scene.cloud)
    padded = np.zeros((2 * len(cloud), 5))
    padded[::2, 1:4] = cloud
    params = CloudParams(rng_seed=3)
    plane, kept = remove_ground_plane(cloud, params)
    assert kept.size < len(cloud)
    for layout in (np.asfortranarray(cloud), padded[::2, 1:4]):
        assert not layout.flags.c_contiguous
        other_plane, other_kept = remove_ground_plane(layout, params)
        assert other_plane.normal.tobytes() == plane.normal.tobytes()
        assert other_plane.offset == plane.offset
        assert np.array_equal(other_kept, kept)


def test_ground_removal_memory_is_linear_in_points():
    rng = np.random.default_rng(17)
    cloud = np.vstack([grid_plane(80, spacing=0.25), blob(rng, (5.0, 5.0, 3.0), 1600)])
    peaks = {}
    for iterations in (50, 500):
        tracemalloc.start()
        try:
            remove_ground_plane(cloud, CloudParams(ransac_iterations=iterations))
            peaks[iterations] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a points x candidates distance matrix alone would be 30 MB
    assert peaks[500] < 12 * 2**20
    # ten times the candidates cost only their (candidates, 3) arrays
    assert peaks[500] < 1.05 * peaks[50]


def test_degenerate_clouds_are_rejected():
    line = np.stack([np.arange(10.0), np.zeros(10), np.zeros(10)], axis=1)
    with pytest.raises(ValueError, match="collinear"):
        remove_ground_plane(line, CloudParams())
    with pytest.raises(ValueError, match="at least 3 points"):
        remove_ground_plane(line[:2], CloudParams())
    with pytest.raises(ValueError, match="shape"):
        remove_ground_plane(np.zeros((5, 2)), CloudParams())
    bad = line.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        remove_ground_plane(bad, CloudParams())


def test_cloud_params_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        CloudParams(cluster_radius=0.0)
    with pytest.raises(ValueError, match="positive"):
        CloudParams(min_cluster_size=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("plane_inlier_threshold", float("nan")),
        ("plane_inlier_threshold", float("inf")),
        ("cluster_radius", float("nan")),
        ("cluster_radius", True),
        ("cluster_radius", "0.5"),
        ("min_cluster_size", 1.5),
        ("min_cluster_size", True),
        ("ransac_iterations", 2.5),
        ("ransac_iterations", True),
        ("ransac_iterations", 500.0),
    ],
)
def test_cloud_params_reject_bad_values_by_field(field, value):
    with pytest.raises(ValueError, match=f"CloudParams.{field} "):
        CloudParams(**{field: value})


def test_cloud_params_accept_numpy_scalars():
    params = CloudParams(
        ransac_iterations=np.int64(20),
        plane_inlier_threshold=np.float32(0.2),
        cluster_radius=1,
        min_cluster_size=np.int32(3),
    )
    assert params.ransac_iterations == 20


def test_cluster_separates_far_blobs():
    rng = np.random.default_rng(13)
    a = blob(rng, (0.0, 0.0, 0.0), 20)
    b = blob(rng, (10.0, 0.0, 0.0), 25)
    clusters = euclidean_cluster(np.vstack([a, b]), 0.5)
    assert [len(c) for c in clusters] == [20, 25]
    assert clusters[0] == list(range(20))
    assert clusters[1] == list(range(20, 45))


def test_cluster_links_chains_and_exact_radius():
    chain = np.stack([0.45 * np.arange(10), np.zeros(10), np.zeros(10)], axis=1)
    assert euclidean_cluster(chain, 0.5) == [list(range(10))]
    pair = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    # the radius is inclusive
    assert euclidean_cluster(pair, 0.5) == [[0, 1]]
    assert euclidean_cluster(pair, 0.49) == [[0], [1]]
    assert euclidean_cluster(np.empty((0, 3)), 0.5) == []


def test_cluster_matches_single_link_oracle():
    rng = np.random.default_rng(17)
    for _ in range(3):
        pts = rng.uniform(0, 5, size=(300, 3))
        assert euclidean_cluster(pts, 0.35) == single_link_partition(pts, 0.35)


def test_cluster_partition_is_order_independent():
    rng = np.random.default_rng(19)
    pts = rng.uniform(0, 4, size=(200, 3))
    perm = rng.permutation(200)
    base = {frozenset(c) for c in euclidean_cluster(pts, 0.4)}
    shuffled = {
        frozenset(perm[m] for m in c) for c in euclidean_cluster(pts[perm], 0.4)
    }
    assert base == shuffled


def scene_fixture(rng, blob_specs):
    """Ground grid plus blobs; returns (cloud, mapping) with ground -> -1."""
    ground = grid_plane(20, spacing=0.5)
    parts = [ground]
    mapping = [-np.ones(len(ground), dtype=int)]
    for center, count, nodes in blob_specs:
        pts = blob(rng, center, count)
        parts.append(pts)
        mapping.append(np.resize(np.asarray(nodes, dtype=int), count))
    return np.vstack(parts), NodeProjection(np.concatenate(mapping))


def test_min_cluster_size_gates_constraint_sets():
    rng = np.random.default_rng(23)
    cloud, projection = scene_fixture(
        rng,
        [((2.0, 2.0, 2.0), 149, [0, 1]), ((8.0, 8.0, 2.0), 151, [2, 3])],
    )
    sets = build_constraint_sets(cloud, CloudParams(), projection)
    # 149 points fall just under the 150-point floor, 151 just over
    assert [list(s) for s in sets] == [[2, 3]]


def test_disjoint_blobs_give_disjoint_sets():
    rng = np.random.default_rng(29)
    cloud, projection = scene_fixture(
        rng,
        [((1.5, 1.5, 2.0), 180, [0, 1, 2]), ((7.5, 7.5, 2.0), 170, [5, 6])],
    )
    sets = build_constraint_sets(cloud, CloudParams(), projection)
    assert [list(s) for s in sets] == [[0, 1, 2], [5, 6]]


def test_overlapping_projections_are_merged():
    rng = np.random.default_rng(31)
    cloud, projection = scene_fixture(
        rng,
        [((1.5, 1.5, 2.0), 180, [5, 7]), ((7.5, 7.5, 2.0), 170, [7, 9])],
    )
    sets = build_constraint_sets(cloud, CloudParams(), projection)
    assert [list(s) for s in sets] == [[5, 7, 9]]


def test_single_node_clusters_are_dropped():
    rng = np.random.default_rng(37)
    cloud, projection = scene_fixture(rng, [((2.0, 2.0, 2.0), 200, [4])])
    sets = build_constraint_sets(cloud, CloudParams(), projection)
    assert list(sets) == []


def test_projection_validation():
    with pytest.raises(ValueError, match="1-D"):
        NodeProjection(np.zeros((3, 2), dtype=int))
    for fractional in ([0.5, 1.7, -1], [0.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="integer node indices"):
            NodeProjection(fractional)
    with pytest.raises(ValueError, match="booleans"):
        NodeProjection(np.array([True, False]))
    # integral floats and every integer dtype are node indices
    assert NodeProjection([2.0, -1.0, 0.0]).mapping.tolist() == [2, -1, 0]
    assert NodeProjection(np.array([3, 1], dtype=np.uint8)).mapping.dtype == np.int64
    proj = NodeProjection([0, 1, 5])
    cloud = np.zeros((4, 3))
    with pytest.raises(ValueError, match="covers 3 points, cloud has 4"):
        build_constraint_sets(cloud, CloudParams(), proj)
    # only -1 marks a point outside the graph; -2 is not a node
    rng = np.random.default_rng(37)
    cloud, projection = scene_fixture(rng, [((2.0, 2.0, 2.0), 200, [-2, 4])])
    with pytest.raises(ValueError, match="negative node index"):
        build_constraint_sets(cloud, CloudParams(), projection)
