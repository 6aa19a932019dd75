"""Planted-scene generation and the method comparison harness."""

import numpy as np
import pytest

from crfqp import ConstraintSets, evaluate_scene, generate_scene, summarize_reports
from crfqp.potentials import edge_dissimilarities, pairwise_potential
from crfqp.synthetic import tile_constraint_candidates


def small_scene(**kwargs):
    defaults = dict(
        width=12, height=10, num_objects=2, num_labels=4, noise=0.5, seed=3
    )
    defaults.update(kwargs)
    return generate_scene(**defaults)


def test_scene_is_deterministic():
    a, b = small_scene(), small_scene()
    assert np.array_equal(a.potentials.unary, b.potentials.unary)
    assert np.array_equal(a.potentials.pairwise, b.potentials.pairwise)
    assert np.array_equal(a.true_labels, b.true_labels)
    assert np.array_equal(a.cloud, b.cloud)
    assert np.array_equal(a.projection.mapping, b.projection.mapping)
    assert a.boxes == b.boxes


def test_scene_shapes_and_simplex_unaries():
    scene = small_scene()
    n, k = scene.num_nodes, scene.num_labels
    assert (n, k) == (120, 4)
    assert scene.potentials.unary.shape == (n, k)
    assert scene.potentials.unary.min() >= 0.0
    assert scene.potentials.unary.sum(axis=1) == pytest.approx(np.ones(n), abs=1e-12)
    assert scene.true_labels.shape == (n,)


def test_grid_edges_link_axis_neighbors_only():
    scene = small_scene()
    w, h = scene.width, scene.height
    assert scene.graph.num_edges == 2 * w * h - w - h
    for i, j in scene.graph.edges:
        ri, ci = divmod(i, w)
        rj, cj = divmod(j, w)
        assert abs(ri - rj) + abs(ci - cj) == 1


def test_zero_noise_unaries_identify_truth():
    scene = small_scene(noise=0.0)
    assert np.array_equal(
        np.argmax(scene.potentials.unary, axis=1), scene.true_labels
    )
    assert scene.potentials.unary.max() == 1.0


def test_full_noise_unaries_carry_no_signal():
    scene = generate_scene(20, 20, 3, 7, noise=1.0, seed=8)
    accuracy = np.mean(
        np.argmax(scene.potentials.unary, axis=1) == scene.true_labels
    )
    assert accuracy < 0.3  # chance level is 1/7


def test_boxes_paint_truth_and_stay_off_background_label():
    scene = small_scene()
    painted = np.zeros(scene.num_nodes, dtype=bool)
    for box in scene.boxes:
        assert 1 <= box.label < scene.num_labels
        for r in range(box.r0, box.r1):
            for c in range(box.c0, box.c1):
                node = r * scene.width + c
                painted[node] = True
                assert scene.true_labels[node] == box.label
    assert not scene.true_labels[~painted].any()


def test_blobs_project_onto_their_boxes():
    scene = small_scene()
    box_nodes = set()
    for box in scene.boxes:
        box_nodes |= {
            r * scene.width + c
            for r in range(box.r0, box.r1)
            for c in range(box.c0, box.c1)
        }
    mapping = scene.projection.mapping
    object_points = mapping >= 0
    assert set(mapping[object_points]) == box_nodes
    # every blob clears the downstream cluster-size filter with margin
    assert object_points.sum() >= 160 * len(scene.boxes)
    assert scene.cloud[object_points, 2].min() > 0.7
    assert np.abs(scene.cloud[~object_points, 2]).max() < 0.05


def test_pairwise_blocks_follow_edge_dissimilarity():
    scene = small_scene()
    dis = edge_dissimilarities(scene.features, scene.graph.edges, scene.params)
    k = scene.num_labels
    pairwise = scene.potentials.pairwise
    for e in range(scene.graph.num_edges):
        want = 0.2 * pairwise_potential(dis[e], k)
        assert pairwise[e] == pytest.approx(want, abs=1e-12)


def test_scene_argument_validation():
    with pytest.raises(ValueError, match="positive"):
        small_scene(width=0)
    with pytest.raises(ValueError, match="at least 2 labels"):
        small_scene(num_labels=1)
    with pytest.raises(ValueError, match="at least 1 object"):
        small_scene(num_objects=0)
    with pytest.raises(ValueError, match=r"noise must lie in \[0, 1\]"):
        small_scene(noise=1.5)
    with pytest.raises(ValueError, match="pairwise_weight"):
        small_scene(pairwise_weight=0.0)
    with pytest.raises(ValueError, match="could not place"):
        generate_scene(4, 4, 10, 4, noise=0.5, seed=0)
    # a side below the smallest object's (3 cells) fails by name, not
    # inside numpy's sampler
    for side in ("width", "height"):
        with pytest.raises(ValueError, match=rf"^{side} must .* \(at least 3 cells\), got 2$"):
            small_scene(**{side: 2})
    assert small_scene(width=3, height=3, num_objects=1).boxes[0].r1 == 3


def test_tile_candidates_partition_tiles_by_label():
    scene = small_scene()
    candidates = tile_constraint_candidates(
        scene.true_labels, scene.width, scene.height
    )
    seen = set()
    for cand in candidates:
        assert len(cand) >= 2
        labels = {int(scene.true_labels[n]) for n in cand}
        assert len(labels) == 1
        assert not seen & set(cand)
        seen |= set(cand)
        rows = {n // scene.width // 4 for n in cand}
        cols = {n % scene.width // 4 for n in cand}
        assert len(rows) == 1 and len(cols) == 1
    # any subset is pairwise disjoint, hence a valid collection
    ConstraintSets(candidates)
    with pytest.raises(ValueError, match="length"):
        tile_constraint_candidates(scene.true_labels[:-1], scene.width, scene.height)


def test_tile_candidates_order_on_a_ragged_grid():
    # 6 x 5 grid: 4 x 4 tiles, the last tile column 2 wide and the last
    # tile row 1 high; candidates come tile by tile in row-major order,
    # by label within a tile, and nodes in row-major order
    true_labels = [
        [0, 0, 1, 1, 2, 2],
        [0, 1, 1, 0, 2, 0],
        [2, 2, 0, 0, 1, 1],
        [2, 0, 0, 1, 1, 1],
        [1, 1, 0, 2, 2, 0],
    ]
    assert tile_constraint_candidates(np.ravel(true_labels), 6, 5) == [
        (0, 1, 6, 9, 14, 15, 19, 20),
        (2, 3, 7, 8, 21),
        (12, 13, 18),
        (16, 17, 22, 23),
        (4, 5, 10),
        (24, 25),
    ]


def test_evaluate_scene_runs_all_methods():
    scene = small_scene(noise=0.4)
    sets = ConstraintSets(
        tile_constraint_candidates(scene.true_labels, scene.width, scene.height)
    )
    results = eval_results = evaluate_scene(scene, constraint_sets=sets)
    assert set(results) == {"unary", "lbp", "qp", "cqp"}
    for method, res in results.items():
        assert res.method == method
        assert res.labeling.shape == (scene.num_nodes,)
        assert 0.0 <= res.metrics.macro_f1 <= 1.0
    assert results["unary"].iterations == 0
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        evaluate_scene(scene, methods=("bogus",))
    # constrained nodes obey every set
    cqp = results["cqp"].labeling
    for members in sets:
        assert len({int(cqp[m]) for m in members}) == 1
    table = summarize_reports(
        {m: [res.metrics] for m, res in eval_results.items()}
    )
    lines = table.splitlines()
    assert lines[0].split() == ["method", "Precision", "Recall", "Accuracy", "F1"]
    assert len(lines) == 5 and lines[1].startswith("unary")


def test_evaluate_scene_rejects_unknown_method():
    scene = small_scene()
    with pytest.raises(ValueError, match="unknown method"):
        evaluate_scene(scene, methods=("qp", "mystery"))
