"""Planted-scene generator.

Produces grid-structured labeling problems with known ground truth:
a W x H field of nodes (one per unit cell), rectangular objects planted
on a background, a `NodeFeatures` table of appearance features derived
from the true labels, noisy unary scores, and a matching synthetic 3D
point cloud (dense ground plane plus one elevated blob per object) from
which constraint sets can be recovered.
"""

import colorsys
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CrfGraph,
    Potentials,
    _as_integers,
    _check_count,
    _check_fraction,
    _check_positive,
)
from .cloud import NodeProjection
from .potentials import (
    NodeFeatures,
    PotentialParams,
    build_edges,
    edge_dissimilarities,
    potts_weights,
)

__all__ = ["generate_scene"]

HIST_BINS = 8

# Blob geometry: a 3x3 lattice of points per cell keeps same-object
# points well under the default 0.5 m clustering radius, while the one
# cell gap enforced between objects keeps distinct blobs apart.
_MIN_BLOB_POINTS = 160
_XY_JITTER = 0.05
_Z_JITTER = 0.05
_GROUND_SPACING = 0.5
_BOX_SIDE_RANGE = (3, 6)
_COLOR_NOISE = 0.32
_HIST_NOISE = 0.18
_HIST_FLOOR = 0.005
# Side of the square blocks that `tile_constraint_candidates` cuts.
_TILE = 4


@dataclass(frozen=True)
class Box:
    """Planted rectangle over grid cells [r0, r1) x [c0, c1)."""

    r0: int
    c0: int
    r1: int
    c1: int
    label: int
    base_z: float


@dataclass(frozen=True)
class PlantedScene:
    width: int
    height: int
    noise: float
    seed: int
    graph: CrfGraph
    potentials: Potentials
    features: NodeFeatures = field(repr=False)
    params: PotentialParams = field(repr=False)
    true_labels: np.ndarray = field(repr=False)
    boxes: tuple = ()
    cloud: np.ndarray = field(default=None, repr=False)
    projection: NodeProjection = field(default=None, repr=False)

    @property
    def num_nodes(self):
        return self.width * self.height

    @property
    def num_labels(self):
        return self.graph.num_labels


def _palette(num_labels):
    return np.array(
        [colorsys.hsv_to_rgb(k / num_labels, 0.9, 0.9) for k in range(num_labels)]
    )


def _base_histograms(num_labels):
    base = np.full((num_labels, HIST_BINS), _HIST_FLOOR)
    for k in range(num_labels):
        base[k, k % HIST_BINS] = 1.0 - _HIST_FLOOR * (HIST_BINS - 1)
    return base


def _place_boxes(rng, width, height, num_objects, num_labels):
    """Random non-overlapping rectangles with at least one empty cell
    between any two.  Bounded retries: dense requests fail loudly rather
    than looping forever."""
    boxes = []
    attempts = 0
    max_attempts = 200 * num_objects
    lo, hi = _BOX_SIDE_RANGE
    while len(boxes) < num_objects:
        if attempts >= max_attempts:
            raise ValueError(
                f"could not place {num_objects} objects on a "
                f"{width}x{height} grid after {max_attempts} attempts"
            )
        attempts += 1
        h = int(rng.integers(lo, min(hi, height) + 1))
        w = int(rng.integers(lo, min(hi, width) + 1))
        r0 = int(rng.integers(0, height - h + 1))
        c0 = int(rng.integers(0, width - w + 1))
        r1, c1 = r0 + h, c0 + w
        clear = all(
            r1 + 1 <= b.r0 or b.r1 + 1 <= r0 or c1 + 1 <= b.c0 or b.c1 + 1 <= c0
            for b in boxes
        )
        if not clear:
            continue
        label = 1 + len(boxes) % (num_labels - 1)
        base_z = float(rng.uniform(0.8, 1.6))
        boxes.append(Box(r0, c0, r1, c1, label, base_z))
    return boxes


def _blob_points(rng, box, width):
    """3x3 per-cell lattice with small jitter, topped up with uniform
    points inside the box so every blob clears the cluster size filter."""
    rows = np.arange(box.r0, box.r1)
    cols = np.arange(box.c0, box.c1)
    offs = (2.0 * np.arange(3) + 1.0) / 6.0
    xs = (cols[:, None] + offs[None, :]).ravel()
    ys = (rows[:, None] + offs[None, :]).ravel()
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts += rng.uniform(-_XY_JITTER, _XY_JITTER, size=pts.shape)

    extra = _MIN_BLOB_POINTS - pts.shape[0]
    if extra > 0:
        ex = rng.uniform(box.c0 + 1 / 6, box.c1 - 1 / 6, size=extra)
        ey = rng.uniform(box.r0 + 1 / 6, box.r1 - 1 / 6, size=extra)
        pts = np.vstack([pts, np.column_stack([ex, ey])])

    z = box.base_z + rng.uniform(-_Z_JITTER, _Z_JITTER, size=pts.shape[0])
    cloud = np.column_stack([pts, z])
    nodes = (
        np.floor(cloud[:, 1]).astype(np.int64) * width
        + np.floor(cloud[:, 0]).astype(np.int64)
    )
    return cloud, nodes


def _ground_points(rng, width, height):
    ticks_x = np.arange(0.0, width + 1e-9, _GROUND_SPACING)
    ticks_y = np.arange(0.0, height + 1e-9, _GROUND_SPACING)
    gx, gy = np.meshgrid(ticks_x, ticks_y)
    n = gx.size
    z = rng.uniform(-0.02, 0.02, size=n)
    return np.column_stack([gx.ravel(), gy.ravel(), z])


def generate_scene(
    width=40,
    height=40,
    num_objects=6,
    num_labels=7,
    noise=0.6,
    seed=0,
    pairwise_weight=0.2,
):
    """Build a planted scene.  Deterministic given the arguments;
    `seed` is a non-negative integer.

    `noise` in [0, 1] controls both feature corruption and the unary
    mix: each unary row is (1 - noise) * onehot(truth) + noise * u with
    u drawn uniformly per label, renormalized.  At noise=0 the unaries
    identify the truth exactly; at noise=1 they carry no signal.

    `pairwise_weight` scales the feature-derived Potts weights, which
    the scene's potentials store as (E, 2) (diagonal, off-diagonal)
    pairs rather than K x K matrices.  Unit
    weight lets smoothing dwarf the unit-sum unary rows on a grid (two
    edges per node, each worth up to 2), which collapses scenes toward
    constant labelings; the default keeps data and smoothing terms at
    comparable scale.
    """
    width = _check_count("width", width, _BOX_SIDE_RANGE[0], "cells")
    height = _check_count("height", height, _BOX_SIDE_RANGE[0], "cells")
    num_objects = _check_count("num_objects", num_objects, 1, "object")
    num_labels = _check_count("num_labels", num_labels, 2, "labels")
    _check_fraction("noise", noise)
    _check_positive("pairwise_weight", pairwise_weight)
    seed = _check_count("seed", seed, 0)

    rng = np.random.default_rng(seed)
    boxes = _place_boxes(rng, width, height, num_objects, num_labels)

    n = width * height
    true_labels = np.zeros(n, dtype=np.int64)
    for b in boxes:
        for r in range(b.r0, b.r1):
            true_labels[r * width + b.c0 : r * width + b.c1] = b.label

    palette = _palette(num_labels)
    base_hist = _base_histograms(num_labels)

    colors = palette[true_labels] + noise * rng.normal(0.0, _COLOR_NOISE, size=(n, 3))
    colors = np.clip(colors, 0.0, 1.0)
    hists = base_hist[true_labels] + noise * rng.normal(
        0.0, _HIST_NOISE, size=(n, HIST_BINS)
    )
    hists = np.clip(hists, 1e-6, None)
    hists /= hists.sum(axis=1, keepdims=True)

    cols = np.arange(n) % width
    rows_idx = np.arange(n) // width
    centroids = np.column_stack([cols + 0.5, rows_idx + 0.5]).astype(np.float64)

    features = NodeFeatures(centroids, colors, hists)
    # the table holds copies; freeing the originals now lets the arrays
    # built below reuse their memory (peak RSS stays flat over many scenes)
    del centroids, colors, hists
    params = PotentialParams(
        theta=1.1,
        theta_c=2.0,
        theta_l=1.0 / np.hypot(width, height),
    )

    edges = build_edges(features.centroids, params.theta)
    dis = edge_dissimilarities(features, edges, params)
    potts = pairwise_weight * potts_weights(dis)

    unary = (1.0 - noise) * np.eye(num_labels)[true_labels]
    unary = unary + noise * rng.uniform(0.0, 1.0, size=(n, num_labels))
    unary /= unary.sum(axis=1, keepdims=True)

    graph = CrfGraph(num_nodes=n, num_labels=num_labels, edges=edges)
    potentials = Potentials(unary, potts=potts)

    ground = _ground_points(rng, width, height)
    blobs, blob_nodes = [], []
    for b in boxes:
        pts, nodes = _blob_points(rng, b, width)
        blobs.append(pts)
        blob_nodes.append(nodes)
    cloud = np.vstack([ground] + blobs)
    mapping = np.concatenate(
        [np.full(ground.shape[0], -1, dtype=np.int64)] + blob_nodes
    )
    order = rng.permutation(cloud.shape[0])
    cloud = cloud[order]
    mapping = mapping[order]

    return PlantedScene(
        width=width,
        height=height,
        noise=noise,
        seed=seed,
        graph=graph,
        potentials=potentials,
        features=features,
        params=params,
        true_labels=true_labels,
        boxes=tuple(boxes),
        cloud=cloud,
        projection=NodeProjection(mapping),
    )


def tile_constraint_candidates(true_labels, width, height):
    """Candidate constraint sets from truth-aligned tiles.

    The grid is cut into _TILE x _TILE blocks; within each block, the
    nodes sharing a true label form one candidate (if at least 2).
    Blocks are disjoint and label groups partition each block, so any
    subset of the candidates is a valid pairwise-disjoint collection.
    """
    true_labels = _as_integers(true_labels, "true_labels must be integers, got {!r}")
    if true_labels.shape != (width * height,):
        raise ValueError("true_labels length must equal width * height")
    # sort the nodes by (tile, label); a stable sort keeps each group's
    # nodes in row-major order, and tiles come row-major too
    rows, cols = np.divmod(np.arange(width * height), width)
    tile = rows // _TILE * -(-width // _TILE) + cols // _TILE
    order = np.lexsort((true_labels, tile))
    tile, labels = tile[order], true_labels[order]
    cuts = np.flatnonzero((tile[1:] != tile[:-1]) | (labels[1:] != labels[:-1])) + 1
    bounds = np.concatenate([[0], cuts, [order.size]]).tolist()
    nodes = order.tolist()
    return [tuple(nodes[a:b]) for a, b in zip(bounds, bounds[1:]) if b - a >= 2]
