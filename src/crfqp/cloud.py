"""Constraint-set extraction from 3D point clouds.

Pipeline: RANSAC removes the dominant ground plane, the survivors are
grouped by single-link Euclidean clustering, small clusters are
discarded, and each remaining cluster is projected onto graph nodes to
form one label-consistency constraint set.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .reduction import ConstraintSets

__all__ = [
    "CloudParams",
    "NodeProjection",
    "remove_ground_plane",
    "euclidean_cluster",
    "build_constraint_sets",
]

# The best plane counts as "the ground" only when it captures at least
# this fraction of the cloud; smaller planes are reported but not removed.
GROUND_MIN_FRACTION = 0.5

# Most candidate planes scored at once, so scoring holds a 16 x points
# distance block instead of a candidates x points matrix.
_PLANE_BLOCK = 16


@dataclass(frozen=True)
class CloudParams:
    ransac_iterations: int = 500
    plane_inlier_threshold: float = 0.15
    cluster_radius: float = 0.5
    min_cluster_size: int = 150
    rng_seed: int = 0

    def __post_init__(self):
        if (
            self.ransac_iterations <= 0
            or self.plane_inlier_threshold <= 0
            or self.cluster_radius <= 0
            or self.min_cluster_size <= 0
        ):
            raise ValueError("cloud parameters must be positive")


@dataclass(frozen=True)
class PlaneModel:
    """Plane normal . x + offset = 0 with unit normal."""

    normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class NodeProjection:
    """Point index -> node index; -1 marks points outside the graph's
    field of view."""

    mapping: np.ndarray

    def __init__(self, mapping):
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.ndim != 1:
            raise ValueError("projection mapping must be 1-D")
        object.__setattr__(self, "mapping", mapping)


def _as_points(cloud):
    pts = np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"point cloud must have shape (n, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud must be finite")
    return pts


def _plane_distances(pts, normals, offsets):
    """(planes, points) matrix of point-to-plane distances, computed
    elementwise so each row is the same whichever planes share it."""
    x, y, z = pts.T
    dists = normals[:, :1] * x
    dists += normals[:, 1:2] * y
    dists += normals[:, 2:] * z
    dists += offsets[:, None]
    return np.abs(dists, out=dists)


def remove_ground_plane(cloud, params):
    """RANSAC plane fit with a gravity-aligned preference.

    Samples 3-point planes for `ransac_iterations` rounds; among
    candidates within 1% of the best inlier count, the plane whose
    normal is closest to the z axis wins.  Its inliers (distance <=
    plane_inlier_threshold) are removed only when they make up at least
    half the cloud; the plane itself is always returned.

    Returns
    -------
    (plane, kept_indices) : (PlaneModel, ndarray)
    """
    pts = _as_points(cloud)
    n = pts.shape[0]
    if n < 3:
        raise ValueError("need at least 3 points to fit a plane")
    rng = np.random.default_rng(params.rng_seed)
    samples = rng.integers(0, n, size=(params.ransac_iterations, 3))

    p0 = pts[samples[:, 0]]
    normals = np.cross(pts[samples[:, 1]] - p0, pts[samples[:, 2]] - p0)
    norms = np.linalg.norm(normals, axis=1)
    valid = norms > 1e-12
    if not valid.any():
        raise ValueError("no plane found: all sampled triples were collinear")
    normals = normals[valid] / norms[valid, None]
    offsets = -np.einsum("ij,ij->i", normals, p0[valid])

    threshold = params.plane_inlier_threshold
    blocks = [slice(b, b + _PLANE_BLOCK) for b in range(0, normals.shape[0], _PLANE_BLOCK)]
    counts = np.concatenate(
        [(_plane_distances(pts, normals[b], offsets[b]) <= threshold).sum(axis=1) for b in blocks]
    )

    best = counts.max()
    near_best = np.nonzero(counts >= int(np.ceil(0.99 * best)))[0]
    chosen = near_best[np.argmax(np.abs(normals[near_best, 2]))]
    plane = PlaneModel(normals[chosen].copy(), float(offsets[chosen]))

    column = slice(chosen, chosen + 1)
    inlier = _plane_distances(pts, normals[column], offsets[column])[0] <= threshold
    if inlier.sum() >= GROUND_MIN_FRACTION * n:
        kept = np.nonzero(~inlier)[0]
    else:
        kept = np.arange(n)
    return plane, kept


def euclidean_cluster(points, cluster_radius):
    """Single-link clustering: connected components of the graph linking
    points at distance <= cluster_radius.

    Uses a k-d tree for the neighbor pairs; the result equals the
    brute-force pairwise definition.  Clusters are sorted internally and
    ordered by smallest member, so the output is independent of point
    order.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n == 0:
        return []
    tree = cKDTree(pts)
    pairs = tree.query_pairs(cluster_radius, output_type="ndarray")
    if pairs.size:
        adj = sp.coo_matrix(
            (np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
        )
        _, component = connected_components(adj, directed=False)
    else:
        component = np.arange(n)
    clusters = {}
    for idx, c in enumerate(component):
        clusters.setdefault(int(c), []).append(idx)
    return sorted(clusters.values(), key=lambda members: members[0])


def build_constraint_sets(cloud, params, projection):
    """Full pipeline from a cloud to disjoint constraint sets.

    Ground removal, clustering, the minimum-size filter, projection of
    each surviving cluster onto nodes, and a final merge of clusters
    whose node sets overlap (projection collisions must not break
    disjointness).  Node sets smaller than 2 are dropped.
    """
    pts = _as_points(cloud)
    mapping = projection.mapping
    if mapping.shape[0] != pts.shape[0]:
        raise ValueError(
            f"projection covers {mapping.shape[0]} points, cloud has {pts.shape[0]}"
        )
    _, kept = remove_ground_plane(pts, params)
    if kept.size == 0:
        return ConstraintSets([])
    clusters = euclidean_cluster(pts[kept], params.cluster_radius)

    node_sets = []
    for members in clusters:
        if len(members) < params.min_cluster_size:
            continue
        nodes = {int(mapping[kept[m]]) for m in members}
        nodes.discard(-1)
        if len(nodes) >= 2:
            node_sets.append(nodes)

    merged = _merge_overlapping(node_sets)
    return ConstraintSets(sorted(sorted(s) for s in merged))


def _merge_overlapping(node_sets):
    """Union node sets until pairwise disjoint."""
    merged = []
    for nodes in node_sets:
        group = set(nodes)
        keep = []
        for existing in merged:
            if existing & group:
                group |= existing
            else:
                keep.append(existing)
        keep.append(group)
        merged = keep
    return merged
