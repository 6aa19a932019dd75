"""Constraint-set extraction from 3D point clouds.

Pipeline: RANSAC removes the dominant ground plane, the survivors are
grouped by single-link Euclidean clustering, small clusters are
discarded, and each remaining cluster is projected onto graph nodes to
form one label-consistency constraint set.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import _as_integers, _check_count, _check_positive
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

# Bytes of each float buffer that plane scoring reuses, block after
# block.  The candidate rows per block follow from the point count: 8 at
# about 7,750 points.  Memory then follows the points, not the
# candidates, and the buffers stay in cache.
_SCORE_BUFFER_BYTES = 512 * 1024


@dataclass(frozen=True)
class CloudParams:
    ransac_iterations: int = 500
    plane_inlier_threshold: float = 0.15
    cluster_radius: float = 0.5
    min_cluster_size: int = 150
    rng_seed: int = 0

    def __post_init__(self):
        _check_count("CloudParams.ransac_iterations", self.ransac_iterations)
        _check_count("CloudParams.min_cluster_size", self.min_cluster_size)
        _check_positive("CloudParams.plane_inlier_threshold", self.plane_inlier_threshold)
        _check_positive("CloudParams.cluster_radius", self.cluster_radius)


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
        message = "projection mapping must hold integer node indices, not booleans: {!r}"
        mapping = _as_integers(mapping, message)
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


def _plane_inliers(coords, normals, offsets, threshold):
    """Yield (start, inlier) per block of candidate planes: inlier[r, p]
    says point p lies within `threshold` of plane start + r.

    `coords` holds x, y and z as contiguous rows.  Every block is
    computed in the same two float buffers and one bool buffer, and
    each element goes through nx*x + ny*y + nz*z + offset, abs and
    <= threshold in that order, so a mask is the same whichever planes
    share its block.  Each yielded mask is overwritten by the next
    block.
    """
    x, y, z = coords
    planes, points = normals.shape[0], coords.shape[1]
    rows = min(planes, max(1, _SCORE_BUFFER_BYTES // (8 * points)))
    dist = np.empty((rows, points))
    term = np.empty((rows, points))
    inlier = np.empty((rows, points), dtype=bool)
    for start in range(0, planes, rows):
        block = slice(start, start + rows)
        nx, ny, nz = normals[block].T[..., None]
        size = nx.shape[0]
        d, t, m = dist[:size], term[:size], inlier[:size]
        np.multiply(nx, x, out=d)
        d += np.multiply(ny, y, out=t)
        d += np.multiply(nz, z, out=t)
        d += offsets[block, None]
        np.abs(d, out=d)
        yield start, np.less_equal(d, threshold, out=m)


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
    coords = np.ascontiguousarray(pts.T)
    counts = np.empty(normals.shape[0], dtype=np.int64)
    for start, inlier in _plane_inliers(coords, normals, offsets, threshold):
        for row, mask in enumerate(inlier, start):
            counts[row] = np.count_nonzero(mask)

    best = counts.max()
    near_best = np.nonzero(counts >= int(np.ceil(0.99 * best)))[0]
    chosen = near_best[np.argmax(np.abs(normals[near_best, 2]))]
    plane = PlaneModel(normals[chosen].copy(), float(offsets[chosen]))

    if counts[chosen] >= GROUND_MIN_FRACTION * n:
        column = slice(chosen, chosen + 1)
        _, inlier = next(_plane_inliers(coords, normals[column], offsets[column], threshold))
        kept = np.nonzero(~inlier[0])[0]
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
    # imported here, as in `build_edges`
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    pts = _as_points(points)
    n = pts.shape[0]
    if n == 0:
        return []
    tree = cKDTree(pts)
    pairs = tree.query_pairs(cluster_radius, output_type="ndarray")
    adj = sp.coo_matrix((np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, component = connected_components(adj, directed=False)
    # a stable sort keeps each cluster's members in increasing order
    order = np.argsort(component, kind="stable")
    members = np.split(order, np.flatnonzero(np.diff(component[order])) + 1)
    return sorted((m.tolist() for m in members), key=lambda m: m[0])


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
        nodes = np.unique(mapping[kept[members]])
        nodes = nodes[nodes != -1]
        if nodes.size >= 2:
            node_sets.append(set(nodes.tolist()))

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
