"""Edge construction and potential functions from node feature descriptors.

Node features form one table: an image-plane centroid, a mean color in
[0, 1]^3 and a color histogram per node, held as three row-aligned
arrays.  Edges connect nodes whose centroids are closer than a
threshold; the pairwise potential of an edge is a Potts-style matrix
derived from a three-term dissimilarity (histogram distance, mean-color
distance, centroid distance), each term normalized into [0, 1].
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["bhattacharyya_distance"]


@dataclass(frozen=True)
class NodeFeatures:
    """Per-node descriptors as one table of read-only float64 copies:
    `centroids` (N, 2), `mean_colors` (N, 3) in [0, 1]^3 and
    `histograms` (N, B), each row nonnegative and not all zero.  Row i
    describes node i; N and B are at least 1."""

    centroids: np.ndarray
    mean_colors: np.ndarray
    histograms: np.ndarray

    def __init__(self, centroids, mean_colors, histograms):
        centroids = np.array(centroids, dtype=np.float64)
        mean_colors = np.array(mean_colors, dtype=np.float64)
        histograms = np.array(histograms, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[1] != 2 or len(centroids) == 0:
            raise ValueError(
                f"centroids must have shape (N, 2) with N >= 1, got {centroids.shape}"
            )
        n = len(centroids)
        if mean_colors.shape != (n, 3):
            raise ValueError(
                f"mean_colors must have shape ({n}, 3), got {mean_colors.shape}"
            )
        if histograms.shape[:1] != (n,):
            raise ValueError(f"histograms must have {n} rows, got shape {histograms.shape}")
        if histograms.ndim != 2 or histograms.size == 0:
            # every row shares this shape, so node 0 is the first bad one
            raise ValueError(
                "features[0]: histogram must be a non-empty 1-D array, "
                f"got shape {histograms.shape[1:]}"
            )
        negative = (histograms < 0).any(axis=1)
        bad = np.flatnonzero(negative | (histograms.sum(axis=1) <= 0))
        if bad.size:
            raise ValueError(
                f"features[{bad[0]}]: histogram must be nonnegative and not all zero"
            )
        for column in (centroids, mean_colors, histograms):
            column.flags.writeable = False
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "mean_colors", mean_colors)
        object.__setattr__(self, "histograms", histograms)


@dataclass(frozen=True)
class PotentialParams:
    """theta: edge distance threshold; theta_c / theta_l: normalizers
    bringing the mean-color and centroid distance terms into [0, 1]."""

    theta: float
    theta_c: float
    theta_l: float

    def __post_init__(self):
        if self.theta <= 0 or self.theta_c <= 0 or self.theta_l <= 0:
            raise ValueError("all potential parameters must be positive")


def build_edges(centroids, theta):
    """Connect every pair of nodes whose (N, 2) `centroids` lie strictly
    closer than `theta`.  Returns an int64 array of shape (E, 2) holding
    canonical pairs i < j sorted by (i, j)."""
    centers = np.asarray(centroids, dtype=np.float64)
    if len(centers) < 1:
        raise ValueError("need at least one node")
    # The kd-tree compares squared distances; a slightly wider search
    # keeps every candidate, and the strict test below decides.
    pairs = cKDTree(centers).query_pairs(theta * (1 + 1e-9), output_type="ndarray")
    diff = centers[pairs[:, 0]] - centers[pairs[:, 1]]
    pairs = pairs[np.sqrt((diff**2).sum(axis=1)) < theta]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].astype(np.int64)


def bhattacharyya_distance(a, b):
    """Histogram dissimilarity in [0, 1].

    D(a, b) = sqrt(1 - (1 / sqrt(sum(a) * sum(b) * N^2)) * sum_i sqrt(a_i b_i))

    with N the bin count.  The radicand is clamped to [0, 1]: the printed
    normalization can leave it slightly outside for some histograms, and
    in general D is not 0 for identical histograms.  Disjoint supports
    give exactly 1.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"histograms must share one shape, got {a.shape}, {b.shape}")
    if a.sum() <= 0 or b.sum() <= 0:
        raise ValueError("histograms must have positive sums")
    return float(_bhattacharyya_rows(a[None], b[None])[0])


def _bhattacharyya_rows(ha, hb):
    """Unvalidated `bhattacharyya_distance` of each row pair of (M, B) arrays."""
    n = ha.shape[1]
    radicand = 1.0 - np.sqrt(ha * hb).sum(axis=1) / np.sqrt(
        ha.sum(axis=1) * hb.sum(axis=1) * n * n
    )
    return np.sqrt(np.clip(radicand, 0.0, 1.0))


def pairwise_potential(dis, num_labels):
    """Potts-style pairwise matrices: 1 - dis^2 on the diagonal, dis^2
    off it.  `dis` is a scalar or an array of values in [0, 1]; the
    result has shape dis.shape + (num_labels, num_labels)."""
    dis = np.asarray(dis, dtype=np.float64)
    in_range = (dis >= 0.0) & (dis <= 1.0)
    if not np.all(in_range):
        bad = dis[~in_range].flat[0]
        raise ValueError(f"dissimilarity must lie in [0, 1], got {bad}")
    d2 = dis * dis
    shape = d2.shape + (num_labels, num_labels)
    psi = np.broadcast_to(d2[..., None, None], shape).copy()
    diag = np.arange(num_labels)
    psi[..., diag, diag] = (1.0 - d2)[..., None]
    return psi


def edge_dissimilarities(features, edges, params):
    """Mean of the three normalized feature distances across each edge.

    The histogram term is `bhattacharyya_distance`; the color term
    theta_c * ||mean_color_i - mean_color_j|| and the location term
    theta_l * ||centroid_i - centroid_j|| are clamped at 1, so every
    value lies in [0, 1] for any `NodeFeatures` table.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ii, jj = edges[:, 0], edges[:, 1]

    hists = features.histograms
    # ha, hb live to the end: freeing them sooner slowed scene-sweep solves ~5%
    ha, hb = hists[ii], hists[jj]
    hist_term = _bhattacharyya_rows(ha, hb)
    colors, centers = features.mean_colors, features.centroids
    color_term = np.minimum(
        1.0, params.theta_c * np.linalg.norm(colors[ii] - colors[jj], axis=1)
    )
    loc_term = np.minimum(
        1.0, params.theta_l * np.linalg.norm(centers[ii] - centers[jj], axis=1)
    )
    return (hist_term + color_term + loc_term) / 3.0
