"""Edge construction and potential functions from node feature descriptors.

Nodes carry an image-plane centroid, a mean color in [0, 1]^3, and a
color histogram.  Edges connect nodes whose centroids are closer than a
threshold; the pairwise potential of an edge is a Potts-style matrix
derived from a three-term dissimilarity (histogram distance, mean-color
distance, centroid distance), each term normalized into [0, 1].
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "NodeFeatures",
    "PotentialParams",
    "build_edges",
    "bhattacharyya_distance",
    "dissimilarity",
    "pairwise_potential",
    "edge_dissimilarities",
]


@dataclass(frozen=True)
class NodeFeatures:
    """Descriptor of one node: 2-D centroid, mean color in [0, 1]^3, and
    a nonnegative, not-all-zero color histogram."""

    centroid: np.ndarray
    mean_color: np.ndarray
    color_histogram: np.ndarray

    def __init__(self, centroid, mean_color, color_histogram):
        centroid = np.asarray(centroid, dtype=np.float64)
        mean_color = np.asarray(mean_color, dtype=np.float64)
        hist = np.asarray(color_histogram, dtype=np.float64)
        if centroid.shape != (2,):
            raise ValueError(f"centroid must have shape (2,), got {centroid.shape}")
        if mean_color.shape != (3,):
            raise ValueError(f"mean_color must have shape (3,), got {mean_color.shape}")
        if hist.ndim != 1 or hist.size == 0:
            raise ValueError("color_histogram must be a non-empty 1-D array")
        if hist.min() < 0 or hist.sum() <= 0:
            raise ValueError("color_histogram must be nonnegative and not all zero")
        object.__setattr__(self, "centroid", centroid)
        object.__setattr__(self, "mean_color", mean_color)
        object.__setattr__(self, "color_histogram", hist)


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


def build_edges(features, theta):
    """Connect every pair of nodes with centroid distance strictly below
    `theta`.  Returns an int64 array of shape (E, 2) holding canonical
    pairs i < j sorted by (i, j)."""
    if len(features) < 1:
        raise ValueError("need at least one node")
    centers = np.stack([f.centroid for f in features])
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
    sa, sb = a.sum(), b.sum()
    if sa <= 0 or sb <= 0:
        raise ValueError("histograms must have positive sums")
    n = a.shape[0]
    radicand = 1.0 - np.sqrt(a * b).sum() / np.sqrt(sa * sb * n * n)
    return float(np.sqrt(np.clip(radicand, 0.0, 1.0)))


def dissimilarity(i, j, params):
    """Mean of the three normalized feature distances between two nodes.

    The color term theta_c * ||mean_color_i - mean_color_j|| and the
    location term theta_l * ||centroid_i - centroid_j|| are clamped at 1
    so the result stays in [0, 1] for any inputs.
    """
    hist_term = bhattacharyya_distance(i.color_histogram, j.color_histogram)
    color_term = min(1.0, params.theta_c * float(np.linalg.norm(i.mean_color - j.mean_color)))
    loc_term = min(1.0, params.theta_l * float(np.linalg.norm(i.centroid - j.centroid)))
    return (hist_term + color_term + loc_term) / 3.0


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
    """Vectorized `dissimilarity` over an edge list.

    Equivalent to calling the scalar function per edge; batched over
    stacked feature arrays for speed on large graphs.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    hists = np.stack([f.color_histogram for f in features])
    colors = np.stack([f.mean_color for f in features])
    centers = np.stack([f.centroid for f in features])
    ii, jj = edges[:, 0], edges[:, 1]

    ha, hb = hists[ii], hists[jj]
    n = hists.shape[1]
    radicand = 1.0 - np.sqrt(ha * hb).sum(axis=1) / np.sqrt(
        ha.sum(axis=1) * hb.sum(axis=1) * n * n
    )
    hist_term = np.sqrt(np.clip(radicand, 0.0, 1.0))
    color_term = np.minimum(
        1.0, params.theta_c * np.linalg.norm(colors[ii] - colors[jj], axis=1)
    )
    loc_term = np.minimum(
        1.0, params.theta_l * np.linalg.norm(centers[ii] - centers[jj], axis=1)
    )
    return (hist_term + color_term + loc_term) / 3.0
