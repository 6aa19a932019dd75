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

from .core import _as_floats, _as_integers, _check_positive, _potts_blocks

__all__ = ["bhattacharyya_distance"]

_TINY, _MAX = np.finfo(np.float64).tiny, np.finfo(np.float64).max


def _sums_in_range(low, high, bins):
    """Whether nonnegative histogram sums from `low` to `high` lie in
    [sqrt(tiny), sqrt(max) / B] for B `bins`: where s * s and
    s * s * B * B, tested as computed here, are normal float64s.  The
    distance forms sa * sb * B * B for two such sums; rounding is
    monotone, so each of its products lies between those of sa and of
    sb, and neither overflows nor underflows."""
    with np.errstate(over="ignore"):
        return (low * low >= _TINY) & (high * high * bins * bins <= _MAX)


def _sum_range(bins):
    """The message for a histogram sum outside `_sums_in_range`."""
    return f"histogram sum must lie in [{np.sqrt(_TINY):.3g}, {np.sqrt(_MAX) / bins:.3g}]"


def _first_bad_row(centroids, mean_colors, histograms, sums):
    """The first node whose row breaks a `NodeFeatures` bound, and its
    first fault in column order; `sums` are the histogram row sums."""
    in_unit = (mean_colors >= 0.0) & (mean_colors <= 1.0)
    bins = histograms.shape[1]
    messages, masks = zip(
        ("centroid must be finite", ~np.isfinite(centroids).all(axis=1)),
        ("mean color must lie in [0, 1]", ~in_unit.all(axis=1)),
        ("histogram must be finite", ~np.isfinite(histograms).all(axis=1)),
        (
            "histogram must be nonnegative and not all zero",
            (histograms < 0).any(axis=1) | (sums <= 0),
        ),
        (_sum_range(bins), ~_sums_in_range(sums, sums, bins)),
    )
    faults = np.stack(masks)
    node = np.flatnonzero(faults.any(axis=0))[0]
    return node, messages[np.argmax(faults[:, node])]


@dataclass(frozen=True)
class NodeFeatures:
    """Per-node descriptors as one table of read-only float64 copies:
    finite `centroids` (N, 2), `mean_colors` (N, 3) in [0, 1]^3 and
    finite `histograms` (N, B), each row nonnegative with its sum in
    [sqrt(tiny), sqrt(max) / B] (`bhattacharyya_distance`).  Row i
    describes node i; N and B are at least 1.  A row that breaks these
    is reported as `features[i]: ...`, first bad row first."""

    centroids: np.ndarray
    mean_colors: np.ndarray
    histograms: np.ndarray

    def __init__(self, centroids, mean_colors, histograms):
        message = "{} must hold numbers, got {{!r}}"
        centroids = np.array(_as_floats(centroids, message.format("centroids")))
        mean_colors = np.array(_as_floats(mean_colors, message.format("mean_colors")))
        histograms = np.array(_as_floats(histograms, message.format("histograms")))
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
        # min and max propagate NaN, so these scalars settle every bound
        # without a per-entry mask; only a failing table is searched row
        # by row for the node to name
        ends = (centroids.min(), centroids.max(), histograms.max())
        sums = histograms.sum(axis=1)
        if not (
            np.isfinite(ends).all()
            and 0.0 <= mean_colors.min()
            and mean_colors.max() <= 1.0
            and histograms.min() >= 0.0
            and _sums_in_range(sums.min(), sums.max(), histograms.shape[1])
        ):
            node, message = _first_bad_row(centroids, mean_colors, histograms, sums)
            raise ValueError(f"features[{node}]: {message}")
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
        for name in ("theta", "theta_c", "theta_l"):
            _check_positive(f"PotentialParams.{name}", getattr(self, name))


def build_edges(centroids, theta):
    """Connect every pair of nodes whose (N, 2) `centroids` lie strictly
    closer than `theta`.  Returns an int64 array of shape (E, 2) holding
    canonical pairs i < j sorted by (i, j)."""
    # imported here, so a process that never builds edges (a `crfqp
    # solve` of a problem file) does not load scipy.spatial
    from scipy.spatial import cKDTree

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
    give exactly 1.  Both histograms must be finite and nonnegative, with
    sums s in [sqrt(tiny), sqrt(max) / N], about [1.49e-154,
    1.34e154 / N]: there s * s and s * s * N^2 are normal float64s, so
    the normalizer neither overflows to inf nor underflows to 0, and
    no distance is NaN.
    """
    a = _as_floats(a, "histograms must hold numbers, got {!r}")
    b = _as_floats(b, "histograms must hold numbers, got {!r}")
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"histograms must share one shape, got {a.shape}, {b.shape}")
    # min and max propagate NaN, so these scalars settle every bound
    ends = (a.min(initial=0.0), a.max(initial=0.0), b.min(initial=0.0), b.max(initial=0.0))
    if not np.isfinite(ends).all():
        raise ValueError("histogram must be finite")
    if min(ends) < 0.0:
        raise ValueError("histogram must be nonnegative and not all zero")
    sums = (a.sum(), b.sum())
    if min(sums) <= 0:
        raise ValueError("histograms must have positive sums")
    if not _sums_in_range(min(sums), max(sums), a.size):
        raise ValueError(_sum_range(a.size))
    return float(_bhattacharyya_rows(a[None], b[None])[0])


def _bhattacharyya_rows(ha, hb):
    """Unvalidated `bhattacharyya_distance` of each row pair of (M, B) arrays."""
    n = ha.shape[1]
    radicand = 1.0 - np.sqrt(ha * hb).sum(axis=1) / np.sqrt(
        ha.sum(axis=1) * hb.sum(axis=1) * n * n
    )
    return np.sqrt(np.clip(radicand, 0.0, 1.0))


def potts_weights(dis):
    """Potts (diagonal, off-diagonal) weights 1 - dis^2 and dis^2, with
    shape dis.shape + (2,).  `dis` is a number or an array of numbers
    in [0, 1]."""
    dis = _as_floats(dis, "dissimilarity must be a number, got {!r}")
    in_range = (dis >= 0.0) & (dis <= 1.0)
    if not np.all(in_range):
        bad = dis[~in_range].flat[0]
        raise ValueError(f"dissimilarity must lie in [0, 1], got {bad}")
    d2 = dis * dis
    return np.stack([1.0 - d2, d2], axis=-1)


def pairwise_potential(dis, num_labels):
    """Potts-style pairwise matrices: 1 - dis^2 on the diagonal, dis^2
    off it.  `dis` is as for `potts_weights`; the result has shape
    dis.shape + (num_labels, num_labels)."""
    return _potts_blocks(potts_weights(dis), num_labels)


def edge_dissimilarities(features, edges, params):
    """Mean of the three normalized feature distances across each edge.

    The histogram term is `bhattacharyya_distance`; the color term
    theta_c * ||mean_color_i - mean_color_j|| and the location term
    theta_l * ||centroid_i - centroid_j|| are clamped at 1, so every
    value lies in [0, 1] for any `NodeFeatures` table.
    """
    edges = _as_integers(edges, "edges must hold integer node indices, got {!r}")
    edges = edges.reshape(-1, 2)
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
