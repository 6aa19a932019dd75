"""Pairwise CRF graphs, potentials, labelings, and the MAP objective.

The objective maximized by every solver in this package is

    F(mu) = sum_i sum_p unary[i, p] * mu[i, p]
          + sum_{(i,j) in edges} sum_{p,q} psi[e, p, q]
                * (mu[i, p] * mu[j, q] + mu[j, p] * mu[i, q])

i.e. each undirected edge contributes in both directions.  Integer
labelings are scored by the same expression with one-hot rows.
"""

import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = ["CrfGraph", "Potentials", "objective_of_labeling", "extract_labeling"]

_SIMPLEX_TOL = 1e-9

_BOOLS = frozenset((bool, np.bool_))


def _check_count(name, value, least=1, unit=""):
    """`value` as an int; ValueError naming `name` unless an integer >= `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        minimum = f" (at least {least} {unit})" if unit else ""
        raise ValueError(f"{name} must be a positive integer{minimum}, got {value!r}")
    return int(value)


def _check_positive(name, value):
    """Raise ValueError naming `name` unless `value` is a finite real above 0."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and 0 < value < np.inf):  # NaN fails the comparison
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _real_entries(values, ndim, message):
    """The scalars of the nested list or tuple `values`, `ndim` levels
    deep; ValueError(message), formatted with the first bool or
    non-number, if it holds one.  Each distinct entry type is checked
    once: numpy would cast a bool, string or None with the rest."""
    flat = values
    for _ in range(ndim - 1):
        flat = list(chain.from_iterable(flat))
    kinds = set(map(type, flat))
    odd = {t for t in kinds if t in _BOOLS or not issubclass(t, numbers.Real)}
    if odd:
        raise ValueError(message.format(next(v for v in flat if type(v) in odd)))
    return flat


def _as_integers(values, message):
    """`values` as a new C-ordered int64 array; ValueError(message), formatted
    with the first bool, string, fraction, NaN or infinity, if it holds one
    (in a list or tuple, the first bool or non-number)."""
    x = np.asarray(values)
    if isinstance(values, (list, tuple)):
        _real_entries(values, x.ndim, message)
    if x.dtype.kind == "i":
        return x.astype(np.int64, order="C")
    numeric = x.dtype.kind in "uf"
    with np.errstate(invalid="ignore"):
        cast = x.astype(np.int64, order="C") if numeric else np.zeros(x.shape, np.int64)
    # NaN, infinities, fractions and values beyond int64 change in the cast
    bad = np.flatnonzero(cast != x) if numeric else np.arange(x.size)
    if bad.size:
        raise ValueError(message.format(x.item(bad[0])))
    return cast


def _as_floats(values, message):
    """`values` as a float64 array, with no copy when it already is one;
    ValueError(message), formatted with the first bool, string, None or
    other non-number in a list or tuple, the first entry of a non-empty
    array that is not of integers or floats, or the first integer too
    large for a float64.  Arrays of numbers pass with no scan."""
    x = np.asarray(values)
    flat = None
    if isinstance(values, (list, tuple)):
        flat = _real_entries(values, x.ndim, message)
    if x.dtype.kind in "iuf" or x.size == 0:
        return x.astype(np.float64, copy=False)
    if flat is None:
        raise ValueError(message.format(x.item(0)))
    # real Python numbers that numpy kept as objects, such as large integers
    try:
        return x.astype(np.float64)
    except OverflowError:
        for v in flat:
            try:
                float(v)
            except OverflowError:
                raise ValueError(message.format(v)) from None
        raise


@dataclass(frozen=True)
class CrfGraph:
    """Undirected graph over `num_nodes` nodes with `num_labels` labels.

    `edges` is a read-only int64 array of shape (num_edges, 2) holding
    canonical (i, j) pairs with i < j; duplicates and self-loops are
    rejected.  Pairwise potential matrices are oriented along the stored
    pair: entry (p, q) scores label p on i and q on j.
    """

    num_nodes: int
    num_labels: int
    edges: np.ndarray

    def __init__(self, num_nodes, num_labels, edges=()):
        num_nodes = _check_count("num_nodes", num_nodes)
        num_labels = _check_count("num_labels", num_labels, 2, "labels")
        edges = _as_integers(edges, "edges must hold integer node indices, got {!r}")
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (E, 2), got {edges.shape}")
        i, j = edges.T
        self_loop = i == j
        out_of_range = (i < 0) | (i >= j) | (j >= num_nodes)
        # An out-of-range pair's key may collide with another pair's; it
        # is still reported as out of range, before any repeat it causes.
        _, first = np.unique(i * num_nodes + j, return_index=True)
        repeat = np.ones(len(edges), dtype=bool)
        repeat[first] = False
        bad = np.flatnonzero(self_loop | out_of_range | repeat)
        if bad.size:
            e = bad[0]
            pair = f"({i[e]}, {j[e]})"
            if self_loop[e]:
                raise ValueError(f"self-loop {pair} is not allowed")
            if out_of_range[e]:
                raise ValueError(f"edge {pair} must satisfy 0 <= i < j < {num_nodes}")
            raise ValueError(f"duplicate edge {pair}")
        edges.flags.writeable = False
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "num_labels", num_labels)
        object.__setattr__(self, "edges", edges)

    @property
    def num_edges(self):
        return len(self.edges)


def _potts_blocks(weights, num_labels):
    """Potts blocks from (..., 2) (diagonal, off-diagonal) `weights`: a
    new (..., K, K) array holding each weight's bits."""
    eye = np.eye(num_labels, dtype=bool)
    return np.where(eye, weights[..., :1, None], weights[..., 1:, None])


def _potts_weights(blocks):
    """Per-edge (diagonal, off-diagonal) values of `blocks` (E, K, K),
    as an (E, 2) array, when on every edge all diagonal entries are
    bitwise equal and all off-diagonal entries are bitwise equal; None
    when some edge breaks the pattern.

    In a flattened block, entries K + 1 apart are both diagonal or both
    off-diagonal, and entries 1..K are off-diagonal, one from each of
    the K off-diagonal residue classes mod K + 1.  So a block is Potts
    exactly when it repeats with period K + 1 and its entries 1..K
    agree.  The period is checked on the raw bits of all blocks in one
    comparison, whose bool temporary is one byte per block entry."""
    e, k = blocks.shape[:2]
    size, period = k * k, k + 1
    flat = np.ascontiguousarray(blocks).view(np.uint64).reshape(-1)
    same = np.empty(flat.size, dtype=bool)
    np.equal(flat[:-period], flat[period:], out=same[:-period])
    # the last K + 1 comparisons of a block reach into the next one
    if not same.reshape(e, size)[:, : size - period].all():
        return None
    bits = flat.reshape(e, size)
    if not all((bits[:, j] == bits[:, 1]).all() for j in range(2, period)):
        return None
    return blocks[:, 0, :2].copy()


@dataclass(frozen=True)
class Potentials:
    """Unary scores (num_nodes, num_labels) and one pairwise term per
    edge, aligned with ``graph.edges``, in one of two forms:

    - ``pairwise``: matrices (num_edges, num_labels, num_labels);
    - ``potts``: (num_edges, 2) Potts weights, each edge's diagonal and
      off-diagonal value, for the matrices that hold the first on the
      diagonal and the second off it.

    Pass at most one; with neither there are no edges.  Potts is decided
    here, once: with K >= 2, matrices that are all bitwise Potts are
    stored as weights, which later changes to the caller's array do not
    reach.  ``potts`` is the weights, or None for other matrices.
    ``pairwise`` is always the matrices: the caller's array, or for
    Potts weights a new array built on each access, so a Potts graph
    stores O(E) values.  Entries must be finite numbers; bools, strings
    and None are rejected."""

    unary: np.ndarray
    potts: np.ndarray | None
    _blocks: np.ndarray | None

    def __init__(self, unary, pairwise=None, *, potts=None):
        unary = _as_floats(unary, "unary must hold numbers, got {!r}")
        if unary.ndim != 2:
            raise ValueError(f"unary must be 2-D, got shape {unary.shape}")
        k = unary.shape[1]
        if potts is not None:
            if pairwise is not None:
                raise ValueError("pass pairwise matrices or potts weights, not both")
            potts = _as_floats(potts, "potts must hold numbers, got {!r}")
            if potts.ndim != 2 or potts.shape[1] != 2:
                raise ValueError(f"potts must have shape (E, 2), got {potts.shape}")
            values = potts
        else:
            if pairwise is None:
                pairwise = np.zeros((0, k, k))
            pairwise = _as_floats(pairwise, "pairwise must hold numbers, got {!r}")
            if pairwise.ndim != 3 or pairwise.shape[1:] != (k, k):
                raise ValueError(
                    f"pairwise must have shape (E, {k}, {k}), got {pairwise.shape}"
                )
            values = pairwise
        if not np.all(np.isfinite(unary)) or not np.all(np.isfinite(values)):
            raise ValueError("potentials must be finite")
        if potts is None and k >= 2:
            potts = _potts_weights(pairwise)
        object.__setattr__(self, "unary", unary)
        object.__setattr__(self, "potts", potts)
        object.__setattr__(self, "_blocks", pairwise if potts is None else None)

    @property
    def pairwise(self):
        """The (E, K, K) matrices; for Potts weights, a new array."""
        if self.potts is None:
            return self._blocks
        return _potts_blocks(self.potts, self.unary.shape[1])


def _check_dims(graph, potentials):
    n, k = graph.num_nodes, graph.num_labels
    if potentials.unary.shape != (n, k):
        raise ValueError(
            f"unary shape {potentials.unary.shape} does not match graph ({n}, {k})"
        )
    count = len(potentials.pairwise if potentials.potts is None else potentials.potts)
    if count != graph.num_edges:
        raise ValueError(f"{count} pairwise matrices for {graph.num_edges} edges")


def check_marginals(marginals, num_nodes=None, num_labels=None):
    """Validate a marginals array: numbers, shape, entries in [0, 1], rows
    on the probability simplex within `_SIMPLEX_TOL`.  Returns float64."""
    mu = _as_floats(marginals, "marginals must hold numbers, got {!r}")
    if mu.ndim != 2:
        raise ValueError(f"marginals must be 2-D, got shape {mu.shape}")
    if num_nodes is not None and mu.shape[0] != num_nodes:
        raise ValueError(f"expected {num_nodes} rows, got {mu.shape[0]}")
    if num_labels is not None and mu.shape[1] != num_labels:
        raise ValueError(f"expected {num_labels} columns, got {mu.shape[1]}")
    # written so that NaN, which compares false, fails the test
    if not (mu.min(initial=0.0) >= -1e-12 and mu.max(initial=0.0) <= 1.0 + 1e-12):
        raise ValueError("marginal entries must lie in [0, 1]")
    sums = mu.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _SIMPLEX_TOL):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(
            f"marginal row {worst} sums to {sums[worst]!r}, expected 1 +/- {_SIMPLEX_TOL}"
        )
    return mu


def check_labeling(labeling, num_nodes, num_labels):
    """Validate a labeling vector and return it as an int64 array.
    Floats must hold integral values; bools are not labels."""
    x = _as_integers(labeling, "labels must be integers, got {!r}")
    if x.ndim != 1 or x.shape[0] != num_nodes:
        raise ValueError(f"labeling must have shape ({num_nodes},), got {x.shape}")
    if x.size and (x.min() < 0 or x.max() >= num_labels):
        raise ValueError(f"labels must lie in [0, {num_labels})")
    return x


def objective_of_labeling(graph, potentials, labeling):
    """Objective value of an integer labeling: the module's F at
    one-hot marginals."""
    _check_dims(graph, potentials)
    n, k = graph.num_nodes, graph.num_labels
    x = check_labeling(labeling, n, k)
    # one flat gather per term picks the entries (and order) that
    # unary[i, x[i]] and psi[e, x[i], x[j]] index
    value = float(np.take(potentials.unary.ravel(), np.arange(0, n * k, k) + x).sum())
    if graph.num_edges:
        ea = graph.edges
        xi = x[ea[:, 0]]
        xj = x[ea[:, 1]]
        if potentials.potts is not None:
            # entries (xi, xj) and (xj, xi) of a Potts block are both its
            # diagonal weight where the labels agree, its off-diagonal one
            # otherwise: one gather serves both directions
            pair = np.arange(0, 2 * graph.num_edges, 2) + (xi != xj)
            half = np.take(potentials.potts.reshape(-1), pair).sum()
            value += float(half + half)
        else:
            block = np.arange(0, graph.num_edges * k * k, k * k)
            psi = potentials.pairwise.reshape(-1)
            forward = np.take(psi, block + xi * k + xj)
            backward = np.take(psi, block + xj * k + xi)
            value += float(forward.sum() + backward.sum())
    return value


def extract_labeling(marginals):
    """Per-node argmax labeling; ties break toward the lowest label index."""
    mu = np.asarray(marginals, dtype=np.float64)
    if mu.ndim != 2:
        raise ValueError(f"marginals must be 2-D, got shape {mu.shape}")
    return np.argmax(mu, axis=1).astype(np.int64)
