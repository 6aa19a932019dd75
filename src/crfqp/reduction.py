"""Label-consistency constraints and their null-space elimination.

A constraint set forces a group of nodes to share one label.  The
equality system E a = 0 (one +1/-1 row per consecutive node pair per
label) has a purely structural null space: replicate one supernode row
onto every member node.  Eliminating the constraints therefore amounts
to merging each set into a supernode, summing unary rows, summing
pairwise matrices over merged edge bundles, and folding edges internal
to a supernode into its unary term.  The reduced problem is again an
ordinary CRF over the supernodes.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (
    CrfGraph,
    Potentials,
    _as_integers,
    _check_count,
    _check_dims,
    check_marginals,
)

__all__ = [
    "ConstraintSets",
    "build_constraint_matrix",
    "expansion_operator",
    "reduce_problem",
]


@dataclass(frozen=True)
class ConstraintSets:
    """Pairwise-disjoint collections of node indices, each of size >= 2,
    stored as sorted tuples."""

    sets: tuple

    def __init__(self, sets=()):
        normalized = []
        seen = set()
        for s in map(list, sets):
            nodes = _as_integers(s, "constraint set node {!r} is not an integer")
            members = tuple(sorted(nodes.tolist()))
            if len(members) < 2:
                raise ValueError(f"constraint set {members} has fewer than 2 nodes")
            if len(set(members)) != len(members):
                raise ValueError(f"constraint set {members} has duplicate nodes")
            if members[0] < 0:
                raise ValueError(f"constraint set {members} has a negative node index")
            overlap = seen.intersection(members)
            if overlap:
                raise ValueError(f"constraint sets overlap on nodes {sorted(overlap)}")
            seen.update(members)
            normalized.append(members)
        object.__setattr__(self, "sets", tuple(normalized))

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def check_bounds(self, num_nodes):
        for s in self.sets:
            if s[-1] >= num_nodes:
                raise ValueError(f"constraint set {s} exceeds node count {num_nodes}")


@dataclass(frozen=True)
class ReducedProblem:
    """CRF over supernodes plus the map expanding its solutions back.

    node_to_super[i] is the supernode owning original node i; all nodes
    of one constraint set share a supernode, every other node gets a
    singleton.
    """

    super_graph: CrfGraph
    reduced: Potentials
    node_to_super: np.ndarray

    @property
    def num_supernodes(self):
        return self.super_graph.num_nodes


def build_constraint_matrix(graph, constraint_sets):
    """Sparse equality system (E, d) with d = 0 over the flattened
    marginal vector (node-major, label-minor).

    One row per consecutive pair of nodes within a set and per label:
    +1 on the first node's entry, -1 on the second's.  Row count is
    sum_k (|C_k| - 1) * num_labels.
    """
    constraint_sets.check_bounds(graph.num_nodes)
    k = graph.num_labels
    dim = graph.num_nodes * k
    members = np.array([m for s in constraint_sets for m in s], dtype=np.int64)
    # every member but the last of its set pairs with its successor
    last = np.cumsum([len(s) for s in constraint_sets], dtype=np.int64) - 1
    first = np.delete(np.arange(members.size), last)
    labels = np.arange(k)
    # row (pair, p) holds +1 at (a, p) and -1 at (b, p), in that order
    cols = np.stack(
        [members[first, None] * k + labels, members[first + 1, None] * k + labels], axis=2
    ).ravel()
    r = first.size * k
    rows = np.repeat(np.arange(r), 2)
    data = np.tile([1.0, -1.0], r)
    e_mat = sp.csr_matrix((data, (rows, cols)), shape=(r, dim))
    return e_mat, np.zeros(r)


def build_null_space_operator(graph, constraint_sets):
    """Node -> supernode surjection realizing the null space of the
    constraint matrix.  Each node points at the smallest member of its
    set (or itself), so numbering the nodes that own themselves in node
    order numbers supernodes by first appearance.  The induced
    replication operator Z satisfies E @ Z = 0 with exact structural
    zeros."""
    constraint_sets.check_bounds(graph.num_nodes)
    owner = np.arange(graph.num_nodes)
    members = np.array([m for s in constraint_sets for m in s], dtype=np.int64)
    # sets are stored sorted, so each one's first member is its smallest
    sizes = [len(s) for s in constraint_sets]
    owner[members] = np.repeat([s[0] for s in constraint_sets], sizes)
    ids = np.cumsum(owner == np.arange(graph.num_nodes)) - 1
    return ids[owner]


def expansion_operator(node_to_super, num_labels):
    """Sparse Z of shape (N*K, M*K), M = max(node_to_super) + 1: copies
    supernode-label variables onto their member nodes.  `node_to_super`
    must be 1-D non-negative integers and `num_labels` at least 2."""
    node_to_super = _as_integers(node_to_super, "supernode indices must be integers, got {!r}")
    k = _check_count("num_labels", num_labels, 2, "labels")
    if node_to_super.ndim != 1:
        raise ValueError(f"node_to_super must be 1-D, got shape {node_to_super.shape}")
    if node_to_super.min(initial=0) < 0:
        raise ValueError(f"supernode index {node_to_super.min()} is negative")
    n = node_to_super.shape[0]
    m = int(node_to_super.max()) + 1 if n else 0
    rows = np.arange(n * k)
    cols = (node_to_super[:, None] * k + np.arange(k)[None, :]).ravel()
    data = np.ones(n * k)
    return sp.csr_matrix((data, (rows, cols)), shape=(n * k, m * k))


def _add_rows(target, rows, values):
    """np.add.at(target, rows, values) through element indices on the
    flat view of `target`, which must be C-contiguous so that the view
    is no copy.  numpy's 1-D fast path applies the updates in index
    order, as the row-indexed form does, so every element receives the
    same additions in the same order."""
    width = math.prod(target.shape[1:])
    index = (rows[:, None] * width + np.arange(width)).ravel()
    np.add.at(target.reshape(-1), index, values.reshape(-1))


def reduce_problem(graph, potentials, constraint_sets):
    """Eliminate the constraints, producing an unconstrained CRF over
    supernodes.

    Unary rows of merged nodes are summed.  Original edges crossing two
    supernodes are summed entrywise into one superedge (transposed when
    the merge reverses the canonical orientation).  Edges internal to a
    supernode contribute only through their matrix diagonal once labels
    agree, so each adds 2 * psi[p, p] to the supernode's unary score for
    label p (both directions of the undirected edge); this reproduces
    the original objective exactly at integral assignments.

    Potts input (`Potentials.potts`) reduces to Potts output without
    forming a block: an internal edge adds twice its diagonal weight to
    every label, and a bundle sums its edges' weight pairs, with no
    transpose, since a Potts block is symmetric.  Each output value is
    the sum the block path forms for the same entries, so the Potts
    result's blocks are bitwise the block path's on the same input.

    Each output entry is one fixed sequence of float additions, so the
    result is reproducible bit for bit.  A supernode's unary row starts
    from zero and adds its members' unary rows in node order, then the
    doubled diagonals of its internal edges in edge order.  A super-edge
    term starts from the first term of its bundle (in edge order) and
    adds the others in edge order.  The scatters index single elements
    of the flat outputs, and `np.add.at` applies the updates in index
    order, so each element sees exactly this sequence.
    """
    _check_dims(graph, potentials)
    node_to_super = build_null_space_operator(graph, constraint_sets)
    m = int(node_to_super.max()) + 1
    k = graph.num_labels
    potts = potentials.potts

    rho = np.zeros((m, k))
    _add_rows(rho, node_to_super, potentials.unary)

    ends = node_to_super[graph.edges]
    internal = ends[:, 0] == ends[:, 1]
    inner = ends[internal, 0]
    crossing = ~internal
    a, b = ends[crossing].T
    if potts is not None:
        _add_rows(rho, inner, np.repeat(2.0 * potts[internal, 0], k))
        # indexing keeps a Fortran-ordered input's layout; the scatter
        # into the sums needs C order
        terms = np.ascontiguousarray(potts[crossing])
    else:
        diag = np.diagonal(potentials.pairwise, axis1=1, axis2=2)
        _add_rows(rho, inner, 2.0 * diag[internal])
        terms = np.ascontiguousarray(potentials.pairwise[crossing])
        flip = a > b
        terms[flip] = terms[flip].transpose(0, 2, 1)

    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # Number super-edges by first appearance; each bundle starts from its
    # first term and adds the rest in edge order.
    _, first, bundle = np.unique(lo * m + hi, return_index=True, return_inverse=True)
    order = np.argsort(first)
    bundle = np.argsort(order)[bundle]
    head = first[order]
    tau = terms[head]
    rest = np.ones(len(terms), dtype=bool)
    rest[first] = False
    _add_rows(tau, bundle[rest], terms[rest])

    super_graph = CrfGraph(m, k, np.stack([lo[head], hi[head]], axis=1))
    reduced = Potentials(rho, potts=tau) if potts is not None else Potentials(rho, tau)
    return ReducedProblem(super_graph, reduced, node_to_super)


def expand_solution(reduced, reduced_marginals):
    """Copy each supernode's marginal row onto its member nodes.  The
    result satisfies every constraint set exactly (identical rows)."""
    mu = check_marginals(
        reduced_marginals, reduced.num_supernodes, reduced.super_graph.num_labels
    )
    return mu[reduced.node_to_super]
