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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import CrfGraph, Potentials, _check_dims, check_marginals

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
        for s in sets:
            members = tuple(sorted(int(i) for i in s))
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
    rows, cols, data = [], [], []
    r = 0
    for members in constraint_sets:
        for a, b in zip(members[:-1], members[1:]):
            for p in range(k):
                rows.extend((r, r))
                cols.extend((a * k + p, b * k + p))
                data.extend((1.0, -1.0))
                r += 1
    e_mat = sp.csr_matrix((data, (rows, cols)), shape=(r, dim))
    return e_mat, np.zeros(r)


def build_null_space_operator(graph, constraint_sets):
    """Node -> supernode surjection realizing the null space of the
    constraint matrix.  Each node points at the smallest member of its
    set (or itself), so numbering the distinct owners in sorted order
    numbers supernodes by first appearance in node order.  The induced
    replication operator Z satisfies E @ Z = 0 with exact structural
    zeros."""
    constraint_sets.check_bounds(graph.num_nodes)
    owner = np.arange(graph.num_nodes)
    for members in constraint_sets:
        owner[list(members)] = members[0]
    _, node_to_super = np.unique(owner, return_inverse=True)
    return node_to_super


def expansion_operator(node_to_super, num_labels):
    """Sparse Z of shape (N*K, M*K): copies supernode-label variables
    onto their member nodes."""
    node_to_super = np.asarray(node_to_super, dtype=np.int64)
    n = node_to_super.shape[0]
    m = int(node_to_super.max()) + 1 if n else 0
    k = num_labels
    rows = np.arange(n * k)
    cols = (node_to_super[:, None] * k + np.arange(k)[None, :]).ravel()
    data = np.ones(n * k)
    return sp.csr_matrix((data, (rows, cols)), shape=(n * k, m * k))


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
    """
    _check_dims(graph, potentials)
    node_to_super = build_null_space_operator(graph, constraint_sets)
    m = int(node_to_super.max()) + 1
    k = graph.num_labels

    rho = np.zeros((m, k))
    np.add.at(rho, node_to_super, potentials.unary)

    ends = node_to_super[graph.edges]
    a, b = ends[:, 0], ends[:, 1]
    internal = a == b
    diag = np.diagonal(potentials.pairwise, axis1=1, axis2=2)
    np.add.at(rho, a[internal], 2.0 * diag[internal])

    crossing = ~internal
    flip = (a > b)[crossing]
    pairs = np.sort(ends[crossing], axis=1)
    blocks = potentials.pairwise[crossing]
    blocks[flip] = blocks[flip].transpose(0, 2, 1)
    # Number super-edges by first appearance; each bundle starts from its
    # first block and adds the rest in edge order.
    _, first, bundle = np.unique(
        pairs[:, 0] * m + pairs[:, 1], return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    bundle = np.argsort(order)[bundle]
    tau = blocks[first[order]]
    rest = np.ones(len(blocks), dtype=bool)
    rest[first] = False
    np.add.at(tau, bundle[rest], blocks[rest])

    super_graph = CrfGraph(m, k, pairs[first[order]])
    return ReducedProblem(super_graph, Potentials(rho, tau), node_to_super)


def expand_solution(reduced, reduced_marginals):
    """Copy each supernode's marginal row onto its member nodes.  The
    result satisfies every constraint set exactly (identical rows)."""
    mu = check_marginals(
        reduced_marginals, reduced.num_supernodes, reduced.super_graph.num_labels
    )
    return mu[reduced.node_to_super]
