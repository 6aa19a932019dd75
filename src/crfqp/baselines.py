"""Reference solvers: exhaustive MAP for small instances and max-product
loopy belief propagation.

Both score candidates with the same double-counted objective as the QP
solver.  LBP runs additively (the potential scores already act as
log-domain factors) on the same floor-translated potentials the QP
solver iterates on, with each undirected edge entering as
psi[p, q] + psi[q, p].
"""

import time

import numpy as np

from .core import _check_dims, extract_labeling, objective_of_labeling
from .solver import SolveReport, _potts_weights, shift_to_floor

__all__ = ["brute_force_map", "lbp_map"]

BRUTE_FORCE_LIMIT = 10**7
_CHUNK = 1 << 14
# Fewest nodes a belief slot must cover; narrower slots cost more in
# Python overhead than a scatter of their edges does.
_MIN_SLOT_WIDTH = 32


def brute_force_map(graph, potentials):
    """Exhaustively maximize the integer objective.

    Ties break toward the lexicographically smallest labeling (node 0
    most significant).  Refuses instances with more than
    ``BRUTE_FORCE_LIMIT`` labelings.

    Returns
    -------
    (labeling, value) : (ndarray, float)
    """
    _check_dims(graph, potentials)
    n, k = graph.num_nodes, graph.num_labels
    total = k**n
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"instance too large for brute force: {k}^{n} = {total} labelings "
            f"exceeds the limit of {BRUTE_FORCE_LIMIT}"
        )
    ea = graph.edges
    eidx = np.arange(graph.num_edges)
    powers = k ** np.arange(n - 1, -1, -1, dtype=np.int64)

    best_val = -np.inf
    best_idx = -1
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        labels = (idx[:, None] // powers[None, :]) % k
        vals = potentials.unary[np.arange(n)[None, :], labels].sum(axis=1)
        if graph.num_edges:
            xi = labels[:, ea[:, 0]]
            xj = labels[:, ea[:, 1]]
            psi = potentials.pairwise
            vals = vals + psi[eidx[None, :], xi, xj].sum(axis=1)
            vals = vals + psi[eidx[None, :], xj, xi].sum(axis=1)
        pos = int(np.argmax(vals))
        # Strict > keeps the earliest (lexicographically smallest) optimum.
        if vals[pos] > best_val:
            best_val = float(vals[pos])
            best_idx = int(idx[pos])
    labeling = ((best_idx // powers) % k).astype(np.int64)
    return labeling, best_val


def _belief_sum(tgt, num_nodes):
    """Sum incoming messages into beliefs in edge order.

    Nodes are ranked by in-degree, largest first; node i sits at column
    rank[i] of the beliefs.  Slot s holds the s-th incoming directed
    edge of every node with in-degree > s, so its targets are ranks
    0..w-1, one contiguous slice.  Slots narrower than _MIN_SLOT_WIDTH
    are not formed: their edges go through one sequential scatter in
    edge order, so a hub node costs no Python step per neighbour.
    Either way each node adds its messages in the order a sequential
    scatter over `tgt` would, and every directed edge is held once.

    Returns
    -------
    (rank, add) : (ndarray, callable)
        add(beliefs, messages) adds (K, D) messages into (K, N)
        rank-ordered beliefs in place.
    """
    counts = np.bincount(tgt, minlength=num_nodes)
    ranked = np.argsort(-counts, kind="stable")
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(num_nodes)
    by_target = np.argsort(tgt, kind="stable")
    first = np.cumsum(counts) - counts
    position = np.empty_like(by_target)
    position[by_target] = np.arange(tgt.size) - first[tgt[by_target]]

    widths = np.searchsorted(-counts[ranked], -np.arange(counts.max()), side="left")
    widths = widths[widths >= _MIN_SLOT_WIDTH]
    first = first[ranked]
    slots = [by_target[first[:w] + s] for s, w in enumerate(widths)]
    tail = np.nonzero(position >= widths.size)[0]
    tail_rank = rank[tgt[tail]]

    def add(beliefs, messages):
        for edges in slots:
            beliefs[:, : edges.size] += np.take(messages, edges, axis=1)
        if tail.size:
            np.add.at(beliefs.T, tail_rank, np.take(messages, tail, axis=1).T)

    return rank, add


def _potts_messages(same, differ):
    """Max-product update for Potts edges in O(K) per message:
    new[q] = max(base[q] + same, max_{p != q} base[p] + differ),
    written over `base`.

    Rounding is monotone, so max_p fl(base[p] + c) equals
    fl(max_p base[p] + c) exactly, and the result matches the dense
    K x K maximisation bit for bit."""

    def update(base):
        # running top two of each column, with multiplicity
        top = base[0].copy()
        second = np.full_like(top, -np.inf)
        low = np.empty_like(top)
        for row in base[1:]:
            np.minimum(top, row, out=low)
            np.maximum(second, low, out=second)
            np.maximum(top, row, out=top)
        hit = base == top
        second += differ
        top += differ
        base += same
        return np.maximum(base, np.where(hit, second, top), out=base)

    return update


def _dense_messages(psi_dir):
    """Max-product update for general edges: new[q] = max_p base[p] +
    psi_dir[p, q], with psi_dir (K, K, 2E) indexed (x_src, x_tgt, d)."""
    return lambda base: (base[:, None, :] + psi_dir).max(axis=0)


def lbp_map(graph, potentials, max_iters=200, damping=0.5):
    """Synchronous max-product belief propagation, decoded per node.

    Messages live per directed edge, normalized to max 0 after each
    update; new messages are blended with the previous round by
    `damping` in [0, 1).  Beliefs are shifted unaries plus incoming
    messages.  The best labeling seen (by objective value) is returned,
    so non-convergence still yields a usable answer.

    When every edge's psi + psi^T is Potts (all diagonal entries
    bitwise equal, all off-diagonal entries bitwise equal, edge by
    edge), messages cost O(K) instead of O(K^2); labelings, traces and
    iteration counts are bitwise those of the dense update, which every
    other graph uses.

    Each iteration gathers beliefs at the message sources once, takes
    the reverse messages as the two swapped halves of the message array
    and updates, damps and normalizes in that buffer.  A decoded
    labeling equal to the previous one reuses its objective value, so
    `objective_of_labeling` runs only when the labeling changes.

    Returns
    -------
    (labeling, report) : (ndarray, SolveReport)
        Report objectives are in original potential units.
    """
    _check_dims(graph, potentials)
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must lie in [0, 1), got {damping}")
    t0 = time.perf_counter()
    n, k = graph.num_nodes, graph.num_labels
    shifted, _ = shift_to_floor(potentials)

    num_e = graph.num_edges
    if num_e == 0:
        labeling = extract_labeling(shifted.unary)
        value = objective_of_labeling(graph, potentials, labeling)
        report = SolveReport(0, value, [value], True, time.perf_counter() - t0)
        return labeling, report

    ea = graph.edges
    # Directed edge d: source src[d] -> target tgt[d]; d and d+num_e are
    # the two directions of stored edge d, so swapping the two halves of
    # the message array reverses every edge.
    src = np.concatenate([ea[:, 0], ea[:, 1]])
    tgt = np.concatenate([ea[:, 1], ea[:, 0]])
    sym2 = shifted.pairwise + shifted.pairwise.transpose(0, 2, 1)
    potts = _potts_weights(sym2)
    if potts is not None:
        same, differ = (np.concatenate([w, w]) for w in potts)
        message = _potts_messages(same, differ)
    else:
        psi_dir = np.concatenate([sym2, sym2.transpose(0, 2, 1)])
        message = _dense_messages(np.ascontiguousarray(psi_dir.transpose(1, 2, 0)))

    # Label-major storage: messages (K, 2E) and beliefs (K, N), so every
    # reduction over labels runs along the leading axis.  Gathers use
    # np.take, which keeps that layout (fancy indexing on axis 1 returns
    # a Fortran-ordered array).  Belief columns are in in-degree rank
    # order (see _belief_sum); labelings are mapped back on decoding.
    rank, add_messages = _belief_sum(tgt, n)
    src_col = rank[src]
    unary = np.empty((k, n))
    unary[:, rank] = shifted.unary.T
    messages = np.zeros((k, 2 * num_e))

    def beliefs_now():
        beliefs = unary.copy()
        add_messages(beliefs, messages)
        return beliefs

    last = (None, None)

    def decode(beliefs):
        # the objective depends on the labeling alone: score it only
        # when the labeling changed since the previous decode
        nonlocal last
        labeling = extract_labeling(beliefs.T)[rank]
        if last[0] is None or not np.array_equal(labeling, last[0]):
            last = labeling, objective_of_labeling(graph, potentials, labeling)
        return last

    best_labeling = None
    best_value = -np.inf
    trace = []
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        beliefs = beliefs_now()
        base = np.take(beliefs, src_col, axis=1)
        base[:, :num_e] -= messages[:, num_e:]
        base[:, num_e:] -= messages[:, :num_e]
        new = message(base)
        new *= 1.0 - damping
        new += damping * messages
        new -= new.max(axis=0)
        # the old messages are spent: their buffer takes the difference
        messages -= new
        change = float(max(messages.max(), -messages.min()))
        messages = new
        iterations = it

        labeling, value = decode(beliefs)
        trace.append(value)
        if value > best_value:
            best_value = value
            best_labeling = labeling
        if change < 1e-6:
            converged = True
            break

    # Decode once more from the final messages.
    labeling, value = decode(beliefs_now())
    trace.append(value)
    if value > best_value:
        best_value = value
        best_labeling = labeling

    report = SolveReport(
        iterations=iterations,
        final_objective=best_value,
        objective_trace=trace,
        converged=converged,
        wall_time=time.perf_counter() - t0,
    )
    return best_labeling, report
