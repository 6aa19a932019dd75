"""Reference solvers: exhaustive MAP for small instances and max-product
loopy belief propagation.

Both score candidates with the same double-counted objective as the QP
solver.  LBP runs additively (the potential scores already act as
log-domain factors) on the same floor-translated potentials the QP
solver iterates on, with each undirected edge entering as
psi[p, q] + psi[q, p].
"""

import numpy as np

from .core import (
    _check_count,
    _check_dims,
    _check_fraction,
    _potts_blocks,
    extract_labeling,
    objective_of_labeling,
)
from .solver import (
    SolveReport,
    _decoder_terms,
    _StopTest,
    # unused here, but the benchmark's span tracing (perfbench/spans.py)
    # patches this module attribute by name
    shift_to_floor,  # noqa: F401
)

__all__ = ["brute_force_map", "lbp_map"]

BRUTE_FORCE_LIMIT = 10**7
_CHUNK = 1 << 14


def brute_force_map(graph, potentials):
    """Exhaustively maximize the integer objective.

    Ties break toward the lexicographically smallest labeling (node 0
    most significant).  Refuses instances with more than
    ``BRUTE_FORCE_LIMIT`` labelings.

    Returns
    -------
    (labeling, value) : (ndarray, float)
        value is ``objective_of_labeling`` of the labeling, to the bit.
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
    psi = potentials.pairwise
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
            vals = vals + psi[eidx[None, :], xi, xj].sum(axis=1)
            vals = vals + psi[eidx[None, :], xj, xi].sum(axis=1)
        pos = int(np.argmax(vals))
        # Strict > keeps the earliest (lexicographically smallest) optimum.
        if vals[pos] > best_val:
            best_val = float(vals[pos])
            best_idx = int(idx[pos])
    labeling = ((best_idx // powers) % k).astype(np.int64)
    return labeling, objective_of_labeling(graph, potentials, labeling)


def _add_messages(beliefs, messages, tgt):
    """Add (K, D) messages into (K, N) beliefs in place, one sequential
    scatter over `tgt` per label row.  numpy's 1-D `ufunc.at` fast path
    applies the updates in index order, so every node adds its messages
    in edge order, as one scatter over the rows of beliefs.T does, and
    no index beyond `tgt` is held."""
    for row, incoming in zip(beliefs, messages):
        np.add.at(row, tgt, incoming)


def _dense_messages(psi_dir):
    """Max-product update for general edges: new[q] = max_p base[p] +
    psi_dir[p, q], with psi_dir (K, K, 2E) indexed (x_src, x_tgt, d),
    written over `base`."""
    return lambda base: np.max(base[:, None, :] + psi_dir, axis=0, out=base)


def _potts_messages(same, differ, num_labels):
    """Max-product update for Potts edges in O(K) per message on
    attractive columns (same >= differ), written over `base`:
    new[q] = max(base[q] + same, top + differ), with `top` the column
    maximum.

    Rounding is monotone, so max_p fl(base[p] + c) equals
    fl(max_p base[p] + c) exactly.  The dense K x K maximisation
    excludes p = q from the differ term, which matters only on a row
    holding `top`; there fl(top + same) >= fl(top + differ) already
    wins, so the result matches the dense update bit for bit.
    Repulsive columns (same < differ) take the dense update itself."""
    repulsive = np.flatnonzero(same < differ)
    pairs = np.stack([same[repulsive], differ[repulsive]], axis=1)
    exact = _dense_messages(_potts_blocks(pairs, num_labels).transpose(1, 2, 0))
    top = np.empty_like(same)

    def update(base):
        if repulsive.size:
            kept = exact(np.take(base, repulsive, axis=1))
        np.add(np.max(base, axis=0, out=top), differ, out=top)
        base += same
        np.maximum(base, top, out=base)
        if repulsive.size:
            base[:, repulsive] = kept
        return base

    return update


# Most iterations for which halving stays exact (see `_halving_is_exact`).
_HALVING_ITERS = 900

# Leading message columns whose change `lbp_map` reads before it scans
# every message, when damping by halving (see `_StopTest`).
_PROBE_COLUMNS = 64


def _halving_is_exact(terms, max_degree, max_iters):
    """Whether damping by 0.5 as fl(fl(new + old) * 0.5) reproduces
    fl(fl(new * 0.5) + fl(old * 0.5)) bit for bit on every iteration.

    Scaling by 0.5 commutes with rounding unless a result leaves the
    normal range, so the two forms differ only where new + old
    overflows or a halved operand loses bits as a subnormal.

    Overflow: with U the largest shifted unary, P the largest pair sum
    (every value of either is >= 0) and d the largest in-degree, a
    normalized message lies in [-P, 0], a belief in [-d P, U], an
    update's base in [-d P, U + P] and its result in [-d P, U + 2 P],
    so new + old lies in [-(d + 1) P, U + 2 P].  U + (d + 3) P below
    half the float64 maximum bounds every one of them with room for
    the rounding of the sums.

    Subnormals: the floor shift leaves every unary and pairwise value
    at least 2^-30 (the shifted minimum is FLOOR = 1e-9, which is above
    2^-30), so every value is a multiple of 2^-82.  Sums, differences
    and maxima keep that grid and each halving refines it by one bit,
    so after t iterations every nonzero operand is a multiple of
    2^-(82 + t), hence at least 2^-1021 for t <= 939, and its half is
    normal.  `_HALVING_ITERS` = 900 stays inside that."""
    pair_sums = terms.potts if terms.potts is not None else terms.sums
    bound = float(terms.unary.max()) + (max_degree + 3) * float(pair_sums.max())
    return max_iters <= _HALVING_ITERS and bound < np.finfo(np.float64).max / 2


def lbp_map(graph, potentials, max_iters=200, damping=0.5):
    """Synchronous max-product belief propagation, decoded per node.

    Messages live per directed edge, normalized to max 0 after each
    update; new messages are blended with the previous round by
    `damping` in [0, 1).  Beliefs are shifted unaries plus incoming
    messages.  The best labeling seen (by objective value) is returned,
    so non-convergence still yields a usable answer.

    On Potts graphs, as in `solve` (`Potentials.potts`), messages on
    attractive edges (diagonal >= off-diagonal) cost O(K) instead of
    O(K^2), and repulsive edges take the dense update on their columns;
    labelings, traces and iteration counts are bitwise those of the
    dense update, which every other graph uses.  The floor shift and
    psi + psi^T then act on the per-edge (diagonal, off-diagonal)
    weights, so no K x K block is copied but those of repulsive edges.

    Each iteration gathers beliefs at the message sources once, takes
    the reverse messages as the two swapped halves of the message array
    and updates, damps and normalizes in that buffer.  The message and
    update buffers, both (K, 2E), swap roles between iterations; they,
    the (K, N) beliefs and the decode's (N,) buffers are allocated once
    per call.  At the default damping of 0.5 the update is damped in
    two passes, new += old; new *= 0.5, which equals the general
    new *= 1 - d; new += old * d bit for bit whenever
    `_halving_is_exact` proves it; otherwise, and at any other damping,
    the three-pass form runs with a third (K, 2E) buffer.

    The stop test (`_StopTest`) compares the max message change with
    1e-6, probing the leading `_PROBE_COLUMNS` columns when damping by
    halving.  A probe skips no failure: the bound `_halving_is_exact`
    checks, U + (d + 3) P below half the float64 maximum, keeps every
    value an iteration forms within [-(d + 1) P, U + 2 P], so no message
    turns non-finite.

    The decode takes the column maximum of the label-major beliefs and
    sweeps the K rows from last to first, writing each row's label
    where it attains the maximum, so the first maximum wins as argmax
    breaks ties; beliefs are never NaN, as messages are checked finite.
    A decoded labeling equal to the previous one reuses its objective
    value, so `objective_of_labeling` runs only when the labeling
    changes.

    Returns
    -------
    (labeling, report) : (ndarray, SolveReport)

    Raises
    ------
    SolverFailure
        If the messages turn non-finite, as they do when the pairwise
        sums overflow.
    """
    _check_dims(graph, potentials)
    _check_fraction("damping", damping)
    if damping == 1:
        raise ValueError(f"damping must lie in [0, 1), got {damping!r}")
    _check_count("max_iters", max_iters)
    n, k = graph.num_nodes, graph.num_labels
    terms = _decoder_terms(potentials)

    num_e = graph.num_edges
    if num_e == 0:
        labeling = extract_labeling(terms.unary)
        value = objective_of_labeling(graph, potentials, labeling)
        return labeling, SolveReport(0, value, [value], True)

    ea = graph.edges
    # Directed edge d: source src[d] -> target tgt[d]; d and d+num_e are
    # the two directions of stored edge d, so swapping the two halves of
    # the message array reverses every edge.
    src = np.concatenate([ea[:, 0], ea[:, 1]])
    tgt = np.concatenate([ea[:, 1], ea[:, 0]])
    if terms.potts is not None:
        same, differ = np.tile(terms.potts.T, 2)
        message = _potts_messages(same, differ, k)
    else:
        # the sums are bitwise symmetric: both directions share a block
        message = _dense_messages(np.tile(terms.sums.transpose(1, 2, 0), 2))

    # Label-major storage: messages (K, 2E) and beliefs (K, N), so every
    # reduction over labels runs along the leading axis.  Gathers use
    # np.take, which keeps that layout (fancy indexing on axis 1 returns
    # a Fortran-ordered array); mode "clip" lets it write straight into
    # its output, which mode "raise" would buffer.
    max_degree = int(np.bincount(tgt).max())
    unary = np.ascontiguousarray(terms.unary.T)
    messages = np.zeros((k, 2 * num_e))
    base = np.empty_like(messages)
    halve = damping == 0.5 and _halving_is_exact(terms, max_degree, max_iters)
    head = np.empty((k, min(_PROBE_COLUMNS, 2 * num_e))) if halve else None
    stop = _StopTest("messages", 1e-6, max_iters, head)
    if not halve:
        spare = np.empty_like(messages)
    col_max = np.empty(2 * num_e)
    beliefs = np.empty((k, n))
    top = np.empty(n)
    hit = np.empty(n, dtype=bool)
    label = np.empty(n, dtype=np.int64)

    def beliefs_now():
        np.copyto(beliefs, unary)
        _add_messages(beliefs, messages, tgt)
        return beliefs

    last = (None, None)

    def decode(beliefs):
        # the objective depends on the labeling alone: score it only
        # when the labeling changed since the previous decode
        nonlocal last
        np.max(beliefs, axis=0, out=top)
        for q in range(k - 1, -1, -1):
            np.copyto(label, q, where=np.equal(beliefs[q], top, out=hit))
        labeling = label.copy()
        if last[0] is None or not np.array_equal(labeling, last[0]):
            last = labeling, objective_of_labeling(graph, potentials, labeling)
        return last

    best_labeling = None
    best_value = -np.inf
    for it in range(1, max_iters + 1):
        np.take(beliefs_now(), src, axis=1, out=base, mode="clip")
        base[:, :num_e] -= messages[:, num_e:]
        base[:, num_e:] -= messages[:, :num_e]
        new = message(base)
        if halve:
            new += messages
            new *= 0.5
        else:
            new *= 1.0 - damping
            new += np.multiply(messages, damping, out=spare)
        new -= np.max(new, axis=0, out=col_max)
        # the beliefs are still those of the previous messages
        labeling, value = decode(beliefs)
        if value > best_value:
            best_value = value
            best_labeling = labeling
        # the old messages are spent: their buffer takes the difference
        settled = stop.settled(it, value, new, messages, messages)
        messages, base = new, messages
        if settled:
            break

    # Decode once more from the final messages.
    labeling, value = decode(beliefs_now())
    stop.trace.append(value)
    if value > best_value:
        best_value = value
        best_labeling = labeling
    return best_labeling, stop.report(best_value)
