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
from .solver import SolveReport, shift_to_floor

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


def lbp_map(graph, potentials, max_iters=200, damping=0.5):
    """Synchronous max-product belief propagation, decoded per node.

    Messages live per directed edge, normalized to max 0 after each
    update; new messages are blended with the previous round by
    `damping` in [0, 1).  Beliefs are shifted unaries plus incoming
    messages.  The best labeling seen (by objective value) is returned,
    so non-convergence still yields a usable answer.

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
    # the two directions of stored edge d; rev[d] is the opposite one.
    src = np.concatenate([ea[:, 0], ea[:, 1]])
    tgt = np.concatenate([ea[:, 1], ea[:, 0]])
    rev = np.concatenate([np.arange(num_e) + num_e, np.arange(num_e)])
    sym2 = shifted.pairwise + shifted.pairwise.transpose(0, 2, 1)
    psi_dir = np.concatenate([sym2, sym2.transpose(0, 2, 1)])  # (x_src, x_tgt)

    messages = np.zeros((2 * num_e, k))
    best_labeling = None
    best_value = -np.inf
    trace = []
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        beliefs = shifted.unary.copy()
        np.add.at(beliefs, tgt, messages)

        base = beliefs[src] - messages[rev]
        new = (base[:, :, None] + psi_dir).max(axis=1)
        new = damping * messages + (1.0 - damping) * new
        new -= new.max(axis=1, keepdims=True)
        change = float(np.max(np.abs(new - messages)))
        messages = new
        iterations = it

        labeling = extract_labeling(beliefs)
        value = objective_of_labeling(graph, potentials, labeling)
        trace.append(value)
        if value > best_value:
            best_value = value
            best_labeling = labeling
        if change < 1e-6:
            converged = True
            break

    # Decode once more from the final messages.
    beliefs = shifted.unary.copy()
    np.add.at(beliefs, tgt, messages)
    labeling = extract_labeling(beliefs)
    value = objective_of_labeling(graph, potentials, labeling)
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
