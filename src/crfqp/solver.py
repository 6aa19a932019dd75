"""Relaxed-QP MAP solver: closed-form gradient plus a normalized
multiplicative update.

The iterate lives on a product of per-node probability simplices.  With
nonnegative potentials the update

    mu[i, p] <- mu[i, p] * q[i, p] / sum_q mu[i, q] * q[i, q]

is a growth transform of the polynomial objective and never decreases
it, so potentials are first translated entrywise onto a small positive
floor, exactly at any offset.  Translating to the floor (rather than
lifting only negative entries) keeps the iterate sequence independent
of a uniform offset c in the input, up to the rounding of p + c; the
offset is recorded and objectives are reported in the original units.
All nodes update synchronously from the previous iterate.
"""

import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .core import _check_dims, check_marginals, extract_labeling
from .reduction import expand_solution, reduce_problem

__all__ = [
    "SolverConfig",
    "SolverFailure",
    "compute_gradient",
    "solve",
    "solve_constrained",
]

# Value the floor shift moves the minimum unary and pairwise entries to.
FLOOR = 1e-9

# Blocks whose bits one pass of the Potts check compares: bounds its
# temporary to _CHECK_BLOCKS * K^2 bytes.
_CHECK_BLOCKS = 4096

# Leading entries of the flattened iterate whose change `solve` reads
# before it scans the whole iterate (see `_StopTest`).
_PROBE = 256


class SolverFailure(RuntimeError):
    """Raised when the iteration produces non-finite values."""


def _check_iteration_cap(name, value):
    """Raise ValueError naming `name` unless `value` is a positive
    integer (numpy integers pass; bools and floats do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """max_iterations: iteration cap; tol: convergence threshold on the
    max absolute marginal change; init: 'uniform' or 'unary_softmax'."""

    max_iterations: int = 1000
    tol: float = 1e-6
    init: str = "uniform"

    def __post_init__(self):
        _check_iteration_cap("SolverConfig.max_iterations", self.max_iterations)
        if not self.tol > 0:  # NaN fails this test
            raise ValueError("tol must be positive")
        if self.init not in ("uniform", "unary_softmax"):
            raise ValueError(f"unknown init strategy {self.init!r}")


@dataclass
class SolveReport:
    """What one decoder run did: `iterations` run, whether the last one
    `converged` below the tolerance, and the objective in original
    potential units.

    For qp and cqp, `objective_trace` starts at the initial point and
    has one entry per iteration after it, and `final_objective` is its
    last entry.  For lbp, the trace holds the objective of the labeling
    decoded after each iteration and ends with one extra decode from the
    final messages, and `final_objective` is the best decoded value, not
    the last."""

    iterations: int
    final_objective: float
    objective_trace: list = field(repr=False)
    converged: bool


def shift_to_floor(unary, pairwise):
    """Translate `unary` and `pairwise` each so its minimum entry is
    `FLOOR` exactly, whether that means shifting up or down.

    `pairwise` is any array holding every pairwise value: (E, K, K)
    blocks or (E, 2) Potts (diagonal, off-diagonal) weights.  Each array
    is shifted as (x - min) + FLOOR, whose minimum is (min - min) +
    FLOOR = FLOOR at any offset; an array already on the floor comes
    back as the same object, so a second shift is a no-op.

    The multiplicative update is not invariant to constants added to its
    gradient, so merely lifting negative entries would make the iterate
    sequence depend on the input's offset.  Pinning the minimum to the
    floor makes uniformly shifted inputs produce the same effective
    problem, up to the rounding of the shifted input.

    Returns (unary, pairwise, offset), where offset is the amount the
    shift adds to the objective at any point with simplex rows:
    (FLOOR - min unary) * N + 2 * (FLOOR - min pairwise) * E.

    Raises ValueError when a shifted array is not finite.  The shift is
    monotone, so that is when (max - min) + FLOOR is not."""
    offset = 0.0
    shifted = []
    for x, count in ((unary, unary.shape[0]), (pairwise, 2 * pairwise.shape[0])):
        if x.size:
            low, high = float(x.min()), float(x.max())
            # NaN fails the comparison; Python floats overflow silently
            if not (high - low) + FLOOR < np.inf:
                raise ValueError("potentials must be finite")
            if low != FLOOR:
                x = x - low
                x += FLOOR
                offset += (FLOOR - low) * count
        shifted.append(x)
    return shifted[0], shifted[1], offset


def compute_gradient(graph, potentials, marginals):
    """Closed-form objective gradient at `marginals`.

    q[i, p] = unary[i, p] + 2 * sum_{j in N(i)} sum_q psi_ij[p, q] * mu[j, q]

    Each edge contributes through the symmetric part of its matrix,
    which leaves the objective unchanged and makes this the exact
    gradient for non-symmetric matrices as well; the dissimilarity
    construction always produces symmetric ones.  Evaluated through the
    same sparse operator that `solve` iterates with, on the unshifted
    potentials.

    Raises ValueError when the gradient overflows float64, as it does
    when psi + psi^T does.
    """
    _check_dims(graph, potentials)
    mu = check_marginals(marginals, graph.num_nodes, graph.num_labels)
    terms = _decoder_terms(potentials, shift=False)
    q = potentials.unary + 2.0 * _quadratic_operator(graph, terms)(mu)
    if not _finite(q):
        raise ValueError("gradient overflows float64; the potentials are too large")
    return q


def iterate(marginals, q):
    """One synchronous multiplicative step: reweight each row by its
    gradient entries, then renormalize.  Requires q >= 0 (negative
    entries signal a missing nonnegativity shift).  Rows whose
    normalizer is zero are left unchanged."""
    mu = np.asarray(marginals, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != mu.shape:
        raise ValueError(f"gradient shape {q.shape} does not match {mu.shape}")
    if q.min(initial=0.0) < 0.0:
        raise ValueError("gradient has negative entries; shift potentials first")
    return _step(mu, q, np.ones(mu.shape[1]))


def _step(mu, q, ones):
    """`iterate` on checked arrays, into a fresh array.  Row normalizers
    are one BLAS product with `ones` (K ones); zero rows get masked
    handling only when some normalizer is not positive."""
    out = mu * q
    norms = out @ ones
    # A NaN or negative normalizer can hide a zero one from the minimum.
    if not norms.min(initial=np.inf) > 0.0:
        degenerate = norms == 0.0
        norms[degenerate] = 1.0
        out /= norms[:, None]
        out[degenerate] = mu[degenerate]
    else:
        out /= norms[:, None]
    return out


def _initial_marginals(unary, strategy):
    n, k = unary.shape
    if strategy == "uniform":
        # Tiny deterministic perturbation: exact uniform rows are a fixed
        # point on symmetric instances.  Entry m of the flattened start is
        # 1/k + 1e-6 * (m % 7) / 7, tiled from one period.
        period = 1e-6 * (np.arange(7.0) / 7.0)
        mu = np.tile(period, -(-n * k // 7))[: n * k].reshape(n, k)
        mu += 1.0 / k
    else:
        z = unary - unary.max(axis=1, keepdims=True)
        mu = np.exp(z)
    return mu / mu.sum(axis=1, keepdims=True)


def _potts_weights(blocks):
    """Per-edge (diagonal, off-diagonal) values of `blocks` (E, K, K),
    as an (E, 2) array, when on every edge all diagonal entries are
    bitwise equal and all off-diagonal entries are bitwise equal; None
    as soon as one edge breaks the pattern.

    In a flattened block, entries K + 1 apart are both diagonal or both
    off-diagonal, and entries 1..K are off-diagonal, one from each of
    the K off-diagonal residue classes mod K + 1.  So a block is Potts
    exactly when it repeats with period K + 1 and its entries 1..K
    agree.  The period is checked on the raw bits in contiguous passes
    of `_CHECK_BLOCKS` blocks, so no (E, K, K) temporary is made."""
    e, k = blocks.shape[:2]
    size, period = k * k, k + 1
    flat = np.ascontiguousarray(blocks).view(np.uint64).reshape(-1)
    repeats = np.empty(min(e, _CHECK_BLOCKS) * size, dtype=bool)
    for start in range(0, flat.size, _CHECK_BLOCKS * size):
        chunk = flat[start : start + _CHECK_BLOCKS * size]
        same = repeats[: chunk.size]
        np.equal(chunk[:-period], chunk[period:], out=same[:-period])
        # the last K + 1 comparisons of a block reach into the next one
        if not same.reshape(-1, size)[:, : size - period].all():
            return None
    bits = flat.reshape(e, size)
    if not all((bits[:, j] == bits[:, 1]).all() for j in range(2, period)):
        return None
    return blocks[:, 0, :2].copy()


class _DecoderTerms(NamedTuple):
    """What a decoder needs of potentials: the (shifted) unary, the
    amount the shift adds to the objective, and the pairwise sums
    psi + psi^T of every edge, either as (E, 2) Potts (diagonal,
    off-diagonal) weights or, when some edge is not Potts, as full
    (E, K, K) blocks."""

    unary: np.ndarray
    offset: float
    potts: np.ndarray | None
    sums: np.ndarray | None


def _decoder_terms(potentials, shift=True):
    """Floor-shift `potentials` (unless `shift` is false) and split
    off the pairwise sums psi + psi^T, deciding Potts first from the raw
    blocks.

    A Potts graph (every raw block bitwise Potts) is read once, for the
    check, and then handled as (E, 2) weights: a Potts block holds only
    its two weights, so `shift_to_floor` on the weights shifts every
    entry of the blocks alike, and psi + psi^T is w + w.  Any other
    graph is shifted as blocks and forms the sums in full; it still
    takes the Potts path when the sums are bitwise Potts, as an
    asymmetric pair with a Potts symmetric part is."""
    unary, pairwise, offset = potentials.unary, potentials.pairwise, 0.0
    weights = _potts_weights(pairwise)
    if weights is not None:
        pairwise = weights
    if shift:
        unary, pairwise, offset = shift_to_floor(unary, pairwise)
    if weights is not None:
        return _DecoderTerms(unary, offset, pairwise + pairwise, None)
    sums = pairwise + pairwise.transpose(0, 2, 1)
    potts = _potts_weights(sums)
    if potts is not None:
        sums = None
    return _DecoderTerms(unary, offset, potts, sums)


def _directed_pattern(graph):
    """Both directions of every edge as an N x N CSR pattern with
    column-sorted rows: row pointers, column indices, and each entry's
    directed edge d (edge d from i to j, or edge d - E from j to i)."""
    n, ea = graph.num_nodes, graph.edges
    rows = np.concatenate([ea[:, 0], ea[:, 1]])
    cols = np.concatenate([ea[:, 1], ea[:, 0]])
    # keys are distinct, so every sort kind gives this order; the
    # stable one is the fastest on the sorted runs of an edge list
    order = np.argsort(rows * n + cols, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], order


def _quadratic_operator(graph, terms):
    """Pairwise operator matvec(mu) -> (N, K) with sum(mu * matvec(mu))
    equal to the pairwise objective term and gradient contribution
    2 * matvec(mu), built from `_decoder_terms`.

    Both operators are laid out on one sorted pattern,
    `_directed_pattern`, so sums run in the order scipy's COO conversion
    gave them.  On Potts graphs each edge's symmetric part is
    o * 11^T + (d - o) * I, and the operator is two N x N adjacencies
    with 2E non-zeros each: W_delta @ mu + (W_o @ rowsum(mu)) broadcast
    over labels.  Any other graph uses `_general_csr`, with 2 * E * K^2
    non-zeros in general block rows."""
    n, k = graph.num_nodes, graph.num_labels
    if not graph.num_edges:
        return lambda mu: np.zeros((n, k))
    if terms.potts is None:
        quad = _general_csr(graph, 0.5 * terms.sums)
        return lambda mu: (quad @ mu.ravel()).reshape(n, k)
    indptr, indices, order = _directed_pattern(graph)
    edge_of = order % graph.num_edges

    def adjacency(weights):
        return sp.csr_matrix((weights[edge_of], indices, indptr), shape=(n, n))

    diag, off = 0.5 * terms.potts.T
    w_delta, w_off = adjacency(diag - off), adjacency(off)
    ones = np.ones(k)

    def potts_matvec(mu):
        out = w_delta @ mu
        # a (N, 1) broadcast runs one K-wide inner loop per row; the
        # repeated column adds the same value to each entry in one pass
        out += np.repeat(w_off @ (mu @ ones), k).reshape(n, k)
        return out

    return potts_matvec


def _general_csr(graph, blocks):
    """The (N*K, N*K) CSR with entry ((i, p), (j, q)) = blocks[e][p, q]
    for edge e = (i, j), transposed for e = (j, i).  Row (i, p) holds
    row p of each of i's directed blocks, K entries per neighbour in
    `_directed_pattern`'s order: the arrays scipy's COO conversion
    makes of the same entries, which never share a position."""
    n, k = graph.num_nodes, graph.num_labels
    indptr, indices, order = _directed_pattern(graph)
    labels = np.arange(k)
    # chunk c of row (i, p), one per neighbour, is pattern entry
    # indptr[i] + c - first[i * K + p]
    chunks = np.repeat(np.diff(indptr), k)
    first = np.zeros(n * k + 1, dtype=np.int64)
    np.cumsum(chunks, out=first[1:])
    entry = np.arange(first[-1]) + np.repeat(np.repeat(indptr[:-1], k) - first[:-1], chunks)
    label = np.repeat(np.tile(labels, n), chunks)
    # row p of directed block d is row d * K + p of these
    rows = np.concatenate([blocks, blocks.transpose(0, 2, 1)]).reshape(-1, k)
    data = np.take(rows, order[entry] * k + label, axis=0).ravel()
    cols = np.take(indices[:, None] * k + labels, entry, axis=0).ravel()
    return sp.csr_matrix((data, cols, first * k), shape=(n * k, n * k))


def _finite(x):
    # min and max propagate NaN, and NaN fails both comparisons
    return bool(-np.inf < x.min(initial=0.0) and x.max(initial=0.0) < np.inf)


def _max_change(new, old, out):
    """max |new - old|, which is max |old - new|, leaving new - old in
    `out`: NaN if either holds NaN, else inf on an infinity or overflow."""
    np.subtract(new, old, out=out)
    # the ufunc reductions themselves, without ndarray.max's Python wrapper
    return max(np.maximum.reduce(out, axis=None), -np.minimum.reduce(out, axis=None))


class _StopTest:
    """The stop test of both decoder loops.  It holds the objective
    `trace`, the `iterations` run and `converged`: whether an iteration's
    max absolute change fell below `tol` within `cap` iterations.

    Given `head`, a buffer shaped like a leading block of the iterate,
    it reads that block's change first: while it is at least `tol`, so
    is the whole change.  Probing ends for good at the first iteration
    that needs more: a probe below `tol`, the last iteration, or a
    non-finite objective value.  Then and on every later iteration the
    caller's full scan runs, raising the decoder's `SolverFailure` on a
    non-finite step.  A probe checks nothing, so a decoder probes only
    steps it has proved finite.  Every outcome is that of a full scan
    at every step."""

    def __init__(self, tol, cap, head=None):
        self.tol, self.cap, self.head = tol, cap, head
        # index of the block `head` holds; None once probing has ended
        self.lead = None if head is None else tuple(map(slice, head.shape))
        self.trace, self.iterations, self.converged = [], 0, False

    def settled(self, it, value, new, old, scan):
        """Record iteration `it`, from `old` to `new`, and its objective
        `value`; return whether it converged.  scan(new, old, it)
        returns the change over the whole arrays."""
        self.trace.append(value)
        self.iterations, lead = it, self.lead
        if lead is not None and it < self.cap and -np.inf < value < np.inf:
            if _max_change(new[lead], old[lead], self.head) >= self.tol:
                return False
        self.lead = None
        self.converged = scan(new, old, it) < self.tol
        return self.converged

    def report(self, final_objective=None):
        """The run's report; the final objective defaults to the trace's."""
        final = self.trace[-1] if final_objective is None else final_objective
        return SolveReport(self.iterations, final, self.trace, bool(self.converged))


def solve(graph, potentials, config=None, callback=None):
    """Maximize the relaxed objective by multiplicative gradient ascent.

    Parameters
    ----------
    graph : CrfGraph
    potentials : Potentials
        Arbitrary finite scores; translated internally so the minimum
        unary and the minimum pairwise entry are exactly `FLOOR`
        (`shift_to_floor`).  Inputs moved by a uniform offset c solve
        the same up to the rounding of p + c: the shifted potentials,
        and so the marginals, drift by about |c| * eps relative to the
        scale of the potentials.
    config : SolverConfig, optional
    callback : callable, optional
        Called as callback(iteration, marginals) after every update.

    When every edge's block is Potts (all diagonal entries bitwise
    equal, all off-diagonal entries bitwise equal, edge by edge), the
    pairwise term runs on two N x N adjacencies with 2E non-zeros
    instead of a K x K block per edge; traces agree with the general
    operator to roundoff, as the sums run in another order.  Potts is
    decided from the raw blocks, which are read once: the floor shift
    then acts on the per-edge (diagonal, off-diagonal) weights, and no
    K x K block is copied.  A graph whose raw blocks are not all Potts
    but whose symmetric parts are still takes the Potts operator; any
    other graph takes the general one.

    One iteration is one operator application, one step of `iterate`'s
    arithmetic without its input checks, the trace value and a stop
    test (`_StopTest`).  The gradient is formed in place in the
    operator's output, and one min/max pair tests it for finiteness and
    sign.  The stop test probes the leading `_PROBE` entries of the
    flattened iterate while the trace value is finite; its full scan
    tests the iterate for finiteness only when the change is not
    finite.  A probed iterate needs no such test: with mu finite
    and q finite and >= 0, every entry of mu * q is >= 0 and at most
    its row's normalizer, so a quotient can exceed 1 only as inf / inf,
    which is NaN, and a NaN in the new iterate a makes b . a NaN (b is
    finite); a finite trace value proves the iterate finite.  Every
    iterate is a fresh array, so a callback may keep the marginals it
    is handed.

    Returns
    -------
    (marginals, report) : (ndarray, SolveReport)
        The report's trace is non-decreasing up to roundoff.

    Raises
    ------
    SolverFailure
        If the iterate or gradient turns non-finite.
    """
    if config is None:
        config = SolverConfig()
    _check_dims(graph, potentials)
    terms = _decoder_terms(potentials)
    matvec = _quadratic_operator(graph, terms)
    b = terms.unary
    b_flat = b.ravel()
    ones = np.ones(graph.num_labels)

    mu = _initial_marginals(b, config.init)
    change = np.empty(mu.size)
    stop = _StopTest(config.tol, config.max_iterations, np.empty(min(_PROBE, mu.size)))

    def scan(new, old, it):
        delta = _max_change(new, old, change)
        # finite iterates can differ by an overflow: fail on non-finite ones
        if not delta < np.inf and not _finite(new):
            raise SolverFailure(f"non-finite marginals at iteration {it}")
        return delta

    a, qa = mu.ravel(), matvec(mu)
    stop.trace.append(float(b_flat @ a + a @ qa.ravel()) - terms.offset)
    for it in range(1, config.max_iterations + 1):
        # gradient b + 2 * qa, formed in the matvec's own buffer
        qa *= 2.0
        qa += b
        low = qa.min(initial=0.0)
        if not (-np.inf < low and qa.max(initial=0.0) < np.inf):
            raise SolverFailure(f"non-finite gradient at iteration {it}")
        if low < 0.0:
            raise ValueError("gradient has negative entries; shift potentials first")
        new_mu = _step(mu, qa, ones)
        new_a, qa = new_mu.ravel(), matvec(new_mu)
        value = float(b_flat @ new_a + new_a @ qa.ravel()) - terms.offset
        settled = stop.settled(it, value, new_a, a, scan)
        mu, a = new_mu, new_a
        if callback is not None:
            callback(it, mu)
        if settled:
            break
    return mu, stop.report()


def solve_constrained(graph, potentials, constraint_sets, config=None, callback=None):
    """Solve with hard label-consistency constraints: merge each
    constraint set into a supernode, solve the reduced problem, then
    replicate supernode rows back onto their members.

    Returns
    -------
    (marginals, labeling, report)
        The labeling assigns one label per constraint set by
        construction.  `report` describes the reduced solve; its
        objective equals the original one at integral points.
    """
    reduced = reduce_problem(graph, potentials, constraint_sets)
    reduced_mu, report = solve(reduced.super_graph, reduced.reduced, config, callback)
    mu = expand_solution(reduced, reduced_mu)
    return mu, extract_labeling(mu), report
