"""Relaxed-QP MAP solver: closed-form gradient plus a normalized
multiplicative update.

In matrix form the objective of `crfqp.core` is

    F(mu) = b . mu + 1/2 mu . Q mu,    grad F(mu) = b + Q mu,

with b the unary scores and Q the symmetric pairwise operator whose
(i, j) block is psi_ij + psi_ij^T for every edge (i, j), in both
directions.  `_quadratic_operator` applies Q itself, so the gradient is
one product plus b and the objective reuses that product.  Scaling by 2
is exact in binary floating point, so both carry the bits of the same
sums formed with Q / 2 wherever the partial sums of Q mu stay finite and
no halved term would be subnormal.  A partial sum beyond the float64
range overflows to inf: `solve` then fails on a non-finite gradient and
`compute_gradient` on an overflow.

The iterate lives on a product of per-node probability simplices.  With
nonnegative potentials the update

    mu[i, p] <- mu[i, p] * q[i, p] / sum_q mu[i, q] * q[i, q]

is a growth transform of the polynomial objective and never decreases
it, so potentials are first translated entrywise onto a small positive
floor, exactly at any offset.  A zero entry is absorbing: the update
multiplies it, so once an entry underflows to 0 no later step revives
it, whatever its gradient.  Translating to the floor (rather than
lifting only negative entries) keeps the iterate sequence independent
of a uniform offset c in the input, up to the rounding of p + c; the
offset is recorded and objectives are reported in the original units.
All nodes update synchronously from the previous iterate.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .core import (
    _check_count,
    _check_dims,
    _check_positive,
    check_marginals,
    extract_labeling,
)
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

# The starting marginals `SolverConfig.init` may name.
INIT_STRATEGIES = ("uniform", "unary_softmax")

# Leading entries of the flattened iterate whose change `solve` reads
# before it scans the whole iterate (see `_StopTest`).
_PROBE = 256


class SolverFailure(RuntimeError):
    """Raised when the iteration produces non-finite values."""


@dataclass(frozen=True)
class SolverConfig:
    """max_iterations: iteration cap; tol: convergence threshold on the
    max absolute marginal change; init: one of `INIT_STRATEGIES`."""

    max_iterations: int = 1000
    tol: float = 1e-6
    init: str = "uniform"

    def __post_init__(self):
        _check_count("SolverConfig.max_iterations", self.max_iterations)
        _check_positive("SolverConfig.tol", self.tol)
        if self.init not in INIT_STRATEGIES:
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
    """Closed-form objective gradient at `marginals`: for
    F = b . mu + 1/2 mu . Q mu (module docstring), grad F = b + Q mu, or

    q[i, p] = unary[i, p] + sum_{j in N(i)} sum_q (psi_ij + psi_ij^T)[p, q] * mu[j, q]

    Each edge contributes through psi + psi^T, twice the symmetric part
    of its matrix, which leaves the objective unchanged and makes this
    the exact gradient for non-symmetric matrices as well; the
    dissimilarity construction always produces symmetric ones.
    Evaluated as unary + Q mu through the same sparse operator that
    `solve` iterates with, on the unshifted potentials.

    On Potts graphs that operator takes every row of `marginals` to sum
    to 1, so the gradient is exact on the simplex.  At marginals that
    `check_marginals` accepts, rows within delta <= 1e-9 of 1, it
    differs from the polynomial gradient by at most
    delta * max_i sum_j |o_ij| besides rounding, where o_ij is the
    off-diagonal weight of psi + psi^T on edge (i, j).

    Raises ValueError when the gradient overflows float64, as it does
    when psi + psi^T does, or when a partial sum of Q mu leaves the
    float64 range.
    """
    _check_dims(graph, potentials)
    mu = check_marginals(marginals, graph.num_nodes, graph.num_labels)
    terms = _decoder_terms(potentials, shift=False)
    q = potentials.unary + _quadratic_operator(graph, terms)(mu)
    if not _finite(q):
        raise ValueError("gradient overflows float64; the potentials are too large")
    return q


def iterate(marginals, q):
    """One synchronous multiplicative step: reweight each row by its
    gradient entries, then renormalize.  Requires q >= 0 (negative
    entries signal a missing nonnegativity shift).  Rows whose
    normalizer is zero are left unchanged.  A zero entry is absorbing:
    no later step of this update moves it off zero."""
    mu = np.asarray(marginals, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != mu.shape:
        raise ValueError(f"gradient shape {q.shape} does not match {mu.shape}")
    if q.min(initial=0.0) < 0.0:
        raise ValueError("gradient has negative entries; shift potentials first")
    n, k = mu.shape
    return _step(mu, q, np.ones(k), np.empty(n), np.empty((n, k)))


def _step(mu, q, ones, norms, out):
    """`iterate` on checked arrays, written into `out` (which may be `q`
    itself, but not `mu`).  Row normalizers are one BLAS product with
    `ones` (K ones) into `norms` (N entries); zero rows get masked
    handling only when some normalizer is not positive.  Rows are
    divided by the normalizers repeated K times: one same-shape divide,
    bitwise `out / norms[:, None]` without that broadcast's K-long inner
    loop."""
    np.multiply(mu, q, out=out)
    np.matmul(out, ones, out=norms)
    degenerate = None
    # A NaN or negative normalizer can hide a zero one from the minimum.
    if not np.minimum.reduce(norms, initial=np.inf) > 0.0:
        degenerate = norms == 0.0
        norms[degenerate] = 1.0
    out /= norms.repeat(len(ones)).reshape(out.shape)
    if degenerate is not None:
        out[degenerate] = mu[degenerate]
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
    # the same-shape divide of `_step`
    mu /= mu.sum(axis=1).repeat(k).reshape(n, k)
    return mu


class _DecoderTerms(NamedTuple):
    """What a decoder needs of potentials: the (shifted) unary, the
    amount the shift adds to the objective, and the pairwise sums
    psi + psi^T of every edge, either as (E, 2) Potts (diagonal,
    off-diagonal) weights or, for potentials that store blocks, as full
    (E, K, K) blocks.  IEEE addition is commutative, so each block of
    `sums` equals its own transpose bit for bit (signed zeros and
    overflows to inf included), and both directions of an edge use the
    same block."""

    unary: np.ndarray
    offset: float
    potts: np.ndarray | None
    sums: np.ndarray | None


def _decoder_terms(potentials, shift=True):
    """Floor-shift `potentials` (unless `shift` is false) and split
    off the pairwise sums psi + psi^T.  A Potts block holds only its two
    weights (`Potentials.potts`), so `shift_to_floor` on the weights
    shifts every entry of the blocks alike, and psi + psi^T is w + w.
    Stored blocks are shifted as blocks and form the sums in full."""
    unary, offset = potentials.unary, 0.0
    weights = potentials.potts
    pairwise = potentials.pairwise if weights is None else weights
    if shift:
        unary, pairwise, offset = shift_to_floor(unary, pairwise)
    if weights is not None:
        return _DecoderTerms(unary, offset, pairwise + pairwise, None)
    return _DecoderTerms(unary, offset, None, pairwise + pairwise.transpose(0, 2, 1))


def _directed_pattern(graph):
    """Both directions of every edge as an N x N CSR pattern with
    column-sorted rows: row pointers, column indices, and each entry's
    edge (entry (i, j) and entry (j, i) both name edge (i, j))."""
    n, ea = graph.num_nodes, graph.edges
    rows = np.concatenate([ea[:, 0], ea[:, 1]])
    cols = np.concatenate([ea[:, 1], ea[:, 0]])
    # keys are distinct, so every sort kind gives this order; the
    # stable one is the fastest on the sorted runs of an edge list
    order = np.argsort(rows * n + cols, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], order % graph.num_edges


def _quadratic_operator(graph, terms):
    """Pairwise operator matvec(mu) -> Q mu, (N, K), built from
    `_decoder_terms`: the gradient's pairwise part, so that the
    objective's pairwise term is sum(mu * matvec(mu)) / 2 and its
    gradient b + matvec(mu) (module docstring).  It holds psi + psi^T,
    not halved, so its partial sums overflow once they pass the float64
    range.

    Both operators are one sorted pattern, `_directed_pattern`, with
    per-edge values gathered onto its entries: a scalar per entry for
    Potts, a K x K block per entry otherwise.  On Potts graphs each
    edge's sum psi + psi^T is o * 11^T + (d - o) * I, so the product is
    W_delta @ mu plus W_o @ rowsum(mu) broadcast over labels.  Every row
    sum is taken as 1, which makes the second term a per-node constant
    formed once, and the operator one N x N adjacency with 2E non-zeros.
    The product is exact on the simplex; at rows within delta of 1 it
    differs from the polynomial's by at most delta * max_i sum_j |o_ij|.
    Any other graph is an (N*K, N*K) block-sparse (BSR) matrix with one
    block psi + psi^T per entry: the sums are bitwise symmetric,
    so both directions of an edge hold the same block.  BSR's product
    sums each row block by block and within a block column by column,
    the order of scipy's COO conversion of the same entries."""
    n, k = graph.num_nodes, graph.num_labels
    indptr, indices, edge_of = _directed_pattern(graph)
    if terms.potts is None:
        blocks = terms.sums[edge_of]
        quad = sp.bsr_matrix((blocks, indices, indptr), shape=(n * k, n * k))
        return lambda mu: (quad @ mu.ravel()).reshape(n, k)

    def adjacency(weights):
        return sp.csr_matrix((weights[edge_of], indices, indptr), shape=(n, n))

    diag, off = terms.potts.T
    w_delta = adjacency(diag - off)
    # W_o @ rowsum(mu) with every row sum taken as 1, repeated over labels
    constant = np.repeat(adjacency(off) @ np.ones(n), k).reshape(n, k)

    def potts_matvec(mu):
        out = w_delta @ mu
        out += constant
        return out

    return potts_matvec


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

    When the potentials store Potts weights (`Potentials.potts`), the
    pairwise term runs on one N x N adjacency with 2E non-zeros and a
    per-node constant instead of a K x K block per edge; traces agree
    with the general operator to roundoff, as the sums run in another
    order.  The constant takes every row sum as 1, so the product is
    exact on the simplex; every iterate is normalised row by row, so its
    rows stay within a few ulp of 1 and so does the product.  The floor
    shift then acts on the per-edge (diagonal, off-diagonal) weights,
    and no K x K block is copied.  Any other graph takes the general
    operator.

    One iteration is one operator application, one step of `iterate`'s
    arithmetic without its input checks, the trace value and a stop
    test (`_StopTest`).  The operator returns Q mu, so the trace value
    b . mu + 1/2 mu . Q mu reuses it, and the gradient b + Q mu is
    formed in place in the operator's output, with no rescaling pass
    (the module docstring gives the envelope).  One min/max pair tests
    the gradient for finiteness and sign, and the new iterate is
    written over it: rows are summed into one buffer per solve and
    divided by one same-shape divide.  The stop test probes the leading
    `_PROBE` entries of the flattened iterate while the trace value is
    finite; its full scan tests the iterate for finiteness only when
    the change is not finite.  A probed iterate needs no such test:
    with mu finite and q finite and >= 0, every entry of mu * q is >= 0
    and at most its row's normalizer, so a quotient can exceed 1 only
    as inf / inf, which is NaN, and a NaN in the new iterate a makes
    b . a NaN (b is finite); a finite trace value proves the iterate
    finite.  Every
    iterate is a fresh array, the output of a fresh operator
    application, so a callback may keep the marginals it is handed.
    Entries that underflow to 0 stay 0 (module docstring).

    Returns
    -------
    (marginals, report) : (ndarray, SolveReport)
        The report's trace is non-decreasing up to roundoff.

    Raises
    ------
    SolverFailure
        If the iterate or gradient turns non-finite, or the objective of
        the returned iterate is not finite (as on the last iteration,
        whose gradient is never formed, or a run that converges on an
        infinite objective).
    """
    if config is None:
        config = SolverConfig()
    _check_dims(graph, potentials)
    terms = _decoder_terms(potentials)
    matvec = _quadratic_operator(graph, terms)
    b = terms.unary
    b_flat = b.ravel()
    ones, norms = np.ones(graph.num_labels), np.empty(graph.num_nodes)

    mu = _initial_marginals(b, config.init)
    change = np.empty(mu.size)
    stop = _StopTest(config.tol, config.max_iterations, np.empty(min(_PROBE, mu.size)))

    def scan(new, old, it):
        delta = _max_change(new, old, change)
        # finite iterates can differ by an overflow: fail on non-finite ones
        if not delta < np.inf and not _finite(new):
            raise SolverFailure(f"non-finite marginals at iteration {it}")
        return delta

    def objective(a, qa):
        return float(b_flat @ a + 0.5 * (a @ qa.ravel())) - terms.offset

    a, qa = mu.ravel(), matvec(mu)
    stop.trace.append(objective(a, qa))
    for it in range(1, config.max_iterations + 1):
        # the gradient b + Q mu, then the new iterate, in the matvec's buffer
        qa += b
        low = np.minimum.reduce(qa, axis=None, initial=0.0)
        if not (-np.inf < low and np.maximum.reduce(qa, axis=None, initial=0.0) < np.inf):
            raise SolverFailure(f"non-finite gradient at iteration {it}")
        if low < 0.0:
            raise ValueError("gradient has negative entries; shift potentials first")
        new_mu = _step(mu, qa, ones, norms, out=qa)
        new_a, qa = new_mu.ravel(), matvec(new_mu)
        value = objective(new_a, qa)
        settled = stop.settled(it, value, new_a, a, scan)
        mu, a = new_mu, new_a
        if callback is not None:
            callback(it, mu)
        if settled:
            break
    # the loop tests gradients, not objectives: the last one is unchecked
    if not np.isfinite(stop.trace[-1]):
        raise SolverFailure(f"non-finite objective at iteration {stop.iterations}")
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
