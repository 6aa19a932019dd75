"""Relaxed-QP MAP solver: closed-form gradient plus a normalized
multiplicative update.

The iterate lives on a product of per-node probability simplices.  With
nonnegative potentials the update

    mu[i, p] <- mu[i, p] * q[i, p] / sum_q mu[i, q] * q[i, q]

is a growth transform of the polynomial objective and never decreases
it, so potentials are first translated entrywise onto a small positive
floor.  Translating to the floor (rather than lifting only negative
entries) keeps the iterate sequence independent of any uniform offset
in the input; the offset is recorded and objectives are reported in the
original units.  All nodes update synchronously from the previous
iterate.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .core import Potentials, _check_dims, check_marginals, extract_labeling
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


class SolverFailure(RuntimeError):
    """Raised when the iteration produces non-finite values."""


@dataclass(frozen=True)
class SolverConfig:
    """max_iterations: iteration cap; tol: convergence threshold on the
    max absolute marginal change; init: 'uniform' or 'unary_softmax'."""

    max_iterations: int = 1000
    tol: float = 1e-6
    init: str = "uniform"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.tol > 0:  # NaN fails this test
            raise ValueError("tol must be positive")
        if self.init not in ("uniform", "unary_softmax"):
            raise ValueError(f"unknown init strategy {self.init!r}")


@dataclass
class SolveReport:
    iterations: int
    final_objective: float
    objective_trace: list = field(repr=False)
    converged: bool


@dataclass(frozen=True)
class ShiftOffsets:
    """Constants added to every unary / pairwise entry by
    `shift_to_floor`."""

    unary: float
    pairwise: float

    def objective_offset(self, graph):
        """Amount by which the shift raises the objective at any point
        with simplex rows: unary * N + pairwise * 2 * |edges|."""
        return self.unary * graph.num_nodes + self.pairwise * 2 * graph.num_edges


def _floor_offsets(unary, pairwise):
    """Offsets that move the minimum unary and pairwise entries onto
    `FLOOR`; `pairwise` may be any array holding every pairwise value."""
    u_off = FLOOR - unary.min()
    p_off = FLOOR - pairwise.min() if pairwise.size else 0.0
    return ShiftOffsets(u_off, p_off)


def shift_to_floor(potentials):
    """Translate each block so its minimum entry equals `FLOOR` exactly,
    whether that means shifting up or down.

    The multiplicative update is not invariant to constants added to its
    gradient, so merely lifting negative entries would make the iterate
    sequence depend on the input's offset.  Pinning the minimum to the
    floor makes uniformly shifted inputs produce identical effective
    problems, hence identical trajectories and labelings.

    The decoders shift Potts graphs without this function: they apply
    the same offsets to the per-edge (diagonal, off-diagonal) weights
    (see `_decoder_terms`), and call it only for general blocks."""
    offsets = _floor_offsets(potentials.unary, potentials.pairwise)
    if offsets.unary == 0.0 and offsets.pairwise == 0.0:
        return potentials, offsets
    shifted = Potentials(
        potentials.unary + offsets.unary, potentials.pairwise + offsets.pairwise
    )
    return shifted, offsets


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
    normalizer is zero are left unchanged.

    Row normalizers come from one BLAS matrix-vector product with a
    vector of ones, and the division runs in place; the masked handling
    of zero rows runs only when some normalizer is not positive."""
    mu = np.asarray(marginals, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != mu.shape:
        raise ValueError(f"gradient shape {q.shape} does not match {mu.shape}")
    if q.min(initial=0.0) < 0.0:
        raise ValueError("gradient has negative entries; shift potentials first")
    out = mu * q
    norms = out @ np.ones(out.shape[1])
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
        # point on symmetric instances.
        flat = np.arange(n * k, dtype=np.float64)
        mu = 1.0 / k + 1e-6 * (np.remainder(flat, 7.0) / 7.0).reshape(n, k)
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
    offsets of the shift, and the pairwise sums psi + psi^T of every
    edge, either as (E, 2) Potts (diagonal, off-diagonal) weights or,
    when some edge is not Potts, as full (E, K, K) blocks."""

    unary: np.ndarray
    offsets: ShiftOffsets
    potts: np.ndarray | None
    sums: np.ndarray | None


def _decoder_terms(potentials, shift=True):
    """Floor-shift `potentials` (unless `shift` is false) and split
    off the pairwise sums psi + psi^T, deciding Potts first from the raw
    blocks.

    A Potts graph (every raw block bitwise Potts) is read once, for the
    check, and then handled as (E, 2) weights: a Potts block holds only
    its two weights, so `shift_to_floor`'s minimum over the blocks is
    the minimum over the weights, its shift moves both alike, and
    psi + psi^T is w + w.  The shifted unary and weights are checked to
    be finite, as `shift_to_floor` checks the blocks it shifts.  Any
    other graph goes through `shift_to_floor` and forms the sums in
    full; it still takes the Potts path when the sums are bitwise
    Potts, as an asymmetric pair with a Potts symmetric part is."""
    weights = _potts_weights(potentials.pairwise)
    if weights is None:
        if shift:
            shifted, offsets = shift_to_floor(potentials)
        else:
            shifted, offsets = potentials, ShiftOffsets(0.0, 0.0)
        psi = shifted.pairwise
        sums = psi + psi.transpose(0, 2, 1)
        potts = _potts_weights(sums)
        if potts is not None:
            sums = None
        return _DecoderTerms(shifted.unary, offsets, potts, sums)
    unary, offsets = potentials.unary, ShiftOffsets(0.0, 0.0)
    if shift:
        offsets = _floor_offsets(unary, weights)
        unary = unary + offsets.unary
        weights += offsets.pairwise
        if not (_finite(unary) and _finite(weights)):
            raise ValueError("potentials must be finite")
    return _DecoderTerms(unary, offsets, weights + weights, None)


def _quadratic_operator(graph, terms):
    """Pairwise operator matvec(mu) -> (N, K) with sum(mu * matvec(mu))
    equal to the pairwise objective term and gradient contribution
    2 * matvec(mu), built from `_decoder_terms`.

    On Potts graphs each edge's symmetric part is o * 11^T + (d - o) * I
    and the operator is two N x N adjacencies with 2E non-zeros each:
    W_delta @ mu + (W_o @ rowsum(mu)) broadcast over labels.  Both share
    one CSR pattern, column-sorted within each row as scipy's COO
    conversion orders it, so sums run in the order they always have.
    Any other graph uses the general (N*K, N*K) CSR with 2 * E * K^2
    non-zeros."""
    n, k = graph.num_nodes, graph.num_labels
    if not graph.num_edges:
        return lambda mu: np.zeros((n, k))
    ea = graph.edges
    if terms.potts is not None:
        num_e = graph.num_edges
        rows = np.concatenate([ea[:, 0], ea[:, 1]])
        cols = np.concatenate([ea[:, 1], ea[:, 0]])
        # keys are distinct, so every sort kind gives this order; the
        # stable one is the fastest on the sorted runs of an edge list
        order = np.argsort(rows * n + cols, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        indices = cols[order]
        edge_of = order % num_e

        def adjacency(weights):
            return sp.csr_matrix((weights[edge_of], indices, indptr), shape=(n, n))

        diag, off = 0.5 * terms.potts.T
        w_delta, w_off = adjacency(diag - off), adjacency(off)
        ones = np.ones(k)

        def potts_matvec(mu):
            out = w_delta @ mu
            out += (w_off @ (mu @ ones))[:, None]
            return out

        return potts_matvec

    sym = 0.5 * terms.sums
    dim = n * k
    p_idx, q_idx = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    rows_ij = (ea[:, 0, None, None] * k + p_idx).ravel()
    cols_ij = (ea[:, 1, None, None] * k + q_idx).ravel()
    rows = np.concatenate([rows_ij, cols_ij])
    cols = np.concatenate([cols_ij, rows_ij])
    data = np.concatenate([sym.ravel(), sym.ravel()])
    quad = sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))
    return lambda mu: (quad @ mu.ravel()).reshape(n, k)


def _finite(x):
    # min and max propagate NaN, so two reductions replace an isfinite mask
    return bool(np.isfinite(x.min(initial=0.0)) and np.isfinite(x.max(initial=0.0)))


def solve(graph, potentials, config=None, callback=None):
    """Maximize the relaxed objective by multiplicative gradient ascent.

    Parameters
    ----------
    graph : CrfGraph
    potentials : Potentials
        Arbitrary finite scores; translated internally onto the floor of
        `shift_to_floor`, so uniformly shifted inputs solve identically.
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

    One iteration is one operator application, one `iterate` step and
    a handful of reductions: the gradient is formed in place in the
    operator's output, finiteness and the max change come from min/max
    reductions, and every iterate is a fresh array, so a callback may
    keep the marginals it is handed.

    Returns
    -------
    (marginals, report) : (ndarray, SolveReport)
        `report.objective_trace` holds the objective in original
        (unshifted) units at the initial point and after each iteration;
        it is non-decreasing up to roundoff.  `report.final_objective`
        equals the last trace entry.

    Raises
    ------
    SolverFailure
        If the iterate or gradient turns non-finite.
    """
    if config is None:
        config = SolverConfig()
    _check_dims(graph, potentials)
    terms = _decoder_terms(potentials)
    offset = terms.offsets.objective_offset(graph)
    matvec = _quadratic_operator(graph, terms)
    b = terms.unary.ravel()

    mu = _initial_marginals(terms.unary, config.init)
    a = mu.ravel()
    qa = matvec(mu).ravel()
    trace = [float(b @ a + a @ qa) - offset]
    converged = False
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        # gradient b + 2 * qa, formed in the matvec's own buffer
        qa *= 2.0
        qa += b
        if not _finite(qa):
            raise SolverFailure(f"non-finite gradient at iteration {it}")
        new_mu = iterate(mu, qa.reshape(mu.shape))
        if not _finite(new_mu):
            raise SolverFailure(f"non-finite marginals at iteration {it}")
        d = new_mu - mu
        delta = float(max(d.max(), -d.min()))
        mu = new_mu
        a = mu.ravel()
        qa = matvec(mu).ravel()
        trace.append(float(b @ a + a @ qa) - offset)
        iterations = it
        if callback is not None:
            callback(it, mu)
        if delta < config.tol:
            converged = True
            break
    report = SolveReport(
        iterations=iterations,
        final_objective=trace[-1],
        objective_trace=trace,
        converged=converged,
    )
    return mu, report


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
