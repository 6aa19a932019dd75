"""Shared test utilities: independent oracles and instance factories.

Everything here restates library behavior in a deliberately different
form (explicit loops, union-find, itertools enumeration) so tests never
compare the implementation against itself.
"""

import itertools
import json

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from crfqp import (
    CrfGraph,
    Potentials,
    bhattacharyya_distance,
    extract_labeling,
    objective_of_labeling,
)
from crfqp.core import _check_dims, check_marginals
from crfqp.solver import SolveReport, SolverFailure, shift_to_floor


def random_graph(rng, num_nodes, num_labels, edge_prob=0.4):
    edges = [
        (i, j)
        for i in range(num_nodes)
        for j in range(i + 1, num_nodes)
        if rng.uniform() < edge_prob
    ]
    return CrfGraph(num_nodes, num_labels, edges)


def random_instance(rng, num_nodes, num_labels, edge_prob=0.4, low=-1.0, high=1.0):
    graph = random_graph(rng, num_nodes, num_labels, edge_prob)
    unary = rng.uniform(low, high, size=(num_nodes, num_labels))
    pairwise = rng.uniform(low, high, size=(graph.num_edges, num_labels, num_labels))
    return graph, Potentials(unary, pairwise)


def random_potts_instance(rng, num_nodes, num_labels, edge_prob=0.4):
    """Random graph whose every pairwise block is symmetric Potts: one
    random diagonal value and one random off-diagonal value per edge,
    either of which may be the larger."""
    graph = random_graph(rng, num_nodes, num_labels, edge_prob)
    unary = rng.uniform(-1.0, 1.0, size=(num_nodes, num_labels))
    diag = rng.uniform(-1.0, 1.0, size=(graph.num_edges, 1, 1))
    off = rng.uniform(-1.0, 1.0, size=(graph.num_edges, 1, 1))
    pairwise = np.where(np.eye(num_labels, dtype=bool), diag, off)
    return graph, Potentials(unary, pairwise)


def block_twin(potentials):
    """The same potentials built again from their (E, K, K) blocks: for
    Potts weights, the blocks they stand for, which `Potentials` scans
    and stores as weights again."""
    return Potentials(potentials.unary, potentials.pairwise)


def loop_pairwise_matvec(graph, pairwise, mu):
    """Edge-by-edge pairwise gradient half: for each edge, the symmetric
    part of its block times the other end's marginals."""
    out = np.zeros_like(mu, dtype=np.float64)
    for e, (i, j) in enumerate(graph.edges.tolist()):
        sym = 0.5 * (pairwise[e] + pairwise[e].T)
        out[i] += sym @ mu[j]
        out[j] += sym.T @ mu[i]
    return out


def coo_general_csr(graph, blocks):
    """The general (N*K, N*K) pairwise CSR as scipy's COO conversion
    builds it: entry ((i, p), (j, q)) = blocks[e][p, q] for every edge
    e = (i, j), and the transposed entry for the reverse direction,
    listed through a meshgrid of label pairs."""
    n, k = graph.num_nodes, graph.num_labels
    ea = graph.edges
    p_idx, q_idx = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    rows_ij = (ea[:, 0, None, None] * k + p_idx).ravel()
    cols_ij = (ea[:, 1, None, None] * k + q_idx).ravel()
    rows = np.concatenate([rows_ij, cols_ij])
    cols = np.concatenate([cols_ij, rows_ij])
    data = np.concatenate([blocks.ravel(), blocks.ravel()])
    return sp.csr_matrix((data, (rows, cols)), shape=(n * k, n * k))


def random_marginals(rng, num_nodes, num_labels):
    mu = rng.uniform(0.05, 1.0, size=(num_nodes, num_labels))
    return mu / mu.sum(axis=1, keepdims=True)


def random_disjoint_sets(rng, num_nodes, max_sets=3, max_size=4):
    """Disjoint node groups of 2 to `max_size` nodes drawn from a
    shuffled node list."""
    order = list(rng.permutation(num_nodes))
    sets = []
    while len(sets) < max_sets and len(order) >= 2:
        size = int(rng.integers(2, min(max_size, len(order)) + 1))
        sets.append(tuple(order[:size]))
        order = order[size:]
        if rng.uniform() < 0.3:
            break
    return sets


def objective(graph, potentials, marginals):
    """Relaxed objective value at `marginals` (rows on the probability
    simplex): the unary term plus the pairwise term counted in both
    directions of every undirected edge, by einsum over the edges."""
    _check_dims(graph, potentials)
    mu = check_marginals(marginals, graph.num_nodes, graph.num_labels)
    value = float(np.sum(potentials.unary * mu))
    if graph.num_edges:
        ea = graph.edges
        mi = mu[ea[:, 0]]
        mj = mu[ea[:, 1]]
        psi = potentials.pairwise
        value += float(np.einsum("epq,ep,eq->", psi, mi, mj))
        value += float(np.einsum("epq,ep,eq->", psi, mj, mi))
    return value


def naive_objective(graph, potentials, mu):
    """Triple-loop restatement of the double-counted objective."""
    mu = np.asarray(mu, dtype=np.float64)
    pairwise = potentials.pairwise
    value = 0.0
    for i in range(graph.num_nodes):
        for p in range(graph.num_labels):
            value += potentials.unary[i, p] * mu[i, p]
    for e, (i, j) in enumerate(graph.edges):
        for p in range(graph.num_labels):
            for q in range(graph.num_labels):
                value += pairwise[e, p, q] * (
                    mu[i, p] * mu[j, q] + mu[j, p] * mu[i, q]
                )
    return value


def quad_objective(graph, potentials, mu):
    """Same polynomial via per-edge matrix products; fast enough to
    finite-difference."""
    mu = np.asarray(mu, dtype=np.float64)
    value = float(np.sum(potentials.unary * mu))
    pairwise = potentials.pairwise
    for e, (i, j) in enumerate(graph.edges):
        psi = pairwise[e]
        value += float(mu[i] @ psi @ mu[j] + mu[j] @ psi @ mu[i])
    return value


def fd_gradient(graph, potentials, mu, h=1e-5):
    """Central finite differences of the raw polynomial."""
    grad = np.zeros_like(mu, dtype=np.float64)
    for i in range(mu.shape[0]):
        for p in range(mu.shape[1]):
            up = mu.copy()
            dn = mu.copy()
            up[i, p] += h
            dn[i, p] -= h
            grad[i, p] = (
                quad_objective(graph, potentials, up)
                - quad_objective(graph, potentials, dn)
            ) / (2.0 * h)
    return grad


def score_labeling(graph, potentials, labeling):
    """Loop-based integer objective."""
    value = 0.0
    pairwise = potentials.pairwise
    for i in range(graph.num_nodes):
        value += potentials.unary[i, labeling[i]]
    for e, (i, j) in enumerate(graph.edges):
        value += pairwise[e, labeling[i], labeling[j]]
        value += pairwise[e, labeling[j], labeling[i]]
    return float(value)


def fancy_objective_of_labeling(graph, potentials, labeling):
    """Integer objective by 3-D fancy indexing, summed term by term as
    `objective_of_labeling` sums its flat gathers: its bitwise oracle."""
    x = np.asarray(labeling, dtype=np.int64)
    value = float(potentials.unary[np.arange(graph.num_nodes), x].sum())
    if graph.num_edges:
        ea = graph.edges
        xi = x[ea[:, 0]]
        xj = x[ea[:, 1]]
        eidx = np.arange(graph.num_edges)
        psi = potentials.pairwise
        value += float(psi[eidx, xi, xj].sum() + psi[eidx, xj, xi].sum())
    return value


def loop_constraint_matrix(graph, constraint_sets):
    """The constraint matrix from triplets listed pair by pair and label
    by label, passed to the same CSR constructor as in the library."""
    k = graph.num_labels
    rows, cols, data = [], [], []
    r = 0
    for members in constraint_sets:
        for a, b in zip(members[:-1], members[1:]):
            for p in range(k):
                rows.extend((r, r))
                cols.extend((a * k + p, b * k + p))
                data.extend((1.0, -1.0))
                r += 1
    return sp.csr_matrix((data, (rows, cols)), shape=(r, graph.num_nodes * k))


def enumerate_map(graph, potentials):
    """Exhaustive MAP by itertools enumeration.  Strict improvement keeps
    the lexicographically smallest optimum (node 0 most significant)."""
    best, best_val = None, -np.inf
    for assign in itertools.product(range(graph.num_labels), repeat=graph.num_nodes):
        value = score_labeling(graph, potentials, assign)
        if value > best_val:
            best_val = value
            best = np.array(assign, dtype=np.int64)
    return best, best_val


def random_tree(rng, num_nodes, num_labels, low=-1.0, high=1.0):
    """Random spanning tree instance: each node attaches to an earlier one."""
    edges = []
    for i in range(1, num_nodes):
        parent = int(rng.integers(0, i))
        edges.append((parent, i))
    graph = CrfGraph(num_nodes, num_labels, edges)
    unary = rng.uniform(low, high, size=(num_nodes, num_labels))
    pairwise = rng.uniform(low, high, size=(graph.num_edges, num_labels, num_labels))
    return graph, Potentials(unary, pairwise)


def single_link_partition(points, radius):
    """Union-find single-link clustering over the dense distance matrix.
    Returns sorted clusters ordered by smallest member, mirroring the
    library's output convention."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    dist = cdist(points, points)
    for i, j in zip(*np.nonzero(dist <= radius)):
        if i < j:
            ri, rj = find(int(i)), find(int(j))
            if ri != rj:
                parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def brute_force_edges(points, theta):
    """Pairs i < j, in (i, j) order, whose dense-matrix distance is
    strictly below `theta`."""
    dist = cdist(points, points)
    return [
        (int(i), int(j)) for i, j in zip(*np.nonzero(dist < theta)) if i < j
    ]


def dissimilarity(features, i, j, params):
    """One node pair's feature dissimilarity, term by term on scalars:
    the histogram distance plus the color and location distances, each
    clamped at 1, averaged."""
    hist_term = bhattacharyya_distance(features.histograms[i], features.histograms[j])
    color = float(np.linalg.norm(features.mean_colors[i] - features.mean_colors[j]))
    loc = float(np.linalg.norm(features.centroids[i] - features.centroids[j]))
    color_term = min(1.0, params.theta_c * color)
    loc_term = min(1.0, params.theta_l * loc)
    return (hist_term + color_term + loc_term) / 3.0


def loop_reduction(graph, potentials, node_to_super):
    """Edge-by-edge supernode merge through a dict: returns the reduced
    unary, the super-edge list in first-appearance order and the summed
    pairwise blocks in that order."""
    k = graph.num_labels
    unary = np.zeros((int(node_to_super.max()) + 1, k))
    for i, row in enumerate(potentials.unary):
        unary[node_to_super[i]] += row
    blocks = {}
    pairwise = potentials.pairwise
    for e, (i, j) in enumerate(graph.edges.tolist()):
        a, b = int(node_to_super[i]), int(node_to_super[j])
        psi = pairwise[e]
        if a == b:
            unary[a] += 2.0 * np.diag(psi)
        elif (min(a, b), max(a, b)) in blocks:
            blocks[min(a, b), max(a, b)] += psi if a < b else psi.T
        else:
            blocks[min(a, b), max(a, b)] = (psi if a < b else psi.T).copy()
    summed = np.array(list(blocks.values())).reshape(-1, k, k)
    return unary, list(blocks), summed


def full_matrix_ground_plane(cloud, params):
    """RANSAC ground removal scored through one candidates x points
    distance matrix.  Returns (normal, offset, kept_indices)."""
    pts = np.asarray(cloud, dtype=np.float64)
    n = pts.shape[0]
    rng = np.random.default_rng(params.rng_seed)
    samples = rng.integers(0, n, size=(params.ransac_iterations, 3))
    p0 = pts[samples[:, 0]]
    normals = np.cross(pts[samples[:, 1]] - p0, pts[samples[:, 2]] - p0)
    norms = np.linalg.norm(normals, axis=1)
    valid = norms > 1e-12
    normals = normals[valid] / norms[valid, None]
    offsets = -np.einsum("ij,ij->i", normals, p0[valid])
    x, y, z = pts.T
    dists = normals[:, :1] * x + normals[:, 1:2] * y + normals[:, 2:] * z + offsets[:, None]
    dists = np.abs(dists)
    counts = (dists <= params.plane_inlier_threshold).sum(axis=1)
    near_best = np.nonzero(counts >= int(np.ceil(0.99 * counts.max())))[0]
    chosen = near_best[np.argmax(np.abs(normals[near_best, 2]))]
    inlier = dists[chosen] <= params.plane_inlier_threshold
    kept = np.nonzero(~inlier)[0] if inlier.sum() >= 0.5 * n else np.arange(n)
    return normals[chosen], float(offsets[chosen]), kept


def dense_lbp(graph, potentials, max_iters=200, damping=0.5, changes=None):
    """Max-product LBP with node-major messages, a dense K x K
    maximisation per message and `np.add.at` belief sums: the reference
    that `lbp_map` must reproduce bit for bit, raising `SolverFailure`
    at the same iteration when the messages turn non-finite.  Each
    iteration appends the max change of every directed edge's message
    to the list `changes`, when one is given."""
    n, k = graph.num_nodes, graph.num_labels
    unary, pairwise, _ = shift_to_floor(potentials.unary, potentials.pairwise)

    num_e = graph.num_edges
    if num_e == 0:
        labeling = extract_labeling(unary)
        value = objective_of_labeling(graph, potentials, labeling)
        return labeling, SolveReport(0, value, [value], True)

    ea = graph.edges
    src = np.concatenate([ea[:, 0], ea[:, 1]])
    tgt = np.concatenate([ea[:, 1], ea[:, 0]])
    rev = np.concatenate([np.arange(num_e) + num_e, np.arange(num_e)])
    sym2 = pairwise + pairwise.transpose(0, 2, 1)
    psi_dir = np.concatenate([sym2, sym2.transpose(0, 2, 1)])  # (x_src, x_tgt)

    messages = np.zeros((2 * num_e, k))
    best_labeling = None
    best_value = -np.inf
    trace = []
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        beliefs = unary.copy()
        np.add.at(beliefs, tgt, messages)

        base = beliefs[src] - messages[rev]
        new = (base[:, :, None] + psi_dir).max(axis=1)
        new = damping * messages + (1.0 - damping) * new
        new -= new.max(axis=1, keepdims=True)
        change = float(np.max(np.abs(new - messages)))
        if changes is not None:
            changes.append(np.abs(new - messages).max(axis=1))
        if not np.isfinite(change):
            raise SolverFailure(f"non-finite messages at iteration {it}")
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

    beliefs = unary.copy()
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
    )
    return best_labeling, report


def same_problem(a, b):
    """Structural equality of two ProblemFiles: constraint sets, edges,
    potentials and (when present) feature columns, bit for bit.  The
    unary's shape carries the node and label counts."""

    def arrays(problem):
        p, f = problem.potentials, problem.features
        out = [problem.graph.edges, p.unary, p.pairwise]
        if f is not None:
            out += [f.centroids, f.mean_colors, f.histograms]
        return out

    mine, theirs = arrays(a), arrays(b)
    return (
        a.constraint_sets.sets == b.constraint_sets.sets
        and len(mine) == len(theirs)
        and all(np.array_equal(x, y) for x, y in zip(mine, theirs))
    )


def problem_to_dict(problem):
    """A problem file's document as nested lists and dicts, edges with
    explicit matrices.  `saved_bytes` turns it into the bytes
    `save_problem` must write."""
    pairwise = problem.potentials.pairwise
    doc = {
        "version": 1,
        "num_labels": problem.graph.num_labels,
        "num_nodes": problem.graph.num_nodes,
        "unary": problem.potentials.unary.tolist(),
        "edges": [
            {"i": i, "j": j, "psi": pairwise[e].tolist()}
            for e, (i, j) in enumerate(problem.graph.edges.tolist())
        ],
        "constraints": [list(group) for group in problem.constraint_sets.sets],
    }
    if problem.features is not None:
        f = problem.features
        rows = zip(f.centroids.tolist(), f.mean_colors.tolist(), f.histograms.tolist())
        keys = ("centroid", "mean_color", "color_histogram")
        doc["features"] = [dict(zip(keys, row)) for row in rows]
    return doc


def saved_bytes(problem):
    """The problem file `json.dump(problem_to_dict(problem), indent=1)`
    writes, newline terminated, as bytes."""
    return (json.dumps(problem_to_dict(problem), indent=1) + "\n").encode("utf-8")
