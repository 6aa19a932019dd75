"""Bitwise digest of crfqp's outputs, for claims that a change leaves
them the same.

Usage (from the repository root):

    python3 tools/digest.py --out digest.json
    python3 tools/digest.py --compare A.json B.json

The first form writes one JSON object: the numpy and scipy versions
(bits depend on them), one sha256 per named record, and a combined
digest over every record in order.  The library is imported from
``src/`` beside this directory, so a digest describes the checkout the
tool sits in.  The second form names the first record of A that B
lacks or holds with other bits, counts the records that differ, and
exits 1 when any does (0 when all agree).

Inputs:

- scene-sweep recipe scenes, seeds 0-9 (40x40, K = 7, noise 0.6,
  constraint sets from the cloud pipeline);
- large-grid recipe scenes, seeds 0-3 (80x80, K = 7, ``crfqp.bench``'s
  noise and pairwise weight, truth-tile sets at coverage 0.75);
- the 32 problems of the benchmark's problem-files pool at seed 0
  (400 nodes, K = 5, dense asymmetric blocks);
- hand-made blocks for the Potts decision: Potts blocks for K = 2..7
  holding zeros, each entry moved by one ulp either way or negated
  (so +0.0 becomes -0.0), in C, Fortran and transposed layouts.

``perfbench/workloads.py`` builds the large-grid scenes and the
problem-files pool and sets the benchmark's budgets; this tool only
imports it.

Records per input: the potentials and constraint sets; the stored
Potts weights of the potentials built again from their blocks; decoder
terms, shifted and unshifted, of the original and cqp-reduced
potentials; the ``reduce_problem`` outputs; qp and cqp marginals, cqp
labelings, and their traces, iterations, ``converged`` and final
objectives at the benchmark's budgets and at ``SolverConfig()``;
``lbp_map`` labelings, reports and every belief sum, at the
benchmark's budget and the defaults; ``save_problem`` bytes and the
potentials ``load_problem`` reads back from them.
"""

import os

# One thread per pool, before numpy loads, as in perfbench/run.py.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import numbers  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import crfqp.baselines as baselines  # noqa: E402
import workloads  # noqa: E402
from crfqp import solver  # noqa: E402
from crfqp.cloud import CloudParams, build_constraint_sets  # noqa: E402
from crfqp.core import Potentials  # noqa: E402
from crfqp.problem_io import ProblemFile, load_problem, save_problem  # noqa: E402
from crfqp.reduction import reduce_problem  # noqa: E402
from crfqp.synthetic import generate_scene  # noqa: E402

def _feed(h, value):
    """Add `value` to hash `h`, tagged with its kind and shape, so that
    different values of different kinds never feed the same bytes."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, np.ndarray):
        h.update(f"A{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"T" if value else b"F")
    elif isinstance(value, numbers.Integral):
        h.update(f"I{int(value)};".encode())
    elif isinstance(value, numbers.Real):
        h.update(f"R{float(value).hex()};".encode())
    elif isinstance(value, bytes):
        h.update(f"B{len(value)};".encode())
        h.update(value)
    elif isinstance(value, (list, tuple)):
        h.update(f"L{len(value)};".encode())
        for item in value:
            _feed(h, item)
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


class Records:
    """Named sha256 records, in the order they were added."""

    def __init__(self):
        self.records = {}

    def add(self, name, *values):
        if name in self.records:
            raise KeyError(f"record {name} added twice")
        h = hashlib.sha256()
        _feed(h, values)
        self.records[name] = h.hexdigest()


def _potentials(pot):
    return pot.unary, pot.potts, None if pot.potts is not None else pot.pairwise


def _report(report):
    trace = [float(v) for v in report.objective_trace]
    return report.iterations, report.converged, float(report.final_objective), trace


def _tap_belief_sums(sink):
    """Make every `baselines._add_messages` call append the sums it
    leaves to `sink`; returns the call that undoes it."""
    original = baselines._add_messages

    def tapped(beliefs, messages, tgt):
        original(beliefs, messages, tgt)
        sink.update(np.ascontiguousarray(beliefs).tobytes())

    baselines._add_messages = tapped
    return lambda: setattr(baselines, "_add_messages", original)


def digest_input(rec, workdir, name, graph, potentials, sets, features, budget, lbp_budget):
    """Add the records of one input; `budget` is its solver budget and
    `lbp_budget` its LBP iteration cap, None for `lbp_map`'s default."""
    rec.add(f"{name}/potentials", graph.edges, *_potentials(potentials))
    rec.add(f"{name}/sets", [list(s) for s in sets])
    rec.add(f"{name}/potts-from-blocks", Potentials(potentials.unary, potentials.pairwise).potts)
    reduced = reduce_problem(graph, potentials, sets)
    rec.add(
        f"{name}/reduce",
        reduced.super_graph.edges,
        reduced.node_to_super,
        *_potentials(reduced.reduced),
    )
    for which, pot in (("original", potentials), ("reduced", reduced.reduced)):
        for shift in (True, False):
            terms = solver._decoder_terms(pot, shift)
            rec.add(f"{name}/terms/{which}/{'shifted' if shift else 'unshifted'}", *terms)
    for label, config, lbp_iters in (
        ("budget", budget, lbp_budget),
        ("default", solver.SolverConfig(), None),
    ):
        mu, report = solver.solve(graph, potentials, config)
        rec.add(f"{name}/qp/{label}/marginals", mu)
        rec.add(f"{name}/qp/{label}/report", *_report(report))
        mu, labels, report = solver.solve_constrained(graph, potentials, sets, config)
        rec.add(f"{name}/cqp/{label}/marginals", mu)
        rec.add(f"{name}/cqp/{label}/labels", labels)
        rec.add(f"{name}/cqp/{label}/report", *_report(report))
        sums = hashlib.sha256()
        undo = _tap_belief_sums(sums)
        try:
            cap = {} if lbp_iters is None else {"max_iters": lbp_iters}
            labels, report = baselines.lbp_map(graph, potentials, **cap)
        finally:
            undo()
        rec.add(f"{name}/lbp/{label}/labels", labels)
        rec.add(f"{name}/lbp/{label}/report", *_report(report))
        rec.add(f"{name}/lbp/{label}/belief-sums", sums.digest())
    path = os.path.join(workdir, "problem.json")
    save_problem(ProblemFile(graph, potentials, sets, features), path)
    rec.add(f"{name}/save", Path(path).read_bytes())
    rec.add(f"{name}/load", *_potentials(load_problem(path).potentials))


def digest_potts_decision(rec):
    """One record per K of the Potts weights `Potentials` stores (None
    for other blocks) for the hand-made blocks of the module docstring."""
    rng = np.random.default_rng(0)
    moves = (lambda x: np.nextafter(x, -np.inf), lambda x: np.nextafter(x, np.inf), np.negative)
    for k in range(2, 8):
        eye = np.eye(k, dtype=bool)
        weights = rng.normal(size=(3, 2))
        weights[0] = 0.0
        weights[2, 1] = 0.0
        blocks = np.where(eye, weights[:, :1, None], weights[:, 1:, None])
        decided = []
        for e, p, q in np.ndindex(blocks.shape):
            for move in moves:
                moved = blocks.copy()
                moved[e, p, q] = move(moved[e, p, q])
                for layout in (moved, np.asfortranarray(moved), moved.transpose(0, 2, 1)):
                    decided.append(Potentials(np.zeros((1, k)), layout).potts)
        rec.add(f"potts-decision/K={k}", Potentials(np.zeros((1, k)), blocks).potts, decided)


def _inputs(workdir):
    """Each input as (name, graph, potentials, constraint sets, features,
    solver budget, LBP budget), with the budgets of its workload."""
    for seed in range(10):
        s = generate_scene(40, 40, 6, 7, noise=0.6, seed=seed)
        sets = build_constraint_sets(s.cloud, CloudParams(rng_seed=seed), s.projection)
        budget = workloads.SceneSweep.config
        yield f"scene-sweep/{seed}", s.graph, s.potentials, sets, s.features, budget, None
    grid = workloads.LargeGrid(0, workdir)
    for seed in range(4):
        s, sets = grid._input(seed, 80, 6)
        budgets = grid.config, grid.lbp_iters
        yield f"large-grid/{seed}", s.graph, s.potentials, sets, s.features, *budgets
    files = workloads.ProblemFiles(0, workdir)
    budget = solver.SolverConfig(files.max_iters, files.tol)
    for index in range(files.inputs):
        files.build_input(index)
        p = files.pool[-1].problem
        sets = p.constraint_sets
        yield f"problem-files/{index}", p.graph, p.potentials, sets, p.features, budget, None


def build(rec):
    digest_potts_decision(rec)
    with tempfile.TemporaryDirectory() as workdir:
        for args in _inputs(workdir):
            digest_input(rec, workdir, *args)


def combined(records):
    h = hashlib.sha256()
    for name, value in records.items():
        h.update(f"{name}\0{value}\n".encode())
    return h.hexdigest()


def write(out):
    start = time.perf_counter()
    rec = Records()
    build(rec)
    result = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "combined": combined(rec.records),
        "records": rec.records,
    }
    text = json.dumps(result, indent=1) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    seconds = time.perf_counter() - start
    print(
        f"# {len(rec.records)} records, combined {result['combined']}, {seconds:.1f} s",
        file=sys.stderr,
    )
    return 0


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    for key in ("numpy", "scipy"):
        if a[key] != b[key]:
            print(f"# {key} differs: {a[key]} against {b[key]}")
    differ = [n for n, v in a["records"].items() if b["records"].get(n) != v]
    extra = [n for n in b["records"] if n not in a["records"]]
    if not differ and not extra:
        print(f"same: {len(a['records'])} records, combined {a['combined']}")
        return 0
    if differ:
        print(f"first differing record: {differ[0]}")
    if extra:
        print(f"first record only in {path_b}: {extra[0]}")
    print(f"{len(differ)} of {len(a['records'])} records differ, {len(extra)} only in {path_b}")
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digests")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return write(args.out)


if __name__ == "__main__":
    sys.exit(main())
