"""Self-contained JSON problem files.

One document carries the label count, unary scores, edge list with
pairwise matrices (or a dissimilarity scalar from which the standard
matrix is derived), optional constraint sets, and optional node
features.  Serialization is canonical: edges are written with explicit
matrices, so parse -> serialize -> parse is the identity on structures.
"""

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import CrfGraph, Potentials, _check_count
from .potentials import NodeFeatures, pairwise_potential
from .reduction import ConstraintSets

__all__ = ["ProblemFile", "load_problem", "save_problem"]

SCHEMA_VERSION = 1
# per-node feature fields, in the column order of `NodeFeatures`
_FEATURE_KEYS = ("centroid", "mean_color", "color_histogram")


@dataclass(frozen=True)
class ProblemFile:
    graph: CrfGraph
    potentials: Potentials
    constraint_sets: ConstraintSets
    features: NodeFeatures  # or None


def _fail(field, message):
    raise ValueError(f"problem file field {field!r}: {message}")


def _is_int(value):
    # bool subclasses int, but true/false are not valid counts or indices
    return isinstance(value, int) and not isinstance(value, bool)


def _require(doc, field, kind):
    if field not in doc:
        _fail(field, "missing")
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, kind):
        _fail(field, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


# JSON numbers parse to int or float; bool (a subclass of int), str and
# None would be converted silently by np.asarray
_NUMBER_TYPES = frozenset((int, float))
_JSON_NAMES = {bool: "a boolean", str: "a string", type(None): "null"}
# JSON integers are unbounded; float64 is not
_TOO_LARGE = "number too large for a float64"


def _as_float_array(value, field, shape=None):
    try:
        arr = np.asarray(value, dtype=np.float64)
    except OverflowError:
        _fail(field, _TOO_LARGE)
    except (TypeError, ValueError):
        _fail(field, "not a numeric array")
    if shape is not None and arr.shape != shape:
        _fail(field, f"expected shape {shape}, got {arr.shape}")
    if arr.ndim in (1, 2):
        scalars = value if arr.ndim == 1 else list(chain.from_iterable(value))
        if not set(map(type, scalars)) <= _NUMBER_TYPES:
            bad = next(type(v) for v in scalars if type(v) not in _NUMBER_TYPES)
            _fail(field, f"expected numbers, got {_JSON_NAMES.get(bad, bad.__name__)}")
    return arr


def _feature_table(columns):
    # the rows are checked float arrays: stacked, they pass with no scan
    try:
        return NodeFeatures(*map(np.array, columns))
    except ValueError as exc:
        _fail("features", str(exc))


def problem_from_dict(doc):
    if not isinstance(doc, dict):
        raise ValueError("problem file must be a JSON object")
    version = _require(doc, "version", int)
    if version != SCHEMA_VERSION:
        _fail("version", f"unsupported version {version}, expected {SCHEMA_VERSION}")
    num_labels = _require(doc, "num_labels", int)
    num_nodes = _require(doc, "num_nodes", int)
    num_labels = _check_count("problem file field 'num_labels'", num_labels, 2, "labels")
    num_nodes = _check_count("problem file field 'num_nodes'", num_nodes, 1, "node")

    unary = _as_float_array(
        _require(doc, "unary", list), "unary", (num_nodes, num_labels)
    )

    edge_docs = _require(doc, "edges", list)
    edges = []
    pairwise = np.zeros((len(edge_docs), num_labels, num_labels))
    for idx, entry in enumerate(edge_docs):
        where = f"edges[{idx}]"
        if not isinstance(entry, dict):
            _fail(where, "must be an object")
        i = entry.get("i")
        j = entry.get("j")
        if not _is_int(i) or not _is_int(j):
            _fail(where, "i and j must be integers")
        if not 0 <= i < j < num_nodes:
            _fail(where, f"requires 0 <= i < j < num_nodes, got i={i}, j={j}")
        has_psi = "psi" in entry
        has_dis = "dis" in entry
        if has_psi == has_dis:
            _fail(where, "exactly one of psi or dis is required")
        if has_psi:
            pairwise[idx] = _as_float_array(
                entry["psi"], f"{where}.psi", (num_labels, num_labels)
            )
        else:
            dis = entry["dis"]
            if not isinstance(dis, (int, float)) or isinstance(dis, bool):
                _fail(f"{where}.dis", "must be a number")
            try:
                pairwise[idx] = pairwise_potential(float(dis), num_labels)
            except OverflowError:
                _fail(f"{where}.dis", _TOO_LARGE)
            except ValueError as exc:
                _fail(f"{where}.dis", str(exc))
        edges.append((i, j))

    constraints = doc.get("constraints", [])
    if not isinstance(constraints, list):
        _fail("constraints", "must be a list of node lists")
    for idx, group in enumerate(constraints):
        if not isinstance(group, list) or not all(_is_int(node) for node in group):
            _fail(f"constraints[{idx}]", "must be a list of integers")
    try:
        constraint_sets = ConstraintSets(constraints)
        constraint_sets.check_bounds(num_nodes)
    except ValueError as exc:
        _fail("constraints", str(exc))

    features = None
    if doc.get("features") is not None:
        feature_docs = _require(doc, "features", list)
        if len(feature_docs) != num_nodes:
            _fail("features", f"expected {num_nodes} entries, got {len(feature_docs)}")
        columns = ([], [], [])
        for idx, entry in enumerate(feature_docs):
            where = f"features[{idx}]"
            if not isinstance(entry, dict):
                _fail(where, "must be an object")
            shapes = ((2,), (3,), columns[2][0].shape if idx else None)
            for key, shape, column in zip(_FEATURE_KEYS, shapes, columns):
                if key not in entry:
                    _fail(where, f"missing {key}")
                column.append(_as_float_array(entry[key], f"{where}.{key}", shape))
            if idx == 0:
                # node 0's histogram sets the shape every row must share
                _feature_table(columns)
        features = _feature_table(columns)

    try:
        graph = CrfGraph(num_nodes=num_nodes, num_labels=num_labels, edges=edges)
        potentials = Potentials(unary=unary, pairwise=pairwise)
    except ValueError as exc:
        raise ValueError(f"problem file invalid: {exc}") from exc
    return ProblemFile(graph, potentials, constraint_sets, features)


def load_problem(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply") from exc
    return problem_from_dict(doc)


def _template(shape, depth, scalar="%r"):
    """%-template of a nested list of `shape` in the layout of
    json.dumps(indent=1), for a list whose opening bracket sits at
    nesting `depth`; each scalar is formatted by `scalar`."""
    if not shape:
        return scalar
    if shape[0] == 0:
        return "[]"
    item = " " * (depth + 1) + _template(shape[1:], depth + 1, scalar)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + " " * depth + "]"


def _write_list(handle, key, items):
    """Write the top-level member `"key": [...]` from its formatted
    items, one write per item."""
    items = iter(items)
    first = next(items, None)
    if first is None:
        handle.write(f',\n "{key}": []')
        return
    handle.write(f',\n "{key}": [\n  ' + first)
    for item in items:
        handle.write(",\n  " + item)
    handle.write("\n ]")


# rows converted to Python lists per step of the writer: enough to
# amortise `tolist`, few enough that the live floats stay bounded
_ROWS_PER_CHUNK = 256


def _rows(*arrays):
    """Rows of the equal-length `arrays` as tuples of Python lists,
    converted `_ROWS_PER_CHUNK` rows at a time."""
    for start in range(0, len(arrays[0]), _ROWS_PER_CHUNK):
        stop = start + _ROWS_PER_CHUNK
        yield from zip(*(array[start:stop].tolist() for array in arrays))


def save_problem(problem, path):
    """Write `problem` with the bytes of json.dump(..., indent=1) plus a
    closing newline: edges are written with explicit matrices, and
    version, num_labels, num_nodes, unary, edges, constraints and
    features (when present) appear in that order.

    `%r` formats a float as `float.__repr__`, which is how json spells a
    finite float (potentials and features are always finite), and `%d`
    an int as json does.  Each edge and feature row is its own write, so
    no string holds the whole document, and rows become Python lists a
    chunk at a time, so neither does a list of every block."""
    graph, potentials = problem.graph, problem.potentials
    n, k = graph.num_nodes, graph.num_labels
    head = (
        '{\n "version": %d,\n "num_labels": %d,\n "num_nodes": %d,\n "unary": '
        + _template((n, k), 1)
    )
    edge = '{\n   "i": %d,\n   "j": %d,\n   "psi": ' + _template((k, k), 3) + "\n  }"
    blocks = potentials.pairwise.reshape(len(graph.edges), k * k)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head % (SCHEMA_VERSION, k, n, *potentials.unary.ravel().tolist()))
        _write_list(
            handle,
            "edges",
            (edge % (*ij, *b) for ij, b in _rows(graph.edges, blocks)),
        )
        _write_list(
            handle,
            "constraints",
            (_template((len(g),), 2, "%d") % g for g in problem.constraint_sets.sets),
        )
        if problem.features is not None:
            f = problem.features
            columns = (f.centroids, f.mean_colors, f.histograms)
            fields = (
                f'"{key}": ' + _template(column.shape[1:], 3)
                for key, column in zip(_FEATURE_KEYS, columns)
            )
            row = "{\n   " + ",\n   ".join(fields) + "\n  }"
            _write_list(
                handle, "features", (row % (*c, *m, *h) for c, m, h in _rows(*columns))
            )
        handle.write("\n}\n")
