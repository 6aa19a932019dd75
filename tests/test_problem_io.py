"""JSON problem documents: parsing, canonical serialization, validation."""

import copy
import hashlib
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crfqp import ConstraintSets, CrfGraph, Potentials, cli, load_problem, save_problem
from crfqp.potentials import NodeFeatures, pairwise_potential
from crfqp.problem_io import ProblemFile, problem_from_dict
from helpers import problem_to_dict, same_problem, saved_bytes

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def tiny_doc():
    return {
        "version": 1,
        "num_labels": 2,
        "num_nodes": 3,
        "unary": [[1.0, 0.0], [0.5, 0.5], [0.0, 2.0]],
        "edges": [
            {"i": 0, "j": 1, "psi": [[1.0, 0.2], [0.2, 1.0]]},
            {"i": 1, "j": 2, "dis": 0.5},
        ],
        "constraints": [[0, 2]],
        "features": [
            {
                "centroid": [float(i), 0.0],
                "mean_color": [0.1, 0.2, 0.3],
                "color_histogram": [0.5, 0.5],
            }
            for i in range(3)
        ],
    }


def test_parse_builds_expected_structures():
    problem = problem_from_dict(tiny_doc())
    assert problem.graph.num_nodes == 3
    assert problem.graph.edges.tolist() == [[0, 1], [1, 2]]
    assert problem.potentials.unary[2, 1] == 2.0
    # the dis shorthand expands to the standard matrix
    want = pairwise_potential(0.5, 2)
    assert np.array_equal(problem.potentials.pairwise[1], want)
    assert np.array_equal(want, [[0.75, 0.25], [0.25, 0.75]])
    assert problem.constraint_sets.sets == ((0, 2),)
    assert problem.features.centroids.tolist() == [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    assert problem.features.mean_colors.shape == (3, 3)
    assert problem.features.histograms.tolist() == [[0.5, 0.5]] * 3


def test_serialization_round_trip_is_identity():
    problem = problem_from_dict(tiny_doc())
    doc = problem_to_dict(problem)
    again = problem_from_dict(doc)
    assert same_problem(problem, again)
    # canonical form survives a second pass bit for bit
    assert problem_to_dict(again) == doc
    # edges are always written with explicit matrices
    assert "psi" in doc["edges"][1] and "dis" not in doc["edges"][1]
    # any structural change breaks equivalence
    for change in (
        lambda d: d["edges"][1].update(i=0, j=2),
        lambda d: d["edges"][1]["psi"][0].__setitem__(1, 0.5),
        lambda d: d["unary"][0].__setitem__(0, 9.0),
        lambda d: d["features"][2].update(centroid=[5.0, 0.0]),
        lambda d: d.pop("features"),
        lambda d: d.update(constraints=[]),
    ):
        changed = problem_to_dict(problem)
        change(changed)
        assert not same_problem(problem, problem_from_dict(changed))


def test_features_and_constraints_are_optional():
    doc = tiny_doc()
    del doc["features"]
    del doc["constraints"]
    problem = problem_from_dict(doc)
    assert problem.features is None
    assert len(problem.constraint_sets) == 0
    assert same_problem(problem_from_dict(problem_to_dict(problem)), problem)


def bad_cases():
    base = tiny_doc()

    def variant(mutate):
        doc = copy.deepcopy(base)
        mutate(doc)
        return doc

    return [
        (variant(lambda d: d.update(version=2)), "unsupported version"),
        (variant(lambda d: d.pop("unary")), "'unary': missing"),
        (variant(lambda d: d.update(num_labels=1)), "at least 2"),
        (variant(lambda d: d.update(unary=[[1.0, 0.0]])), "expected shape"),
        (
            variant(lambda d: d["edges"].__setitem__(0, {"i": 1, "j": 0, "psi": []})),
            r"0 <= i < j",
        ),
        (
            variant(
                lambda d: d["edges"].__setitem__(
                    0, {"i": 0, "j": 1, "psi": [[1.0]], "dis": 0.5}
                )
            ),
            "exactly one of psi or dis",
        ),
        (variant(lambda d: d["edges"].__setitem__(0, {"i": 0, "j": 1})), "exactly one"),
        (
            variant(lambda d: d["edges"].__setitem__(1, {"i": 1, "j": 2, "dis": True})),
            "must be a number",
        ),
        (
            variant(lambda d: d["edges"].__setitem__(1, {"i": 1, "j": 2, "psi": [[1.0]]})),
            "expected shape",
        ),
        (variant(lambda d: d.update(constraints=[[0, 1], [1, 2]])), "overlap"),
        (variant(lambda d: d.update(constraints=[[0, 99]])), "exceeds node count"),
        (variant(lambda d: d.update(constraints="nope")), "list of node lists"),
        (variant(lambda d: d["features"].pop()), "expected 3 entries, got 2"),
        (
            variant(lambda d: d["features"][0].pop("mean_color")),
            "missing mean_color",
        ),
        (variant(lambda d: d.update(num_nodes=0)), "at least 1"),
        # bool subclasses int in Python; JSON true/false are not integers
        (variant(lambda d: d.update(version=True)), "'version': expected int"),
        (variant(lambda d: d.update(num_nodes=True)), "expected int, got bool"),
        (variant(lambda d: d.update(num_labels=True)), "expected int, got bool"),
        (
            variant(lambda d: d["edges"][0].update(i=False, j=True)),
            r"'edges\[0\]': i and j must be integers",
        ),
        (
            variant(lambda d: d.update(constraints=[[False, True]])),
            r"'constraints\[0\]': must be a list of integers",
        ),        (
            variant(lambda d: d.update(unary=[[True, False], [0.0, 1.0], [1.0, 2.0]])),
            "'unary': expected numbers, got a boolean",
        ),
        (
            variant(
                lambda d: d["edges"].__setitem__(
                    0, {"i": 0, "j": 1, "psi": [[1.0, False], [True, 0.5]]}
                )
            ),
            r"'edges\[0\].psi': expected numbers, got a boolean",
        ),
        # numeric strings would parse through np.asarray
        (
            variant(lambda d: d["unary"][1].__setitem__(0, "1.5")),
            "'unary': expected numbers, got a string",
        ),
        (
            variant(lambda d: d["edges"][0]["psi"][1].__setitem__(1, "0.5")),
            r"'edges\[0\].psi': expected numbers, got a string",
        ),
        (
            variant(lambda d: d["features"][0].update(centroid=[True, False])),
            r"'features\[0\].centroid': expected numbers, got a boolean",
        ),
        (
            variant(lambda d: d["features"][1].update(mean_color=[0.1, "0.2", 0.3])),
            r"'features\[1\].mean_color': expected numbers, got a string",
        ),
        (
            variant(lambda d: d["features"][2].update(color_histogram=[0.5, False])),
            r"'features\[2\].color_histogram': expected numbers, got a boolean",
        ),
        (
            variant(lambda d: d["features"][0].update(mean_color=[0.5])),
            r"'features\[0\].mean_color': expected shape \(3,\), got \(1,\)",
        ),
        # histograms are compared bin by bin across edges
        (
            variant(lambda d: d["features"][1].update(color_histogram=[0.2, 0.3, 0.5])),
            r"'features\[1\].color_histogram': expected shape \(2,\), got \(3,\)",
        ),
        (
            variant(lambda d: d["features"][2].update(color_histogram=[0.5, -0.1])),
            r"features\[2\]: histogram must be nonnegative and not all zero",
        ),
        (
            variant(lambda d: d["features"][2].update(color_histogram=[0.0, 0.0])),
            r"features\[2\]: histogram must be nonnegative and not all zero",
        ),
        (
            variant(lambda d: d["features"][0].update(color_histogram=[])),
            r"features\[0\]: histogram must be a non-empty 1-D array, got shape \(0,\)",
        ),
        # features are finite, and mean colours lie in [0, 1]
        (
            variant(lambda d: d["features"][1].update(centroid=[float("nan"), 0.0])),
            r"'features': features\[1\]: centroid must be finite",
        ),
        (
            variant(lambda d: d["features"][2].update(mean_color=[5.0, -2.0, 0.1])),
            r"'features': features\[2\]: mean color must lie in \[0, 1\]",
        ),
        (
            variant(
                lambda d: d["features"][0].update(color_histogram=[float("inf"), 0.5])
            ),
            r"'features': features\[0\]: histogram must be finite",
        ),
    ]


@pytest.mark.parametrize("doc,message", bad_cases())
def test_malformed_documents_are_rejected(doc, message):
    with pytest.raises(ValueError, match=message):
        problem_from_dict(doc)


def test_non_object_document_is_rejected():
    with pytest.raises(ValueError, match="JSON object"):
        problem_from_dict([1, 2, 3])


def test_disk_round_trip_and_json_error_location(tmp_path):
    problem = problem_from_dict(tiny_doc())
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    assert same_problem(load_problem(path), problem)
    # saved form is plain JSON, newline terminated
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["num_nodes"] == 3

    broken = tmp_path / "broken.json"
    broken.write_text('{\n "version": 1,\n}\n')
    with pytest.raises(ValueError, match=r"line 3 column 1"):
        load_problem(broken)


def _digest(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def benchmark_problems(tmp_path_factory):
    """The problem pool of the benchmark's problem-files workload at
    seed 0: 400 nodes, K = 5, dense asymmetric blocks."""
    with pytest.MonkeyPatch.context() as patch:
        # workloads.py imports its sibling modules by their bare names
        patch.syspath_prepend(str(WORKLOADS.parent))
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    files = workloads.ProblemFiles(0, str(tmp_path_factory.mktemp("pool")))
    for index in range(files.inputs):
        files.build_input(index)
    return [inp.problem for inp in files.pool]


def _assert_saved_as_json_dump(problem, path):
    save_problem(problem, path)
    assert _digest(path.read_bytes()) == _digest(saved_bytes(problem))
    assert same_problem(load_problem(path), problem)


def test_saved_bytes_are_json_dump_on_benchmark_problems(tmp_path, benchmark_problems):
    assert len(benchmark_problems) == 32
    for problem in benchmark_problems:
        _assert_saved_as_json_dump(problem, tmp_path / "problem.json")


def test_saved_bytes_are_json_dump_on_synth_scenes(tmp_path, capsys):
    for seed in range(3):
        path = tmp_path / f"scene-{seed}.json"
        assert cli.main(["synth", "--seed", str(seed), "--out", str(path)]) == 0
        problem = load_problem(path)
        assert problem.features is not None and len(problem.constraint_sets)
        assert _digest(path.read_bytes()) == _digest(saved_bytes(problem))
    capsys.readouterr()


def test_saved_bytes_are_json_dump_on_edge_cases(tmp_path):
    values = [-0.0, 5e-324, 1e16, 1e300, 3.0, -2.0, 0.1, 1e-7, 123456789.0]

    def cycle(count):
        return np.resize(np.array(values), count)

    features = NodeFeatures(
        [(-0.0, 5e-324), (1e16, 1e300), (3.0, -2.0)],
        [(0.0, 1.0, 0.1), (-0.0, 5e-324, 1e-7), (0.5, 0.25, 1.0)],
        [(5e-324,), (1e300,), (3.0,)],
    )
    cases = []
    for k in (2, 3):
        for edges in ([], [(0, 1), (0, 2), (1, 2)]):
            for sets in ([], [(0, 2)]):
                for feats in (None, features):
                    graph = CrfGraph(3, k, edges)
                    unary = cycle(3 * k).reshape(3, k)
                    pairwise = cycle(len(edges) * k * k).reshape(len(edges), k, k)
                    potentials = Potentials(unary, pairwise)
                    constraint_sets = ConstraintSets(sets)
                    cases.append(ProblemFile(graph, potentials, constraint_sets, feats))
    # one node, no edges, no sets, no features: every list but unary empty
    single = Potentials([[1.0, -0.0]], np.zeros((0, 2, 2)))
    cases.append(ProblemFile(CrfGraph(1, 2), single, ConstraintSets(), None))
    for problem in cases:
        _assert_saved_as_json_dump(problem, tmp_path / "case.json")
    assert b'"edges": []' in (tmp_path / "case.json").read_bytes()


def test_save_holds_no_whole_document_in_memory(tmp_path, benchmark_problems):
    problem = benchmark_problems[0]
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    assert path.stat().st_size > 800_000
    tracemalloc.start()
    try:
        save_problem(problem, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # json.dump of the whole document peaks at about 2.2 MiB here, and
    # converting every block to Python lists at once at about 1.1 MiB
    assert peak < 0.75 * 2**20


def _edge_faults():
    """Ways an edge at position e of a 2-label chain can be bad, each
    with the message the loader gives for it."""
    field = r"problem file field 'edges\[{e}\]"
    return [
        (lambda e: "nope", field + r"': must be an object"),
        (
            lambda e: {"i": True, "j": e + 1, "dis": 0.5},
            field + r"': i and j must be integers",
        ),
        (lambda e: {"i": e + 1, "j": e, "dis": 0.5}, field + r"': requires 0 <= i < j"),
        (
            lambda e: {"i": e, "j": e + 1, "dis": 0.5, "psi": [[1.0, 0.0], [0.0, 1.0]]},
            field + r"': exactly one of psi or dis",
        ),
        (
            lambda e: {"i": e, "j": e + 1, "psi": [[1.0, True], [0.0, 1.0]]},
            field + r"\.psi': expected numbers, got a boolean",
        ),
        (
            lambda e: {"i": e, "j": e + 1, "psi": [[1.0, None], [0.0, 1.0]]},
            field + r"\.psi': expected numbers, got null",
        ),
        (
            lambda e: {"i": e, "j": e + 1, "psi": [[1.0, 0.5]]},
            field + r"\.psi': expected shape \(2, 2\), got \(1, 2\)",
        ),
        (
            lambda e: {"i": e, "j": e + 1, "psi": [[1.0, [0.5]], [0.0, 1.0]]},
            field + r"\.psi': not a numeric array",
        ),
        (
            lambda e: {"i": e, "j": e + 1, "dis": "0.5"},
            field + r"\.dis': must be a number",
        ),
        (
            lambda e: {"i": e, "j": e + 1, "dis": 2.0 + e},
            field + r"\.dis': dissimilarity must lie in \[0, 1\], got {bad}$",
        ),
    ]


def test_dis_outside_unit_interval_names_its_field():
    for dis, shown in ((2.0, "2.0"), (-0.25, "-0.25"), (float("nan"), "nan"), (3, "3.0")):
        doc = tiny_doc()
        doc["edges"][1]["dis"] = dis
        with pytest.raises(ValueError) as excinfo:
            problem_from_dict(doc)
        want = (
            "problem file field 'edges[1].dis': "
            f"dissimilarity must lie in [0, 1], got {shown}"
        )
        assert str(excinfo.value) == want
    for dis in (0, 1, 0.0, 1.0):
        doc = tiny_doc()
        doc["edges"][1]["dis"] = dis
        want = pairwise_potential(float(dis), 2)
        assert np.array_equal(problem_from_dict(doc).potentials.pairwise[1], want)


def _chain_doc(num_nodes):
    doc = tiny_doc()
    doc.update(num_nodes=num_nodes, unary=[[0.5, 0.5]] * num_nodes)
    doc["edges"] = [
        {"i": e, "j": e + 1, "psi": [[1.0, 0.2], [0.2, 1.0]]} if e % 2 else
        {"i": e, "j": e + 1, "dis": 0.25}
        for e in range(num_nodes - 1)
    ]
    del doc["features"]
    return doc


def test_first_of_two_faults_is_named():
    faults = _edge_faults()
    for first, (make_first, message) in enumerate(faults):
        for make_second, _ in faults:
            for a, b in ((1, 4), (4, 6)):
                doc = _chain_doc(8)
                doc["edges"][a] = make_first(a)
                doc["edges"][b] = make_second(b)
                want = message.format(e=a, bad=2.0 + a)
                with pytest.raises(ValueError, match=want):
                    problem_from_dict(doc)
    # a fault in an earlier field wins over any edge fault, and an edge
    # fault over later fields and over graph-level faults
    doc = _chain_doc(8)
    doc["edges"][5] = {"i": 4, "j": 5, "dis": True}
    doc["edges"][6] = {"i": 0, "j": 1, "dis": 0.5}
    doc["constraints"] = [[0, 99]]
    with pytest.raises(ValueError, match=r"'edges\[5\]\.dis': must be a number"):
        problem_from_dict(doc)
    doc["unary"][2] = [0.5, "0.5"]
    with pytest.raises(ValueError, match=r"'unary': expected numbers, got a string"):
        problem_from_dict(doc)
    doc = _chain_doc(8)
    doc["edges"][6] = {"i": 0, "j": 1, "dis": 0.5}
    with pytest.raises(ValueError, match=r"invalid: duplicate edge \(0, 1\)"):
        problem_from_dict(doc)
