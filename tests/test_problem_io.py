"""JSON problem documents: parsing, canonical serialization, validation."""

import copy
import json

import numpy as np
import pytest

from crfqp import load_problem, save_problem
from crfqp.potentials import pairwise_potential
from crfqp.problem_io import problem_from_dict, problem_to_dict
from helpers import same_problem


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
