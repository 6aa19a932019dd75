"""Command-line entry points, run in process through main()."""

import csv
import json

import numpy as np
import pytest

import crfqp.cli as cli
import crfqp.evaluate as evaluate
from crfqp import (
    ConstraintSets,
    CrfGraph,
    Potentials,
    ProblemFile,
    SolverFailure,
    load_problem,
    objective_of_labeling,
    save_problem,
)
from helpers import enumerate_map


def read_labels(path):
    return [int(line) for line in path.read_text().splitlines()]


def synth(tmp_path, name="p.json", **overrides):
    args = {
        "width": "12",
        "height": "10",
        "objects": "2",
        "labels": "4",
        "noise": "0.5",
        "seed": "3",
    }
    args.update({k: str(v) for k, v in overrides.items()})
    out = tmp_path / name
    argv = ["synth", "--out", str(out)]
    for key, value in args.items():
        argv += [f"--{key}", value]
    assert cli.main(argv) == 0
    return out


def test_synth_writes_deterministic_problem_and_truth(tmp_path, capsys):
    a = synth(tmp_path, "a.json")
    message = capsys.readouterr().out
    assert "wrote" in message and "120 nodes, 4 labels" in message
    assert "constraint sets" in message
    b = synth(tmp_path, "b.json")
    assert a.read_text() == b.read_text()
    truth = read_labels(tmp_path / "a.json.truth.labels")
    assert truth == read_labels(tmp_path / "b.json.truth.labels")
    assert len(truth) == 120
    problem = load_problem(a)
    assert problem.graph.num_nodes == 120
    assert len(problem.constraint_sets) >= 1


def test_solve_report_is_consistent_with_outputs(tmp_path, capsys):
    problem_path = synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "cqp.labels"
    assert cli.main(["solve", str(problem_path), "--output", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    report = json.loads((tmp_path / "cqp.labels.report.json").read_text())
    assert printed == report
    assert set(report) == {
        "solver",
        "iterations",
        "converged",
        "objective",
        "wall_time_s",
        "constraints_satisfied",
        "labeling_path",
    }
    assert report["solver"] == "cqp"
    assert report["converged"] is True
    assert report["constraints_satisfied"] is True
    assert report["labeling_path"] == str(out)
    labeling = np.array(read_labels(out))
    problem = load_problem(problem_path)
    assert report["objective"] == pytest.approx(
        objective_of_labeling(problem.graph, problem.potentials, labeling)
    )
    # constrained groups come out monochrome
    assert len(problem.constraint_sets) >= 1
    for group in problem.constraint_sets:
        assert len({int(labeling[n]) for n in group}) == 1


def test_qp_and_cqp_agree_without_constraints(tmp_path):
    problem_path = synth(tmp_path)
    doc = json.loads(problem_path.read_text())
    doc["constraints"] = []
    free = tmp_path / "free.json"
    free.write_text(json.dumps(doc))
    for solver in ("qp", "cqp"):
        rc = cli.main(
            [
                "solve",
                str(free),
                "--solver",
                solver,
                "--output",
                str(tmp_path / f"{solver}.labels"),
            ]
        )
        assert rc == 0
    assert read_labels(tmp_path / "qp.labels") == read_labels(tmp_path / "cqp.labels")


def test_solve_brute_matches_enumeration(tmp_path):
    doc = {
        "version": 1,
        "num_labels": 3,
        "num_nodes": 4,
        "unary": [[0.9, 0.1, 0.3], [0.2, 0.8, 0.1], [0.4, 0.4, 0.7], [0.6, 0.1, 0.2]],
        "edges": [
            {"i": 0, "j": 1, "dis": 0.3},
            {"i": 1, "j": 2, "dis": 0.8},
            {"i": 0, "j": 3, "psi": [[1.0, 0.0, 0.2], [0.0, 1.0, 0.1], [0.2, 0.1, 0.9]]},
        ],
        "constraints": [],
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "brute.labels"
    assert cli.main(["solve", str(path), "--solver", "brute", "--output", str(out)]) == 0
    problem = load_problem(path)
    want, _ = enumerate_map(problem.graph, problem.potentials)
    assert read_labels(out) == want.tolist()
    out = tmp_path / "unary.labels"
    assert cli.main(["solve", str(path), "--solver", "unary", "--output", str(out)]) == 0
    assert read_labels(out) == np.argmax(problem.potentials.unary, axis=1).tolist()
    report = json.loads((tmp_path / "unary.labels.report.json").read_text())
    assert (report["iterations"], report["converged"]) == (0, True)


def test_noise_free_scene_is_recovered_exactly(tmp_path):
    problem_path = synth(tmp_path, noise=0.0)
    out = tmp_path / "qp.labels"
    rc = cli.main(
        ["solve", str(problem_path), "--solver", "qp", "--output", str(out)]
    )
    assert rc == 0
    truth = read_labels(tmp_path / "p.json.truth.labels")
    assert read_labels(out) == truth


def test_eval_table_and_csv(tmp_path, capsys):
    pred = tmp_path / "pred.labels"
    truth = tmp_path / "truth.labels"
    pred.write_text("0\n1\n0\n0\n")
    truth.write_text("0\n1\n1\n0\n")
    assert cli.main(["eval", str(pred), str(pred)]) == 0
    perfect = capsys.readouterr().out
    assert perfect.splitlines()[-1].split() == ["macro"] + ["1.0000"] * 4

    assert cli.main(["eval", str(pred), str(truth), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "class,precision,recall,accuracy,f1"
    assert lines[-1].startswith("macro,")
    class0 = dict(zip(lines[0].split(",")[1:], lines[1].split(",")[1:]))
    # truth has two 0s, prediction hits both plus one false positive
    assert float(class0["precision"]) == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert float(class0["recall"]) == 1.0


def test_eval_rejects_bad_labelings(tmp_path, capsys):
    short = tmp_path / "short.labels"
    long = tmp_path / "long.labels"
    short.write_text("0\n1\n")
    long.write_text("0\n1\n1\n")
    assert cli.main(["eval", str(short), str(long)]) == 2
    assert "length mismatch" in capsys.readouterr().err
    junk = tmp_path / "junk.labels"
    junk.write_text("0\nbanana\n")
    assert cli.main(["eval", str(junk), str(short)]) == 2
    assert "not an integer label" in capsys.readouterr().err
    empty = tmp_path / "empty.labels"
    empty.write_text("\n")
    assert cli.main(["eval", str(empty), str(short)]) == 2
    assert "no labels found" in capsys.readouterr().err


def test_input_errors_exit_2(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    boolean = tmp_path / "bool.json"
    doc = json.loads(synth(tmp_path).read_text())
    doc["edges"][0].update(i=False, j=True)
    boolean.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["solve", str(boolean)]) == 2
    assert "i and j must be integers" in capsys.readouterr().err
    for field in ("unary", "psi"):
        for value, kind in ((True, "a boolean"), ("1.5", "a string")):
            doc = json.loads(synth(tmp_path).read_text())
            if field == "unary":
                doc["unary"][0][0] = value
            else:
                doc["edges"][0]["psi"][0][0] = value
            boolean.write_text(json.dumps(doc))
            capsys.readouterr()
            assert cli.main(["solve", str(boolean)]) == 2
            assert f"expected numbers, got {kind}" in capsys.readouterr().err
    doc = json.loads(synth(tmp_path).read_text())
    doc["constraints"] = [[-1, 0]]
    boolean.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["solve", str(boolean), "--solver", "cqp"]) == 2
    assert (
        "problem file field 'constraints': constraint set (-1, 0) has a negative"
        in capsys.readouterr().err
    )
    assert cli.main(["solve", str(synth(tmp_path)), "--tol", "nan"]) == 2
    assert "tol must be positive" in capsys.readouterr().err
    for node, key, value, message in (
        (0, "centroid", [True, False], "expected numbers, got a boolean"),
        (0, "mean_color", [0.5], "'features[0].mean_color': expected shape (3,)"),
        # one bin where node 0 has several
        (1, "color_histogram", [1.0], "'features[1].color_histogram': expected"),
        (2, "color_histogram", [-1.0] + [0.5] * 7, "features[2]: histogram must be"),
        (2, "color_histogram", [0.0] * 8, "features[2]: histogram must be"),
    ):
        doc = json.loads(synth(tmp_path).read_text())
        doc["features"][node][key] = value
        boolean.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["solve", str(boolean)]) == 2
        assert message in capsys.readouterr().err


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    problem_path = synth(tmp_path)
    capsys.readouterr()

    def explode(*args, **kwargs):
        raise SolverFailure("objective decreased")

    # the decoder registry calls the `solve` of crfqp.evaluate
    monkeypatch.setattr(evaluate, "solve", explode)
    rc = cli.main(["solve", str(problem_path), "--solver", "qp"])
    assert rc == 3
    assert "solver error: objective decreased" in capsys.readouterr().err


def test_lbp_overflow_exits_3(tmp_path, capsys):
    # psi + psi^T overflows, so the messages turn non-finite
    block = np.where(np.eye(2, dtype=bool), 1.5e308, 0.0)
    problem = ProblemFile(
        graph=CrfGraph(3, 2, [(0, 1), (1, 2)]),
        potentials=Potentials(np.zeros((3, 2)), [block, block]),
        constraint_sets=ConstraintSets(),
        features=None,
    )
    path = tmp_path / "overflow.json"
    save_problem(problem, path)
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["solve", str(path), "--solver", "lbp"]) == 3
    assert "solver error: non-finite messages at iteration 1" in capsys.readouterr().err


def test_bench_writes_csv_and_prints_speedups(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main(
        ["bench", "--sizes", "100", "--fractions", "0.5", "--out", str(out)]
    )
    assert rc == 0
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["solver"] for r in rows] == ["qp", "cqp"]
    assert rows[0]["nodes"] == rows[1]["nodes"] == "100"
    printed = capsys.readouterr().out
    assert f"wrote {out} (2 rows)" in printed
    assert "= " in printed and printed.rstrip().endswith("x")
    assert cli.main(["bench", "--sizes", "abc", "--out", str(out)]) == 2


def test_bad_usage_exits_via_argparse():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve", "p.json", "--seed", "1"])
    assert excinfo.value.code == 2
