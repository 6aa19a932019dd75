"""Command-line entry points, run in process through main()."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import crfqp.cli as cli
import crfqp.evaluate as evaluate
from crfqp import (
    ConstraintSets,
    CrfGraph,
    Potentials,
    ProblemFile,
    SolverConfig,
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

    assert cli.main(["eval", str(pred), str(truth)]) == 0
    assert capsys.readouterr().out == (
        "   class   Precision      Recall    Accuracy          F1\n"
        "       0      0.6667      1.0000      0.7500      0.8000\n"
        "       1      1.0000      0.5000      0.7500      0.6667\n"
        "   macro      0.8333      0.7500      0.7500      0.7333\n"
    )
    assert cli.main(["eval", str(pred), str(truth), "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    assert csv == (
        "class,precision,recall,accuracy,f1\n"
        "0,0.666667,1.000000,0.750000,0.800000\n"
        "1,1.000000,0.500000,0.750000,0.666667\n"
        "macro,0.833333,0.750000,0.750000,0.733333\n"
    )
    lines = csv.strip().splitlines()
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
    # a label count below 1 is refused by name, not taken as "infer"
    for count in ("0", "-3"):
        assert cli.main(["eval", str(short), str(short), "--labels", count]) == 2
        assert f"--labels must be a positive integer, got {count}" in capsys.readouterr().err
    # a negative label is named by file and line, a label at or above
    # --labels by file and flag
    negative = tmp_path / "negative.labels"
    negative.write_text("0\n\n-1\n")
    assert cli.main(["eval", str(negative), str(long)]) == 2
    assert f"{negative}:3: negative label: '-1'" in capsys.readouterr().err
    high = tmp_path / "high.labels"
    high.write_text("0\n3\n1\n")
    for argv in ([high, long], [long, high]):
        assert cli.main(["eval", *map(str, argv), "--labels", "2"]) == 2
        assert f"{high} holds label 3, not below --labels 2" in capsys.readouterr().err
    assert cli.main(["eval", str(high), str(high), "--labels", "4"]) == 0
    capsys.readouterr()


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
        # json writes these as NaN and Infinity, which json reads back
        (1, "centroid", [float("nan"), 0.5], "features[1]: centroid must be finite"),
        (3, "mean_color", [5.0, -2.0, 0.1], "features[3]: mean color must lie in"),
        (0, "color_histogram", [float("inf")] + [0.5] * 7, "histogram must be finite"),
    ):
        doc = json.loads(synth(tmp_path).read_text())
        doc["features"][node][key] = value
        boolean.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["solve", str(boolean)]) == 2
        assert message in capsys.readouterr().err
    # nesting beyond what the parser can recurse into
    deep = tmp_path / "deep.json"
    deep.write_text('{"version": 1, "unary": ' + "[" * 100_000 + "]" * 100_000 + "}")
    capsys.readouterr()
    assert cli.main(["solve", str(deep)]) == 2
    assert f"{deep}: JSON nested too deeply" in capsys.readouterr().err


def test_integers_beyond_float64_exit_2(tmp_path, capsys):
    # JSON integers are unbounded: 10**400 has no float64 value
    huge = 10**400
    problem_path = synth(tmp_path)
    bad = tmp_path / "huge.json"
    for field in ("unary", "edges[0].psi", "edges[0].dis", "features[1].centroid"):
        doc = json.loads(problem_path.read_text())
        if field == "unary":
            doc["unary"][0][0] = huge
        elif field == "edges[0].psi":
            doc["edges"][0]["psi"][1][0] = huge
        elif field == "edges[0].dis":
            edge = doc["edges"][0]
            doc["edges"][0] = {"i": edge["i"], "j": edge["j"], "dis": huge}
        else:
            doc["features"][1]["centroid"][1] = huge
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"problem file field '{field}': number too large for a float64" in err


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
    # 4 nodes make a 2 x 2 grid, narrower than the smallest object
    capsys.readouterr()
    assert cli.main(["bench", "--sizes", "4", "--out", str(out)]) == 2
    assert "error: width must be a positive integer (at least 3 cells)" in capsys.readouterr().err


def test_solve_defaults_are_solver_config_defaults():
    args = cli.build_parser().parse_args(["solve", "p.json"])
    assert (args.max_iters, args.tol, args.init) == astuple(SolverConfig())


def test_bad_usage_exits_via_argparse():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve", "p.json", "--seed", "1"])
    assert excinfo.value.code == 2


def test_main_calls_in_one_process_behave_as_separate_processes(tmp_path, capsys):
    """`main` parses with one parser per process; a run of calls, each
    with other options than the one before, exits and prints as fresh
    processes do (solve reports differ only in their wall time)."""
    problem = synth(tmp_path)
    pred, truth = tmp_path / "pred.labels", tmp_path / "truth.labels"
    pred.write_text("0\n1\n0\n0\n")
    truth.write_text("0\n1\n1\n0\n")
    calls = [
        ["solve", str(problem), "--solver", "qp", "--max-iters", "7",
         "--output", str(tmp_path / "qp.labels")],
        ["eval", str(pred), str(truth), "--format", "csv", "--labels", "3"],
        ["solve"],
        ["eval", str(pred), str(truth)],
        ["solve", str(problem), "--output", str(tmp_path / "cqp.labels")],
    ]

    def seen(code, out, err, argv):
        if argv[0] == "solve" and code == 0:
            out = json.loads(out)
            assert out.pop("wall_time_s") >= 0.0
        return code, out, err

    capsys.readouterr()
    in_process = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append(seen(code, *capsys.readouterr(), argv))
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0]

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, got in zip(calls, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "crfqp.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert got == seen(fresh.returncode, fresh.stdout, fresh.stderr, argv)


def test_cli_import_leaves_spatial_and_csgraph_unloaded():
    # only edge building and clustering use them, and import them there
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, crfqp.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('scipy.spatial', 'scipy.sparse.csgraph'))))"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == "[]"
