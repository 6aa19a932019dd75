"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs ``run.py`` once per seed on one workload, one run at a time, and
prints for every end-to-end metric the median over the runs and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from ``BENCHMARK.json``.

    python3 perfbench/spread.py --workload large-grid --seeds 0-9

It also checks that every run was correct and that two runs with the
same seed report the same fingerprint.  With ``--record`` it writes the
runs' fingerprints, medians and spreads for the workload into
``baseline.json``, replacing what was recorded for it before; ``run.py``
then fails any later run whose seed has a recorded fingerprint that it
does not reproduce.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(workload, seed, seconds):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    tagged = {
        tag: json.loads(line[len(f"# {tag} "):])
        for line in lines
        for tag in ("env", "fingerprint")
        if line.startswith(f"# {tag} ")
    }
    return json.loads(lines[-1]), tagged["fingerprint"], tagged["env"]


def _write_baseline(path, baseline):
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--record", action="store_true", help="write the results into baseline.json"
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline_path = HERE / "baseline.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if args.record:
        baseline["fingerprints"].pop(args.workload, None)
        _write_baseline(baseline_path, baseline)

    values = {name: [] for name in bounds}
    fingerprints = {}
    ok = True
    for seed in _seeds(args.seeds):
        result, fingerprint, env = _run(args.workload, seed, seconds)
        ok = ok and result["correct"] and result["failed"] == 0
        if fingerprints.setdefault(seed, fingerprint) != fingerprint:
            print(f"seed {seed}: fingerprint changed between runs")
            ok = False
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()),
            flush=True,
        )

    summary = {}
    print(f"\n{'metric':<26}{'median':>12}{'spread':>9}{'bound':>8}  within")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        summary[name] = {"median": median, "spread": spread, "values": vals}
        verdict = "bound/3" if spread < bounds[name] / 3 else (
            "bound" if spread <= bounds[name] else "NO"
        )
        print(f"{name:<26}{median:>12.5g}{spread:>9.4f}{bounds[name]:>8.3f}  {verdict}")
    out = ROOT / ".perfbench_out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if args.record and ok:
        baseline["fingerprints"][args.workload] = {
            str(seed): fp for seed, fp in fingerprints.items()
        }
        baseline["runs"][args.workload] = {
            "seeds": list(fingerprints),
            "run_seconds": seconds,
            "env": env,
            "metrics": {
                name: {"median": s["median"], "spread": s["spread"]}
                for name, s in summary.items()
            },
        }
        _write_baseline(baseline_path, baseline)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
