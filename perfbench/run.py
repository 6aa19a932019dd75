"""crfqp benchmark: one workload per process, one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload scene-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

The library is imported from ``src/`` beside this directory; without it
the benchmark exits with status 2 and prints no result.  BLAS and
OpenMP pools are capped at one thread before numpy loads.

With ``--trace 0`` the run builds its inputs from the seed, warms up,
then sends requests one after another until ``--seconds`` of wall time
have passed (and at least the workload's quality window and a whole
round of its input pool are done).  Every request's outputs are checked
after it returns, outside its timing; a request that raises or fails a
check counts as failed.  All times are CPU time of this process (see
``spans.CLOCK``).  Request times are scaled to a reference machine
speed: the run times the fixed kernel of ``calibrate.py`` before every
request and multiplies them by ``calibrate.REFERENCE_MS`` over the
kernel's median (the unscaled figures are printed as well); set-up time
is not scaled.  The last line of stdout is ``{"correct", "attempted",
"failed", "metrics"}`` with the end-to-end metrics; lines before it,
starting with ``#``, give the environment, the calibration, the error
rate, the latency p90 when the run holds at least 100 requests,
wall-clock figures and the deterministic fingerprint.  A run whose seed
has a fingerprint recorded in ``baseline.json`` must reproduce it, or it
is not correct.

With ``--trace 1`` every request runs twice, untraced and with spans
recorded around calls into every crfqp module (see ``spans.py``), in
alternating order.  The result line holds the per-layer metrics; the
gap between the two kinds of run is the tracing overhead.  Spans are
written to ``.perfbench_out/`` at exit.

``--workload all`` runs every workload in its own child process, one
after another, and prints each one's result.
"""

import sys

# Compile the library afresh in every run, so the first run in a new
# checkout pays the same set-up as the later ones.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from spans import CLOCK  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = HERE / "baseline.json"
WORKLOAD_NAMES = ("scene-sweep", "large-grid", "problem-files")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Latency p90 is reported only when at least ten samples lie beyond it.
P90_MIN_REQUESTS = 100

# Interpreter start and imports are timed in this process and in this
# many fresh ones, and set-up counts their median.
IMPORT_PROBES = 4

# The end-to-end metrics of the timed loop that are times or rates, and
# so are scaled.
TIMED = ("latency_p50_ms", "requests_per_s", "qp_ms_p50", "cqp_ms_p50", "lbp_ms_p50")

UNITS = {
    "latency_p50_ms": "ms",
    "requests_per_s": "1/s",
    "qp_ms_p50": "ms",
    "cqp_ms_p50": "ms",
    "lbp_ms_p50": "ms",
    "qp_macro_f1": "ratio",
    "cqp_macro_f1": "ratio",
    "mean_objective_per_node": "score",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_library():
    """Import crfqp from this checkout's src/, or exit 2."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import crfqp
    except ImportError as exc:
        print(f"perfbench: cannot import crfqp from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(crfqp.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: crfqp came from {crfqp.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


def _import_seconds():
    """CPU seconds from interpreter start to the library imported: the
    median over this process and IMPORT_PROBES fresh interpreters that
    import the same modules the same way."""
    times = [CLOCK()]
    probe = (
        "import sys, time; sys.dont_write_bytecode = True; "
        f"sys.path.insert(0, {str(HERE)!r}); "
        "import run; run._import_library(); print(time.process_time())"
    )
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Harness:
    """Closed loop: the next request starts when the last one returned."""

    def __init__(self, workload, tap, calibration):
        self.workload = workload
        self.tap = tap
        self.calibration = calibration
        self.failures = []

    def one(self, index, inp, tracer=None):
        """Run and check one request.

        Returns (CPU seconds, wall seconds, outcome or None on failure).
        """
        self.tap.take()
        wall = time.perf_counter()
        start = CLOCK()
        try:
            if tracer is None:
                raw = self.workload.run(inp)
            else:
                with tracer.unit(f"request-{index}", "request"):
                    raw = self.workload.run(inp)
            spent = CLOCK() - start
            wall = time.perf_counter() - wall
            outcome = self.workload.check(inp, raw, self.tap.take())
        except Exception:  # a failed request is counted, the loop goes on
            spent = CLOCK() - start
            wall = time.perf_counter() - wall
            self.failures.append(f"request {index}: {traceback.format_exc()}")
            return spent, wall, None
        if outcome.errors:
            self.failures.append(f"request {index}: " + "; ".join(outcome.errors))
            return spent, wall, None
        return spent, wall, outcome

    def loop(self, seconds, min_requests, round_size, tracer=None):
        """Requests until ``seconds`` of wall time have passed and at least
        ``min_requests`` and a whole round of the input pool are done.

        With a tracer every request runs twice, untraced and traced, in
        alternating order, so that drift in machine speed falls on both
        alike.  Returns one (CPU seconds, wall seconds, outcomes) triple of
        lists for the untraced runs and one for the traced runs.
        """
        runs = {False: ([], [], []), True: ([], [], [])}
        modes = (False, True) if tracer is not None else (False,)
        wall_total = 0.0
        index = 0
        while not (
            wall_total >= seconds and index >= min_requests and index % round_size == 0
        ):
            inp = self.workload.request_input(index)
            self.calibration.sample()
            for traced in modes if index % 2 == 0 else modes[::-1]:
                if traced:
                    tracer.install()
                try:
                    result = self.one(index, inp, tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                for column, value in zip(runs[traced], result):
                    column.append(value)
                wall_total += result[1]
            index += 1
        return runs[False], runs[True]


def _fingerprint(outcomes, window):
    rows = [o.fingerprint if o else None for o in outcomes[:window]]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    totals = {}
    for row in rows:
        for key, value in (row or {}).items():
            totals[key] = totals.get(key, 0) + value
    return {"requests": len(rows), "sha256": digest[:16], "totals": totals}


def _recorded_fingerprint(workload, seed):
    try:
        with open(BASELINE, encoding="utf-8") as handle:
            recorded = json.load(handle).get("fingerprints", {})
    except FileNotFoundError:
        return None
    return recorded.get(workload, {}).get(str(seed))


def _median_ms(values):
    return 1e3 * statistics.median(values)


def _end_to_end(latencies, outcomes, window, setup_s, scale):
    """The end-to-end metrics, every request time multiplied by ``scale``.

    Set-up time is not scaled: the kernel's speed in the timed loop did
    not track it (over ten large-grid runs the set-up spread was 0.05
    unscaled and 0.23 scaled)."""
    good = [o for o in outcomes if o is not None]
    quality = [o for o in outcomes[:window] if o is not None]

    def med(attr):
        return statistics.median(getattr(o, attr) for o in good) if good else 0.0

    def mean(attr):
        return statistics.fmean(getattr(o, attr) for o in quality) if quality else 0.0

    return {
        "latency_p50_ms": scale * _median_ms(latencies),
        "requests_per_s": len(latencies) / (scale * sum(latencies)),
        "qp_ms_p50": scale * med("qp_ms"),
        "cqp_ms_p50": scale * med("cqp_ms"),
        "lbp_ms_p50": scale * med("lbp_ms"),
        "qp_macro_f1": mean("qp_f1"),
        "cqp_macro_f1": mean("cqp_f1"),
        "mean_objective_per_node": mean("objective_per_node"),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_s,
    }


def _p90_line(latencies, scale):
    if len(latencies) < P90_MIN_REQUESTS:
        return f"# latency_p90_ms: not reported, {len(latencies)} < {P90_MIN_REQUESTS} requests"
    import numpy

    p90 = 1e3 * scale * float(numpy.percentile(latencies, 90))
    return f"# latency_p90_ms: {p90:.3f} ms"


def run_workload(args):
    workloads = _import_library()
    import calibrate

    import_s = _import_seconds()
    calibration = calibrate.Calibration()

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        tap = spans.Tap()
        tap.install()
        try:
            result, extra = _measure(args, workload, tap, tracer, import_s, calibration)
        finally:
            tap.uninstall()
    env = _environment()
    print("# env " + json.dumps(env, sort_keys=True))
    for line in extra.pop("lines"):
        print(line)
    record = {"workload": args.workload, "seed": args.seed, "env": env, **extra, **result}
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"spans-{tag}.json")
    print(json.dumps(result))
    return 0


def _measure(args, workload, tap, tracer, import_s, calibration):
    harness = Harness(workload, tap, calibration)
    build_s = []
    if tracer is not None:
        tracer.install()
    try:
        for index in range(workload.inputs):
            start = CLOCK()
            if tracer is None:
                workload.build_input(index)
            else:
                with tracer.unit(f"setup-{index}", "setup"):
                    workload.build_input(index)
            build_s.append(CLOCK() - start)
    finally:
        if tracer is not None:
            tracer.uninstall()
    start = CLOCK()
    _, _, warm = harness.one(-1, workload.warm_input())
    warm_s = CLOCK() - start
    # Set-up is timed per input, and imports per interpreter, and the
    # median stands for each of them, so one slow moment does not move
    # the figure.
    setup_s = import_s + warm_s
    if build_s:
        setup_s += len(build_s) * statistics.median(build_s)

    window = workload.window
    (latencies, walls, outcomes), traced = harness.loop(
        args.seconds, window, max(1, workload.inputs), tracer
    )
    scale = calibration.scale()
    lines = [
        f"# calibration: kernel median {calibration.median_ms():.3f} ms over "
        f"{len(calibration.samples)} calls, reference {calibration.reference_ms} ms, "
        f"time scale {scale:.5f}"
    ]
    extra = {}
    if tracer is not None:
        traced_lat, _, traced_out = traced
        outcomes_all = outcomes + traced_out
        metrics = spans.layer_metrics(tracer.spans, "request", "setup", scale)
        untraced_rps = len(latencies) / (scale * sum(latencies))
        traced_rps = len(traced_lat) / (scale * sum(traced_lat))
        metrics["trace.untraced_requests_per_s"] = untraced_rps
        metrics["trace.traced_requests_per_s"] = traced_rps
        metrics["trace.overhead_pct"] = 100.0 * (untraced_rps / traced_rps - 1.0)
        attempted = len(outcomes_all)
        if metrics["trace.selftime_residual_ms"] > 1e-3:
            harness.failures.append("span self times do not add up to request time")
        units = spans.UNITS
    else:
        outcomes_all = outcomes
        metrics = _end_to_end(latencies, outcomes, window, setup_s, scale)
        attempted = len(latencies)
        units = UNITS
        unscaled = _end_to_end(latencies, outcomes, window, setup_s, 1.0)
        lines.append(
            "# unscaled CPU time: "
            + ", ".join(f"{name} {unscaled[name]:.6g}" for name in TIMED)
        )
        lines.append(_p90_line(latencies, scale))
        lines.append(
            f"# wall clock: latency p50 {_median_ms(walls):.3f} ms, "
            f"{len(walls) / sum(walls):.4f} requests/s over {sum(walls):.2f} s"
        )

    failed = sum(1 for o in outcomes_all if o is None)
    correct = warm is not None and failed == 0 and not harness.failures
    fingerprint = _fingerprint(outcomes, window)
    recorded = _recorded_fingerprint(args.workload, args.seed)
    if recorded is not None and recorded != fingerprint:
        correct = False
        harness.failures.append(
            f"FINGERPRINT MISMATCH for {args.workload} seed {args.seed}: "
            f"recorded {json.dumps(recorded)}, got {json.dumps(fingerprint)}"
        )
    for failure in harness.failures[:5]:
        print(f"perfbench: {failure}", file=sys.stderr)
    if len(harness.failures) > 5:
        print(f"perfbench: {len(harness.failures) - 5} more failures", file=sys.stderr)

    lines.append(f"# requests {attempted}, failed {failed}, error_rate {failed / attempted:.6f}")
    lines.append("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for name, value in metrics.items():
        lines.append(f"# {name} = {value:.6g} {units[name]}")
    extra.update(
        lines=lines,
        fingerprint=fingerprint,
        error_rate=failed / attempted,
        setup={"import_s": import_s, "warm_s": warm_s, "build_s": build_s},
        calibration_s=calibration.samples,
        time_scale=scale,
        latencies_cpu_s=latencies,
        latencies_wall_s=walls,
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return result, extra


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"# {name}: exited with {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, cell in result["metrics"].items():
            print(f"{name:<14} {metric:<36} {cell['value']:>14.6g} {cell['unit']}")
        status = status or (0 if result["correct"] else 1)
    return status


def main(argv=None):
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
