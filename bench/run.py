"""plrefine benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload calib --seed 0 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The program under test is imported from ``src/`` next to this
directory, so the benchmark always measures the checkout it sits in.

A run sets up (imports, input generation and ``.ple`` writing repeated
SETUP_REPEATS times, one warm-up unit that also fixes the reference output),
then runs units until ``--seconds`` have passed and the workload has made
its minimum number of units, checking every unit's output. ``run_s`` is the
fastest untraced unit; the median and tail are printed beside it. With
``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` units alternate between traced and untraced, and the last
line holds the per-layer metrics and the tracing overhead. Details, the
environment record and (traced runs) the spans go to ``.plbench/`` at the
repository root.

Exit codes: 0 when every unit passed its check; 1 when a unit failed its
check (the result is still printed, with ``"correct": false``); nonzero
without a result when the benchmark cannot set up, for example outside a
full checkout.
"""

import time

# Taken before every other import, so setup_s includes them.
T_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".plbench"

# Input builds per set-up; setup_s takes their median.
SETUP_REPEATS = 3

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "test_acc": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("calib", "fullscale", "select"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny shapes, for the benchmark's smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def environment() -> dict:
    """Where the numbers came from: commit, cores, versions, BLAS threads."""
    import numpy

    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0


def percentile_summary(times) -> dict:
    """Fastest unit, median, sample count and the highest nearest-rank
    percentile that leaves at least ten samples above it (None below 21
    samples)."""
    n = len(times)
    ordered = sorted(times)
    p = (100 * (n - 10)) // n if n > 10 else 0
    summary = {"n": n, "min": ordered[0], "median": statistics.median(ordered), "percentile": None, "value": None}
    if p > 50:
        rank = -(-p * n // 100)
        summary.update(percentile=p, value=ordered[rank - 1])
    return summary


def run(args, work_dir: str, import_s: float) -> int:
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    workload = workloads.Workload(args.workload, args.seed, args.toy, work_dir)

    prepare_s = []
    for _ in range(SETUP_REPEATS):
        with tracer.active("setup") if tracer else nullcontext():
            start = time.perf_counter()
            workload.prepare()
            prepare_s.append(time.perf_counter() - start)
    workload.clear_outputs()
    start = time.perf_counter()
    outputs = workload.unit()
    warmup_s = time.perf_counter() - start
    setup_s = import_s + statistics.median(prepare_s) + warmup_s
    reference = workload.fingerprint()
    test_acc = workload.test_acc(outputs)
    pl_acc = workload.pl_acc(outputs)

    problems = {"warm-up": workload.check(outputs)}
    times = {False: [], True: []}
    cpu_times = {False: [], True: []}
    attempted = 1
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        label = f"unit {attempted}"
        try:
            workload.clear_outputs()
            with tracer.active(attempted) if traced else nullcontext():
                start = time.perf_counter()
                cpu_start = time.process_time()
                outputs = workload.unit()
                elapsed = time.perf_counter() - start
                cpu_times[traced].append(time.process_time() - cpu_start)
            times[traced].append(elapsed)
            found = workload.check(outputs)
            if workload.fingerprint() != reference:
                found.append("output bytes differ from the first unit's")
            problems[label] = found
        except Exception:  # a failing unit is counted, and the run goes on
            problems[label] = [traceback.format_exc()]
        attempted += 1
        done = time.perf_counter() - loop_start >= args.seconds
        if done and attempted - 1 >= workload.min_units:
            break

    failed = sum(1 for found in problems.values() if found)
    for label, found in problems.items():
        for problem in found:
            print(f"check failed ({label}): {problem}", file=sys.stderr)
    untraced = times[False]
    if not untraced or (args.trace and not times[True]):
        print("no unit completed; nothing to report", file=sys.stderr)
        return 1

    summary = percentile_summary(untraced)
    if args.trace:
        traced_s = min(times[True])
        metrics = tracer.layer_metrics(len(times[True]), SETUP_REPEATS)
        metrics["pseudolabels.pl_acc"] = pl_acc
        metrics["trace.run_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - summary["min"]
        metrics["trace.spans"] = sum(1 for span in tracer.spans if span[1] != "setup") / len(times[True])
        units = tracing.metric_units()
    else:
        metrics = {
            "run_s": summary["min"],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "test_acc": test_acc,
        }
        units = E2E_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "environment": environment(),
        "jobs": 1,
        "run_s": summary,
        "unit_times_s": untraced,
        "traced_unit_times_s": times[True],
        "unit_cpu_s": cpu_times[False],
        "setup": {"import_s": import_s, "prepare_s": prepare_s, "warmup_s": warmup_s},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": {label: found for label, found in problems.items() if found},
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if tracer:
        tracer.write(str(OUT / f"{stem}.spans.jsonl"))

    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    pct = summary["percentile"]
    tail = f", p{pct} {summary['value']:.4f} s" if pct else "; no percentile has ten samples beyond it"
    print(
        f"run_s: fastest {summary['min']:.4f} s, median {summary['median']:.4f} s"
        f" over {summary['n']} untraced units{tail}"
    )
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f} ratio")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "plrefine" / "__init__.py").is_file():
        print(f"plrefine sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import plrefine
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if Path(plrefine.__file__).resolve().parent != SRC / "plrefine":
        print(f"imported plrefine from {plrefine.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        return run(args, work_dir, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
