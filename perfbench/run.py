"""End-to-end benchmark of the amplasso acceptance protocols.

Run from the repository root:

    python3 perfbench/run.py --workload risk_sweep --seed 0 --seconds 20 --trace 0

Each workload is a closed loop with one caller (see ``workloads.py``); the
operations of a run take their inputs from ``--seed``.  ``--trace 0``
measures the end-to-end metrics with tracing off.  ``--trace 1`` spends
half the time on untraced operations, then repeats the same operations with
the layers wrapped (``spans.py``) and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every end-to-end metric by name and unit, and the
output-check details.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
P90_MIN_SAMPLES = 100   # ten samples beyond the 90th percentile
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")

# The end-to-end metrics of BENCHMARK.json and the layer metrics of a traced
# run, with their units.  cells_per_s is the median over operations of the
# operation's cells per second: rare slow inputs (a nonconverged risk_sweep
# cell, a small spectral gap in noise_histogram) move the mean by a quarter
# between seeds, so the mean rate is printed but not gated.  ok_frac stands
# in for failed_frac, which is 0 when nothing fails.
END_TO_END = {"setup_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}
PER_LAYER = {
    "instances.gen_s": "s", "instances.gen_calls": "count",
    "instances.gen_bytes": "B_computed",
    "amp.amp_run_s": "s", "amp.amp_step_s": "s", "amp.amp_step_calls": "count",
    "amp.iterations": "count", "amp.iterations_max": "count",
    "amp.nonconverged": "count", "amp.converged_ratio": "ratio",
    "amp.matvec_bytes": "B_computed",
    "amp.operator_norm_s": "s", "amp.operator_norm_calls": "count",
    "amp.ist_solve_s": "s", "amp.ist_iterations": "count", "amp.ist_run_s": "s",
    "amp.kkt_s": "s",
    "scalar_risk.soft_threshold_s": "s", "scalar_risk.soft_threshold_calls": "count",
    "state_evolution.lasso_risk_s": "s", "state_evolution.alpha_of_lambda_s": "s",
    "state_evolution.se_run_s": "s",
    "harness.protocol_s": "s", "harness.self_s": "s", "harness.parallelism": "ratio",
    "harness.failed_cells": "count", "harness.cells": "count",
    "trace.cells_per_s": "1/s", "trace.cells_per_s_untraced": "1/s",
    "trace.overhead_frac": "ratio", "trace.attribution_err": "ratio",
}


def import_package():
    """Import the package from the checkout's src/; exit 2 if it is not there."""
    if not (ROOT / "src" / "amplasso" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads


def environment(workload, seed: int) -> dict:
    import numpy as np
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    git_sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        git_sha = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "workload": workload.name, "jobs": workload.jobs, "seed": seed,
        "git_sha": git_sha,
    }


def setup_sample(args) -> float:
    """Set-up time of a fresh interpreter: the import plus one warm-up cell."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def attempt(workload, op, base: int):
    """One operation; if it raises, all its cells count as failed."""
    from workloads import OpResult
    try:
        return op(base)
    except Exception:
        traceback.print_exc()
        return OpResult(workload.cells, workload.cells, None)


def run_ops(workload, op, bases) -> tuple[list, float]:
    start = perf_counter()
    results = [attempt(workload, op, base) for base in bases]
    return results, perf_counter() - start


def op_base(seed: int, index: int) -> int:
    """Input seed of a run's operation ``index``: base_seed or instance seed."""
    return seed * 1000 + index


def run_for(workload, seed: int, seconds: float):
    """Closed loop: start the next operation only if it should end in time."""
    results, times = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(attempt(workload, workload.op, op_base(seed, len(results))))
        end = perf_counter()
        times.append(end - t0)
        if end - start + statistics.median(times) > seconds:
            return results, times, end - start


def tally(results, check) -> tuple[int, int]:
    attempted = sum(r.cells for r in results)
    return attempted, sum(r.failed for r in results) + check.failed


def print_metric(name: str, value, unit: str) -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else value
    print(f"  {name} = {shown} {unit}")


def report_check(check) -> None:
    for name, (value, unit) in check.report.items():
        print_metric(name, value, unit)


def measure(workload, args, setup_s: float) -> dict:
    results, times, wall = run_for(workload, args.seed, args.seconds)
    check = workload.finish(results)
    attempted, failed = tally(results, check)
    metrics = {
        "setup_s": setup_s,
        "cells_per_s": statistics.median(r.cells / t for r, t in zip(results, times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    print(f"end-to-end ({len(times)} operations, {attempted} cells, {wall:.2f} s):")
    for name, value in metrics.items():
        print_metric(name, value, END_TO_END[name])
    print_metric("cells_per_s_mean", attempted / wall, "1/s")
    print_metric("op_s_p50", statistics.median(times), "s")
    if len(times) >= P90_MIN_SAMPLES:
        print_metric("op_s_p90", statistics.quantiles(times, n=10)[-1], "s")
    else:
        print(f"  op_s_p90 = n/a s ({len(times)} samples, needs {P90_MIN_SAMPLES})")
    print_metric("op_samples", len(times), "count")
    print_metric("failed_frac", failed / attempted, "ratio")
    print("output checks:")
    report_check(check)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def measure_traced(workload, args) -> dict:
    import spans

    plain, _, plain_wall = run_for(workload, args.seed, args.seconds / 2.0)
    bases = [op_base(args.seed, i) for i in range(len(plain))]
    before = spans.bindings()
    tracer = spans.Tracer()
    op = workload.op
    if workload.composed:
        op = tracer.wrap(op, spans.PROTOCOL)
    with tracer:
        traced, traced_wall = run_ops(workload, op, bases)
    after = spans.bindings()
    restored = all(after.get(key) is value for key, value in before.items())

    # The traced operations repeat the plain ones' inputs, so one pooled
    # check covers both; pooling both would count each sample twice.
    check = workload.finish(traced)
    attempted, failed = tally(plain + traced, check)
    cells = sum(r.cells for r in traced)
    layer = spans.reduce_spans(tracer, threading.get_ident())
    traced_rate = cells / traced_wall
    plain_rate = sum(r.cells for r in plain) / plain_wall
    layer["harness.failed_cells"] = sum(r.failed for r in traced) + check.failed
    layer["harness.cells"] = cells
    layer["trace.cells_per_s"] = traced_rate
    layer["trace.cells_per_s_untraced"] = plain_rate
    layer["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
    metrics = {name: layer.get(name, 0) for name in PER_LAYER}

    print(f"per-layer ({len(bases)} operations traced, {traced_wall:.2f} s):")
    for name, value in metrics.items():
        print_metric(name, value, PER_LAYER[name])
    busy = layer["harness.busy_s"]
    print(f"share of busy time ({busy:.3f} s over all threads):")
    times = sorted(k for k, unit in PER_LAYER.items() if unit == "s" and k != "harness.protocol_s")
    for name in times:
        if metrics[name] > 0:
            print(f"  {name}: {metrics[name] / busy:.1%}")
    for name, why in spans.UNTRACED_MODULES.items():
        print(f"not traced: {name} ({why})")
    for name in tracer.missing:
        print(f"not found, not traced: {name}")
    print(f"wrappers restored: {restored}")
    attributed = layer["trace.attribution_err"] < 1e-6
    print(f"child spans plus harness.self_s match each thread's protocol time: {attributed}")
    print("output checks:")
    report_check(check)
    return {"correct": failed == 0 and restored, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workload.toy().op(args.seed)
    setup_main = perf_counter() - START
    if args.setup_only:
        print(repr(setup_main))
        return 0

    print("env " + json.dumps(environment(workload, args.seed), sort_keys=True))
    if args.trace:
        result = measure_traced(workload, args)
    else:
        samples = [setup_main] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        result = measure(workload, args, statistics.median(samples))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
