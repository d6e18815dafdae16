"""matchcert benchmark: one workload, one run, one JSON line at the end.

    python3 perfbench/run.py --workload coverage-2k --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and keeps its scratch files under ``.perfbench_work/``.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics
(operation throughput and latency, set-up time, peak memory). With
``--trace 1`` it runs a fixed amount of work in steps that alternate
between untraced and traced, the latter with spans recorded around each
layer's public functions (see ``spans.py``), and reports per-layer call
counts, self-time shares and the tracing overhead. Either way it checks the program's outputs, prints readable
lines first and ends with one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
COLD_REPEATS = 3

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

TRACE_EXTRA_UNITS = {
    "matchers.run_batch.distinct": "count",
    "matchers.run_batch.distinct_pct": "%",
    "trace.spans": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "bounds.exact_cold_s": "s",
}


def per_layer_units() -> dict[str, str]:
    import spans

    units = {}
    for name in spans.traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_pct"] = "%"
    units.update(TRACE_EXTRA_UNITS)
    return units


def metadata(args) -> dict:
    import numpy

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        sha = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb(workload) -> float:
    import workloads

    who = resource.RUSAGE_CHILDREN if workload is workloads.Pipeline else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def report_lines(outcome, named: dict) -> None:
    for name, (value, unit) in named.items():
        print(f"{name}: {value!r} {unit}")
    attempted = max(outcome.attempted, 1)
    print(f"failed_frac: {outcome.failed / attempted!r} ({outcome.failed}/{outcome.attempted})")
    print("info " + json.dumps(outcome.info, sort_keys=True))
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}")


def op_metrics(outcome, raw: bool) -> dict:
    times = outcome.op_times(raw)
    if not times:
        return {}
    return {
        "ops_per_s": len(times) / (sum(times) + outcome.failed_time(raw)),
        "op_p50_s": statistics.median(times),
        "op_p90_s": quantile(times, 0.9),
    }


def e2e_run(workload, args) -> dict:
    import workloads

    outcome = workloads.new_outcome(workload)
    if workload is workloads.Pipeline:
        w = workload(args.seed)
        w.loop(outcome, seconds=args.seconds, setup_repeats=SETUP_REPEATS)
        w.repeat_match(outcome)
        setup = w.setup_times
    else:
        setup = workloads.setup_times(workload.name, args.seed, outcome.probe, SETUP_REPEATS)
        w = workload(args.seed)
        w.loop(outcome, seconds=args.seconds)
    w.check(outcome)
    if workload is workloads.Pipeline:
        shutil.rmtree(w.dir, ignore_errors=True)

    # The JSON line carries times scaled to reference speed (see
    # workloads.SpeedProbe); the raw wall-clock figures are printed too.
    metrics = op_metrics(outcome, raw=False)
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = peak_rss_mb(workload)
    named = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
    if outcome.completed:
        named.update(w.named_metrics(outcome, metrics))
    named["completed_ops"] = (len(outcome.completed), "count")
    print(f"machine speed: probe at {outcome.probe.speed():.3f}x its reference time")
    print("raw " + json.dumps(op_metrics(outcome, raw=True), sort_keys=True))
    report_lines(outcome, named)
    return {
        "correct": not outcome.problems and len(metrics) == len(E2E_UNITS),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


def traced_run(workload, args) -> dict:
    import spans
    import workloads

    w = workload(args.seed)
    cold = statistics.median(
        workloads.cold_exact_child(workload.cold_n) for _ in range(COLD_REPEATS)
    )
    tracer = spans.Tracer()
    untraced, traced = workloads.new_outcome(workload), workloads.new_outcome(workload)
    # Untraced and traced steps alternate over the same work, so a change of
    # machine speed during the run hits both sides alike.
    for step in range(w.trace_steps):
        for outcome in (untraced, traced):
            w.rewind(step)
            if outcome is traced:
                if workload is workloads.Pipeline:
                    w.tracer = tracer
                else:
                    tracer.install()
            try:
                w.loop(outcome, count=w.step_ops)
            finally:
                tracer.uninstall()
                if workload is workloads.Pipeline:
                    w.tracer = None
    w.check(traced)
    if workload is workloads.Coverage and w.records[0::2] != w.records[1::2]:
        traced.problems.append("traced trials differ from untraced ones")
    if workload is workloads.Pipeline:
        shutil.rmtree(w.dir, ignore_errors=True)

    untraced_s = sum(untraced.op_times()) + untraced.failed_time()
    traced_s = sum(traced.op_times()) + traced.failed_time()
    # Spans hold raw wall times, so their shares are taken of the raw total.
    traced_raw_s = sum(traced.op_times(raw=True)) + traced.failed_time(raw=True)
    by_name = spans.per_name(tracer.spans)
    metrics = {}
    for name in spans.traced_names():
        calls, self_s = by_name.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_pct"] = 100.0 * self_s / traced_raw_s
    batches = metrics["matchers.run_batch.calls"]
    distinct = tracer.counters[spans.DISTINCT_BATCHES]
    metrics["matchers.run_batch.distinct"] = distinct
    metrics["matchers.run_batch.distinct_pct"] = 100.0 * distinct / batches if batches else 0.0
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    metrics["bounds.exact_cold_s"] = cold

    workloads.WORK.mkdir(exist_ok=True)
    spans_path = workloads.WORK / f"spans-{workload.name}-s{args.seed}.json"
    tracer.dump(spans_path, metadata(args))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    for name, (calls, self_s) in sorted(by_name.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name}: calls {calls}, self {self_s:.6f} s (wall clock)")
    for missing in tracer.missing:
        print(f"  not traced (absent): {missing}")
    print(f"tracing overhead: {traced_s - untraced_s:.4f} s over {untraced_s:.4f} s untraced")
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.problems += untraced.problems
    report_lines(traced, {})
    units = per_layer_units()
    return {
        "correct": not traced.problems,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("coverage-2k", "pipeline-5k", "bounds-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload's set-up in this process and exit")
    args = parser.parse_args(argv)

    if not (SRC / "matchcert" / "__init__.py").is_file():
        print(f"perfbench: no matchcert package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        w = workload(args.seed)
        if workload is workloads.Pipeline:
            w.setup_samples()
        return 0

    print("meta " + json.dumps(metadata(args), sort_keys=True))
    result = traced_run(workload, args) if args.trace else e2e_run(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
