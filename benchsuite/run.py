"""Benchmark entry point: one run of one workload.

Usage, from the root of a checkout::

    python3 benchsuite/run.py --workload paper --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs it untraced and then
traced, and reports the per-layer metrics (:mod:`tracer`) with the
uncovered part of each phase and ``trace.overhead``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report, and the full record - raw beside corrected values, the
reference median, the tail percentiles with their sample counts, the
host fingerprint and the correctness checks - is written to
``.bench_runs/<workload>-seed<seed>-trace<trace>.json``.

The program must be present under ``src/repro``; without it the run
fails at once with exit code 2 and prints no result.  A run that cannot
drive the program, or outlives :data:`RUN_LIMIT_S`, stops every child
process and exits with code 1, also without a result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import host
import workloads

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "cold_s": "s", "warm_p50_ms": "ms",
    "warm_tail_ms": "ms", "cold_p50_ms": "ms", "cold_tail_ms": "ms",
    "burst_cold_ms": "ms", "burst_warm_ms": "ms", "req_per_s": "1/s",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_kb") or name.endswith(".kb"):
        return "KiB"
    if name.endswith(".ratio") or name.endswith(".fold") or name == "trace.overhead":
        return "ratio"
    return "count"


#: Wall-clock limits of one run, and of a run that builds the pre-fill.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 880


def _out_of_time(signum: int, frame: object) -> None:
    raise workloads.BenchError("the run exceeded its time limit")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("paper", "sweep", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program under {workloads.ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.ROOT / "src"))
    building = args.workload == "sweep" and not (workloads.prefill_path() / "complete").is_file()
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(BUILD_LIMIT_S if building else RUN_LIMIT_S)
    cpu = host.pin_to_one_cpu()
    started = time.perf_counter()
    with workloads.Context(args.workload, args.seed, args.seconds) as ctx:
        try:
            if args.trace:
                values, details, outcome = workloads.run_traced(ctx)
            else:
                values, details, outcome = workloads.run_untraced(ctx)
        except workloads.BenchError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
    unit = per_layer_unit if args.trace else UNITS.__getitem__
    metrics = {name: {"value": value, "unit": unit(name)} for name, value in sorted(values.items())}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "host": host.fingerprint(workloads.ROOT, cpu),
        "details": details,
        "failures": outcome.failures,
        "metrics": metrics,
    }
    runs = workloads.ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload:6s} {name:34s} {metric['value']:14.4f} {metric['unit']}")
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    print(f"record: {path.relative_to(workloads.ROOT)}")
    attempted = max(outcome.attempted, 1)
    result = {
        "correct": not outcome.failures,
        "attempted": attempted,
        "failed": min(len(outcome.failures), attempted),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
