"""Reference-vs-vectorized kernel throughput on the Table III workload.

Times both engines on the paper's hardest sweep point - ``n = 50`` nodes
at the RTS/CTS efficient window - and writes the measurements to
``BENCH_kernel.json`` at the repository root so CI and regression tooling
can track the speedup without parsing pytest output.

The vectorized engine is measured at the batch shape the Tables II/III
sweep actually uses (17 grid points x 4 replicas = 68 rows); its
advantage comes from amortising each virtual-slot event over the batch,
so single-row comparisons understate production speed.

The vectorized record says which path its kernel ran on
(:func:`repro.backends.kernel_note`: the compiled replay or the numpy
loop).  Both records carry the run's peak memory - Python-heap peak
from ``tracemalloc`` on a separate untimed pass, plus the process
``ru_maxrss`` high-water mark - so regressions in allocation show up
next to regressions in throughput.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the slot budget; the JSON is
still produced and a relaxed speedup floor is asserted.
"""

from __future__ import annotations

import json
import os
import resource
import time
import tracemalloc
from pathlib import Path

from repro import obs
from repro.backends import kernel_note
from repro.phy.parameters import AccessMode
from repro.sim.engine import DcfSimulator
from repro.sim.vectorized import run_batch

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_kernel.json"
OBS_PROFILE_PATH = REPO_ROOT / "BENCH_obs_profile.json"

N_NODES = 50
WINDOW = 116  # Table III RTS/CTS efficient window at n = 50
MODE = AccessMode.RTS_CTS
BATCH = 68  # 17 grid points x 4 replicas, the adaptive sweep's shape

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
N_SLOTS = 6_000 if SMOKE else 50_000
MIN_SPEEDUP = 3.0 if SMOKE else 10.0


def _peak_rss_kb() -> int:
    """Process peak RSS in kB (``ru_maxrss`` is kB on Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _traced(run) -> float:
    """Peak Python-heap MB of one untimed ``run()`` under tracemalloc."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _time_reference(params) -> dict:
    simulator = DcfSimulator([WINDOW] * N_NODES, params, MODE, seed=1)
    simulator.run(1_000)  # warm-up
    started = time.perf_counter()
    DcfSimulator([WINDOW] * N_NODES, params, MODE, seed=2).run(N_SLOTS)
    elapsed = time.perf_counter() - started
    peak_mb = _traced(
        lambda: DcfSimulator([WINDOW] * N_NODES, params, MODE, seed=2).run(
            N_SLOTS
        )
    )
    return {
        "engine": "reference",
        "batch": 1,
        "n_slots": N_SLOTS,
        "elapsed_s": elapsed,
        "slots_per_sec": N_SLOTS / elapsed,
        "peak_heap_mb": peak_mb,
        "peak_rss_kb": _peak_rss_kb(),
    }


def _time_vectorized(params) -> dict:
    windows = [[WINDOW] * N_NODES] * BATCH
    run_batch(windows, params, MODE, n_slots=500, seed=1)  # warm-up
    started = time.perf_counter()
    run_batch(windows, params, MODE, n_slots=N_SLOTS, seed=2)
    elapsed = time.perf_counter() - started
    peak_mb = _traced(
        lambda: run_batch(windows, params, MODE, n_slots=N_SLOTS, seed=2)
    )
    return {
        "engine": "vectorized",
        "kernel": kernel_note(),
        "batch": BATCH,
        "n_slots": N_SLOTS,
        "elapsed_s": elapsed,
        "slots_per_sec": BATCH * N_SLOTS / elapsed,
        "peak_heap_mb": peak_mb,
        "peak_rss_kb": _peak_rss_kb(),
    }


def test_bench_kernel_speedup(params):
    reference = _time_reference(params)
    vectorized = _time_vectorized(params)
    speedup = (
        vectorized["slots_per_sec"] / reference["slots_per_sec"]
    )
    payload = {
        "workload": {
            "n_nodes": N_NODES,
            "window": WINDOW,
            "mode": MODE.name,
            "n_slots": N_SLOTS,
            "smoke": SMOKE,
        },
        "reference": reference,
        "vectorized": vectorized,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nreference  {reference['slots_per_sec']:>12,.0f} slots/s"
        f"  (peak heap {reference['peak_heap_mb']:.1f} MB)"
        f"\nvectorized {vectorized['slots_per_sec']:>12,.0f} slots/s"
        f" (batch {BATCH}, {vectorized['kernel']},"
        f" peak heap {vectorized['peak_heap_mb']:.1f} MB)"
        f"\nspeedup    {speedup:.1f}x  [written to {RESULT_PATH}]"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized kernel only {speedup:.1f}x the reference engine "
        f"(floor {MIN_SPEEDUP}x) on n={N_NODES} {MODE.name}"
    )


# A disabled instrumentation site costs at most one null inc/observe/span
# round.  The run's own site count (every event it records under a
# MemoryRecorder) is priced at that round's cost, averaged over many
# rounds so the estimate is not a handful of timer ticks.
NULL_PRICING_ROUNDS = 2_000
MAX_NULL_OVERHEAD = 0.02


def test_bench_null_recorder_overhead(params):
    """Disabled instrumentation must cost <2% of one kernel run."""
    assert obs.enabled() is False, "bench must run with the NullRecorder"
    windows = [[WINDOW] * N_NODES] * BATCH
    run_batch(windows, params, MODE, n_slots=500, seed=1)  # warm-up
    started = time.perf_counter()
    run_batch(windows, params, MODE, n_slots=N_SLOTS, seed=2)
    kernel_s = time.perf_counter() - started

    recorder = obs.MemoryRecorder()
    with obs.use_recorder(recorder):
        run_batch(windows, params, MODE, n_slots=N_SLOTS, seed=2)
    sites = len(recorder.events)

    started = time.perf_counter()
    for _ in range(NULL_PRICING_ROUNDS):
        obs.inc("bench.noop")
        obs.observe("bench.noop", 1)
        with obs.span("bench.noop"):
            pass
    null_s = sites * (time.perf_counter() - started) / NULL_PRICING_ROUNDS

    overhead = null_s / kernel_s
    print(
        f"\n{sites} instrumentation sites at one null inc/observe/span "
        f"round each: {null_s * 1e6:.1f} us = {overhead:.3%} of one "
        f"{kernel_s * 1e3:.0f} ms kernel run (bound {MAX_NULL_OVERHEAD:.0%})"
    )
    assert overhead < MAX_NULL_OVERHEAD, (
        f"null-recorder instrumentation costs {overhead:.2%} of a kernel "
        f"run (bound {MAX_NULL_OVERHEAD:.0%})"
    )


def test_bench_obs_profile_artifact(params):
    """Profile the bench workload and write the run-profile artifact."""
    recorder = obs.MemoryRecorder()
    with obs.use_recorder(recorder):
        with obs.span("bench.kernel", smoke=SMOKE):
            run_batch(
                [[WINDOW] * N_NODES] * BATCH,
                params,
                MODE,
                n_slots=N_SLOTS,
                seed=2,
            )
    profile = obs.build_profile(
        recorder.events,
        meta={"workload": "BENCH_kernel", "smoke": SMOKE},
    )
    OBS_PROFILE_PATH.write_text(
        json.dumps(profile, indent=2, sort_keys=True) + "\n"
    )
    counters = profile["counters"]
    assert any(key.startswith("sim.slots|") for key in counters)
    assert counters["sim.runs|engine=vectorized"] == BATCH
    print(f"\nobs profile {profile['digest']} written to {OBS_PROFILE_PATH}")
