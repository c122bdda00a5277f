"""Mean-field vs exact per-node fixed point at population scale.

The exact batched solver couples every node to every other node: each
sweep is O(n) per instance and the whole population must be
materialised per lane.  The mean-field solver collapses exchangeable
nodes into K *types* - O(K) per sweep whatever the population - and is
exact (not approximate) for integer counts.  This benchmark times both
engines on the same K-type mixture across population sizes
``10^3 .. 10^6`` and writes ``BENCH_meanfield.json`` at the repository
root, mirroring ``BENCH_kernel.json``.

Two contracts are asserted alongside the timings:

* **agreement** - mean-field tau matches the exact per-node solver
  within 1e-9 on a down-sampled population (measured ~1e-13);
* **speedup** - at the largest population the mean-field engine is at
  least 100x the exact engine per solve.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to stop the scan at ``10^5`` nodes;
the JSON is still produced and the same 100x floor is asserted at the
reduced scale.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bianchi.batched import solve_heterogeneous_batch
from repro.bianchi.meanfield import expand_types, solve_mean_field_batch

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_meanfield.json"

MAX_STAGE = 5

#: K = 8 contention-window types and their population shares.
TYPE_WINDOWS = np.array(
    [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0]
)
TYPE_SHARES = np.array([0.30, 0.25, 0.15, 0.10, 0.08, 0.06, 0.04, 0.02])

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
POPULATIONS = (
    (1_000, 10_000, 100_000)
    if SMOKE
    else (1_000, 10_000, 100_000, 1_000_000)
)
#: Populations small enough to expand for the 1e-9 agreement check.
AGREEMENT_POPULATIONS = (200,) if SMOKE else (200, 2_000)
#: Exact-solver repetitions per population (amortise timer noise).
EXACT_REPEATS = 2 if SMOKE else 3
MEANFIELD_REPEATS = 50
#: Mean-field lanes per call: the engine's production shape.  The serve
#: micro-batcher, campaign sweeps and the replicator loop all hand the
#: solver a ``(B, K)`` stack, so per-solve throughput is measured on a
#: small batch; the solo ``B = 1`` rate is recorded alongside.  The
#: exact engine is timed at ``B = 1`` because its lanes carry the whole
#: population (8 lanes of 10^6 nodes would not fit in memory - which is
#: the point of the mean-field reduction).
MEANFIELD_LANES = 8
MIN_SPEEDUP = 100.0
MAX_TAU_DIFF = 1e-9
#: Keep the exact solver on the O(n)-per-sweep fixed-point/Anderson
#: path: its Newton fallback builds an (n, n) Jacobian, which at
#: n = 10^6 would be an 8 TB array.
EXACT_MAX_ITERATIONS = 500_000


def _type_counts(population: int) -> np.ndarray:
    """Integer per-type counts summing exactly to ``population``."""
    counts = np.floor(TYPE_SHARES * population).astype(int)
    counts[0] += population - int(counts.sum())
    return counts.astype(float)


def _time_exact(population: int) -> dict:
    per_node = expand_types(TYPE_WINDOWS, _type_counts(population))
    windows = per_node[None, :]
    solve_heterogeneous_batch(
        windows, MAX_STAGE, max_iterations=EXACT_MAX_ITERATIONS
    )  # warm-up
    started = time.perf_counter()
    for _ in range(EXACT_REPEATS):
        solution = solve_heterogeneous_batch(
            windows, MAX_STAGE, max_iterations=EXACT_MAX_ITERATIONS
        )
    elapsed = time.perf_counter() - started
    assert not solution.newton.any(), (
        "exact solver fell back to Newton; timings would not be O(n)"
    )
    return {
        "engine": "exact",
        "population": population,
        "repeats": EXACT_REPEATS,
        "elapsed_s": elapsed,
        "solves_per_sec": EXACT_REPEATS / elapsed,
        "iterations": int(solution.iterations[0]),
    }


def _time_meanfield(population: int) -> dict:
    solo_w = TYPE_WINDOWS[None, :]
    solo_n = _type_counts(population)[None, :]
    windows = np.repeat(solo_w, MEANFIELD_LANES, axis=0)
    counts = np.repeat(solo_n, MEANFIELD_LANES, axis=0)
    solve_mean_field_batch(windows, counts, MAX_STAGE)  # warm-up
    started = time.perf_counter()
    for _ in range(MEANFIELD_REPEATS):
        solution = solve_mean_field_batch(windows, counts, MAX_STAGE)
    elapsed = time.perf_counter() - started
    started_solo = time.perf_counter()
    for _ in range(MEANFIELD_REPEATS):
        solve_mean_field_batch(solo_w, solo_n, MAX_STAGE)
    elapsed_solo = time.perf_counter() - started_solo
    return {
        "engine": "mean-field",
        "population": population,
        "n_types": int(TYPE_WINDOWS.shape[0]),
        "lanes": MEANFIELD_LANES,
        "repeats": MEANFIELD_REPEATS,
        "elapsed_s": elapsed,
        "solves_per_sec": MEANFIELD_LANES * MEANFIELD_REPEATS / elapsed,
        "solo_solves_per_sec": MEANFIELD_REPEATS / elapsed_solo,
        "iterations": int(solution.iterations[0]),
        "newton": bool(solution.newton[0]),
    }


def _agreement(population: int) -> float:
    """Max |dtau| between mean-field and exact on an expandable n."""
    counts = _type_counts(population)
    mean_field = solve_mean_field_batch(
        TYPE_WINDOWS[None, :], counts[None, :], MAX_STAGE
    )
    per_node = expand_types(TYPE_WINDOWS, counts)
    exact = solve_heterogeneous_batch(per_node[None, :], MAX_STAGE)
    mean_field_per_node = np.repeat(
        mean_field.tau[0], counts.astype(int)
    )
    return float(np.max(np.abs(mean_field_per_node - exact.tau[0])))


def test_bench_meanfield_speedup():
    rows = []
    for population in POPULATIONS:
        exact = _time_exact(population)
        mean_field = _time_meanfield(population)
        rows.append(
            {
                "population": population,
                "exact": exact,
                "mean_field": mean_field,
                "speedup": (
                    mean_field["solves_per_sec"] / exact["solves_per_sec"]
                ),
            }
        )
    agreement = {
        str(population): _agreement(population)
        for population in AGREEMENT_POPULATIONS
    }
    top = rows[-1]
    payload = {
        "workload": {
            "type_windows": TYPE_WINDOWS.tolist(),
            "type_shares": TYPE_SHARES.tolist(),
            "max_stage": MAX_STAGE,
            "populations": list(POPULATIONS),
            "smoke": SMOKE,
        },
        "rows": rows,
        "agreement_max_tau_diff": agreement,
        "max_tau_diff_limit": MAX_TAU_DIFF,
        "top_population": top["population"],
        "top_speedup": top["speedup"],
        "min_speedup": MIN_SPEEDUP,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    lines = [
        f"n={row['population']:>9,}  exact "
        f"{row['exact']['solves_per_sec']:>10,.1f}/s  mean-field "
        f"{row['mean_field']['solves_per_sec']:>10,.1f}/s  "
        f"speedup {row['speedup']:>10,.1f}x"
        for row in rows
    ]
    worst_agreement = max(agreement.values())
    lines.append(
        f"agreement max |dtau| {worst_agreement:.2e}"
        f"  [written to {RESULT_PATH}]"
    )
    print("\n" + "\n".join(lines))
    assert worst_agreement <= MAX_TAU_DIFF, (
        f"mean-field drifted {worst_agreement:.2e} from the exact "
        f"per-node solver (limit {MAX_TAU_DIFF:.0e})"
    )
    assert top["speedup"] >= MIN_SPEEDUP, (
        f"mean-field only {top['speedup']:.1f}x the exact solver at "
        f"n={top['population']} (floor {MIN_SPEEDUP}x)"
    )
