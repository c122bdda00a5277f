"""Per-function drill-down of one workload's cold phase, on demand.

Usage, from the root of a checkout::

    python3 benchsuite/drilldown.py --workload paper [--top 25]
    python3 benchsuite/drilldown.py --workload sweep --seed 3

Runs the cold phase (``run-all`` on an empty store, or the seeded
``campaign run`` into the pre-filled store) once under ``cProfile`` in a
fresh, pinned interpreter and lists the functions with the most self
time.  This is the view below the per-layer spans: the layer tells
where to look, the profile which function.  ``cProfile`` charges a cost
to every Python call but none to work inside native code, so it shifts
the proportions; find candidates here, then measure them with
``run.py``.  It never runs inside a timed or traced run.
"""

from __future__ import annotations

import argparse
import pstats
import sys

import host
import workloads


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    if not (workloads.ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program under {workloads.ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    host.pin_to_one_cpu()
    with workloads.Context(args.workload, args.seed, seconds=1) as ctx:
        store = workloads.fresh_store(ctx, "store")
        profile = ctx.work / "cold.prof"
        extra = ["--bodies", str(ctx.work / "bodies.json")]
        if args.workload == "sweep":
            workloads.write_sweep_inputs(ctx, 1)
            extra = ["--spec", str(ctx.work / "sweep.json"),
                     "--tasks", str(workloads.SWEEP_TASKS)]
        child = ctx.spawn(
            args.workload, "--store", str(store), "--out", str(ctx.work / "out.json"),
            "--cold", "--profile", str(profile), *extra,
        )
        ctx.expect(child, "ready")
        ctx.send(child)
        ctx.expect(child, "cold-end")
        ctx.send(child)
        ctx.finish(child)
        stats = pstats.Stats(str(profile), stream=sys.stdout)
        stats.strip_dirs().sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
