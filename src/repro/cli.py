"""Command-line interface for the reproduction.

Installed as ``repro-experiments``::

    repro-experiments list                    # every registered experiment
    repro-experiments backends                # which simulator path runs, and why
    repro-experiments run table2              # regenerate one artefact
    repro-experiments run table2 --quick      # reduced simulation size
    repro-experiments run table3 --jobs 4     # sweep on 4 worker processes
    repro-experiments run-all --quick         # the whole evaluation
    repro-experiments store ls                # stored runs, newest first
    repro-experiments store show <digest>     # manifest + rendered artefact
    repro-experiments store diff <a> <b>      # field-level run delta
    repro-experiments store gc --keep 3       # retention per experiment
    repro-experiments campaign run sweep.toml # declarative cached sweep
    repro-experiments campaign run sweep.toml --shard 0/4 --writer-id w0
    repro-experiments campaign status sweep.toml
    repro-experiments obs summary [<digest>]  # run-profile of a stored run
    repro-experiments obs diff <a> <b>        # profile delta (timings excluded)
    repro-experiments obs export <digest>     # raw profile JSON
    repro-experiments run meanfield           # mean-field population study
    repro-experiments detect screen --nodes 100000   # misbehavior screening
    repro-experiments serve --port 8351       # equilibrium-as-a-service
    repro-experiments bench-serve             # serving benchmark -> JSON
    repro-experiments verify --box tableII-small   # certify the claims
    repro-experiments verify --theorem theorem2 --checkers interval,numeric

The quick overrides mirror ``examples/reproduce_paper.py``.  ``--jobs``
fans the sweep experiments out over a process pool
(:mod:`repro.experiments.parallel`); per-task seeds are spawned from the
experiment's root seed before dispatch, so the artefacts are bit-identical
whatever the worker count (``--jobs 0`` means one worker per CPU).

``run``/``run-all`` route through the content-addressed results store
(:mod:`repro.store`): a repeated invocation with the same parameters is
served from disk and labelled ``[cached <digest>]``; ``--no-cache``
forces recomputation and ``--store DIR`` overrides the store location
(default ``$REPRO_STORE_DIR`` or ``./.repro-store``).

Every executed ``run``/``run-all`` records through :mod:`repro.obs` and
stores the resulting run profile (``profile.json``) next to the
manifest; set ``REPRO_OBS=0`` to disable the recorder.  The ``obs``
commands read those artifacts back; profile references accept a digest,
a unique digest prefix or a filesystem path to a profile JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.backends import kernel_note
from repro import obs
from repro.campaign import campaign_status, load_spec, parse_shard, run_campaign
from repro.errors import IntegrityError, ReproError, StoreError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.export import result_to_dict, write_json
from repro.store import ResultStore, compute_digest

__all__ = ["build_parser", "entry", "main"]

QUICK_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "table2": {"slots_per_point": 40_000},
    "table3": {"slots_per_point": 40_000},
    "fig2": {"n_points": 20},
    "fig3": {"n_points": 20},
    "multihop": {"n_nodes": 60, "n_snapshots": 2},
    "search": {"slots_per_probe": 20_000},
    "meanfield": {
        "scaling_populations": (1e3, 1e4, 1e5),
        "replicator_steps": 800,
        "screening_nodes": 20_000,
        "screening_slots": 200_000,
    },
    "verify": {"max_boxes": 4000},
}

#: Experiments whose runners accept the parallel runner's ``jobs`` knob
#: (derived from the registry's ``supports_jobs`` capability flag).
PARALLEL_EXPERIMENTS = frozenset(
    experiment_id
    for experiment_id, experiment in EXPERIMENTS.items()
    if experiment.supports_jobs
)

#: Exit code for an interrupted campaign (mirrors 128 + SIGINT).
EXIT_INTERRUPTED = 130

#: Environment switch: set to ``0`` to run without the obs recorder.
ENV_OBS = "REPRO_OBS"


def _obs_active() -> bool:
    return os.environ.get(ENV_OBS, "1") != "0"


def _jobs_type(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 0 (0 = one per CPU), got {jobs}"
        )
    return jobs


def _add_jobs_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs_type,
        default=None,
        metavar="N",
        help="worker processes for sweep experiments (0 = one per CPU)",
    )


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="results store directory (default: $REPRO_STORE_DIR "
        "or ./.repro-store)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the evaluation of 'Selfishness, Not Always A "
            "Nightmare' (Chen & Leneutre, ICDCS 2007)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered experiments")

    lint_cmd = commands.add_parser(
        "lint",
        help=(
            "run the static analyzer (same flags as python -m "
            "repro.lint, e.g. 'repro lint --deep src')"
        ),
    )
    lint_cmd.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.lint",
    )

    commands.add_parser(
        "backends",
        help="say whether the simulator kernel runs compiled or as the "
        "numpy loop, and why",
    )

    run = commands.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id", choices=sorted(EXPERIMENTS))
    run.add_argument(
        "--quick", action="store_true", help="reduced simulation size"
    )
    _add_jobs_option(run)
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute even when the store already holds this run",
    )
    _add_store_option(run)

    run_all = commands.add_parser("run-all", help="run every experiment")
    run_all.add_argument(
        "--quick", action="store_true", help="reduced simulation size"
    )
    _add_jobs_option(run_all)
    run_all.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute even when the store already holds these runs",
    )
    _add_store_option(run_all)

    store = commands.add_parser(
        "store", help="inspect the content-addressed results store"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    store_ls = store_commands.add_parser("ls", help="list stored runs")
    store_ls.add_argument(
        "--experiment",
        default=None,
        choices=sorted(EXPERIMENTS),
        help="only runs of one experiment",
    )
    _add_store_option(store_ls)

    store_show = store_commands.add_parser(
        "show", help="show one stored run (manifest + rendered artefact)"
    )
    store_show.add_argument("digest", help="full digest or unique prefix")
    _add_store_option(store_show)

    store_diff = store_commands.add_parser(
        "diff", help="field-level delta between two stored runs"
    )
    store_diff.add_argument("digest_a", help="full digest or unique prefix")
    store_diff.add_argument("digest_b", help="full digest or unique prefix")
    _add_store_option(store_diff)

    store_gc = store_commands.add_parser(
        "gc", help="apply a retention policy to the store"
    )
    store_gc.add_argument(
        "--keep",
        type=int,
        default=None,
        metavar="N",
        help="keep only the N newest runs per experiment",
    )
    store_gc.add_argument(
        "--before",
        default=None,
        metavar="ISO",
        help="drop runs created before this ISO-8601 timestamp",
    )
    store_gc.add_argument(
        "--experiment",
        default=None,
        choices=sorted(EXPERIMENTS),
        help="restrict the policy to one experiment",
    )
    _add_store_option(store_gc)

    campaign = commands.add_parser(
        "campaign", help="declarative sweep campaigns over the store"
    )
    campaign_commands = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_run = campaign_commands.add_parser(
        "run", help="run a campaign spec (cache misses only)"
    )
    campaign_run.add_argument("spec", help="path to a .toml/.json spec")
    _add_jobs_option(campaign_run)
    campaign_run.add_argument(
        "--no-cache",
        action="store_true",
        help="re-execute every task even on a store hit",
    )
    campaign_run.add_argument(
        "--shard",
        default=None,
        metavar="K/M",
        help="run only the tasks of shard K of M (task index mod M == K); "
        "start one process per shard against a shared store",
    )
    campaign_run.add_argument(
        "--writer-id",
        default=None,
        metavar="ID",
        help="stable writer identity for claims and the commit journal "
        "(default: <hostname>-<pid>)",
    )
    _add_store_option(campaign_run)

    campaign_stat = campaign_commands.add_parser(
        "status", help="show which tasks are cached vs pending"
    )
    campaign_stat.add_argument("spec", help="path to a .toml/.json spec")
    _add_store_option(campaign_stat)

    obs_cmd = commands.add_parser(
        "obs", help="inspect stored run profiles (tracing + metrics)"
    )
    obs_commands = obs_cmd.add_subparsers(dest="obs_command", required=True)

    obs_summary = obs_commands.add_parser(
        "summary", help="human-readable summary of one run profile"
    )
    obs_summary.add_argument(
        "ref",
        nargs="?",
        default=None,
        help="digest, unique prefix or profile JSON path "
        "(default: newest profiled run)",
    )
    _add_store_option(obs_summary)

    obs_diff = obs_commands.add_parser(
        "diff", help="delta between two run profiles (timings excluded)"
    )
    obs_diff.add_argument("ref_a", help="digest, prefix or profile path")
    obs_diff.add_argument("ref_b", help="digest, prefix or profile path")
    _add_store_option(obs_diff)

    obs_export = obs_commands.add_parser(
        "export", help="write one run profile as JSON"
    )
    obs_export.add_argument(
        "ref",
        nargs="?",
        default=None,
        help="digest, unique prefix or profile JSON path "
        "(default: newest profiled run)",
    )
    obs_export.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="FILE",
        help="destination file (default: stdout)",
    )
    _add_store_option(obs_export)

    detect = commands.add_parser(
        "detect", help="misbehavior detection over node populations"
    )
    detect_commands = detect.add_subparsers(dest="detect_command", required=True)

    screen = detect_commands.add_parser(
        "screen",
        help="screen a population for selfish windows in one streaming pass",
    )
    screen.add_argument(
        "--nodes",
        type=int,
        default=100_000,
        metavar="N",
        help="population size for the synthetic population (default: 10^5)",
    )
    screen.add_argument(
        "--window",
        type=float,
        default=1024.0,
        metavar="W",
        help="compliant contention window (default: 1024)",
    )
    screen.add_argument(
        "--max-stage",
        type=int,
        default=5,
        metavar="M",
        help="backoff stages m (default: 5)",
    )
    screen.add_argument(
        "--selfish-fraction",
        type=float,
        default=0.01,
        metavar="F",
        help="fraction of synthetic nodes made selfish (default: 0.01)",
    )
    screen.add_argument(
        "--selfish-boost",
        type=float,
        default=4.0,
        metavar="B",
        help="attempt-rate multiplier of selfish nodes (default: 4)",
    )
    screen.add_argument(
        "--tau-file",
        default=None,
        metavar="FILE",
        help="JSON array of measured per-node attempt rates "
        "(replaces the synthetic population)",
    )
    screen.add_argument(
        "--slots",
        type=int,
        default=200_000,
        metavar="S",
        help="observation slots (default: 200000)",
    )
    screen.add_argument(
        "--chunk-slots",
        type=int,
        default=10_000,
        metavar="C",
        help="slots per streaming chunk (default: 10000)",
    )
    screen.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="K",
        help="observer shards merged into the verdict (default: 1)",
    )
    screen.add_argument(
        "--z-threshold",
        type=float,
        default=6.0,
        metavar="Z",
        help="one-sided z-score cut for the rate test (default: 6)",
    )
    screen.add_argument(
        "--seed",
        type=int,
        default=7,
        metavar="SEED",
        help="RNG seed for the population and the observation",
    )
    screen.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="FILE",
        help="write the full screening report as JSON",
    )

    verify_cmd = commands.add_parser(
        "verify",
        help=(
            "machine-check the equilibrium claims over a parameter box "
            "(see docs/verification.md)"
        ),
    )
    verify_cmd.add_argument(
        "--theorem",
        action="append",
        choices=("all", "bianchi", "lemma3", "theorem2", "theorem3"),
        default=None,
        help="claim to certify (repeatable; default: all)",
    )
    verify_cmd.add_argument(
        "--box",
        default="tableII-small",
        metavar="NAME",
        help="built-in parameter box (default: tableII-small; "
        "see --list-boxes)",
    )
    verify_cmd.add_argument(
        "--list-boxes",
        action="store_true",
        help="list the built-in parameter boxes and exit",
    )
    verify_cmd.add_argument(
        "--checkers",
        default="interval,smt,numeric",
        metavar="CSV",
        help="comma-separated checker subset of interval,smt,numeric "
        "(default: all three; smt degrades to skipped without z3)",
    )
    verify_cmd.add_argument(
        "--max-boxes",
        type=int,
        default=20000,
        metavar="N",
        help="interval-subdivision budget per check (default: 20000)",
    )
    verify_cmd.add_argument(
        "--smt-timeout-ms",
        type=int,
        default=120000,
        metavar="MS",
        help="per-query z3 timeout (default: 120000)",
    )
    verify_cmd.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="FILE",
        help="write the full JSON certificates to FILE",
    )
    verify_cmd.add_argument(
        "--write-scenarios",
        default=None,
        metavar="DIR",
        help="freeze every counterexample as a replayable JSON scenario "
        "under DIR (e.g. tests/regression/scenarios)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the equilibrium solve server (see docs/serving.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8351,
        help="TCP port (0 = ephemeral; default: 8351)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="solver thread-pool size (default: executor default)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="solve every request fresh instead of serving from the store",
    )
    _add_store_option(serve)

    bench_serve = commands.add_parser(
        "bench-serve",
        help="benchmark the solve server (writes BENCH_serve.json)",
    )
    bench_serve.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="FILE",
        help="artifact path (default: BENCH_serve.json)",
    )
    bench_serve.add_argument(
        "--smoke",
        action="store_true",
        help="reduced concurrency levels and probe sizes (CI)",
    )

    return parser


def _open_store(path: Optional[str]) -> ResultStore:
    return ResultStore(path) if path is not None else ResultStore.default()


def _print_header(experiment_id: str, note: str) -> None:
    experiment = EXPERIMENTS[experiment_id]
    print("=" * 72)
    print(
        f"{experiment.paper_artifact} ({experiment_id}) - "
        f"{experiment.description} [{note}]"
    )
    print("=" * 72)


def _run_one(
    experiment_id: str,
    quick: bool,
    jobs: Optional[int] = None,
    *,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
) -> None:
    kwargs = dict(QUICK_OVERRIDES.get(experiment_id, {})) if quick else {}
    # The digest is keyed on the science-relevant parameters only; jobs
    # is a pure speed knob and must not fragment the cache.
    digest = compute_digest(experiment_id, kwargs)
    if store is not None and use_cache and store.contains(digest):
        try:
            rendered = store.manifest(digest).rendered
            if rendered is not None:
                store.verify(digest)
                _print_header(experiment_id, f"cached {digest[:12]}")
                print(rendered)
                print()
                return
        except IntegrityError as error:
            # A corrupt cache entry must never abort the run - warn,
            # fall through and recompute (the put below heals it).
            print(
                f"warning: ignoring corrupt cached run: {error}",
                file=sys.stderr,
            )
    if jobs is not None and experiment_id in PARALLEL_EXPERIMENTS:
        kwargs["jobs"] = jobs
    recorder = obs.MemoryRecorder() if _obs_active() else obs.NullRecorder()
    started = time.perf_counter()
    with obs.use_recorder(recorder):
        result = run_experiment(experiment_id, **kwargs)
    elapsed = time.perf_counter() - started
    rendered = result.render()
    profile: Optional[Dict[str, Any]] = None
    if isinstance(recorder, obs.MemoryRecorder):
        profile = obs.build_profile(
            recorder.events,
            meta={
                "experiment_id": experiment_id,
                "quick": quick,
                "wall_time_s": elapsed,
            },
        )
    if store is not None:
        params = {
            key: value for key, value in kwargs.items() if key != "jobs"
        }
        store.put(
            experiment_id,
            params,
            result_to_dict(result),
            rendered=rendered,
            wall_time_s=elapsed,
            digest=digest,
            profile=profile,
        )
    _print_header(experiment_id, f"{elapsed:.1f}s")
    print(rendered)
    print()


def _store_ls(store: ResultStore, experiment_id: Optional[str]) -> int:
    entries = store.find(experiment_id)
    if not entries:
        print("store is empty")
        return 0
    for entry in entries:
        wall = entry.get("wall_time_s")
        wall_text = "-" if wall is None else f"{wall:8.2f}s"
        params = ", ".join(
            f"{key}={value!r}" for key, value in entry["params"].items()
        )
        print(
            f"{entry['digest'][:12]}  {entry['experiment_id']:<14}"
            f"{entry['created_at']}  {wall_text:>9}  {params}"
        )
    return 0


def _store_show(store: ResultStore, prefix: str) -> int:
    digest = store.resolve(prefix)
    manifest = store.verify(digest)
    print(f"digest:      {manifest.digest}")
    print(f"experiment:  {manifest.experiment_id}")
    print(f"created:     {manifest.created_at}")
    print(f"version:     {manifest.version}")
    print(f"git sha:     {manifest.git_sha or '-'}")
    print(f"host:        {manifest.host}")
    print(f"python:      {manifest.python_version}")
    print(f"numpy:       {manifest.numpy_version}")
    wall = manifest.wall_time_s
    print(f"wall time:   {'-' if wall is None else f'{wall:.2f}s'}")
    print(f"result sha:  {manifest.result_sha256}")
    print(f"params:      {manifest.params!r}")
    if manifest.rendered:
        print()
        print(manifest.rendered)
    return 0


def _resolve_profile(
    store: ResultStore, ref: Optional[str]
) -> Dict[str, Any]:
    """Load a run profile from a digest, prefix, path or the newest run."""
    if ref is None:
        for entry in store.find():
            if store.has_profile(entry["digest"]):
                return store.load_profile(entry["digest"])
        raise StoreError("store holds no run profiles yet")
    path = Path(ref)
    if path.is_file():
        try:
            profile = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise IntegrityError(
                f"run profile at {path} is not valid JSON: {error}"
            ) from error
        if not isinstance(profile, dict):
            raise IntegrityError(
                f"run profile at {path} must be a JSON object"
            )
        return profile
    return store.load_profile(store.resolve(ref))


def _obs_command(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if args.obs_command == "summary":
        print(obs.summarize_profile(_resolve_profile(store, args.ref)))
        return 0
    if args.obs_command == "diff":
        diff = obs.diff_profiles(
            _resolve_profile(store, args.ref_a),
            _resolve_profile(store, args.ref_b),
        )
        print(diff.render())
        return 0
    if args.obs_command == "export":
        profile = _resolve_profile(store, args.ref)
        if args.output is None:
            print(json.dumps(profile, indent=2, sort_keys=True))
        else:
            write_json(profile, Path(args.output))
            print(f"wrote {args.output}")
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


def _detect_screen(args: argparse.Namespace) -> int:
    """Screen a (synthetic or measured) population and summarise verdicts."""
    import numpy as np

    from repro.bianchi.meanfield import solve_mean_field
    from repro.detect.screening import (
        screen_population,
        synthetic_population_tau,
    )

    if args.tau_file is not None:
        try:
            loaded = json.loads(Path(args.tau_file).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read {args.tau_file}: {error}", file=sys.stderr)
            return 1
        tau = np.asarray(loaded, dtype=float)
        n_nodes = int(tau.shape[0])
        source = args.tau_file
    else:
        n_nodes = args.nodes
        source = (
            f"synthetic ({args.selfish_fraction:.1%} selfish, "
            f"boost x{args.selfish_boost:g})"
        )
    reference_tau = float(
        solve_mean_field(
            [args.window], [float(n_nodes)], args.max_stage
        ).tau[0][0]
    )
    if args.tau_file is None:
        tau = synthetic_population_tau(
            reference_tau,
            n_nodes,
            selfish_fraction=args.selfish_fraction,
            selfish_boost=args.selfish_boost,
            rng=args.seed,
        )
    result = screen_population(
        tau,
        reference_tau,
        args.window,
        args.max_stage,
        slots=args.slots,
        chunk_slots=args.chunk_slots,
        z_threshold=args.z_threshold,
        observer_shards=args.shards,
        rng=args.seed + 1,
    )
    print(f"population:     {result.n_nodes} nodes ({source})")
    print(
        f"reference:      W = {result.reference_window:g}, "
        f"tau0 = {result.reference_tau:.6f}"
    )
    print(
        f"observation:    {result.slots_observed} slots, "
        f"{result.n_chunks} chunk(s), {result.observer_shards} shard(s)"
    )
    print(
        f"flagged:        {int(result.flagged.sum())} "
        f"({result.flagged_fraction:.4%}) - "
        f"rate test {int(result.rate_flagged.sum())}, "
        f"undercut test {int(result.undercut_flagged.sum())}"
    )
    print(f"insufficient:   {int(result.insufficient.sum())} node(s)")
    flagged_nodes = result.flagged_nodes
    if flagged_nodes.size:
        shown = ", ".join(str(i) for i in flagged_nodes[:10])
        more = (
            f" (+{flagged_nodes.size - 10} more)"
            if flagged_nodes.size > 10
            else ""
        )
        print(f"flagged nodes:  {shown}{more}")
    if args.output is not None:
        write_json(result_to_dict(result), Path(args.output))
        print(f"wrote {args.output}")
    return 0


def _verify_command(args: argparse.Namespace) -> int:
    """Certify the selected claims; exit 1 on any counterexample."""
    from repro.verify import (
        builtin_boxes,
        get_box,
        run_certification,
        scenarios_from_certificate,
        write_scenario,
        z3_available,
    )
    from repro.verify.claims import CheckBudget

    if args.list_boxes:
        for box in builtin_boxes().values():
            print(
                f"{box.name:<16} {box.mode:<8} n in [{box.n_lo}, {box.n_hi}]"
                f"  W in [{box.w_lo:g}, {box.w_hi:g}]  m={box.m}"
            )
        return 0
    checkers = tuple(
        name for name in args.checkers.split(",") if name.strip()
    )
    theorems = args.theorem or ["all"]
    box = get_box(args.box)
    budget = CheckBudget(
        max_boxes=args.max_boxes, smt_timeout_ms=args.smt_timeout_ms
    )
    if "smt" in checkers and not z3_available():
        print(
            "note: z3 is not installed - SMT queries will be skipped "
            "(pip install 'repro[verify]' to enable them)"
        )
    certificates = run_certification(
        theorems, box, checkers=checkers, budget=budget
    )
    worst = 0
    for certificate in certificates:
        unknowns = sum(
            1 for o in certificate.outcomes if o.verdict == "unknown"
        )
        skipped = sum(
            1 for o in certificate.outcomes if o.verdict == "skipped"
        )
        print(
            f"{certificate.claim:<10} {certificate.status:<15} "
            f"({len(certificate.outcomes)} checks, {unknowns} unknown, "
            f"{skipped} skipped, "
            f"{sum(1 for v in certificate.vertices if v.ok)}/"
            f"{len(certificate.vertices)} vertices)"
        )
        for counterexample in certificate.counterexamples:
            point = ", ".join(
                f"{key}={value:.6g}"
                for key, value in sorted(counterexample["point"].items())
            )
            print(
                f"  counterexample [{counterexample['source']}/"
                f"{counterexample['label']}]: {point}"
            )
        if certificate.status == "counterexample":
            worst = 1
    if args.write_scenarios is not None:
        written = []
        for certificate in certificates:
            for scenario in scenarios_from_certificate(certificate):
                written.append(
                    write_scenario(scenario, args.write_scenarios)
                )
        print(f"wrote {len(written)} scenario(s) to {args.write_scenarios}")
        for path in written:
            print(f"  {path}")
    if args.output is not None:
        payload = {
            "box": box.to_dict(),
            "checkers": list(checkers),
            "certificates": [c.to_dict() for c in certificates],
        }
        write_json(payload, Path(args.output))
        print(f"wrote {args.output}")
    return worst


def _serve_command(args: argparse.Namespace) -> int:
    """Run the solve server in the foreground until interrupted."""
    import asyncio

    from repro.serve import EquilibriumService, ServeServer

    service = EquilibriumService(
        _open_store(args.store),
        cache=not args.no_cache,
        max_workers=args.workers,
    )
    server = ServeServer(service, host=args.host, port=args.port)

    async def _run() -> None:
        await server.start()
        print(
            f"serving on http://{args.host}:{server.port} "
            f"(store: {service.store.root}; POST /v1/solve, GET /healthz, "
            f"GET /stats; Ctrl-C to stop)"
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted; server stopped")
        return EXIT_INTERRUPTED
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "backends":
        print(f"numpy: {kernel_note()}")
        return 0
    if args.command == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(args.lint_args)
    if args.command == "list":
        width = max(len(eid) for eid in EXPERIMENTS)
        for eid in sorted(EXPERIMENTS):
            experiment = EXPERIMENTS[eid]
            print(
                f"{eid.ljust(width)}  {experiment.paper_artifact:14s}"
                f"  {experiment.description}"
            )
        return 0
    if args.command == "run":
        try:
            _run_one(
                args.experiment_id,
                args.quick,
                args.jobs,
                store=_open_store(args.store),
                use_cache=not args.no_cache,
            )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        return 0
    if args.command == "run-all":
        store = _open_store(args.store)
        try:
            for eid in EXPERIMENTS:
                _run_one(
                    eid,
                    args.quick,
                    args.jobs,
                    store=store,
                    use_cache=not args.no_cache,
                )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        return 0
    if args.command == "store":
        store = _open_store(args.store)
        try:
            if args.store_command == "ls":
                return _store_ls(store, args.experiment)
            if args.store_command == "show":
                return _store_show(store, args.digest)
            if args.store_command == "diff":
                diff = store.diff(
                    store.resolve(args.digest_a), store.resolve(args.digest_b)
                )
                print(diff.render())
                return 0
            if args.store_command == "gc":
                removed = store.gc(
                    keep_latest=args.keep,
                    before=args.before,
                    experiment_id=args.experiment,
                )
                print(f"removed {len(removed)} stored run(s)")
                for digest in removed:
                    print(f"  {digest}")
                return 0
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.command == "campaign":
        store = _open_store(args.store)
        try:
            spec = load_spec(args.spec)
            if args.campaign_command == "status":
                print(campaign_status(spec, store=store).render())
                return 0
            if args.campaign_command == "run":
                report = run_campaign(
                    spec,
                    store=store,
                    jobs=args.jobs,
                    force=args.no_cache,
                    shard=(
                        parse_shard(args.shard)
                        if args.shard is not None
                        else None
                    ),
                    writer_id=args.writer_id,
                )
                print(report.render())
                return EXIT_INTERRUPTED if report.interrupted else 0
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.command == "obs":
        try:
            return _obs_command(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.command == "detect":
        try:
            if args.detect_command == "screen":
                return _detect_screen(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.command == "verify":
        try:
            return _verify_command(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "bench-serve":
        from repro.serve.bench import DEFAULT_OUTPUT, render_report, run_benchmark

        output = args.output if args.output is not None else DEFAULT_OUTPUT
        try:
            report = run_benchmark(output=output, smoke=args.smoke)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(render_report(report))
        print(f"wrote {output}")
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


def entry() -> None:  # pragma: no cover - thin wrapper
    """Console-script entry point."""
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like cat.
        sys.exit(141)


if __name__ == "__main__":  # pragma: no cover - python -m repro.cli
    entry()
