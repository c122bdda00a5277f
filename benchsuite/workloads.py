"""The three workloads, driven from the benchmark process.

Every workload fixes its amount of work as a count (never a time
budget); the seed draws values and order only.  ``--seconds`` sets the
number of read-only warm operations through a fixed rate, so the same
``--seconds`` always gives the same counts, and writes - which change
the store's size and with it every store-backed latency (a put took
6 ms on an empty store, 48 ms at 1,000 entries and 97 ms at 2,000) -
never depend on it.

``paper``
    Full-size ``run-all`` with CLI defaults (serial, numpy backend, obs
    recorder on): one cold pass in a fresh interpreter on an empty
    store, then cold single operations (``run fig2 --no-cache``:
    recompute and commit one artefact) and warm passes in four further
    interpreters against the completed store.  The compute layers do
    about 99% of the cold work and the store almost none, so kernel and
    solver changes show here and store-write changes should not.  It
    has no seeded input: ``run-all`` seeds itself.
``sweep``
    ``campaign run`` of a seeded 200-task ``convergence`` spec into a
    store pre-filled with 1,000 prior runs, then resume passes (every
    task cached) and one-task campaigns (miss, execute, commit) in four
    further interpreters.  About
    half of the cold time is ``store.put``, so this is where a
    store-commit change shows.
``serve``
    ``repro-experiments serve`` as its own process on a fresh store,
    driven in a closed loop over one keep-alive connection by the
    repo's blocking ``ServeClient``: cold and warm single documents and
    cold and warm list POSTs.  The protocol resolves a list
    concurrently, so bursts give in-service concurrency, coalescing and
    micro-batching without more connections than cores.  Open-loop
    rate sweeps are left out: at a fixed real-time rate, queueing delay
    grows non-linearly with host speed, which no reference can correct.

Within a session the classes of short operations are interleaved
(:func:`inputs.interleave`), so each class is spread over the whole
session and a slow spell of the host lands on all of them alike.  Before
interleaving, the 180 warm serve requests took 0.2 s in one block and
their median spread 29% between runs; interleaved, 3%.

End-to-end metrics, reported by every workload from untraced runs
(every timing host-corrected, :mod:`host`; raw values in the record):

``setup_s`` (s)
    Median of five fresh launches to ready: ``repro.cli`` imported and
    the store opened (serve: the ``serving on`` line and a 200 from
    ``/healthz``).  A later change that moves work into start-up shows
    here.
``peak_rss_mb`` (MB)
    Peak RSS of the program process: the largest CLI child, or the
    server.
``cold_s`` (s)
    The fixed cold phase: the cold ``run-all`` (paper), the cold
    ``campaign run`` (sweep), or the sum over every unseen document,
    single and burst (serve).
``warm_p50_ms``, ``warm_tail_ms`` (ms)
    One warm ``run-all`` pass, one resume pass, or one warm single
    request; the tail is the highest percentile with at least ten
    samples beyond it (:func:`stats.tail`; the record names it).
``cold_p50_ms``, ``cold_tail_ms`` (ms)
    One cold single operation: ``run fig2 --no-cache`` (recompute and
    commit one artefact), a one-task campaign (miss, execute, commit),
    or one unseen request (miss, solve, commit).
``burst_cold_ms``, ``burst_warm_ms`` (ms)
    Median multi-document operation, cold or warm: a list POST (serve);
    for paper and sweep the ``run-all`` and ``campaign run`` passes are
    themselves the multi-document operations, so ``burst_cold_ms`` is
    the cold pass and ``burst_warm_ms`` the warm-pass median.
``req_per_s`` (1/s)
    Documents (artefacts, tasks, request documents) answered per second
    of measured operation time over the session.

Every workload reports every metric so that each run's result carries
the whole ``end_to_end`` list of ``BENCHMARK.json``.  Each run also
counts attempted and failed operations; a failed correctness check is a
failed operation.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import host
import inputs
import stats
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAUNCHER = BENCH_DIR / "launcher.py"

#: Fresh launches whose median is ``setup_s``.  Single launches spread
#: 28% (1.31-1.75 s); the median of five, each corrected, spread 9%.
SETUP_LAUNCHES = 5

#: References the benchmark takes on each side of a timed launch.
LAUNCH_REFERENCES = 3

#: Cold single operations per session (paper, sweep).
COLD_SINGLES = 60

#: Tasks of the sweep's cold campaign.
SWEEP_TASKS = len(inputs.SWEEP_PLAYERS) * len(inputs.SWEEP_STAGES)

#: Prior runs in the sweep's pre-filled store.
PREFILL_RUNS = 1000

#: Read-only warm operations per second of ``--seconds``, and the
#: minimum that still supports a guarded tail percentile.
WARM_RATE = {"paper": 18, "sweep": 8, "serve": 18}
WARM_MIN = {"paper": 40, "sweep": 40, "serve": 100}

#: Half-width of the reference window that corrects one short call.
REFERENCE_WINDOW_S = 0.25
SERVE_WARM_BURSTS = 30

#: Seconds a child may take before the benchmark gives up on it.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not drive the program."""


@dataclass
class Outcome:
    """What one session measured, before metrics are derived."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    raw: Dict[str, List[float]] = field(default_factory=dict)
    documents: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    maxrss_kb: int = 0
    references: List[float] = field(default_factory=list)
    checks: Dict[str, Any] = field(default_factory=dict)
    phases: List[Tuple[str, float, float]] = field(default_factory=list)

    def add(self, klass: str, raw_s: float, corrected_s: float) -> None:
        self.raw.setdefault(klass, []).append(raw_s)
        self.samples.setdefault(klass, []).append(corrected_s)

    def total_s(self) -> float:
        return sum(sum(values) for values in self.samples.values())


class Context:
    """Paths, environment and child processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.children: List[subprocess.Popen] = []
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env.pop("REPRO_BACKEND", None)
        self.env.pop("REPRO_OBS", None)

    @property
    def warm_count(self) -> int:
        return max(WARM_MIN[self.workload], WARM_RATE[self.workload] * self.seconds)

    def __enter__(self) -> "Context":
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for child in self.children:
            if child.poll() is None:
                child.kill()
            child.wait()
            for stream in (child.stdin, child.stdout):
                if stream is not None:
                    stream.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(
        self, mode: str, *args: str, python_flags: Sequence[str] = (),
        unbuffered: bool = False,
    ) -> subprocess.Popen:
        env = dict(self.env, PYTHONUNBUFFERED="1") if unbuffered else self.env
        stderr = open(self.work / f"stderr-{len(self.children)}.txt", "wb")
        try:
            child = subprocess.Popen(
                [sys.executable, *python_flags, str(LAUNCHER), mode, *args],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
                cwd=self.work,
                env=env,
                text=True,
            )
        finally:
            stderr.close()
        self.children.append(child)
        return child

    def stderr_of(self, child: subprocess.Popen) -> str:
        index = self.children.index(child)
        return (self.work / f"stderr-{index}.txt").read_text(errors="replace")

    def expect(self, child: subprocess.Popen, prefix: str) -> str:
        """Read the child's stdout up to a line starting with ``prefix``."""
        assert child.stdout is not None
        while True:
            line = child.stdout.readline()
            if not line:
                child.wait(timeout=CHILD_TIMEOUT_S)
                raise BenchError(
                    f"program exited ({child.returncode}) before {prefix!r}:\n"
                    + self.stderr_of(child)[-4000:]
                )
            if line.startswith(prefix):
                return line

    def send(self, child: subprocess.Popen) -> None:
        """Tell a waiting launcher to go on (see ``launcher._cold_phase``)."""
        assert child.stdin is not None
        child.stdin.write("go\n")
        child.stdin.flush()

    def finish(self, child: subprocess.Popen) -> None:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0:
            raise BenchError(
                f"program exited with {code}:\n" + self.stderr_of(child)[-4000:]
            )


# -- launches ---------------------------------------------------------------


def _add_stretch(
    outcome: Outcome, klass: str, calls: Sequence[Tuple[float, float]],
    references: Sequence[Tuple[float, float]],
) -> None:
    """Correct one class of calls by the references of its stretch.

    The stretch runs from the first call's start to the last call's end;
    every call of the class is scaled by the same factor, the nominal
    reference time over the median reference taken inside the stretch.
    """
    reference = host.median_within(references, calls[0][0], calls[-1][1])
    for started, ended in calls:
        outcome.add(klass, ended - started, host.correct(ended - started, reference))




def _timed_launch(
    track: host.ReferenceTrack, launch: Callable[[], Any]
) -> Tuple[Tuple[float, float], Any]:
    """Time ``launch()`` (start a child and wait until it is ready).

    References are taken on either side, while the child does not exist
    yet or waits for its next instruction, so nothing shares the CPU
    with them.  Returns the launch's ``(start, end)`` and its result.
    """
    for _ in range(LAUNCH_REFERENCES):
        track.take()
    started = time.perf_counter()
    result = launch()
    ended = time.perf_counter()
    for _ in range(LAUNCH_REFERENCES):
        track.take()
    return (started, ended), result


def _add_launches(
    outcome: Outcome, launches: Sequence[Tuple[float, float]],
    references: Sequence[Tuple[float, float]],
) -> None:
    """``setup`` samples: each launch corrected by the references around it."""
    for started, ended in launches:
        reference = host.median_within(references, started - 1.0, ended + 1.0)
        outcome.add("setup", ended - started, host.correct(ended - started, reference))


def _add_short(
    outcome: Outcome, calls: Dict[str, List[Tuple[float, float]]],
    references: Sequence[Tuple[float, float]],
) -> None:
    """Correct short calls (warm passes, single operations, requests).

    Each call is scaled by the nominal reference time over the median of
    the references taken within :data:`REFERENCE_WINDOW_S` of it, or
    within its own duration of it if that is longer (a list POST of most
    of a second has no references inside it).  Slow spells of this host
    last a few hundred milliseconds; the references around a call see
    the spell that call saw.  Over six serve sessions,
    warm-request medians spread 3.2% corrected this way, 6.2% with one
    factor for the whole run and 11.3% raw; tails 7.0%, 14.9% and 10.9%.
    """
    for klass, spans in calls.items():
        for started, ended in spans:
            pad = max(REFERENCE_WINDOW_S, ended - started)
            reference = host.median_within(references, started - pad, ended + pad)
            outcome.add(klass, ended - started, host.correct(ended - started, reference))
    outcome.references += [ms for _, ms in references]


def import_times(ctx: Context, store: Path) -> Dict[str, float]:
    """``cli.import.*_ms``: self time per package under ``-X importtime``."""
    child = ctx.spawn("ready", "--store", str(store), python_flags=("-X", "importtime"))
    ctx.expect(child, "ready")
    ctx.finish(child)
    totals = {"numpy": 0.0, "scipy": 0.0, "networkx": 0.0, "repro": 0.0}
    for line in ctx.stderr_of(child).splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = float(fields[0])
        except ValueError:
            continue
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += self_us / 1000.0
    return {f"cli.import.{name}_ms": value for name, value in totals.items()}


# -- CLI sessions (paper, sweep) --------------------------------------------


def _shares(total: int, parts: int) -> List[int]:
    """``total`` split into ``parts`` near-equal whole shares."""
    return [total // parts + (1 if index < total % parts else 0) for index in range(parts)]


def write_sweep_inputs(ctx: Context, parts: int) -> None:
    (ctx.work / "sweep.json").write_bytes(
        inputs.canonical_bytes(inputs.sweep_spec(ctx.seed))
    )
    specs = inputs.sweep_singles(ctx.seed, COLD_SINGLES)
    offset = 0
    for part, share in enumerate(_shares(len(specs), parts)):
        folder = ctx.work / "singles" / str(part)
        folder.mkdir(parents=True, exist_ok=True)
        for index in range(offset, offset + share):
            (folder / f"single-{index:03d}.json").write_bytes(
                inputs.canonical_bytes(specs[index])
            )
        offset += share


def prefill_path() -> Path:
    """Where the pre-filled store of the current program source lives."""
    key = host.source_digest(ROOT)[:16]
    return ROOT / ".bench_cache" / f"prefill-{PREFILL_RUNS}-{key}"


def prefill_store(ctx: Context) -> Path:
    """The sweep's pre-filled store, built by the program under test.

    1,000 ``ResultStore.put`` calls take about 29 s, more than a run's
    share of the time budget, so the store is built once per checkout
    and program source (keyed by the source digest) and copied for each
    run; the benchmark never writes store internals itself.
    """
    cache = prefill_path()
    if (cache / "complete").is_file():
        return cache
    building = cache.with_name(cache.name + f".building-{os.getpid()}")
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    child = ctx.spawn(
        "prefill", "--store", str(building / "store"),
        "--count", str(PREFILL_RUNS), "--out", str(building / "prefill.json"),
    )
    try:
        ctx.finish(child)
    except BaseException:
        shutil.rmtree(building, ignore_errors=True)
        raise
    entries = json.loads((building / "prefill.json").read_text())["entries"]
    if entries != PREFILL_RUNS:
        raise BenchError(f"pre-fill holds {entries} runs, expected {PREFILL_RUNS}")
    (building / "complete").write_text("ok\n")
    shutil.rmtree(cache, ignore_errors=True)
    building.rename(cache)
    return cache


def fresh_store(ctx: Context, name: str) -> Path:
    store = ctx.work / name
    shutil.rmtree(store, ignore_errors=True)
    if ctx.workload == "sweep":
        shutil.copytree(prefill_store(ctx) / "store", store)
    return store


def cli_session(
    ctx: Context, *, launches: int, trace: Optional[Path] = None
) -> Outcome:
    """One paper or sweep session over ``launches`` fresh interpreters.

    The first launch runs the cold phase; the others split the cold
    single operations and warm passes between them, so the medians pool
    several interpreters - one interpreter's memory layout moves its
    speed by a few percent for its whole life.  With one launch, that
    launch runs everything.  With more, each launch's time to ready is
    a ``setup_s`` sample.
    """
    outcome = Outcome()
    store = fresh_store(ctx, "store-traced" if trace else "store")
    parts = max(launches - 1, 1)
    if ctx.workload == "sweep":
        write_sweep_inputs(ctx, parts)
    warm_shares = _shares(ctx.warm_count, parts)
    single_shares = _shares(COLD_SINGLES, parts)
    tasks = SWEEP_TASKS
    sampler = host.CpuTimeSampler()
    around = host.ReferenceTrack()
    starts = []
    short_calls: Dict[str, List[Tuple[float, float]]] = {}
    references: List[Tuple[float, float]] = []
    for index in range(launches):
        cold = index == 0
        part = max(index - 1, 0)
        out = ctx.work / f"session-{index}.json"
        args = ["--store", str(store), "--out", str(out), "--seed", str(ctx.seed)]
        if cold:
            args.append("--cold")
        if not cold or launches == 1:
            args += ["--warm", str(warm_shares[part])]
            if ctx.workload == "paper":
                args += ["--singles", str(single_shares[part])]
            else:
                args += ["--singles-dir", str(ctx.work / "singles" / str(part))]
        if ctx.workload == "paper":
            args += ["--bodies", str(ctx.work / "bodies.json")]
        else:
            args += ["--spec", str(ctx.work / "sweep.json"), "--tasks", str(tasks)]
            if index == launches - 1:
                args += ["--expect-runs", str(PREFILL_RUNS + tasks + COLD_SINGLES)]
        if trace is not None:
            args += ["--trace", str(trace)]
        def launch() -> subprocess.Popen:
            child = ctx.spawn(ctx.workload, *args)
            ctx.expect(child, "ready")
            return child

        start, child = _timed_launch(around, launch)
        starts.append(start)
        if cold:
            with sampler:
                ctx.send(child)
                ctx.expect(child, "cold-end")
        ctx.send(child)
        ctx.finish(child)
        session = json.loads(out.read_text())
        session["calls"].pop("warmup", None)
        for klass, calls in session["calls"].items():
            if klass == "cold":
                _add_stretch(outcome, klass, calls, sampler.samples)
            else:
                short_calls.setdefault(klass, []).extend(calls)
        references += session["references"]
        outcome.attempted += session["attempted"]
        outcome.failures += session["failures"]
        outcome.maxrss_kb = max(outcome.maxrss_kb, session["maxrss_kb"])
        outcome.checks.update(session["checks"])
    _add_short(outcome, short_calls, references)
    if launches > 1:
        _add_launches(outcome, starts, around.samples)
    outcome.references += [ms for _, ms in sampler.samples]
    per_pass = len(tracing.EXPERIMENT_IDS) if ctx.workload == "paper" else tasks
    outcome.documents = per_pass * (1 + ctx.warm_count) + COLD_SINGLES
    return outcome


# -- serve -------------------------------------------------------------------


def _start_server(ctx: Context, store: Path, trace: Optional[Path]) -> Tuple[subprocess.Popen, int]:
    args = ["--store", str(store), "--out", str(ctx.work / "server.json")]
    if trace is not None:
        args += ["--trace", str(trace)]
    child = ctx.spawn("serve", *args, unbuffered=True)
    line = ctx.expect(child, "serving on ")
    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return child, port


def _stop_server(ctx: Context, child: subprocess.Popen) -> None:
    child.send_signal(signal.SIGINT)
    code = child.wait(timeout=CHILD_TIMEOUT_S)
    if code not in (0, 130):
        raise BenchError(f"server exited with {code}:\n" + ctx.stderr_of(child)[-4000:])


def _approx_equal(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_approx_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_approx_equal(x, y) for x, y in zip(a, b))
    return a == b


def serve_session(
    ctx: Context, *, launches: int, trace: Optional[Path] = None
) -> Outcome:
    """One serve session; ``launches`` counts the timed server launches."""
    from repro.errors import ReproError
    from repro.serve import ServeClient, encode_json, parse_request, solve_request

    outcome = Outcome()
    stream = inputs.serve_stream(ctx.seed, ctx.warm_count, SERVE_WARM_BURSTS)
    store = ctx.work / ("store-traced" if trace else "store")
    around = host.ReferenceTrack()
    starts = []
    def launch() -> Tuple[subprocess.Popen, int]:
        child, port = _start_server(ctx, store, trace)
        with ServeClient("127.0.0.1", port) as probe:
            if probe.health().get("ok") is not True:
                raise BenchError("/healthz did not answer ok")
        return child, port

    for index in range(launches):
        start, (child, port) = _timed_launch(around, launch)
        starts.append(start)
        if index < launches - 1:
            _stop_server(ctx, child)
    if launches > 1:
        _add_launches(outcome, starts, around.samples)

    track = host.ReferenceTrack()
    track.take()
    first_answer: Dict[str, Any] = {}
    answered: List[Tuple[Dict[str, Any], Any]] = []
    calls: List[Tuple[str, float, float]] = []

    def settle(document: Dict[str, Any], response: Any, klass: str) -> None:
        outcome.attempted += 1
        if not isinstance(response, dict) or "error" in response or "result" not in response:
            outcome.failures.append(f"{klass}: {document['kind']} answered {response!r:.200}")
            return
        digest = response["digest"]
        if digest in first_answer:
            if response["result"] != first_answer[digest]:
                outcome.failures.append(f"{klass}: repeat of {digest[:12]} differs")
        else:
            first_answer[digest] = response["result"]
            answered.append((document, response["result"]))

    with ServeClient("127.0.0.1", port) as client:
        for klass, item in stream:
            batch = klass.startswith("burst")
            track.between()
            started = time.perf_counter()
            try:
                if batch:
                    responses = client.solve_many(item)
                else:
                    responses = [client.solve(item["kind"], item["params"])]
            except ReproError as error:
                responses = [{"error": str(error)}] * (len(item) if batch else 1)
            ended = time.perf_counter()
            calls.append((klass, started, ended))
            phase = "warm" if klass in ("warm", "burst_warm") else "cold"
            outcome.phases.append((phase, started, ended))
            for document, response in zip(item if batch else [item], responses):
                settle(document, response, klass)
            outcome.documents += len(item) if batch else 1
        track.take()
        server_stats = client.stats()
    _stop_server(ctx, child)
    server = json.loads((ctx.work / "server.json").read_text())
    outcome.maxrss_kb = server["maxrss_kb"]

    grouped: Dict[str, List[Tuple[float, float]]] = {}
    for klass, started, ended in calls:
        grouped.setdefault(klass, []).append((started, ended))
    _add_short(outcome, grouped, track.samples)

    if server_stats["requests"] != (
        server_stats["cache_hits"] + server_stats["cache_misses"] + server_stats["coalesced"]
    ):
        outcome.failures.append(f"/stats does not add up: {server_stats}")
    sample = random.Random(f"resolve-{ctx.seed}").sample(answered, 12)
    for document, served in sample:
        local = json.loads(encode_json(solve_request(parse_request(document))))
        if not _approx_equal(local, served):
            outcome.failures.append(f"in-process re-solve of {document['kind']} differs")
    outcome.checks = {"stats": server_stats, "resolved": len(sample),
                      "distinct_documents": len(first_answer)}
    return outcome


# -- metrics -------------------------------------------------------------------


def _timings(
    samples: Dict[str, List[float]], documents: int, workload: str
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The timing metrics of one set of samples, and their tail details."""
    single_class = "cold" if workload == "serve" else "single"
    singles, warm = samples[single_class], samples["warm"]
    if workload == "serve":
        burst_cold, burst_warm = samples["burst_cold"], samples["burst_warm"]
        cold_s = sum(singles) + sum(burst_cold)
    else:
        burst_cold, burst_warm = samples["cold"], warm
        cold_s = statistics.median(samples["cold"])
    warm_tail = stats.tail(warm)
    cold_tail = stats.tail(singles)
    operations = sum(sum(values) for klass, values in samples.items() if klass != "setup")
    metrics = {
        "setup_s": statistics.median(samples["setup"]),
        "cold_s": cold_s,
        "warm_p50_ms": 1000.0 * statistics.median(warm),
        "warm_tail_ms": 1000.0 * warm_tail[1],
        "cold_p50_ms": 1000.0 * statistics.median(singles),
        "cold_tail_ms": 1000.0 * cold_tail[1],
        "burst_cold_ms": 1000.0 * statistics.median(burst_cold),
        "burst_warm_ms": 1000.0 * statistics.median(burst_warm),
        "req_per_s": documents / operations,
    }
    tails = {
        "warm_tail": {"percentile": warm_tail[0], "samples": len(warm)},
        "cold_tail": {"percentile": cold_tail[0], "samples": len(singles)},
    }
    return metrics, tails


def end_to_end(outcome: Outcome, workload: str) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics of an untraced session, and their details.

    ``cold_s`` is the fixed cold phase: the cold pass (paper, sweep) or
    every unseen document, single and burst (serve).  The details hold
    the same metrics computed from the raw timings, the percentile each
    tail reports with its sample count, and the run's reference median.
    """
    metrics, tails = _timings(outcome.samples, outcome.documents, workload)
    raw, _ = _timings(outcome.raw, outcome.documents, workload)
    metrics["peak_rss_mb"] = outcome.maxrss_kb / 1024.0
    details = {
        **tails,
        "samples": {klass: len(values) for klass, values in outcome.samples.items()},
        "raw": raw,
        "reference_median_ms": statistics.median(outcome.references),
        "documents": outcome.documents,
        "checks": outcome.checks,
    }
    return metrics, details


def run_untraced(ctx: Context) -> Tuple[Dict[str, float], Dict[str, Any], Outcome]:
    session = serve_session if ctx.workload == "serve" else cli_session
    outcome = session(ctx, launches=SETUP_LAUNCHES)
    metrics, details = end_to_end(outcome, ctx.workload)
    return metrics, details, outcome


def run_traced(ctx: Context) -> Tuple[Dict[str, float], Dict[str, Any], Outcome]:
    """Per-layer metrics: an untraced session, then the same session traced."""
    session = serve_session if ctx.workload == "serve" else cli_session
    trace_path = ctx.work / "trace.json"
    ready_store = ctx.work / "store-import"
    imports = import_times(ctx, ready_store)
    plain = session(ctx, launches=1)
    traced = session(ctx, launches=1, trace=trace_path)
    spans, counters, phases = tracing.load_trace(trace_path)
    if ctx.workload == "serve":
        phases = traced.phases
    metrics = tracing.layer_metrics(
        spans, counters, phases,
        serve_stats=traced.checks.get("stats") if ctx.workload == "serve" else None,
    )
    metrics.update(imports)
    metrics["trace.overhead"] = traced.total_s() / plain.total_s()
    outcome = Outcome(
        attempted=plain.attempted + traced.attempted,
        failures=plain.failures + traced.failures,
        references=plain.references + traced.references,
    )
    details = {
        "spans": len(spans),
        "reference_median_ms": statistics.median(outcome.references),
        "checks": traced.checks,
    }
    return metrics, details, outcome
