"""Outside-in layer tracing for the traced run.

The program is not edited.  In a traced run the launcher calls
:func:`install`, which wraps the public entry points of each layer
(:data:`TARGETS`) wherever a loaded ``repro`` module binds them - the
defining module, every module that imported the name, or the class that
owns the method.  Untraced runs never import this module's wrappers, so
the program they time is exactly the program under test.

Each call into a layer from outside that layer records a :class:`Span`:
name, layer, start, end, parent span and a trace id.  The trace id is
the request or object digest where the call carries one, so one serve
request's parse, lookup, solve and commit spans share it across the
event loop and the executor threads.  Calls within a layer (recursion,
a batched solver calling itself on a sub-batch) fold into the span that
entered the layer.  Spans stay in memory and are written out when the
program exits (:meth:`Tracer.dump`).

Reading the breakdown (:func:`layer_metrics`):

* ``<layer>.self_ms`` is the layer's total self time over the traced
  phases: each span's duration minus the part of it that its child
  spans cover (:func:`self_times`), summed over the layer's spans.
* ``.calls``, ``.lanes``, ``.tasks``, ``sim.slots`` and
  ``obs.events`` count work; the ``.ratio`` metrics divide useful
  outcomes by attempts.
* ``store.put.write_kb`` and ``store.read.read_kb`` are the
  ``wchar``/``rchar`` deltas of ``/proc/thread-self/io`` across the call
  (per thread, so concurrent commits do not count each other), so they
  survive a change to the store format; ``store.put.forks`` counts the
  child processes started inside ``put``.
* ``serve.queue.wait_ms`` is the gap from the end of parsing to the
  start of the solve for the same request digest (batched documents:
  the first batch that starts after their parse).
* ``trace.<phase>.uncovered_ms`` is the part of a phase's wall time that
  no span covers: launcher, HTTP transport and event-loop time.
"""

from __future__ import annotations

import bisect
import json
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The 14 artefacts of ``run-all`` (one ``experiments.<id>.self_ms``
#: metric each).
EXPERIMENT_IDS = (
    "table1", "table2", "table3", "fig2", "fig3", "multihop",
    "shortsighted", "malicious", "search", "convergence", "bestresponse",
    "meanfield", "verify", "mobility",
)

#: Traced phases whose uncovered time is reported.
PHASES = ("cold", "warm")


@dataclass
class Span:
    """One call into a layer."""

    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    trace: Optional[str]
    thread: int
    ident: int

    def to_list(self) -> List[Any]:
        return [self.name, self.layer, self.start, self.end, self.parent,
                self.trace, self.thread, self.ident]

    @classmethod
    def from_list(cls, row: Sequence[Any]) -> "Span":
        return cls(*row)


def _io_counters() -> Tuple[int, int]:
    """``(rchar, wchar)`` of the calling thread.

    Per thread, so that commits running at once on executor threads do
    not count each other's bytes.
    """
    values = {}
    with open("/proc/thread-self/io", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            values[key] = int(value)
    return values["rchar"], values["wchar"]


class Tracer:
    """Span and counter recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.phases: List[Tuple[str, float, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def in_layer(self, layer: str) -> bool:
        return any(span.layer == layer for span in self.stack())

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        *,
        name: Optional[Callable[[tuple], str]] = None,
        trace: Optional[Callable[[tuple, Any], Optional[str]]] = None,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        io: Optional[str] = None,
    ) -> Callable[..., Any]:
        """A wrapper recording one span per call entering ``layer``."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer.stack()
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            with tracer._lock:
                ident = tracer._next
                tracer._next += 1
            span = Span(
                name=name(args) if name is not None else layer,
                layer=layer,
                start=0.0,
                end=0.0,
                parent=parent.ident if parent is not None else None,
                trace=parent.trace if parent is not None else None,
                thread=threading.get_ident(),
                ident=ident,
            )
            if trace is not None:
                span.trace = trace(args, None) or span.trace
            io_before = _io_counters() if io is not None else None
            stack.append(span)
            result: Any = None
            failed = True
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if io_before is not None:
                    io_after = _io_counters()
                    index = 0 if io == "read" else 1
                    tracer.count(
                        f"{layer}.{io}_kb",
                        (io_after[index] - io_before[index]) / 1024.0,
                    )
                tracer.count(f"{layer}.calls")
                if failed:
                    tracer.count(f"{layer}.failed")
                else:
                    if trace is not None and span.trace is None:
                        span.trace = trace(args, result)
                    if after is not None:
                        after(tracer, args, result)
                with tracer._lock:
                    tracer.spans.append(span)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def phase(self, name: str, start: float, end: float) -> None:
        """Mark a phase of the session for the uncovered-time report."""
        self.phases.append((name, start, end))

    def dump(self, path: Path) -> None:
        """Write spans, counters and phases as JSON."""
        with self._lock:
            payload = {
                "spans": [span.to_list() for span in self.spans],
                "counters": dict(self.counters),
                "phases": list(self.phases),
            }
        path.write_text(json.dumps(payload))


# -- what is wrapped -------------------------------------------------------


def _digest_of_request(args: tuple, result: Any) -> Optional[str]:
    return getattr(args[0], "digest", None) if args else None


def _experiment_name(args: tuple) -> str:
    return f"experiments.{args[0]}" if args else "experiments.unknown"


def _count_tasks(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("parallel.map.tasks", len(args[1]))


def _count_slots(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count(
        "sim.slots",
        float(
            result.idle_slots.sum()
            + result.success_slots.sum()
            + result.collision_slots.sum()
        ),
    )


def _count_lanes(layer: str) -> Callable[[Tracer, tuple, Any], None]:
    """Lanes solved; ``newton`` marks lanes the Newton fallback finished.

    The symmetric grid solver reports no per-lane method, so its lanes
    count towards the lanes but never towards the Newton ratio.
    """

    def after(tracer: Tracer, args: tuple, result: Any) -> None:
        if hasattr(result, "newton"):
            lanes = result.n_instances
            tracer.count("bianchi.newton_lanes", float(result.newton.sum()))
            tracer.count("bianchi.newton_checked", lanes)
        else:
            lanes = result.n_windows
        tracer.count(f"{layer}.lanes", lanes)

    return after


def _count_campaign(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("campaign.tasks", result.total)
    tracer.count("campaign.cached", result.cached)


def _count_events(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("obs.events", len(args[0]))


def _count_fold(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("serve.batch.documents", len(args[0]))


def _count_encoded(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("serve.encode.kb", len(result) / 1024.0)


def _lookup_digest(args: tuple, result: Any) -> Optional[str]:
    return args[1] if len(args) > 1 else None


def _commit_digest(args: tuple, result: Any) -> Optional[str]:
    return getattr(args[1], "digest", None) if len(args) > 1 else None


def _parsed_digest(args: tuple, result: Any) -> Optional[str]:
    return getattr(result, "digest", None)


#: (module, attribute or Class.method, layer, options).  Every metric of
#: BENCHMARK.json's ``per_layer`` list is derived from these spans and
#: counters by :func:`layer_metrics`.  Three private names are wrapped
#: because they are exactly the boundary the metric names: the campaign's
#: store-membership partition, and the service's store lookup (run on
#: the event loop) and commit (run on an executor thread).
TARGETS: Tuple[Tuple[str, str, str, Dict[str, Any]], ...] = (
    ("repro.cli", "main", "cli.main", {}),
    ("repro.experiments.registry", "run_experiment", "experiments",
     {"name": _experiment_name}),
    ("repro.experiments.parallel", "parallel_map", "parallel.map",
     {"after": _count_tasks}),
    ("repro.sim.vectorized", "run_batch", "sim.run_batch",
     {"after": _count_slots}),
    ("repro.sim.spatial", "SpatialSimulator.run", "sim.spatial", {}),
    ("repro.bianchi.batched", "solve_heterogeneous_batch", "bianchi.batched",
     {"after": _count_lanes("bianchi.batched")}),
    ("repro.bianchi.batched", "solve_symmetric_grid", "bianchi.batched",
     {"after": _count_lanes("bianchi.batched")}),
    ("repro.bianchi.meanfield", "solve_mean_field_batch", "bianchi.meanfield",
     {"after": _count_lanes("bianchi.meanfield")}),
    ("repro.bianchi.meanfield", "solve_mean_field", "bianchi.meanfield",
     {"after": _count_lanes("bianchi.meanfield")}),
    ("repro.bianchi.fixedpoint", "solve_symmetric", "bianchi.scalar", {}),
    ("repro.bianchi.fixedpoint", "solve_heterogeneous", "bianchi.scalar", {}),
    ("repro.game.equilibrium", "analyze_equilibria", "game.equilibria", {}),
    ("repro.game.equilibrium", "efficient_window", "game.equilibria", {}),
    ("repro.game.equilibrium", "breakeven_window", "game.equilibria", {}),
    ("repro.game.deviation", "deviation_table", "game.deviation", {}),
    ("repro.game.deviation", "analyze_deviation", "game.deviation", {}),
    ("repro.game.deviation", "optimal_deviation_window", "game.deviation", {}),
    ("repro.verify.certify", "run_certification", "verify.certify", {}),
    ("repro.verify.certify", "certify_claim", "verify.certify", {}),
    ("repro.multihop.game", "MultihopGame.solve", "multihop", {}),
    ("repro.multihop.game", "MultihopGame.quasi_optimality", "multihop", {}),
    ("repro.multihop.game", "MultihopGame.check_no_profitable_deviation",
     "multihop", {}),
    ("repro.detect.screening", "screen_population", "detect.screen", {}),
    ("repro.store.store", "ResultStore.put", "store.put", {"io": "write"}),
    ("repro.store.locking", "StoreLock.acquire", "store.lock", {}),
    ("repro.store.store", "ResultStore.contains", "store.read", {}),
    ("repro.store.store", "ResultStore.manifest", "store.read", {"io": "read"}),
    ("repro.store.store", "ResultStore.load_result", "store.read",
     {"io": "read"}),
    ("repro.store.store", "ResultStore.verify", "store.read", {"io": "read"}),
    ("repro.store.store", "ResultStore.find", "store.read", {"io": "read"}),
    ("repro.campaign.engine", "run_campaign", "campaign.run",
     {"after": _count_campaign}),
    ("repro.campaign.spec", "expand_tasks", "campaign.expand", {}),
    ("repro.campaign.engine", "_partition", "campaign.partition", {}),
    ("repro.serve.requests", "parse_request", "serve.parse",
     {"trace": _parsed_digest}),
    ("repro.serve.service", "EquilibriumService._cache_lookup",
     "serve.lookup", {"trace": _lookup_digest}),
    ("repro.serve.solvers", "solve_request", "serve.solve",
     {"trace": _digest_of_request}),
    ("repro.serve.solvers", "solve_fixed_point_batch", "serve.batch",
     {"after": _count_fold}),
    ("repro.serve.solvers", "solve_mean_field_request_batch", "serve.batch",
     {"after": _count_fold}),
    ("repro.serve.service", "EquilibriumService._commit", "serve.commit",
     {"trace": _commit_digest}),
    ("repro.serve.requests", "encode_json", "serve.encode",
     {"after": _count_encoded}),
    ("repro.obs.profile", "build_profile", "obs.profile",
     {"after": _count_events}),
)


def install(tracer: Tracer, skip: Iterable[str] = ()) -> int:
    """Wrap every target wherever a loaded ``repro`` module binds it.

    Returns the number of bindings replaced.  The modules named in
    :data:`TARGETS` are imported first, so lazily imported layers
    (serve, verify, detect) are wrapped before the program uses them.
    Layers in ``skip`` stay unwrapped: the server skips ``cli.main``,
    whose one call lasts the server's whole life.
    """
    import importlib

    replaced = 0
    skipped = set(skip)
    for module_name, attribute, layer, options in TARGETS:
        if layer in skipped:
            continue
        module = importlib.import_module(module_name)
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            setattr(owner, method, tracer.wrap(original, layer, **options))
            replaced += 1
            continue
        original = getattr(module, attribute)
        wrapper = tracer.wrap(original, layer, **options)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    replaced += 1

    original_popen_init = subprocess.Popen.__init__

    def popen_init(self: Any, *args: Any, **kwargs: Any) -> None:
        if tracer.in_layer("store.put"):
            tracer.count("store.put.forks")
        original_popen_init(self, *args, **kwargs)

    subprocess.Popen.__init__ = popen_init  # type: ignore[method-assign]
    return replaced


# -- reading the trace -----------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, in seconds, keyed by span id.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  Children may run on other threads and
    overlap each other, so the covered part is the length of the union
    of the children's intervals, clipped to the parent's.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.ident, ())
            if end > span.start and start < span.end
        ]
        result[span.ident] = (span.end - span.start) - union_length(clipped)
    return result


def uncovered(spans: Sequence[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` that no span covers."""
    clipped = [
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.end > start and span.start < end
    ]
    return (end - start) - union_length(clipped)


def queue_waits(spans: Sequence[Span]) -> List[float]:
    """Parse-end to solve-start gaps, in seconds, per solved digest.

    A digest solved alone has a ``serve.solve`` span with its trace id;
    a digest solved in a micro-batch has a commit but no solve span of
    its own, and its solve starts with the first batch after its parse.
    Hits and coalesced requests never wait for a solve.
    """
    parse_end: Dict[str, float] = {}
    solo: Dict[str, float] = {}
    committed = set()
    batch_starts = []
    for span in spans:
        if span.layer == "serve.batch":
            batch_starts.append(span.start)
        elif span.trace is None:
            continue
        elif span.layer == "serve.parse":
            parse_end.setdefault(span.trace, span.end)
        elif span.layer == "serve.solve":
            solo.setdefault(span.trace, span.start)
        elif span.layer == "serve.commit":
            committed.add(span.trace)
    batch_starts.sort()
    waits = []
    for digest, end in parse_end.items():
        if digest in solo:
            waits.append(solo[digest] - end)
        elif digest in committed:
            index = bisect.bisect_left(batch_starts, end)
            if index < len(batch_starts):
                waits.append(batch_starts[index] - end)
    return waits


#: Metric families that report ``.calls`` as well as ``.self_ms``.
_CALL_COUNTED = (
    "parallel.map", "sim.run_batch", "bianchi.batched", "bianchi.meanfield",
    "bianchi.scalar", "game.equilibria", "game.deviation", "store.put",
    "store.read", "serve.parse", "obs.profile",
)

#: Span layers that report only ``.self_ms`` (under a metric name).
_SELF_ONLY = {
    "cli.main": "cli.main.self_ms",
    "sim.spatial": "sim.spatial.self_ms",
    "verify.certify": "verify.certify.self_ms",
    "multihop": "multihop.self_ms",
    "detect.screen": "detect.screen.self_ms",
    "campaign.expand": "campaign.expand.self_ms",
    "campaign.partition": "campaign.partition.self_ms",
    "serve.lookup": "serve.lookup.self_ms",
    "serve.solve": "serve.solve.self_ms",
    "serve.batch": "serve.batch.self_ms",
    "serve.commit": "serve.commit.self_ms",
    "serve.encode": "serve.encode.self_ms",
    "store.lock": "store.lock.wait_ms",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span],
    counters: Dict[str, float],
    phases: Sequence[Tuple[str, float, float]],
    serve_stats: Optional[Dict[str, int]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced session (module docstring).

    Layers the workload never reaches report zero.
    """
    own = self_times(spans)
    by_name: Dict[str, float] = {}
    for span in spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + own[span.ident]
    by_layer: Dict[str, float] = {}
    for span in spans:
        by_layer[span.layer] = by_layer.get(span.layer, 0.0) + own[span.ident]

    metrics: Dict[str, float] = {}
    for experiment_id in EXPERIMENT_IDS:
        metrics[f"experiments.{experiment_id}.self_ms"] = (
            1000.0 * by_name.get(f"experiments.{experiment_id}", 0.0)
        )
    for layer in _CALL_COUNTED:
        metrics[f"{layer}.calls"] = counters.get(f"{layer}.calls", 0.0)
        metrics[f"{layer}.self_ms"] = 1000.0 * by_layer.get(layer, 0.0)
    for layer, metric in _SELF_ONLY.items():
        metrics[metric] = 1000.0 * by_layer.get(layer, 0.0)
    metrics["parallel.map.tasks"] = counters.get("parallel.map.tasks", 0.0)
    metrics["sim.slots"] = counters.get("sim.slots", 0.0)
    for layer in ("bianchi.batched", "bianchi.meanfield"):
        metrics[f"{layer}.lanes"] = counters.get(f"{layer}.lanes", 0.0)
    metrics["bianchi.newton.ratio"] = _ratio(
        counters.get("bianchi.newton_lanes", 0.0),
        counters.get("bianchi.newton_checked", 0.0),
    )
    metrics["store.put.write_kb"] = counters.get("store.put.write_kb", 0.0)
    metrics["store.put.forks"] = counters.get("store.put.forks", 0.0)
    metrics["store.put.failed"] = counters.get("store.put.failed", 0.0)
    metrics["store.read.read_kb"] = counters.get("store.read.read_kb", 0.0)
    metrics["campaign.hit.ratio"] = _ratio(
        counters.get("campaign.cached", 0.0), counters.get("campaign.tasks", 0.0)
    )
    waits = queue_waits(spans)
    metrics["serve.queue.wait_ms"] = 1000.0 * sum(waits)
    metrics["serve.batch.fold"] = _ratio(
        counters.get("serve.batch.documents", 0.0),
        counters.get("serve.batch.calls", 0.0),
    )
    metrics["serve.encode.kb"] = counters.get("serve.encode.kb", 0.0)
    stats = serve_stats or {}
    metrics["serve.hit.ratio"] = _ratio(
        stats.get("cache_hits", 0), stats.get("requests", 0)
    )
    metrics["serve.coalesced.ratio"] = _ratio(
        stats.get("coalesced", 0), stats.get("requests", 0)
    )
    metrics["serve.failed"] = float(stats.get("errors", 0))
    metrics["obs.events"] = counters.get("obs.events", 0.0)
    for phase in PHASES:
        metrics[f"trace.{phase}.uncovered_ms"] = 1000.0 * sum(
            uncovered(spans, start, end)
            for name, start, end in phases
            if name == phase
        )
    return metrics


def load_trace(path: Path) -> Tuple[List[Span], Dict[str, float], List[Tuple[str, float, float]]]:
    """Spans, counters and phases written by :meth:`Tracer.dump`."""
    payload = json.loads(path.read_text())
    spans = [Span.from_list(row) for row in payload["spans"]]
    phases = [tuple(row) for row in payload["phases"]]
    return spans, payload["counters"], phases  # type: ignore[return-value]
