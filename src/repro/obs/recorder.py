"""Recorder backends and the ambient-recorder context.

A *recorder* receives instrumentation events (plain JSON-typed dicts;
see ``docs/observability.md`` for the schema).  The ambient recorder is
held in a :class:`contextvars.ContextVar`, so nested ``use_recorder``
blocks restore their predecessor on exit and threads/async tasks are
isolated automatically.

The default is the shared :data:`NULL_RECORDER`: ``enabled`` is False
and every instrumentation helper returns after one attribute check,
which is what keeps the no-op overhead of the instrumented hot paths
below the 2% bound asserted in ``benchmarks/test_bench_kernel.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import IO, Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.obs.jsonl import event_to_line

__all__ = [
    "JsonlRecorder",
    "MemoryRecorder",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "current_span_id",
    "enabled",
    "get_recorder",
    "use_recorder",
]

Event = Dict[str, Any]


class Recorder:
    """Base recorder: the structural contract of every backend.

    Attributes
    ----------
    enabled:
        Class-level fast flag.  Instrumentation helpers check it before
        building any event payload, so a disabled recorder costs one
        attribute lookup per call site.
    """

    enabled: bool = False
    _next_id: int = 0

    def record(self, event: Event) -> None:
        """Receive one event (no-op in the base class)."""

    def next_span_id(self) -> int:
        """Allocate a recorder-local span id (0 when disabled)."""
        if not self.enabled:
            return 0
        self._next_id += 1
        return self._next_id

    def ingest(
        self,
        events: Sequence[Event],
        *,
        parent_id: Optional[int] = None,
    ) -> None:
        """Record a batch of events recorded elsewhere (e.g. a worker).

        Span ids are remapped past this recorder's counter so batches
        from several workers never collide; root spans of the batch
        (``parent_id`` is None) are re-parented under ``parent_id`` so
        the merged trace keeps one well-formed tree.
        """
        offset = self._next_id
        highest = offset
        for event in events:
            event = dict(event)
            span_id = event.get("span_id")
            if isinstance(span_id, int):
                event["span_id"] = span_id + offset
                highest = max(highest, span_id + offset)
            if "parent_id" in event:
                parent = event["parent_id"]
                if isinstance(parent, int):
                    event["parent_id"] = parent + offset
                else:
                    event["parent_id"] = parent_id
            self.record(event)
        self._next_id = highest


class NullRecorder(Recorder):
    """The default do-nothing recorder."""


#: Shared singleton installed when no recorder is active.
NULL_RECORDER = NullRecorder()


class MemoryRecorder(Recorder):
    """Collects events in memory (the backend behind run profiles)."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[Event] = []

    def record(self, event: Event) -> None:
        self.events.append(event)


class JsonlRecorder(Recorder):
    """Streams events as JSON Lines to an open text handle.

    One event per line, keys sorted (:func:`repro.obs.jsonl.event_to_line`),
    so the stream is greppable and tail-able while a run is in flight.
    The caller owns the handle's lifetime; ``flush`` is called per event
    only when ``autoflush`` is set.
    """

    enabled = True

    def __init__(self, handle: IO[str], *, autoflush: bool = False) -> None:
        self._handle = handle
        self._autoflush = autoflush

    def record(self, event: Event) -> None:
        self._handle.write(event_to_line(event) + "\n")
        if self._autoflush:
            self._handle.flush()


_recorder_var: ContextVar[Recorder] = ContextVar(
    "repro_obs_recorder", default=NULL_RECORDER
)
_span_var: ContextVar[Optional[int]] = ContextVar(
    "repro_obs_span", default=None
)


def get_recorder() -> Recorder:
    """The ambient recorder (the shared null recorder by default)."""
    return _recorder_var.get()


def enabled() -> bool:
    """Whether the ambient recorder records anything."""
    return _recorder_var.get().enabled


def current_span_id() -> Optional[int]:
    """Id of the innermost open span, or None outside any span."""
    return _span_var.get()


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` as the ambient recorder for one block.

    The previous recorder (and the open-span pointer) is restored on
    exit even when the body raises, so instrumentation state can never
    leak across test cases or worker tasks.
    """
    recorder_token = _recorder_var.set(recorder)
    span_token = _span_var.set(None)
    try:
        yield recorder
    finally:
        _span_var.reset(span_token)
        _recorder_var.reset(recorder_token)


def _set_current_span(span_id: Optional[int]) -> "Token":
    """Internal: push the open-span pointer (used by ``obs.span``)."""
    return _span_var.set(span_id)


def _reset_current_span(token: "Token") -> None:
    """Internal: pop the open-span pointer (used by ``obs.span``)."""
    _span_var.reset(token)


# Typing alias for the contextvars token passed between the two helpers.
Token = Any
