"""Process-pool experiment runner with deterministic per-task seeding.

The headline sweeps (Tables II/III, Figures 2/3, the Section VII.B
snapshots) decompose into independent tasks.  This module runs such task
lists either serially or on a :class:`concurrent.futures.ProcessPoolExecutor`
with two invariants that make ``--jobs`` a pure speed knob:

* **Determinism.**  Task order is preserved and every stochastic task
  receives its own child of one root :class:`numpy.random.SeedSequence`
  *before* dispatch (:func:`spawn_seeds`), so results are bit-identical
  for a fixed root seed regardless of the worker count - the property
  ``tests/unit/test_parallel_runner.py`` pins.

* **Isolation.**  Child sequences are statistically independent streams
  (the SeedSequence spawning guarantee), so replicas never share random
  state even when they run in the same process.

Workers must be module-level callables (picklability); each experiment
module keeps its own private ``_task``-style worker next to its ``run``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.errors import ParameterError
from repro.obs import (
    MemoryRecorder,
    current_span_id,
    enabled as _obs_enabled,
    get_recorder,
    span as _obs_span,
    use_recorder,
)
from repro.obs.metrics import gauge_set as _obs_gauge_set
from repro.obs.metrics import inc as _obs_inc

__all__ = ["parallel_map", "resolve_jobs", "spawn_seeds"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value to a concrete worker count.

    ``None`` and ``1`` mean serial execution; ``0`` means one worker per
    available CPU; any other positive integer is used as-is.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ParameterError(f"jobs must be >= 0, got {jobs!r}")
    if jobs == 0:
        return os.cpu_count() or 1
    return int(jobs)


def spawn_seeds(
    root: Union[int, np.random.SeedSequence], count: int
) -> List[np.random.SeedSequence]:
    """Spawn ``count`` independent child sequences from a root seed.

    The children are a pure function of the root entropy and the spawn
    index, so the same root always yields the same (independent) streams
    - the backbone of every experiment's reproducibility.
    """
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count!r}")
    sequence = (
        root
        if isinstance(root, np.random.SeedSequence)
        else np.random.SeedSequence(root)
    )
    return sequence.spawn(count)


@dataclass
class _WorkerBatch:
    """A task's return value plus the events its execution recorded."""

    value: Any
    events: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class _RecordedCall:
    """Picklable wrapper running ``fn`` under a task-local recorder.

    Instrumentation state never crosses process boundaries, so each task
    records into a fresh :class:`MemoryRecorder` and ships the event
    batch back with its result through the normal ``pool.map`` channel
    (no extra queues or shared state).  The same wrapper runs on the
    serial path, so ``--jobs`` changes neither the recorded counters nor
    the span structure - only the timings.
    """

    fn: Callable[[Any], Any]

    def __call__(self, task: Any) -> "_WorkerBatch":
        recorder = MemoryRecorder()
        with use_recorder(recorder):
            value = self.fn(task)
        return _WorkerBatch(value=value, events=recorder.events)


def parallel_map(
    fn: Callable[[_T], _R],
    tasks: Sequence[_T],
    *,
    jobs: Optional[int] = None,
    on_result: Optional[Callable[[int, _T, _R], None]] = None,
) -> List[_R]:
    """Map ``fn`` over ``tasks``, optionally on a process pool.

    Parameters
    ----------
    fn:
        Module-level callable applied to each task (must be picklable
        when ``jobs`` implies more than one worker).
    tasks:
        The task list; results come back in the same order.
    jobs:
        Worker count as in :func:`resolve_jobs`.  The pool is capped at
        ``len(tasks)`` - there is no point spawning idle processes.
    on_result:
        Optional ``callback(index, task, result)`` invoked **in the
        calling process**, in task order, as each result becomes
        available.  This is the commit hook the campaign engine uses to
        persist finished tasks immediately: if the sweep is interrupted
        (SIGINT, crash), everything already committed survives and a
        rerun resumes after it.

    Returns
    -------
    list
        ``[fn(task) for task in tasks]``, computed serially or in
        parallel but always in task order.

    Notes
    -----
    When a recorder is active (:func:`repro.obs.use_recorder`), each
    task runs under its own :class:`~repro.obs.MemoryRecorder` - in the
    worker process for pool runs, in-process for serial runs - and the
    event batches are merged back into the caller's recorder in task
    order.  The merged stream is therefore identical (up to timing
    values) for any worker count, which is what keeps run-profile
    digests byte-identical across ``--jobs`` settings.
    """
    task_list = list(tasks)
    workers = min(resolve_jobs(jobs), len(task_list))
    if not _obs_enabled():
        return _plain_map(fn, task_list, workers, on_result)
    recorder = get_recorder()
    with _obs_span("parallel.map", tasks=len(task_list), jobs=workers):
        parent_id = current_span_id()
        results: List[_R] = []

        def consume(index: int, task: _T, batch: "_WorkerBatch") -> None:
            recorder.ingest(batch.events, parent_id=parent_id)
            _obs_inc("parallel.tasks", 1)
            _obs_gauge_set(
                "parallel.tasks_in_flight", len(task_list) - index - 1
            )
            if on_result is not None:
                on_result(index, task, batch.value)
            results.append(batch.value)

        wrapped = _RecordedCall(fn)
        if workers <= 1 or len(task_list) <= 1:
            for index, task in enumerate(task_list):
                consume(index, task, wrapped(task))
            return results
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, batch in enumerate(pool.map(wrapped, task_list)):
                consume(index, task_list[index], batch)
        return results


def _plain_map(
    fn: Callable[[_T], _R],
    task_list: List[_T],
    workers: int,
    on_result: Optional[Callable[[int, _T, _R], None]],
) -> List[_R]:
    """The uninstrumented fast path (no recorder installed)."""
    results: List[_R] = []
    if workers <= 1 or len(task_list) <= 1:
        for index, task in enumerate(task_list):
            value = fn(task)
            if on_result is not None:
                on_result(index, task, value)
            results.append(value)
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for index, value in enumerate(pool.map(fn, task_list)):
            if on_result is not None:
                on_result(index, task_list[index], value)
            results.append(value)
    return results
