"""Campaign execution: cache-aware dispatch with exact resume.

``run_campaign`` expands a spec (:func:`repro.campaign.spec.expand_tasks`),
checks every task digest against the results store, and dispatches only
the misses through :func:`repro.experiments.parallel.parallel_map` - the
same runner, with the same SeedSequence-spawn determinism, the sweep
experiments use internally.  Each finished task is committed to the
store from the parent process *as it completes* (the runner's
``on_result`` hook), so an interrupted campaign (SIGINT, OOM kill,
power loss mid-JSON thanks to atomic writes) leaves a store whose
membership is exactly the completed prefix; rerunning the same spec
resumes from there without recomputing anything.

**Multi-writer sharding.**  One campaign can be split across several
writer processes (or hosts sharing the store filesystem): pass
``shard=(index, count)`` to restrict a run to the tasks with
``task.index % count == index``, and/or ``writer_id`` to claim tasks
through the store's :class:`~repro.store.journal.WriterJournal` before
executing them.  Claims make overlapping writers safe (a task is only
computed once even when shards overlap or a writer is started twice) and
every commit is journalled per writer, which is what
:func:`campaign_status` reads to show shard progress and to distinguish
"pending" from "claimed by another writer".  Resume stays exact and
writer-free: store membership alone decides what still needs computing,
so a plain single-process rerun after any number of sharded writers
finds zero missing and zero duplicated tasks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CampaignError, IntegrityError
from repro.experiments.export import result_to_dict
from repro.experiments.parallel import parallel_map
from repro.experiments.registry import run_experiment
from repro.experiments.reporting import format_table
from repro.obs import MemoryRecorder, build_profile, use_recorder
from repro.obs.metrics import inc as _obs_inc
from repro.store import ResultStore, WriterJournal
from repro.campaign.spec import CampaignSpec, CampaignTask, expand_tasks

__all__ = [
    "CampaignReport",
    "TaskOutcome",
    "campaign_status",
    "parse_shard",
    "run_campaign",
]

#: Cache-entering analysis root for ``repro.lint --deep`` (REPRO101):
#: ``run_experiment`` is what a campaign worker executes to produce the
#: payload committed under a task digest - the timing/recorder work in
#: ``_execute_task`` wraps it but lands in the manifest, not the cached
#: result, so the purity obligation starts exactly here.
ANALYSIS_ROOTS = ("repro.experiments.registry.run_experiment",)

_WorkerTask = Tuple[str, Dict[str, Any]]
_WorkerResult = Tuple[Any, str, float, List[Dict[str, Any]]]


@dataclass(frozen=True)
class TaskOutcome:
    """Final state of one campaign task.

    ``status`` is one of ``"cached"`` (already in the store),
    ``"executed"`` (computed and committed by this run), ``"pending"``
    (not computed and unclaimed), ``"claimed"`` (another writer holds
    the claim; ``claimed_by`` names it) or ``"other-shard"`` (excluded
    from this run by its ``shard`` selector).
    """

    index: int
    digest: str
    params: Dict[str, Any]
    status: str
    wall_time_s: Optional[float] = None
    claimed_by: Optional[str] = None


@dataclass(frozen=True)
class CampaignReport:
    """Summary of one :func:`run_campaign`/:func:`campaign_status` pass.

    ``writer_progress`` maps writer ids to the number of tasks of this
    campaign each has journalled as committed (empty outside multi-writer
    mode).
    """

    spec_name: str
    experiment_id: str
    outcomes: List[TaskOutcome]
    interrupted: bool = False
    writer_progress: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "executed")

    @property
    def pending(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "pending")

    @property
    def claimed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "claimed")

    @property
    def other_shard(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "other-shard")

    @property
    def complete(self) -> bool:
        return (
            self.pending == 0
            and self.claimed == 0
            and self.other_shard == 0
            and not self.interrupted
        )

    def render(self) -> str:
        headers = ["#", "digest", "status", "wall [s]", "params"]
        rows = []
        for outcome in self.outcomes:
            wall = (
                "-"
                if outcome.wall_time_s is None
                else f"{outcome.wall_time_s:.2f}"
            )
            params = ", ".join(
                f"{key}={value!r}" for key, value in outcome.params.items()
            )
            status = outcome.status
            if outcome.claimed_by is not None:
                status = f"{status}({outcome.claimed_by})"
            rows.append(
                [outcome.index, outcome.digest[:12], status, wall, params]
            )
        state = "INTERRUPTED" if self.interrupted else (
            "complete" if self.complete else "incomplete"
        )
        extras = ""
        if self.claimed:
            extras += f", {self.claimed} claimed"
        if self.other_shard:
            extras += f", {self.other_shard} other-shard"
        title = (
            f"Campaign {self.spec_name!r} ({self.experiment_id}): "
            f"{self.total} tasks, {self.cached} cached, "
            f"{self.executed} executed, {self.pending} pending"
            f"{extras} [{state}]"
        )
        table = format_table(headers, rows, title=title)
        if not self.writer_progress:
            return table
        lines = [table, "writers:"]
        for writer in sorted(self.writer_progress):
            committed = self.writer_progress[writer]
            share = committed / self.total if self.total else 0.0
            lines.append(
                f"  {writer}: {committed}/{self.total} committed "
                f"({share:.1%})"
            )
        return "\n".join(lines)


def _execute_task(task: _WorkerTask) -> _WorkerResult:
    """Worker: run one experiment task (module-level, hence picklable).

    Each task records into its own :class:`~repro.obs.MemoryRecorder`
    regardless of any ambient recorder, and ships the events back with
    the result so the parent can fold them into the per-run profile
    committed next to the manifest.
    """
    experiment_id, params = task
    recorder = MemoryRecorder()
    started = time.perf_counter()
    with use_recorder(recorder):
        result = run_experiment(experiment_id, **params)
    wall = time.perf_counter() - started
    return result_to_dict(result), result.render(), wall, recorder.events


def _partition(
    tasks: List[CampaignTask], store: ResultStore, *, force: bool
) -> Tuple[List[CampaignTask], Dict[int, str]]:
    """Split tasks into (to-run, {index: "cached"}) by store membership.

    A cache hit is only honoured after :meth:`ResultStore.verify`: a
    task whose stored object is corrupt (tampered payload, truncated or
    field-stripped manifest) is demoted to pending and re-executed, so a
    resumed campaign heals the store instead of trusting it blindly.
    """
    cached: Dict[int, str] = {}
    pending: List[CampaignTask] = []
    for task in tasks:
        hit = False
        if not force and store.contains(task.digest):
            try:
                store.verify(task.digest)
                hit = True
            except IntegrityError:
                hit = False
        _obs_inc("store.cache", 1, outcome="hit" if hit else "miss")
        if hit:
            cached[task.index] = "cached"
        else:
            pending.append(task)
    return pending, cached


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``K/M`` shard selector into ``(index, count)``.

    ``K`` is the zero-based shard index, ``M`` the shard count; a run
    with ``shard=(K, M)`` executes exactly the tasks whose index is
    congruent to ``K`` modulo ``M``.
    """
    parts = text.split("/")
    if len(parts) != 2:
        raise CampaignError(
            f"shard must look like 'K/M' (e.g. '0/4'), got {text!r}"
        )
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError as error:
        raise CampaignError(
            f"shard must be two integers 'K/M', got {text!r}"
        ) from error
    return _check_shard((index, count))


def _check_shard(shard: Tuple[int, int]) -> Tuple[int, int]:
    index, count = shard
    if count < 1:
        raise CampaignError(f"shard count must be >= 1, got {count!r}")
    if not 0 <= index < count:
        raise CampaignError(
            f"shard index must lie in [0, {count}), got {index!r}"
        )
    return (index, count)


def _writer_progress(
    journal: WriterJournal, campaign_name: str
) -> Dict[str, int]:
    """Per-writer committed-task counts for one campaign's journals."""
    progress: Dict[str, int] = {}
    for entry in journal.all_entries():
        if entry.get("campaign") != campaign_name:
            continue
        writer = str(entry.get("writer", "?"))
        progress[writer] = progress.get(writer, 0) + 1
    return progress


def campaign_status(
    spec: CampaignSpec, *, store: Optional[ResultStore] = None
) -> CampaignReport:
    """What a run would do now: which tasks are cached, which pending.

    Once multi-writer journals exist for the store, a pending task whose
    digest is claimed by a writer is reported ``"claimed"`` (with the
    writer id) rather than ``"pending"``, and the report carries the
    per-writer shard progress from the journals.
    """
    store = store if store is not None else ResultStore.default()
    tasks = expand_tasks(spec)
    pending, cached = _partition(tasks, store, force=False)
    pending_indices = {task.index for task in pending}
    journal = WriterJournal(store.root, "status-probe")
    outcomes = []
    for task in tasks:
        status = "pending" if task.index in pending_indices else "cached"
        claimed_by: Optional[str] = None
        if status == "pending":
            owner = journal.claim_owner(task.digest)
            if owner is not None:
                status = "claimed"
                claimed_by = owner.writer
        outcomes.append(
            TaskOutcome(
                index=task.index,
                digest=task.digest,
                params=task.params,
                status=status,
                claimed_by=claimed_by,
            )
        )
    return CampaignReport(
        spec_name=spec.name,
        experiment_id=spec.experiment_id,
        outcomes=outcomes,
        writer_progress=_writer_progress(journal, spec.name),
    )


def run_campaign(
    spec: CampaignSpec,
    *,
    store: Optional[ResultStore] = None,
    jobs: Optional[int] = None,
    force: bool = False,
    shard: Optional[Tuple[int, int]] = None,
    writer_id: Optional[str] = None,
) -> CampaignReport:
    """Run a campaign through the store (see module docstring).

    Parameters
    ----------
    spec:
        The validated campaign specification.
    store:
        Results store; defaults to :meth:`ResultStore.default`.
    jobs:
        Worker override; ``None`` defers to ``spec.jobs``.
    force:
        Re-execute every task even on a store hit (``--no-cache``).
    shard:
        ``(index, count)`` selector restricting this run to the tasks
        with ``task.index % count == index`` (see :func:`parse_shard`);
        excluded tasks are reported ``"other-shard"``.
    writer_id:
        Identity under which pending tasks are claimed and commits are
        journalled.  Supplying a shard without a writer id uses
        :func:`~repro.store.journal.default_writer_id`, so concurrent
        shard processes are always claim-protected against each other.

    Returns
    -------
    CampaignReport
        Per-task outcomes.  If the sweep is interrupted by SIGINT the
        report is returned (not raised) with ``interrupted=True`` and
        the unfinished tasks left ``"pending"``; everything committed
        before the interrupt stays in the store, and this writer's
        unexecuted claims are released so other writers can pick the
        tasks up immediately.
    """
    store = store if store is not None else ResultStore.default()
    if shard is not None:
        shard = _check_shard(shard)
    tasks = expand_tasks(spec)
    pending, statuses = _partition(tasks, store, force=force)
    wall_times: Dict[int, float] = {}
    claimed_by: Dict[int, str] = {}

    if shard is not None:
        index, count = shard
        in_shard = []
        for task in pending:
            if task.index % count == index:
                in_shard.append(task)
            else:
                statuses[task.index] = "other-shard"
        pending = in_shard

    journal: Optional[WriterJournal] = None
    held_claims: Dict[int, str] = {}
    if shard is not None or writer_id is not None:
        journal = WriterJournal(store.root, writer_id)
        runnable = []
        for task in pending:
            if journal.claim(task.digest):
                held_claims[task.index] = task.digest
                runnable.append(task)
            else:
                owner = journal.claim_owner(task.digest)
                statuses[task.index] = "claimed"
                if owner is not None:
                    claimed_by[task.index] = owner.writer
        pending = runnable

    def _commit(position: int, _task: _WorkerTask, value: _WorkerResult) -> None:
        task = pending[position]
        payload, rendered, wall, events = value
        profile = build_profile(
            events,
            meta={
                "experiment_id": task.experiment_id,
                "params": task.params,
                "campaign": spec.name,
                "task_index": task.index,
            },
        )
        store.put(
            task.experiment_id,
            task.params,
            payload,
            rendered=rendered,
            wall_time_s=wall,
            digest=task.digest,
            profile=profile,
        )
        statuses[task.index] = "executed"
        wall_times[task.index] = wall
        if journal is not None:
            journal.record(
                task.digest,
                campaign=spec.name,
                task_index=task.index,
                wall_time_s=wall,
            )
            journal.release(task.digest)
            held_claims.pop(task.index, None)

    interrupted = False
    worker_tasks: List[_WorkerTask] = [
        (task.experiment_id, dict(task.params)) for task in pending
    ]
    try:
        parallel_map(
            _execute_task,
            worker_tasks,
            jobs=jobs if jobs is not None else spec.jobs,
            on_result=_commit,
        )
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if journal is not None:
            # Claims on tasks we never committed (interrupt, worker
            # failure) must not linger: release them so other writers
            # see plain "pending" instead of waiting out staleness.
            for digest in held_claims.values():
                journal.release(digest)

    outcomes = [
        TaskOutcome(
            index=task.index,
            digest=task.digest,
            params=task.params,
            status=statuses.get(task.index, "pending"),
            wall_time_s=wall_times.get(task.index),
            claimed_by=claimed_by.get(task.index),
        )
        for task in tasks
    ]
    return CampaignReport(
        spec_name=spec.name,
        experiment_id=spec.experiment_id,
        outcomes=outcomes,
        interrupted=interrupted,
        writer_progress=(
            _writer_progress(journal, spec.name) if journal is not None else {}
        ),
    )
