"""Job lifecycle for the study service: schedule, run, stream, persist.

One :class:`JobManager` owns every job the daemon has ever accepted:

- **Submit-side dedupe.** A job's identity is its spec's content address
  (:meth:`~repro.core.jobspec.JobSpec.job_key`), so resubmitting an
  identical spec returns the *same* job — queued, running, or done —
  without touching the queue. A million identical POSTs cost one
  simulation; the cell-level result cache then dedupes even partially
  overlapping grids below that.
- **Concurrent, weighted execution.** A pool of runner threads executes
  jobs concurrently under an admission budget: each job weighs
  ``max(1, jobs)`` (its worker-process fan-out) against a host-derived
  ``capacity``, so two 2-process sweeps overlap while a pile of wide
  sweeps cannot oversubscribe the machine. Promotion is strict FIFO —
  only the queue head runs next — so wide jobs cannot be starved by a
  stream of narrow ones. The queue itself is bounded; past the limit,
  submission fails fast with a structured :class:`QueueFull` (surfaced
  by the HTTP layer as 503 + ``Retry-After``) rather than buffering
  unboundedly.
- **Deadlines.** ``spec.deadline_s`` bounds a job's whole wall clock:
  the budget is converted to an absolute instant at start and enforced
  executor-deep (the local pool kills in-flight cells; serial and
  distributed stop between cells). An expired job reaches the terminal
  ``failed`` state with an error starting ``"deadline"``; its settled
  cells stay cached, so a resubmission computes only the rest.
- **Durability.** Every job writes a JSON record under
  ``<state_dir>/jobs/`` (spec + status + cells + rows when finished),
  and the result cache under ``<state_dir>/cache/`` is the checkpoint.
  A daemon kill + restart reloads the records, re-enqueues anything
  unfinished, and the rerun serves already-computed cells from the
  cache bit-for-bit — restart costs only the cells that never settled.
  A ``cache=False`` job keeps no store at all and recomputes.
- **Graceful drain.** :meth:`JobManager.drain` (the SIGTERM path) flips
  the manager into *draining*: new submissions get a structured
  :class:`Draining` (503 + ``Retry-After``), queued jobs stay queued on
  disk, and running jobs get ``grace`` seconds to finish before being
  interrupted at their next checkpoint and persisted back as
  ``queued`` — so a restarted daemon reruns them over the cache.
- **Row streaming.** Completed rows are appended (and watchers woken)
  as cells settle, via the sweep's ``on_result`` hook — this is what
  ``GET /v1/jobs/{id}/rows`` serves as NDJSON while the job still runs.
  When the job finishes, the finished report's canonical table (same
  dicts, canonical (P, model) order) is published as a *new* list; a
  reader that started live finishes from the completion-order list it
  was indexing, so it sees every row exactly once.
  Active streams are refcounted (:meth:`Job.stream_ref`) so the
  retention janitor (:mod:`repro.service.retention`) never deletes a
  record somebody is still reading.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.cache import ResultCache, atomic_write
from repro.core.jobspec import JobSpec, JobSpecError
from repro.core.results import result_row
from repro.parallel.supervisor import CellFailure
from repro.service.router import BackendRouter

#: Lifecycle states a job moves through (terminal: done/failed/cancelled).
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: Job-record schema version for the on-disk JSON files.
RECORD_VERSION = 1


def default_capacity() -> int:
    """The default weighted admission budget: one slot per host CPU."""
    return max(2, os.cpu_count() or 2)


class JobCancelled(Exception):
    """Raised inside a running sweep when its job is cancelled."""


class JobDrained(Exception):
    """Raised inside a running sweep when the daemon's drain grace ends.

    Unlike :class:`JobCancelled` this is not an operator verdict on the
    job — the job goes back to ``queued`` (in memory and on disk) so a
    restarted daemon reruns it over the result cache.
    """


class QueueFull(JobSpecError):
    """The bounded job queue is at capacity; submit again later.

    Carries the scheduler snapshot the HTTP layer serializes into the
    503 body (``queued``/``running``/``capacity``) plus the
    ``Retry-After`` hint in seconds.
    """

    def __init__(
        self,
        limit: int,
        *,
        queued: int = 0,
        running: int = 0,
        capacity: int = 0,
        retry_after: float = 1.0,
    ) -> None:
        super().__init__(
            "queue", f"job queue full ({limit} queued); retry later"
        )
        self.limit = limit
        self.queued = queued
        self.running = running
        self.capacity = capacity
        self.retry_after = retry_after


class Draining(JobSpecError):
    """The daemon is draining for shutdown; submit to its successor."""

    def __init__(
        self,
        *,
        queued: int = 0,
        running: int = 0,
        capacity: int = 0,
        retry_after: float = 2.0,
    ) -> None:
        super().__init__(
            "service", "daemon is draining; retry against the restarted "
            "service"
        )
        self.queued = queued
        self.running = running
        self.capacity = capacity
        self.retry_after = retry_after


@dataclass
class Job:
    """One accepted study and everything observable about it."""

    id: str
    spec: JobSpec
    status: str = "queued"
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    error: str = ""
    executor: str = ""  #: resolved executor spec the job ran (or runs) under
    rows: list[dict[str, Any]] = field(default_factory=list)
    cells: list[dict[str, Any]] = field(default_factory=list)
    failures: list[dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._cancel = threading.Event()
        self._streams = 0
        #: Admission weight (the job's worker-process fan-out); set by
        #: the manager at submit/recover time.
        self.weight = max(1, self.spec.jobs)

    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed", "cancelled")

    # Progress reads the record itself, so it survives a restart.
    @property
    def total_cells(self) -> int:
        return len(self.spec.models) * len(self.spec.ranks)

    @property
    def completed_cells(self) -> int:
        return len(self.cells)

    @property
    def cached_cells(self) -> int:
        return sum(1 for cell in self.cells if cell["status"] == "cached")

    @property
    def failed_cells(self) -> int:
        return len(self.failures)

    @property
    def active_streams(self) -> int:
        """Live row-stream subscribers (blocks retention GC while > 0)."""
        return self._streams

    def snapshot(self) -> dict[str, Any]:
        """A consistent status view (what ``GET /v1/jobs/{id}`` returns)."""
        with self._lock:
            return {
                "id": self.id,
                "status": self.status,
                "spec": self.spec.to_json(),
                "executor": self.executor,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "error": self.error,
                "progress": {
                    "total": self.total_cells,
                    "completed": self.completed_cells,
                    "cached": self.cached_cells,
                    "failed": self.failed_cells,
                },
                "cells": list(self.cells),
            }

    # ------------------------------------------------------------------
    def _notify(self) -> None:
        with self._changed:
            self._changed.notify_all()

    @contextlib.contextmanager
    def stream_ref(self) -> Iterator[None]:
        """Refcount a live row stream for the duration of the block.

        The HTTP layer wraps every ``/rows`` response in this, so the
        retention janitor can see (and skip) records that are still
        being read — deleting under a reader would truncate its stream.
        """
        with self._lock:
            self._streams += 1
        try:
            yield
        finally:
            with self._lock:
                self._streams -= 1

    def stream_rows(self, poll: float = 0.25) -> Iterator[dict[str, Any]]:
        """Yield row dicts as they land; returns when the job is terminal.

        Safe to call at any point in the job's life: rows already
        recorded are replayed first, then the iterator blocks on the
        job's condition until new rows arrive or the job finishes.
        """
        with self._lock:
            # Index one list for the whole stream. While the job runs the
            # manager only appends to it, and every row is appended
            # before the job turns terminal; the finished table then
            # replaces ``self.rows`` with a re-sorted list, which a
            # ``served`` count into the old order must never index.
            rows = self.rows
        served = 0
        while True:
            with self._changed:
                while served >= len(rows) and not self.terminal:
                    self._changed.wait(timeout=poll)
                batch = rows[served:]
                served += len(batch)
                finished = self.terminal
            for row in batch:
                yield row
            if finished:
                return


class JobManager:
    """Accepts, schedules, executes, and persists jobs for one daemon.

    Args:
        state_dir: the service's durable root — job records under
            ``jobs/``, the shared result cache under ``cache/``. The
            layout matches what ``repro study --cache-dir
            <state_dir>/cache`` produces, so a hand-run study pointed
            there shares cells with the daemon.
        router: backend routing policy (default: local in-process).
        max_queued: bound on jobs waiting to run.
        capacity: weighted admission budget (default: one slot per host
            CPU, minimum 2). A job weighs ``max(1, jobs)``; the head of
            the queue is promoted while the running weight stays within
            the budget — except that the head always runs when nothing
            else is running, so a job wider than the whole budget still
            executes (alone).
        workers: job-runner threads (default: derived from ``capacity``,
            capped at 4 — each job already fans its *cells* across
            worker processes; runner threads only bound how many jobs
            can overlap).
        log: optional ``print``-like callable for lifecycle lines.
    """

    def __init__(
        self,
        state_dir: "str | os.PathLike",
        *,
        router: BackendRouter | None = None,
        max_queued: int = 64,
        capacity: int | None = None,
        workers: int | None = None,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.state_dir = pathlib.Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.cache_dir = self.state_dir / "cache"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.router = router if router is not None else BackendRouter()
        self.max_queued = int(max_queued)
        self.capacity = int(capacity) if capacity else default_capacity()
        if self.capacity < 1:
            raise JobSpecError("capacity", "must be >= 1")
        self.workers = (
            int(workers) if workers else max(2, min(self.capacity, 4))
        )
        if self.workers < 1:
            raise JobSpecError("workers", "must be >= 1")
        self.log = log if log is not None else (lambda _msg: None)
        self._jobs: dict[str, Job] = {}
        self._queue: list[str] = []
        self._running: set[str] = set()
        self._running_weight = 0
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._draining = False
        self._drain_stop = threading.Event()
        #: Serializes jobs on *shared* (daemon-lifetime) executors — the
        #: distributed fabric dispatches one sweep at a time; local
        #: executors are per-job and overlap freely.
        self._shared_gate = threading.Lock()
        self._recover()
        self._threads = [
            threading.Thread(
                target=self._run_loop,
                name=f"repro-job-runner-{i}",
                daemon=True,
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Durable job records
    # ------------------------------------------------------------------
    def record_path(self, job_id: str) -> pathlib.Path:
        """The job's durable JSON record (public: the janitor uses it)."""
        return self.jobs_dir / f"{job_id}.json"

    def _persist(self, job: Job) -> None:
        """Write the job's durable record atomically (crash-safe)."""
        record = {
            "v": RECORD_VERSION,
            "id": job.id,
            "spec": job.spec.to_json(),
            "status": job.status,
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "error": job.error,
            "executor": job.executor,
            "rows": job.rows if job.terminal else [],
            "cells": job.cells if job.terminal else [],
            "failures": job.failures,
        }
        with atomic_write(self.record_path(job.id)) as tmp:
            tmp.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")

    def _recover(self) -> None:
        """Reload job records; re-enqueue anything the crash interrupted.

        A ``running`` record means the previous daemon died mid-sweep;
        it goes back on the queue and the rerun serves every cell that
        settled before the kill from the cache. Malformed records are
        skipped (one lost record = one lost job *description*; the
        results themselves live in the content-addressed cache
        regardless).
        A record written under an older ``CACHE_SALT`` no longer matches
        its spec's ``job_key``: unfinished, it is re-run under today's
        key; finished, it is kept under its old id until retention
        removes it. Unfinished retention tombstones are completed first,
        so a crash mid-GC cannot leave a half-deleted job resurrectable.
        """
        from repro.service.retention import finish_tombstones

        finish_tombstones(self.jobs_dir, log=self.log)
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
                if record.get("v") != RECORD_VERSION:
                    continue
                spec = JobSpec.from_json(record["spec"])
                job = Job(
                    id=str(record["id"]),
                    spec=spec,
                    status=str(record.get("status", "queued")),
                    submitted_at=float(record.get("submitted_at", 0.0)),
                    started_at=float(record.get("started_at", 0.0)),
                    finished_at=float(record.get("finished_at", 0.0)),
                    error=str(record.get("error", "")),
                    executor=str(record.get("executor", "")),
                    rows=list(record.get("rows", [])),
                    cells=list(record.get("cells", [])),
                    failures=list(record.get("failures", [])),
                )
            except (OSError, ValueError, KeyError, JobSpecError):
                continue
            if job.status not in JOB_STATUSES:
                continue
            if job.id != path.stem:
                continue  # record does not match its own file; distrust it
            rekeyed = job.id != spec.job_key()
            if rekeyed and not job.terminal:
                # Recorded under another CACHE_SALT: the identity is stale
                # but the request is not, so it re-runs under today's key.
                # (A finished one stays, under its old id, as history the
                # janitor expires along with the cells it recorded; a
                # resubmission has a new key and recomputes.)
                path.unlink()
                job.id = spec.job_key()
                if self.record_path(job.id).exists():
                    continue  # already known under today's key
            job.weight = self._weight_for(spec)
            if not job.terminal:
                job.status = "queued"
                job.started_at = 0.0
                job.rows = []
                job.cells = []
                job.failures = []
                self._queue.append(job.id)
                if rekeyed:
                    self._persist(job)
                self.log(f"recovered unfinished job {job.id[:12]} -> requeued")
            self._jobs[job.id] = job
        if self._queue:
            self.log(f"{len(self._queue)} job(s) resumed from {self.jobs_dir}")

    def _weight_for(self, spec: JobSpec) -> int:
        """Admission weight: the normalized spec's process fan-out."""
        try:
            return max(1, self.router.normalize(spec).jobs)
        except JobSpecError:
            return max(1, spec.jobs)

    # ------------------------------------------------------------------
    # Public API (what the HTTP layer calls)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Accept one spec; returns ``(job, deduped)``.

        ``deduped`` is True when an identical spec (same
        :meth:`~repro.core.jobspec.JobSpec.job_key`) was already known
        and is queued, running, or done — the existing job is returned
        untouched. A *cancelled* or *failed* identical job is revived
        instead (requeued): cancellation was an operator choice and
        failure is a circumstance (a deadline, a poison host), neither a
        property of the spec — and the revived run serves the cells the
        earlier attempt settled from the cache.

        Raises :class:`Draining` while the daemon drains (dedupe hits on
        already-known jobs still answer — they cost nothing) and
        :class:`QueueFull` when the bounded queue is at capacity; both
        carry the scheduler snapshot and a ``Retry-After`` hint.
        """
        normalized = self.router.normalize(spec)
        job_id = spec.job_key()
        with self._lock:
            if self._closed:
                raise JobSpecError("service", "daemon is shutting down")
            existing = self._jobs.get(job_id)
            if existing is not None and existing.status not in (
                "cancelled",
                "failed",
            ):
                return existing, True
            if self._draining:
                raise Draining(
                    queued=len(self._queue),
                    running=len(self._running),
                    capacity=self.capacity,
                )
            if len(self._queue) >= self.max_queued:
                raise QueueFull(
                    self.max_queued,
                    queued=len(self._queue),
                    running=len(self._running),
                    capacity=self.capacity,
                    retry_after=self._retry_after_locked(),
                )
            revived = existing is not None
            job = Job(
                id=job_id,
                spec=spec,
                submitted_at=time.time(),
                executor=self.router.resolve_spec(normalized),
            )
            job.weight = max(1, normalized.jobs)
            self._jobs[job_id] = job
            self._queue.append(job_id)
            self._wake.notify_all()
        self._persist(job)
        self.log(
            f"job {job_id[:12]} {'revived' if revived else 'queued'} "
            f"({len(spec.models)} model(s) x ranks {list(spec.ranks)})"
        )
        return job, False

    def _retry_after_locked(self) -> float:
        """A Retry-After hint scaled to the current backlog."""
        backlog = len(self._queue) + len(self._running)
        return min(30.0, max(1.0, 0.5 * backlog))

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a job: dequeue if waiting, interrupt if running.

        Already-terminal jobs are returned unchanged (cancel is
        idempotent). Cells that settled before the cancel stay cached —
        a revived job reuses them.

        Race-free by construction: the queued->running transition
        happens under the manager lock (in :meth:`_promote_locked`), so
        under that same lock ``status == "queued"`` *implies* the id is
        still in the queue — a cancelled spec can never be left for a
        runner to execute, and a promoted job can never leave a phantom
        queue slot behind.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.terminal:
                return job
            if job.status == "queued":
                self._queue.remove(job_id)  # invariant: queued => enqueued
                job.status = "cancelled"
                job.finished_at = time.time()
                settled = True
            else:  # running: the sweep's callbacks notice the event
                job._cancel.set()
                settled = False
        if settled:
            self._persist(job)
            job._notify()
        self.log(f"job {job_id[:12]} cancel requested")
        return job

    def forget(self, job_id: str) -> bool:
        """Drop a terminal, unwatched job from memory (retention GC).

        Atomic with the live-stream check under the manager lock: once a
        job is forgotten, :meth:`get` returns None, so no new stream can
        attach while the janitor deletes its files. Refuses (returns
        False) for unknown, non-terminal, or actively streamed jobs.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or not job.terminal or job.active_streams:
                return False
            del self._jobs[job_id]
            return True

    def result_store(self) -> ResultCache:
        """The shared content-addressed store (artifact fetch endpoint)."""
        return ResultCache(self.cache_dir)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            counts: dict[str, Any] = {status: 0 for status in JOB_STATUSES}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            counts["queued_depth"] = len(self._queue)
            counts["running_weight"] = self._running_weight
            counts["capacity"] = self.capacity
            counts["workers"] = self.workers
            counts["draining"] = self._draining
            return counts

    # ------------------------------------------------------------------
    # Drain and shutdown
    # ------------------------------------------------------------------
    def drain(self, grace: float = 10.0) -> None:
        """Graceful shutdown, phase 1: stop admitting, let jobs finish.

        New submissions 503 (:class:`Draining`); queued jobs stay queued
        — in memory and in their on-disk records — so a restarted daemon
        picks them up. Running jobs get ``grace`` seconds to complete;
        whatever is still running then is interrupted at its next
        checkpoint (:class:`JobDrained`), put back to ``queued``, and
        persisted that way. Either way the cache already holds every
        settled cell, so the restart is bit-for-bit.

        Call :meth:`close` afterwards to join the runner threads.
        """
        deadline = time.monotonic() + max(0.0, grace)
        with self._wake:
            if self._draining:
                return
            self._draining = True
            self._wake.notify_all()
        self.log(f"draining: waiting up to {grace:.1f}s for running jobs")
        while time.monotonic() < deadline:
            with self._lock:
                if not self._running:
                    break
            time.sleep(0.05)
        with self._lock:
            leftover = len(self._running)
        if leftover:
            self.log(
                f"drain grace expired with {leftover} job(s) running; "
                "checkpointing them back to queued"
            )
            self._drain_stop.set()
            # Bounded unwind: runners notice the event at the next cell
            # settle (cells are short; chaos tests cover a hung reader,
            # not a hung cell).
            unwind_deadline = time.monotonic() + max(2.0, grace)
            while time.monotonic() < unwind_deadline:
                with self._lock:
                    if not self._running:
                        break
                time.sleep(0.05)

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work and interrupt running jobs.

        Hard stop: queued jobs are *cancelled* (and persisted so). After
        :meth:`drain`, queued jobs have already been preserved as
        ``queued`` on disk and are left untouched here — the restart
        owns them.
        """
        with self._lock:
            self._closed = True
            cancelled: list[Job] = []
            if not self._draining:
                for job_id in self._queue:
                    job = self._jobs[job_id]
                    job.status = "cancelled"
                    job.finished_at = time.time()
                cancelled = [self._jobs[j] for j in self._queue]
                self._queue.clear()
            for job_id in self._running:
                self._jobs[job_id]._cancel.set()
            self._wake.notify_all()
        for job in cancelled:
            self._persist(job)
            job._notify()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))

    # ------------------------------------------------------------------
    # The scheduler and runner loop
    # ------------------------------------------------------------------
    def _promote_locked(self) -> Job | None:
        """Pop-and-mark the queue head if the admission budget allows.

        The *single* place a job leaves the queue and turns ``running``
        — and it happens atomically under the manager lock, which is
        what makes :meth:`cancel` race-free. Strict FIFO: only the head
        is considered, so a wide job blocks later narrow ones rather
        than starving behind them; a job wider than the whole budget
        runs once it has the machine to itself.
        """
        if self._draining or not self._queue:
            return None
        job = self._jobs[self._queue[0]]
        if self._running and self._running_weight + job.weight > self.capacity:
            return None
        self._queue.pop(0)
        self._running.add(job.id)
        self._running_weight += job.weight
        job.status = "running"
        job.started_at = time.time()
        return job

    def _run_loop(self) -> None:
        while True:
            with self._wake:
                job = None
                while job is None:
                    if self._closed and not self._queue:
                        return
                    job = self._promote_locked()
                    if job is None:
                        self._wake.wait(timeout=0.5)
            try:
                self._run_job(job)
            except Exception as exc:  # the loop must survive anything
                with job._lock:
                    if not job.terminal:
                        job.status = "failed"
                        job.error = f"{type(exc).__name__}: {exc}"
                        job.finished_at = time.time()
                self._persist(job)
                job._notify()
                self.log(f"job {job.id[:12]} failed: {job.error}")
            finally:
                with self._wake:
                    self._running.discard(job.id)
                    self._running_weight -= job.weight
                    self._wake.notify_all()

    def _run_job(self, job: Job) -> None:
        from repro import api

        if job._cancel.is_set():
            # Cancelled in the promotion window: never touch the sweep.
            with job._lock:
                job.status = "cancelled"
                job.finished_at = time.time()
            self._persist(job)
            job._notify()
            self.log(f"job {job.id[:12]} cancelled before start")
            return
        spec = self.router.normalize(job.spec)
        executor, owned = self.router.executor_for(spec)
        with job._lock:
            job.executor = self.router.resolve_spec(spec)
        self._persist(job)
        job._notify()
        self.log(f"job {job.id[:12]} running on {job.executor!r}")

        # Whether row dicts carry the fault-accounting columns is a
        # whole-table property in the finished report; for streaming we
        # decide it up front from the spec (a fault plan present = fault
        # columns present). The terminal rows are rebuilt from the
        # report, so the stored table is canonical regardless.
        faulty = bool(spec.faults)
        deadline = (
            time.monotonic() + spec.deadline_s
            if spec.deadline_s is not None
            else None
        )

        def check_stop() -> None:
            if job._cancel.is_set():
                raise JobCancelled(job.id)
            if self._drain_stop.is_set():
                raise JobDrained(job.id)

        def on_result(index, cell, key, outcome, how):
            check_stop()
            with job._lock:
                job.cells.append(
                    {"label": cell.label, "key": key or "", "status": how}
                )
                if isinstance(outcome, CellFailure):
                    job.failures.append(
                        {
                            "label": outcome.label,
                            "error": f"{outcome.error_type}: {outcome.message}",
                            "attempts": outcome.attempts,
                        }
                    )
                else:
                    job.rows.append(result_row(outcome, faulty=faulty))
            job._notify()

        def progress(event):
            check_stop()

        # Shared daemon-lifetime executors (the distributed fabric)
        # dispatch one sweep at a time; per-job executors overlap freely.
        gate = (
            contextlib.nullcontext() if owned else self._shared_gate
        )
        try:
            with gate:
                check_stop()
                report = api.run_job(
                    spec,
                    executor=executor,
                    on_result=on_result,
                    progress=progress,
                    cache=ResultCache(self.cache_dir) if spec.cache else None,
                    deadline=deadline,
                )
        except JobCancelled:
            with job._lock:
                job.status = "cancelled"
                job.finished_at = time.time()
            self.log(f"job {job.id[:12]} cancelled mid-run")
        except JobDrained:
            # Not a verdict on the job: back to queued, cache intact,
            # so the restarted daemon reruns it.
            with self._lock:
                self._queue.insert(0, job.id)
                job.status = "queued"
                job.started_at = 0.0
            with job._lock:
                job.rows = []
                job.cells = []
                job.failures = []
            self.log(f"job {job.id[:12]} checkpointed for drain -> queued")
        else:
            expired = [
                f
                for f in report.failures
                if f.error_type == "DeadlineExceeded"
            ]
            with job._lock:
                # Publish the finished report's canonical table: same
                # dicts, canonical order, and the fault-column decision
                # made the way StudyReport makes it. A new list, never an
                # in-place reorder: live streams finish from the old one.
                job.rows = report.rows()
                if expired:
                    job.status = "failed"
                    job.error = (
                        f"deadline: {spec.deadline_s}s budget exhausted "
                        f"with {len(expired)} cell(s) unsettled"
                    )
                else:
                    job.status = "done" if report.complete else "failed"
                    if not report.complete:
                        job.error = (
                            f"{len(report.failures)} cell(s) quarantined"
                        )
                job.finished_at = time.time()
        finally:
            if owned:
                close = getattr(executor, "close", None)
                if callable(close):
                    close()
        self._persist(job)
        job._notify()
        self.log(f"job {job.id[:12]} {job.status}")
