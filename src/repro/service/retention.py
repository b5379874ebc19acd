"""Retention for the study service: TTL garbage collection of job state.

A long-lived daemon accretes two kinds of state per finished job: the
JSON job record under ``<state_dir>/jobs/`` and the job's cell results
in the shared content-addressed cache. None of it expires on its own —
PR 7's service would grow its state dir forever. This module adds the
missing half of the lifecycle:

- :class:`RetentionPolicy` — declarative knobs: how long terminal job
  records live (``ttl_s``), how often the janitor wakes
  (``interval_s``).
- :class:`Janitor` — a daemon thread that periodically expires terminal
  jobs past their TTL: the record and any cache entries
  no *surviving* job references. Jobs with live row streams
  (:meth:`~repro.service.jobs.Job.active_streams`) are skipped — GC
  never truncates a reader.
- **Crash-safe two-phase delete.** Each expiry first drops the job from
  the manager (so no new stream can attach), then writes a *tombstone*
  (``<id>.tomb``) listing every path to remove, fsyncs it, removes the
  paths, and finally removes the tombstone. A crash at any point leaves
  either a resurrectable job (nothing deleted yet) or a tombstone that
  :func:`finish_tombstones` completes on the next startup — never a
  half-deleted job that recovery would half-resurrect.

Cache deletion is *reference-counted by job record*: an entry is only
removed when no surviving record's cell list names its key. Records that
carry no cell list (pre-retention records, drained jobs) conservatively
pin nothing — worst case a shared entry is deleted and one future cell
recomputes; the cache is a performance artifact, never a correctness
one.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Tombstone marker suffix (sits next to job records in ``jobs/``).
TOMBSTONE_SUFFIX = ".tomb"

#: Tombstone schema version.
TOMBSTONE_VERSION = 1


@dataclass(frozen=True)
class RetentionPolicy:
    """Retention knobs for one daemon.

    Attributes:
        ttl_s: seconds a *terminal* job's state lives after it finishes;
            None disables garbage collection entirely (the pre-retention
            behaviour).
        interval_s: janitor wake period. Expiry latency is at most
            ``ttl_s + interval_s``.
    """

    ttl_s: float | None = None
    interval_s: float = 30.0

    def validate(self) -> "RetentionPolicy":
        from repro.core.jobspec import JobSpecError

        if self.ttl_s is not None and self.ttl_s < 0:
            raise JobSpecError(
                "retention.ttl_s", f"must be >= 0 seconds, got {self.ttl_s!r}"
            )
        if self.interval_s <= 0:
            raise JobSpecError(
                "retention.interval_s",
                f"must be positive seconds, got {self.interval_s!r}",
            )
        return self


def finish_tombstones(
    jobs_dir: "str | os.PathLike",
    *,
    log: Callable[[str], None] | None = None,
) -> int:
    """Complete any interrupted two-phase deletes; returns count finished.

    Called by the manager before recovery scans job records, so a crash
    mid-GC can never resurrect the record half of a half-deleted job.
    A malformed tombstone is itself removed (its paths are unknown; the
    worst case is an expired job surviving one more TTL cycle).
    """
    finished = 0
    jobs_dir = pathlib.Path(jobs_dir)
    for tomb in sorted(jobs_dir.glob(f"*{TOMBSTONE_SUFFIX}")):
        try:
            record = json.loads(tomb.read_text(encoding="utf-8"))
            paths = [pathlib.Path(p) for p in record.get("paths", [])]
        except (OSError, ValueError):
            paths = []
        for path in paths:
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            except OSError:
                pass
        try:
            tomb.unlink()
        except OSError:
            continue
        finished += 1
        if log is not None:
            log(f"finished interrupted GC tombstone {tomb.name}")
    return finished


class Janitor:
    """TTL garbage collector for one :class:`~repro.service.jobs.JobManager`.

    Args:
        manager: the owning job manager (records and cache layout).
        policy: what to expire and how often to look.
        log: optional ``print``-like callable for GC lines.

    Start with :meth:`start` (daemon thread) or drive synchronously with
    :meth:`gc_now` (tests and the chaos harness do the latter).
    """

    def __init__(
        self,
        manager: Any,
        policy: RetentionPolicy,
        *,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.manager = manager
        self.policy = policy.validate()
        self.log = log if log is not None else (lambda _msg: None)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.removed_jobs = 0  #: lifetime expiry count (observability)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.policy.ttl_s is None or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-retention-janitor", daemon=True
        )
        self._thread.start()

    def close(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.policy.interval_s):
            try:
                self.gc_now()
            except Exception as exc:  # noqa: BLE001 - janitor must survive
                self.log(f"retention pass failed: {type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def gc_now(self, now: float | None = None) -> dict[str, int]:
        """One synchronous retention pass; returns what it removed.

        Expiry predicate: terminal, ``finished_at`` older than the TTL,
        and no live row stream. Each expired job is removed via the
        two-phase tombstone protocol (see module docstring).
        """
        if self.policy.ttl_s is None:
            return {"jobs": 0, "cache_entries": 0}
        now = time.time() if now is None else now
        jobs = self.manager.list_jobs()
        expired = [
            job
            for job in jobs
            if job.terminal
            and job.finished_at
            and now - job.finished_at >= self.policy.ttl_s
            and job.active_streams == 0
        ]
        if not expired:
            return {"jobs": 0, "cache_entries": 0}
        expired_ids = {job.id for job in expired}
        # Cache keys still referenced by any surviving record stay.
        live_keys: set[str] = set()
        for job in jobs:
            if job.id in expired_ids:
                continue
            live_keys.update(self._cell_keys(job))
        removed = {"jobs": 0, "cache_entries": 0}
        for job in expired:
            counts = self._expire(job, live_keys)
            if counts is None:
                continue
            for name, value in counts.items():
                removed[name] += value
        self.removed_jobs += removed["jobs"]
        if removed["jobs"]:
            self.log(
                f"retention: expired {removed['jobs']} job(s), "
                f"{removed['cache_entries']} cache entr(ies)"
            )
        return removed

    # ------------------------------------------------------------------
    @staticmethod
    def _cell_keys(job: Any) -> set[str]:
        return {
            cell.get("key", "")
            for cell in job.cells
            if isinstance(cell, dict) and cell.get("key")
        }

    def _paths_for(self, job: Any, live_keys: set[str]) -> dict[str, list[pathlib.Path]]:
        """Everything one expired job owns exclusively."""
        from repro.core.cache import ResultCache

        paths: dict[str, list[pathlib.Path]] = {
            "jobs": [self.manager.record_path(job.id)],
            "cache_entries": [],
        }
        cache = ResultCache(self.manager.cache_dir)
        for key in sorted(self._cell_keys(job) - live_keys):
            entry = cache.path_for(key)
            if entry.exists():
                paths["cache_entries"].append(entry)
        return paths

    def _expire(
        self, job: Any, live_keys: set[str]
    ) -> dict[str, int] | None:
        """Two-phase delete of one job; None if it must be kept.

        Order matters for crash safety: (1) drop the job from the
        manager — atomic with the live-stream check, after which no new
        reader can attach; (2) durably write the tombstone naming every
        path; (3) remove the paths; (4) remove the tombstone. A crash
        before (2) resurrects the job wholesale on restart (GC simply
        retries); a crash after (2) is completed by
        :func:`finish_tombstones` before recovery reads records.
        """
        if not self.manager.forget(job.id):
            return None  # a stream attached since we looked; next pass
        paths = self._paths_for(job, live_keys)
        tomb = self.manager.record_path(job.id).with_suffix(TOMBSTONE_SUFFIX)
        record = {
            "v": TOMBSTONE_VERSION,
            "id": job.id,
            "paths": [str(p) for group in paths.values() for p in group],
        }
        with open(tomb, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        for group in paths.values():
            for path in group:
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
        try:
            tomb.unlink()
        except OSError:
            pass
        return {name: len(group) for name, group in paths.items()}
