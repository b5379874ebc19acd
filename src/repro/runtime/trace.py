"""Per-rank activity accounting.

Every simulated rank classifies its time into recorded categories —
``compute`` (task kernels), ``comm`` (data movement: density gets, Fock
accumulates), ``overhead`` (scheduling machinery: counter fetch-adds,
steal protocol, termination detection), ``idle`` (explicitly recorded
waits: parked receives, backoff sleeps), and ``failed`` (time lost to
failures: RMA timeouts against dead ranks, and a crashed rank's remaining
makespan) — with any *unaccounted* remainder of the makespan folded into
``idle``. The utilization-breakdown experiment (E2) and all efficiency
metrics read straight from this recorder; with explicit idle recording the
per-rank breakdown sums to wall-clock by construction.

Accumulation happens in plain per-rank Python float lists — a list index
plus a float ``+=`` per interval, the cheapest thing CPython can do —
and is folded into NumPy arrays only when :meth:`TraceRecorder.breakdown`
or :meth:`TraceRecorder.total` is read. Python float arithmetic *is*
IEEE-754 double arithmetic, identical bit-for-bit to the former per-element
ndarray updates, so recorded totals are unchanged to the last ulp.

Executed tasks are recorded the same way: four plain lists, one entry
per kernel interval with a task id — :attr:`TraceRecorder.task_ids`,
``task_ranks``, ``task_starts`` and ``task_ends`` — and no object per
task. The compiled core appends to them itself (``_engine_core.c``,
``trace_record``) whenever :meth:`TraceRecorder.record_compute` would do
nothing else. :meth:`TraceRecorder.task_assignment` and the run harness
read the columns as arrays (docs/perf.md, "A task leaves no object
behind").
"""

from __future__ import annotations

import numpy as np

from repro.util import ConfigurationError, SimulationError, check_positive

COMPUTE = "compute"
COMM = "comm"
OVERHEAD = "overhead"
IDLE = "idle"
FAILED = "failed"

#: Categories that can be recorded explicitly. ``IDLE`` additionally
#: absorbs the unaccounted remainder in :meth:`TraceRecorder.breakdown`.
_CATEGORIES = (COMPUTE, COMM, OVERHEAD, IDLE, FAILED)


class TraceRecorder:
    """Accumulates activity intervals and task records for all ranks."""

    __slots__ = (
        "n_ranks", "_totals", "task_ids", "task_ranks", "task_starts", "task_ends",
        "intervals", "records",
    )

    def __init__(self, n_ranks: int) -> None:
        check_positive("n_ranks", n_ranks)
        self.n_ranks = int(n_ranks)
        self._totals: dict[str, list[float]] = {
            cat: [0.0] * self.n_ranks for cat in _CATEGORIES
        }
        #: Executed tasks, one entry per kernel interval with a task id:
        #: which task, on which rank, when its kernel started and ended.
        self.task_ids: list[int] = []
        self.task_ranks: list[int] = []
        self.task_starts: list[float] = []
        self.task_ends: list[float] = []
        #: Optional full interval log (enabled via `keep_intervals`).
        self.intervals: list[tuple[int, str, float, float]] | None = None
        #: Total intervals recorded (deterministic volume counter).
        self.records = 0

    def keep_intervals(self) -> None:
        """Enable retention of individual intervals (timeline plots)."""
        if self.intervals is None:
            self.intervals = []

    def record(self, rank: int, category: str, start: float, end: float) -> None:
        """Account ``[start, end)`` on ``rank`` to ``category``."""
        totals = self._totals.get(category)
        if totals is None:
            raise ConfigurationError(
                f"category must be one of {_CATEGORIES}, got {category!r}"
            )
        if end < start:
            raise SimulationError(f"interval ends before it starts: [{start}, {end})")
        totals[rank] += end - start
        self.records += 1
        if self.intervals is not None:
            self.intervals.append((rank, category, start, end))

    def record_compute(self, rank: int, tid: int | None, start: float, end: float) -> None:
        """Fused hot path: one kernel interval plus its task record.

        Identical to ``record(rank, COMPUTE, start, end)`` followed by
        appending ``tid``, ``rank``, ``start`` and ``end`` to the task
        columns (skipped for ``tid=None``), saving a dispatch and
        re-validation per executed task.
        """
        if end < start:
            raise SimulationError(f"interval ends before it starts: [{start}, {end})")
        self._totals[COMPUTE][rank] += end - start
        self.records += 1
        if self.intervals is not None:
            self.intervals.append((rank, COMPUTE, start, end))
        if tid is not None:
            self.task_ids.append(tid)
            self.task_ranks.append(rank)
            self.task_starts.append(start)
            self.task_ends.append(end)

    # ------------------------------------------------------------------
    def total(self, category: str) -> np.ndarray:
        """``(n_ranks,)`` seconds accounted to ``category``."""
        return np.array(self._totals[category])

    def breakdown(self, makespan: float) -> dict[str, np.ndarray]:
        """Per-rank seconds by category; unaccounted time is added to idle.

        Raises:
            SimulationError: if any rank's accounted time exceeds the
                makespan (an accounting bug).
        """
        arrays = {cat: np.array(vals) for cat, vals in self._totals.items()}
        accounted = sum(arrays[cat] for cat in _CATEGORIES)
        remainder = makespan - accounted
        if np.any(remainder < -1.0e-9 * max(makespan, 1.0)):
            worst = int(np.argmin(remainder))
            raise SimulationError(
                f"rank {worst} accounted {accounted[worst]:.6g}s "
                f"> makespan {makespan:.6g}s"
            )
        out = arrays
        out[IDLE] = arrays[IDLE] + np.maximum(remainder, 0.0)
        return out

    def utilization(self, makespan: float) -> np.ndarray:
        """Per-rank fraction of the makespan spent in task compute."""
        if makespan <= 0:
            return np.zeros(self.n_ranks)
        return np.array(self._totals[COMPUTE]) / makespan

    def checked_task_ids(self, n_tasks: int, repeats: bool = False) -> np.ndarray:
        """:attr:`task_ids` as an int64 array, each id in ``[0, n_tasks)``
        and, unless ``repeats``, recorded once.

        Raises:
            SimulationError: naming the first offending record's id, in
                recording order.
        """
        tids = np.array(self.task_ids, dtype=np.int64)
        bad = (tids < 0) | (tids >= n_tasks)
        if not repeats and (bad.any() or np.bincount(tids, minlength=n_tasks).max(initial=0) > 1):
            repeat = np.ones(tids.size, dtype=bool)
            repeat[np.unique(tids, return_index=True)[1]] = False  # first occurrences
            bad |= repeat
        if bad.any():
            first = int(np.argmax(bad))
            tid = self.task_ids[first]
            if 0 <= tids[first] < n_tasks:
                raise SimulationError(f"task {tid} executed more than once")
            raise SimulationError(f"task id {tid} out of range")
        return tids

    def task_assignment(self, n_tasks: int) -> np.ndarray:
        """``(n_tasks,)`` executing rank per task.

        Raises:
            SimulationError: if any task was executed zero or multiple
                times — the core scheduling invariant.
        """
        assignment = np.full(n_tasks, -1, dtype=np.int64)
        assignment[self.checked_task_ids(n_tasks)] = self.task_ranks
        missing = np.nonzero(assignment < 0)[0]
        if missing.size:
            raise SimulationError(
                f"{missing.size} tasks never executed (first: {missing[:5].tolist()})"
            )
        return assignment
