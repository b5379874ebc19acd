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
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """One executed task: who ran it and when the kernel computed."""

    tid: int
    rank: int
    start: float
    end: float


class TraceRecorder:
    """Accumulates activity intervals and task records for all ranks."""

    __slots__ = ("n_ranks", "_totals", "tasks", "intervals", "records")

    def __init__(self, n_ranks: int) -> None:
        check_positive("n_ranks", n_ranks)
        self.n_ranks = int(n_ranks)
        self._totals: dict[str, list[float]] = {
            cat: [0.0] * self.n_ranks for cat in _CATEGORIES
        }
        self.tasks: list[TaskRecord] = []
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
        appending ``TaskRecord(tid, rank, start, end)`` to :attr:`tasks`
        (skipped for ``tid=None``), saving a dispatch and re-validation per
        executed task.
        """
        if end < start:
            raise SimulationError(f"interval ends before it starts: [{start}, {end})")
        self._totals[COMPUTE][rank] += end - start
        self.records += 1
        if self.intervals is not None:
            self.intervals.append((rank, COMPUTE, start, end))
        if tid is not None:
            self.tasks.append(TaskRecord(tid, rank, start, end))

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

    def task_assignment(self, n_tasks: int) -> np.ndarray:
        """``(n_tasks,)`` executing rank per task.

        Raises:
            SimulationError: if any task was executed zero or multiple
                times — the core scheduling invariant.
        """
        assignment = np.full(n_tasks, -1, dtype=np.int64)
        for rec in self.tasks:
            if not 0 <= rec.tid < n_tasks:
                raise SimulationError(f"task id {rec.tid} out of range")
            if assignment[rec.tid] != -1:
                raise SimulationError(f"task {rec.tid} executed more than once")
            assignment[rec.tid] = rec.rank
        missing = np.nonzero(assignment < 0)[0]
        if missing.size:
            raise SimulationError(
                f"{missing.size} tasks never executed (first: {missing[:5].tolist()})"
            )
        return assignment
