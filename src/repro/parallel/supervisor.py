"""The supervision loop: one attempt state machine for every backend.

Running a batch of jobs on workers is a *policy* — who gets which job,
when a failed attempt is retried, when a job is given up — and a
*transport* that carries it. :func:`supervise` is the only copy of the
policy, and ``CellExecutor.run`` (:mod:`repro.parallel.executor`) its
only caller; the forked pool, in-process execution and the TCP fabric
(:mod:`repro.parallel.fabric`) are :class:`Transport` implementations
under it, the host-layer mirror of the *simulated* fault tolerance in
:mod:`repro.faults`:

- **One job per worker at a time.** The loop holds a lease table, so it
  always knows which worker is running which job; a vanished worker
  costs exactly its in-flight job, never the batch.
- **Per-job wall-clock budget.** A job that holds its worker longer than
  ``budget`` seconds is taken back (:meth:`Transport.expire`: the forked
  pool SIGKILLs and respawns the worker, the fabric revokes the lease)
  and retried like any other failure.
- **Bounded retry with backoff**, reusing the same
  :class:`~repro.faults.retry.RetryPolicy` the simulated fault-tolerant
  models use (host-scale delays via :data:`HOST_RETRY_POLICY`).
- **Poison-job quarantine.** A job that fails ``max_attempts`` times is
  reported as a structured :class:`CellFailure` result instead of
  aborting the batch (``on_error="quarantine"``), or re-raised as a
  :class:`WorkerError` (``on_error="raise"``).
- **Job deadline.** Past ``deadline`` every unfinished job — running,
  queued or awaiting a retry — settles at once as ``DeadlineExceeded``.
- **Idempotent completions.** A completion for a job already settled, or
  echoing a dispatch key that is not this batch's, is counted in
  ``duplicates`` and dropped; the first valid completion wins whichever
  worker sends it.

Jobs are assumed *idempotent and deterministic* (sweep cells are pure
functions of their inputs), so re-running a job after a crash or timeout
yields the result the lost attempt would have produced.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.faults.retry import RetryPolicy
from repro.util import ConfigurationError, ReproError

#: Default host-side retry policy: three attempts, capped ~0.5 s backoff.
#: (The simulated models use microsecond-scale delays; host faults —
#: crashed workers, killed cells — deserve human-scale ones.) Jitter is
#: deterministic — every ledger seeds its own backoff RNG — and non-zero
#: so a batch of cells requeued by one dead worker does not retry in
#: lockstep against the shared cache/journal (thundering herd).
HOST_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.05, max_delay=0.5, jitter=0.25
)

#: ``on_error`` modes: quarantine poison jobs as :class:`CellFailure`
#: results, or re-raise the final failure as a ``WorkerError``.
ON_ERROR_MODES = ("quarantine", "raise")


def check_on_error(on_error: str) -> None:
    if on_error not in ON_ERROR_MODES:
        raise ConfigurationError(
            f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
        )


class WorkerError(ReproError, RuntimeError):
    """A job raised inside a pool worker process.

    Exceptions that cross a process boundary lose their real traceback
    (the re-raised object points into executor plumbing), so this wrapper
    preserves what the caller actually needs: which job failed (``label``
    and ``index`` into the submitted job list), the original exception
    class name, and the remote traceback text as captured in the worker.
    The unpickled original (when available) is chained as ``__cause__``.
    """

    def __init__(
        self,
        label: str,
        index: int,
        error_type: str,
        message: str,
        remote_traceback: str = "",
    ) -> None:
        super().__init__(
            f"job {label!r} (index {index}) failed in worker: "
            f"{error_type}: {message}"
        )
        self.label = label
        self.index = int(index)
        self.error_type = error_type
        self.remote_traceback = remote_traceback


@dataclass(frozen=True)
class CellFailure:
    """A job that exhausted its retry budget, quarantined not fatal.

    Appears *in place of* a result so one poison cell cannot abort a
    million-cell sweep; the sweep layer records these on the report
    (``StudyReport.failures``) and the CLI renders them as a table.
    """

    index: int  #: position in the submitted job list
    label: str  #: the job's display label (cell label for sweeps)
    attempts: int  #: attempts consumed (== the policy's max_attempts)
    error_type: str  #: exception class name (or "CellTimeout"/"WorkerCrash")
    message: str  #: str() of the final error
    traceback_text: str = ""  #: remote traceback of the final attempt, if any

    def __str__(self) -> str:
        return (
            f"{self.label} (index {self.index}): {self.error_type}: "
            f"{self.message} [after {self.attempts} attempt(s)]"
        )


@dataclass
class SupervisorStats:
    """Fault accounting across one supervised batch (or several)."""

    completed: int = 0  #: jobs that produced a result
    retries: int = 0  #: attempts re-dispatched after a failure
    crashes: int = 0  #: worker deaths observed (SIGKILL/OOM/hard exit)
    timeouts: int = 0  #: jobs killed for exceeding the wall-clock budget
    quarantined: int = 0  #: jobs that exhausted retries -> CellFailure
    respawns: int = 0  #: worker processes forked (initial + replacements)
    # Distributed-fabric counters (repro.parallel.fabric); zero for the
    # local backend, except ``duplicates``, which the loop owns.
    lease_expiries: int = 0  #: leases revoked (overrun or missed beats)
    duplicates: int = 0  #: late/duplicate completions deduped away
    disconnects: int = 0  #: worker connections lost mid-session
    degraded: int = 0  #: jobs rerouted to the fallback local executor


def job_label(labels: Sequence[str] | None, index: int) -> str:
    """The display label of job ``index`` (``job[i]`` when none was given)."""
    if labels is not None and index < len(labels):
        return labels[index]
    return f"job[{index}]"


class _Task:
    __slots__ = ("index", "job", "key", "attempts", "not_before")

    def __init__(self, index: int, job: Any, key: str | None) -> None:
        self.index = index
        self.job = job
        self.key = key  # what a completion must echo (Transport.keys)
        self.attempts = 0
        self.not_before = 0.0


class AttemptLedger:
    """Retry/quarantine bookkeeping for one batch of jobs.

    Owns the attempt budget, the deterministic backoff jitter stream,
    the quarantine decision and the fault accounting. :func:`supervise`
    is its only driver, so a lease expiry on a remote host consumes an
    attempt exactly the way a SIGKILLed forked worker does.
    """

    def __init__(
        self,
        retry: RetryPolicy = HOST_RETRY_POLICY,
        on_error: str = "quarantine",
        labels: Sequence[str] | None = None,
        stats: "SupervisorStats | None" = None,
        seed: int = 0,
    ) -> None:
        check_on_error(on_error)
        self.retry = retry
        self.on_error = on_error
        self.labels = labels
        self.stats = stats if stats is not None else SupervisorStats()
        self.rng = np.random.default_rng(seed)  # backoff jitter stream

    def label(self, index: int) -> str:
        return job_label(self.labels, index)

    def fail_attempt(
        self,
        task: _Task,
        error: tuple[str, str, str],
        queue: deque[_Task],
        now: float,
        cause: BaseException | None = None,
    ) -> CellFailure | None:
        """Record a failed attempt: requeue with backoff, or give up.

        Returns the :class:`CellFailure` when the retry budget is spent
        (quarantine mode); raises in ``on_error="raise"`` mode. The
        requeue delay is jittered from this ledger's seeded RNG, so
        simultaneous requeues spread out deterministically instead of
        retrying in lockstep.
        """
        task.attempts += 1
        if task.attempts < self.retry.max_attempts:
            task.not_before = now + self.retry.delay(task.attempts - 1, self.rng)
            self.stats.retries += 1
            queue.append(task)
            return None
        return self.give_up(task, task.attempts, error, cause)

    def give_up(
        self,
        task: _Task,
        attempts: int,
        error: tuple[str, str, str],
        cause: BaseException | None = None,
    ) -> CellFailure:
        """Settle ``task`` as failed: a :class:`CellFailure`, or a raise.

        ``on_error="raise"`` raises ``cause`` — the original exception,
        which only an in-process attempt has — or a :class:`WorkerError`
        standing in for one that died in another process.
        """
        self.stats.quarantined += 1
        failure = CellFailure(task.index, self.label(task.index), attempts, *error)
        if self.on_error == "raise":
            raise cause if cause is not None else WorkerError(
                failure.label,
                failure.index,
                failure.error_type,
                f"{failure.message} [after {attempts} attempt(s)]",
                failure.traceback_text,
            )
        return failure

    def expire(self, task: _Task) -> CellFailure:
        """Settle ``task`` as abandoned at the job deadline (no retry: a
        deadline is terminal by definition)."""
        return self.give_up(
            task,
            task.attempts + 1,
            ("DeadlineExceeded", "job deadline reached before this cell settled", ""),
        )


# ----------------------------------------------------------------------
# The transport contract and the loop
# ----------------------------------------------------------------------

class Event(NamedTuple):
    """What :meth:`Transport.wait` hands the loop.

    ``kind`` is ``"result"`` (``payload`` is the job's value),
    ``"error"`` (the job raised; ``payload`` is ``(type name, message,
    traceback text)``) or ``"lost"`` (``worker`` is gone, taking whatever
    it was running with it; ``payload`` is the error to record). A
    completion names the job by ``index`` and echoes its dispatch
    ``key``.
    """

    kind: str
    worker: Any
    index: int | None = None
    key: str | None = None
    payload: Any = None
    retryable: bool = True
    cause: BaseException | None = None  #: the exception itself, in-process only


class Transport:
    """What :func:`supervise` needs from a backend — and nothing else.

    A transport knows its workers (opaque, hashable handles) and how to
    move a task to one and a completion back. It decides nothing about
    retries, quarantine, deadlines or duplicates; it does count the
    faults only it can see (``crashes``, ``respawns``, ``timeouts``,
    ``lease_expiries``, ``disconnects``) on ``stats``.
    """

    stats: SupervisorStats

    #: Per-job dispatch keys a completion must echo to be believed, for
    #: a transport whose channel can deliver one from another batch.
    keys: Sequence[str] | None = None

    def idle(self) -> list[Any]:
        """Workers that can take a task right now."""
        raise NotImplementedError

    def send(self, worker: Any, task: _Task) -> int:
        """Start ``task`` on ``worker``; returns the worker's pid.

        Raises ``OSError`` (having disposed of the worker) when it turns
        out to be unreachable; the loop counts that as a failed attempt.
        """
        raise NotImplementedError

    def wait(self, timeout: float | None) -> list[Event]:
        """Block up to ``timeout`` seconds (None: until something
        happens) and return what happened, possibly nothing."""
        raise NotImplementedError

    def expire(self, worker: Any) -> tuple[str, str]:
        """``worker`` ran out of budget: take its task back. Returns the
        ``(error type, what was done)`` to record against the attempt."""
        raise NotImplementedError

    def close(self) -> None:
        """The batch is over (finished, abandoned or raised)."""


def supervise(
    transport: Transport,
    jobs: Sequence[Any],
    *,
    budget: float | None = None,
    retry: RetryPolicy = HOST_RETRY_POLICY,
    on_error: str = "quarantine",
    labels: Sequence[str] | None = None,
    on_dispatch: Callable[[int, int], None] | None = None,
    deadline: float | None = None,
) -> Iterator[tuple[int, Any]]:
    """Run ``jobs`` over ``transport``; yield ``(index, outcome)`` in
    completion order, an outcome being the job's result or a
    :class:`CellFailure`. Closes the transport when the batch ends.

    ``budget`` is the per-job wall-clock allowance in seconds on a
    worker; ``deadline`` the absolute ``time.monotonic()`` instant at
    which the whole batch is abandoned. ``on_dispatch(index, pid)`` is
    the test/chaos hook called each time a job lands on a worker.
    Non-retryable errors (:class:`ConfigurationError`) raise at once in
    either ``on_error`` mode.

    Every unsettled task is in exactly one place: ``queue`` (not yet
    started, or backing off before a retry) or one entry of ``leases``.
    """
    try:
        ledger = AttemptLedger(retry, on_error, labels=labels, stats=transport.stats)
        stats = ledger.stats
        keys = transport.keys
        queue = deque(
            _Task(index, job, keys[index] if keys is not None else None)
            for index, job in enumerate(jobs)
        )
        unsettled = {task.index: task for task in queue}
        leases: dict[Any, tuple[_Task, float]] = {}  # worker -> (task, since)

        def failed(task, error, now, cause=None) -> list[tuple[int, CellFailure]]:
            """One attempt of ``task`` is spent; what to yield for it."""
            failure = ledger.fail_attempt(task, error, queue, now, cause)
            if failure is None:
                return []
            del unsettled[task.index]
            return [(task.index, failure)]

        while unsettled:
            now = time.monotonic()

            if deadline is not None and now >= deadline:
                for worker in leases:
                    transport.expire(worker)
                for task in list(unsettled.values()):  # still in index order
                    yield task.index, ledger.expire(task)
                return

            if budget is not None:
                for worker, (task, since) in list(leases.items()):
                    if now - since > budget:
                        del leases[worker]
                        error_type, done = transport.expire(worker)
                        message = f"exceeded its {budget:g}s wall-clock budget; {done}"
                        yield from failed(task, (error_type, message, ""), now)

            if queue:
                for worker in transport.idle():
                    for _ in range(len(queue)):  # first task done backing off
                        task = queue.popleft()
                        if task.not_before <= now:
                            break
                        queue.append(task)
                    else:
                        break
                    try:
                        pid = transport.send(worker, task)
                    except OSError:
                        error = ("WorkerCrash", "worker unreachable at dispatch", "")
                        yield from failed(task, error, now)
                        continue
                    leases[worker] = (task, now)
                    if on_dispatch is not None:
                        on_dispatch(task.index, pid)

            if not unsettled:  # the last job was given up just above
                break

            wake = [task.not_before for task in queue if task.not_before > now]
            if budget is not None:
                wake += [since + budget for _task, since in leases.values()]
            if deadline is not None:
                wake.append(deadline)
            events = transport.wait(
                max(0.0, min(wake) - now) + 0.005 if wake else None
            )
            now = time.monotonic()
            for event in events:
                held = leases.get(event.worker)
                if event.kind == "lost":
                    if held is not None:
                        del leases[event.worker]
                        yield from failed(held[0], event.payload, now)
                    continue
                task = unsettled.get(event.index)
                if task is None or task.key != event.key:
                    stats.duplicates += 1
                    continue
                if held is not None and held[0] is task:
                    del leases[event.worker]
                else:
                    # Not from the leaseholder: a worker whose lease was
                    # taken back finished after all. The first completion
                    # wins, so pull the task from wherever it waits.
                    holder = next(
                        (w for w, (t, _since) in leases.items() if t is task), None
                    )
                    if holder is None:
                        queue.remove(task)
                    else:
                        del leases[holder]
                if event.kind == "result":
                    stats.completed += 1
                    del unsettled[task.index]
                    yield task.index, event.payload
                elif not event.retryable:
                    raise event.cause if event.cause is not None else WorkerError(
                        ledger.label(task.index), task.index, *event.payload
                    )
                else:
                    yield from failed(task, event.payload, now, event.cause)
    finally:
        transport.close()


# ----------------------------------------------------------------------
# Transport: forked children on duplex pipes
# ----------------------------------------------------------------------

def _worker_main(fn: Callable[[Any], Any], jobs: Sequence[Any], conn) -> None:
    """Worker child: serve one job at a time over the duplex pipe.

    The child is forked after ``jobs`` exists, so it already holds every
    job in its own copy of the parent's memory: the pipe carries the
    job's index, never the job.
    """
    while True:
        try:
            index = conn.recv()
        except (EOFError, OSError):
            return
        if index is None:  # orderly shutdown sentinel
            return
        try:
            payload = (index, "ok", fn(jobs[index]), True)
        except (KeyboardInterrupt, SystemExit):
            return
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            retryable = not isinstance(exc, ConfigurationError)
            payload = (
                index,
                "err",
                (type(exc).__name__, str(exc), traceback.format_exc()),
                retryable,
            )
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            return
        except Exception as exc:  # unpicklable result: report, keep serving
            conn.send(
                (
                    index,
                    "err",
                    (type(exc).__name__, f"result not picklable: {exc}", ""),
                    False,
                )
            )


class _Slot:
    """One worker seat: the process and pipe filling it (None: empty)."""

    __slots__ = ("process", "conn", "busy")

    def __init__(self) -> None:
        self.process = None
        self.conn = None
        self.busy = False


class ForkTransport(Transport):
    """Forked workers, one duplex pipe each.

    Each worker has its own pipe — no shared queue whose lock a dying
    worker can corrupt — so a SIGKILL surfaces as an EOF on that pipe
    (or the process sentinel), never as a poisoned pool, and a hung job
    can be killed without touching its neighbours. Forks eagerly: a pool
    that cannot start raises ``OSError`` here, before any job has run.
    Every worker, a respawned one included, is forked after ``jobs``
    exists and reads its jobs from inherited memory, so a job need not
    pickle and a large task graph is never copied down a pipe.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        n_workers: int,
        stats: SupervisorStats,
    ) -> None:
        self.fn = fn
        self.jobs = jobs
        self.stats = stats
        self._ctx = multiprocessing.get_context("fork")
        self._slots = [_Slot() for _ in range(n_workers)]
        try:
            self.idle()
        except OSError:
            self.close()
            raise

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.fn, self.jobs, child_conn),
            daemon=True,
        )
        try:
            process.start()
        except OSError:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        slot.process, slot.conn = process, parent_conn
        self.stats.respawns += 1

    def _retire(self, slot: _Slot, *, kill: bool = False) -> None:
        """Empty the seat; :meth:`idle` refills it."""
        process, conn = slot.process, slot.conn
        slot.process = slot.conn = None
        slot.busy = False
        try:
            conn.close()
        except OSError:
            pass
        if kill and process.is_alive():
            process.kill()
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - last resort
            process.kill()
            process.join(timeout=5.0)
        process.close()

    def idle(self) -> list[_Slot]:
        for slot in self._slots:
            if slot.process is None:
                self._spawn(slot)
        return [slot for slot in self._slots if not slot.busy]

    def send(self, slot: _Slot, task: _Task) -> int:
        if not slot.process.is_alive():  # died between jobs
            self._retire(slot)
            self._spawn(slot)
        try:
            slot.conn.send(task.index)
        except OSError:
            self.stats.crashes += 1
            self._retire(slot, kill=True)
            raise
        slot.busy = True
        return slot.process.pid

    def wait(self, timeout: float | None) -> list[Event]:
        busy = [slot for slot in self._slots if slot.busy]
        if not busy:  # only backoff-delayed retries remain
            time.sleep(timeout)
            return []
        ready = set(
            connection.wait(
                [slot.conn for slot in busy]
                + [slot.process.sentinel for slot in busy],
                timeout=timeout,
            )
        )
        events = []
        for slot in busy:
            if slot.conn in ready or slot.process.sentinel in ready:
                events += self._reap(slot)
        return events

    def _reap(self, slot: _Slot) -> list[Event]:
        """Collect one worker's message, or its death."""
        try:
            if slot.conn.poll(0):
                index, status, payload, retryable = slot.conn.recv()
            elif not slot.process.is_alive():
                raise EOFError  # died without a message
            else:
                return []  # sentinel raced a still-alive worker; wait more
        except (EOFError, OSError):
            # Hard death mid-job: SIGKILL, OOM kill, or interpreter abort.
            self.stats.crashes += 1
            self._retire(slot, kill=True)
            error = ("WorkerCrash", "worker process died mid-job (SIGKILL/OOM?)", "")
            return [Event("lost", slot, payload=error)]
        slot.busy = False
        kind = "result" if status == "ok" else "error"
        return [Event(kind, slot, index, None, payload, retryable)]

    def expire(self, slot: _Slot) -> tuple[str, str]:
        self.stats.timeouts += 1
        self._retire(slot, kill=True)
        return "CellTimeout", "worker killed"

    def close(self) -> None:
        for slot in self._slots:
            if slot.process is not None:
                try:
                    slot.conn.send(None)
                except OSError:
                    pass
                self._retire(slot, kill=True)


# ----------------------------------------------------------------------
# Transport: this process
# ----------------------------------------------------------------------

class InProcessTransport(Transport):
    """No workers: ``send`` runs the job here and queues its own event.

    Without process isolation a running job cannot be interrupted, so
    there is no budget to expire and the loop sees a deadline between
    jobs only. An error event carries the exception itself, which is why
    ``on_error="raise"`` re-raises the original and a
    :class:`ConfigurationError` propagates unwrapped.
    """

    def __init__(self, fn: Callable[[Any], Any], stats: SupervisorStats) -> None:
        self.fn = fn
        self.stats = stats
        self._done: list[Event] = []

    def idle(self) -> list[Any]:
        return [self]

    def send(self, worker: Any, task: _Task) -> int:
        try:
            event = Event("result", worker, task.index, payload=self.fn(task.job))
        except Exception as exc:
            event = Event(
                "error",
                worker,
                task.index,
                payload=(type(exc).__name__, str(exc), traceback.format_exc()),
                retryable=not isinstance(exc, ConfigurationError),
                cause=exc,
            )
        self._done.append(event)
        return os.getpid()

    def wait(self, timeout: float | None) -> list[Event]:
        if not self._done:  # only backoff-delayed retries remain
            time.sleep(timeout)
        events, self._done = self._done, []
        return events
