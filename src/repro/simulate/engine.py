"""Discrete-event simulation core: the reference engine.

A tiny SimPy-like engine, purpose-built for this study. :class:`Engine` is
the readable statement of the dispatch order; the only other engine, the
compiled core selected by ``repro.simulate.sched``, runs the same order
from C and must reproduce it event for event. While its ``run()`` lasts
it keeps ``now``, ``_seq`` and events of its own (a timed-event heap and
a zero-delay run-queue) in C, publishes ``now`` and ``_seq`` here
whenever it calls into Python and reads ``_seq`` back after, and on return
leaves ``_heap`` and ``_ready`` holding exactly what this loop would.

- **Deterministic.** Events at equal timestamps fire in schedule order (a
  monotone sequence number breaks ties), so a run is a pure function of its
  inputs and seed — a property the reproducibility tests assert.
- **Generator processes.** A simulated activity is a Python generator that
  yields :class:`Request` objects (timeouts, resource acquisitions, event
  waits). Sub-activities compose with ``yield from``, which is how the
  network layer builds get/put/accumulate out of primitives.
- **Deadlock detection.** :meth:`Engine.run` raises
  :class:`~repro.util.errors.SimulationError` if the event heap drains
  while non-daemon processes are still blocked — this is how tests catch
  broken termination-detection protocols instead of hanging.

Fast-path design (the perf-critical part):

The majority of events in steal-heavy runs are *zero-delay* wake-ups —
process starts, resource grants, fired-event notifications, ``Timeout(0)``
resumes. Pushing those through the heap costs a ``heappush``/``heappop``
pair plus a fresh closure per event. Instead the engine keeps a plain FIFO
**run-queue** (:attr:`Engine._ready`) of ``(seq, callback, arg)`` entries
for events due at the current timestamp. This is *provably
order-identical* to the all-heap engine: sequence numbers are allocated
from one global counter regardless of destination, equal-time heap entries
already fire in seq order (FIFO), and the run loop interleaves the heap
head against the run-queue head by seq whenever both hold events at the
current time. Every ready entry is created at the current ``now`` with a
seq larger than any already-dispatched event, so dispatching by
``(time, seq)`` across both structures reproduces the heap-only order
exactly — the bit-for-bit equivalence suite pins this.

Scheduling uses cached bound methods (``process._resume``) instead of
per-event lambdas, and :meth:`Process.resume` dispatches ``Timeout`` — by
far the most common request — inline, without the ``activate`` indirection.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Generator
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable

from repro.util import SimulationError, check_non_negative


class Request:
    """Base class for things a process can ``yield``.

    Subclasses implement :meth:`activate`, arranging for
    ``process.resume(value)`` to be called when the request completes.
    """

    __slots__ = ()

    def activate(self, engine: "Engine", process: "Process") -> None:
        raise NotImplementedError


class Engine:
    """The event loop: a heap of ``(time, seq, callback)`` entries plus a
    FIFO run-queue of ``(seq, callback, arg)`` entries due *now*.

    Attributes:
        events_dispatched: total callbacks fired (heap + run-queue); a
            deterministic measure of simulated event volume.
        ready_dispatched: callbacks fired via the zero-delay run-queue
            (a subset of ``events_dispatched``).
        timeout_allocs: ``Timeout`` requests consumed by the resume fast
            path — the demand the freelist and the fused network ops
            exist to shrink. Counted at consumption (not construction) so
            the number is unaffected by pool reuse: engines running the
            same request mix report the same count. (Networks default
            fused ops on per :attr:`drives_fused_ops`, which *changes*
            the request mix — fused delays are bare callbacks, not
            Timeouts. The kernel step of a chained task and the hold of
            a lock step are the exceptions: each stands for a
            ``Timeout`` the generator yields and is counted as one.)
        grant_resumes: resource grants actually delivered to a waiting
            process or fused operation (``Resource._deliver_grant``
            wake-ups, excluding re-released grants to cancelled holders).
    """

    __slots__ = (
        "now",
        "_heap",
        "_ready",
        "_seq",
        "_processes",
        "events_dispatched",
        "ready_dispatched",
        "timeout_allocs",
        "grant_resumes",
    )

    #: Whether Networks built on this engine dispatch traced ops as
    #: generator-free ``FusedOp`` requests. False here: this engine runs
    #: the generators that interpret each delay program, the reference
    #: for the compiled engine, whose C core is the only ``FusedOp``
    #: walker and flips this.
    drives_fused_ops = False

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._ready: deque[tuple[int, Callable[[Any], None], Any]] = deque()
        self._seq = 0
        #: The non-daemon processes, for :meth:`blocked`. A daemon (a
        #: message's delivery) is not listed: the engine does not keep a
        #: finished one alive.
        self._processes: list[Process] = []
        self.events_dispatched = 0
        self.ready_dispatched = 0
        self.timeout_allocs = 0
        self.grant_resumes = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``now + delay`` (FIFO among equal times)."""
        check_non_negative("delay", delay)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, callback))

    def call_now(self, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``callback(arg)`` at the current time via the run-queue.

        Order-equivalent to ``schedule(0.0, lambda: callback(arg))`` but
        without the heap churn or the closure allocation — the entry
        receives the next global sequence number, so it fires after every
        already-scheduled event at the current timestamp and before any
        later-scheduled one, exactly as a zero-delay heap entry would.
        """
        seq = self._seq
        self._seq = seq + 1
        self._ready.append((seq, callback, arg))

    def process(
        self,
        generator: Generator[Request, Any, Any],
        name: str = "process",
        daemon: bool = False,
        on_finish: Callable[[], None] | None = None,
    ) -> "Process":
        """Start a process from a generator, listed for :meth:`blocked`
        unless it is a ``daemon``, which the deadlock check does not wait
        for."""
        proc = Process(self, generator, name=name, on_finish=on_finish)
        if not daemon:
            self._processes.append(proc)
        self.call_now(proc._resume, None)
        return proc

    def run(self, until: float = math.inf) -> float:
        """Drain the event heap (up to time ``until``); return final time.

        The deadlock check only runs when the heap drains *completely*:
        a bounded ``run(until=...)`` that stops because the next event
        lies beyond ``until`` returns normally even if processes are
        blocked — they may legitimately be waiting for events scheduled
        past the horizon. After a bounded run, call :meth:`blocked` to
        see which non-daemon processes have not finished; with an empty
        heap a non-empty :meth:`blocked` list *is* a deadlock.

        Raises:
            SimulationError: on deadlock — the heap drained before all
                non-daemon processes finished.
        """
        heap = self._heap
        ready = self._ready
        pop_ready = ready.popleft
        dispatched = self.events_dispatched
        from_ready = self.ready_dispatched
        # ``now`` only advances in this loop, so a local mirror is safe;
        # the attribute is kept current for callbacks that read it.
        now = self.now
        try:
            while True:
                if ready:
                    # Heap entries never lie in the past, so ``time <=
                    # now`` means *at* now; among equal-time events the
                    # lower seq fires first, matching the all-heap order.
                    if heap and heap[0][0] <= now and heap[0][1] < ready[0][0]:
                        time, _, callback = heappop(heap)
                        dispatched += 1
                        callback()
                    else:
                        _, callback, arg = pop_ready()
                        dispatched += 1
                        from_ready += 1
                        callback(arg)
                elif heap:
                    time, _, callback = heap[0]
                    if time > until:
                        self.now = until
                        return until
                    heappop(heap)
                    self.now = now = time
                    dispatched += 1
                    callback()
                else:
                    break
        finally:
            self.events_dispatched = dispatched
            self.ready_dispatched = from_ready
        stuck = [p.name for p in self.blocked()]
        if stuck:
            raise SimulationError(
                f"deadlock at t={self.now:.6g}: processes still blocked: {stuck[:10]}"
                + ("..." if len(stuck) > 10 else "")
            )
        return self.now

    def blocked(self) -> list["Process"]:
        """Non-daemon processes that have not finished (nor been cancelled).

        After ``run(until=t)`` returns at the time horizon this is merely
        "still in flight"; after an unbounded ``run()`` (or once the heap
        is empty) any entry here is genuinely stuck.
        """
        return [p for p in self._processes if not p.done]


class Process:
    """A generator-driven simulated activity.

    Attributes:
        done: True once the generator has returned (or was cancelled).
        cancelled: True if the process was killed via :meth:`cancel`.
        result: the generator's return value (``StopIteration.value``).
    """

    __slots__ = (
        "engine",
        "generator",
        "name",
        "done",
        "cancelled",
        "result",
        "_resume",
        "_send",
        "_on_finish",
    )

    def __init__(
        self,
        engine: Engine,
        generator: Generator[Request, Any, Any],
        name: str = "process",
        on_finish: Callable[[], None] | None = None,
    ) -> None:
        self.engine = engine
        self.generator = generator
        self.name = name
        self.done = False
        self.cancelled = False
        self.result: Any = None
        # One bound method reused for every wake-up of this process,
        # instead of a fresh lambda per scheduled event — and the
        # generator's send cached the same way.
        self._resume = self.resume
        self._send = generator.send
        # Called synchronously (no event) when the generator returns;
        # not called on cancellation, mirroring a trailing statement
        # after ``yield from`` that a close() would skip.
        self._on_finish = on_finish

    def cancel(self) -> None:
        """Kill the process immediately (fault injection: a rank crash).

        Closes the generator — ``finally`` blocks run, so held resources
        (NIC slots, queue locks) are released rather than leaked — and
        marks the process done. Late wake-ups (a queued resource grant, a
        message delivery) find ``cancelled`` set and are ignored instead
        of deadlocking the heap.
        """
        if self.done:
            return
        self.done = True
        self.cancelled = True
        self.generator.close()

    def resume(self, value: Any = None) -> None:
        """Advance the generator; route the next request or finish."""
        if self.done:
            if self.cancelled:
                return  # a wake-up raced with cancellation; drop it
            raise SimulationError(f"process {self.name!r} resumed after completion")
        try:
            request = self._send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        if request.__class__ is Timeout:
            # Inline the dominant request type: skip activate() dispatch.
            engine = self.engine
            engine.timeout_allocs += 1
            seq = engine._seq
            engine._seq = seq + 1
            delay = request.delay
            if getrefcount(request) == 2:
                # We hold the only reference (the generator yielded a
                # fresh instance and kept none): recycle it.
                _timeout_pool_append(request)
            if delay == 0.0:
                engine._ready.append((seq, self._resume, None))
            else:
                heappush(engine._heap, (engine.now + delay, seq, self._resume))
            return
        if not isinstance(request, Request):
            raise SimulationError(
                f"process {self.name!r} yielded {request!r}; processes must "
                "yield Request instances (Timeout, acquire(), wait(), ...)"
            )
        request.activate(self.engine, self)

    def _finish(self, value: Any) -> None:
        """Complete the process: run ``on_finish``, record the result.
        Shared by :meth:`resume` and the compiled resume path
        (``repro.simulate._engine_core``), which must stay semantically
        identical to this method.
        """
        if self._on_finish is not None:
            self._on_finish()
        self.done = True
        self.result = value


#: Freelist of consumed ``Timeout`` instances. A Timeout normally lives
#: for exactly one yield: constructed, yielded, its ``delay`` read by the
#: resume fast path, then discarded — so the pool stays a handful of
#: entries deep while eliminating millions of allocations per run. The
#: fast paths recycle only when the refcount proves sole ownership, so an
#: instance a generator (or test) holds onto is never reused under it.
#: ``list.append``/``pop`` are GIL-atomic, which keeps the shared pool
#: safe when the study service runs simulations on several threads.
_timeout_pool: list["Timeout"] = []
_timeout_pool_append = _timeout_pool.append


class Timeout(Request):
    """Resume the process after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        # `not delay >= 0` (negative or NaN) is the only rejected case
        # (matching check_non_negative); anything else skips the helper call.
        if not delay >= 0:
            check_non_negative("delay", delay)
        self.delay = delay

    def activate(self, engine: Engine, process: Process) -> None:
        engine.schedule(self.delay, process._resume)


def pooled_timeout(delay: float) -> Timeout:
    """A :class:`Timeout`, served from the freelist when one is banked.

    A plain function beats ``Timeout.__new__`` pooling by ~2.5x per
    construction (class-call machinery runs two Python frames, a factory
    runs one and skips allocation entirely on a hit) and, unlike an
    override, costs the public ``Timeout(...)`` constructor nothing. The
    per-event generators below (network ops, compute/overhead delays)
    route through this; everything else keeps the ordinary constructor.
    """
    if _timeout_pool:
        timeout = _timeout_pool.pop()
        if not delay >= 0:
            check_non_negative("delay", delay)
        timeout.delay = delay
        return timeout
    return Timeout(delay)


class SimEvent:
    """A one-shot event carrying a value; late waiters resume immediately."""

    __slots__ = ("fired", "value", "_waiters")

    def __init__(self) -> None:
        self.fired = False
        self.value: Any = None
        self._waiters: list[Process] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            raise SimulationError("SimEvent fired twice")
        self.fired = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            # Registration order == seq order == resume order; each waiter
            # takes one run-queue slot instead of a heap entry + closure.
            engine = waiters[0].engine
            ready = engine._ready
            seq = engine._seq
            for proc in waiters:
                ready.append((seq, proc._resume, value))
                seq += 1
            engine._seq = seq

    def wait(self) -> Request:
        return _EventWait(self)


class _EventWait(Request):
    __slots__ = ("event",)

    def __init__(self, event: SimEvent) -> None:
        self.event = event

    def activate(self, engine: Engine, process: Process) -> None:
        event = self.event
        if event.fired:
            engine.call_now(process._resume, event.value)
        else:
            event._waiters.append(process)


class Resource:
    """A FIFO resource with integer capacity (e.g. a NIC, a core).

    ``yield resource.acquire()`` blocks until a slot is free; the holder
    must call :meth:`release` exactly once. FIFO granting makes queueing
    delay — the contention signal of experiment E6 — deterministic.
    """

    __slots__ = ("capacity", "in_use", "_queue", "total_waits", "total_acquisitions")

    def __init__(self, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.in_use = 0
        self._queue: deque[Process] = deque()
        #: Total processes that ever waited (contention statistic).
        self.total_waits = 0
        #: Total acquisitions granted.
        self.total_acquisitions = 0

    def acquire(self) -> Request:
        return _ResourceAcquire(self)

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        queue = self._queue
        while queue:
            proc = queue.popleft()
            if proc.done:
                continue  # cancelled while queued; the slot passes it by
            self.total_acquisitions += 1
            proc.engine.call_now(self._deliver_grant, proc)
            return
        self.in_use -= 1

    def _deliver_grant(self, proc: Process) -> None:
        """Hand an already-counted slot to ``proc`` at its wake-up.

        If ``proc`` was cancelled between the grant and the wake-up, the
        slot is released again instead of being held by a dead process.
        """
        if proc.done:
            self.release()
        else:
            proc.engine.grant_resumes += 1
            proc.resume(None)


class _ResourceAcquire(Request):
    __slots__ = ("resource",)

    def __init__(self, resource: Resource) -> None:
        self.resource = resource

    def activate(self, engine: Engine, process: Process) -> None:
        res = self.resource
        if res.in_use < res.capacity:
            res.in_use += 1
            res.total_acquisitions += 1
            engine.call_now(res._deliver_grant, process)
        else:
            res.total_waits += 1
            res._queue.append(process)
