"""Regression coverage for the zero-delay run-queue fast paths.

The optimized engine routes resource grants, event fires, and process
starts through a same-timestamp FIFO run-queue instead of the heap.
These tests pin the behaviours that rewrite must preserve: slot
accounting when a grant meets only cancelled waiters, registration-order
resume for event waiters, and the exact semantics of bounded runs.
"""

import collections
import gc
import os
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

import repro
from repro.runtime.trace import COMM, IDLE, OVERHEAD, TraceRecorder
from repro.simulate.engine import (
    Engine,
    Process,
    Request,
    Resource,
    SimEvent,
    Timeout,
    _timeout_pool,
    pooled_timeout,
)
from repro.simulate.network import (
    KEEP_LOCK,
    LAND_TASKS,
    MOVE_TASKS,
    Message,
    Network,
    NetworkModel,
    SharedCell,
)
from repro.simulate.sched import (
    CompiledEngine,
    _load_engine_core,
    compiled_available,
    fused_op_type,
)
from repro.util import SimulationError


#: The compiled core's op type; None without a core.
FusedOp = fused_op_type()


class TestResourceReleaseCancelledQueue:
    """Satellite (a): release() with a queue of only-cancelled waiters."""

    def test_slot_not_leaked_when_queue_all_cancelled(self):
        engine = Engine()
        resource = Resource(capacity=1)
        order = []

        def holder():
            yield resource.acquire()
            order.append("held")
            yield Timeout(5.0)
            resource.release()
            order.append("released")

        def waiter(tag):
            yield resource.acquire()
            order.append(tag)  # must never run — cancelled while queued
            resource.release()

        engine.process(holder(), name="holder")
        w1 = engine.process(waiter("w1"), name="w1")
        w2 = engine.process(waiter("w2"), name="w2")
        # Cancel both waiters while they sit in the FIFO queue.
        engine.schedule(1.0, w1.cancel)
        engine.schedule(2.0, w2.cancel)
        engine.run()
        assert order == ["held", "released"]
        # The released slot skipped both cancelled entries and was
        # returned to the pool, not granted to a dead process.
        assert resource.in_use == 0

    def test_resource_reusable_after_cancelled_only_release(self):
        engine = Engine()
        resource = Resource(capacity=1)
        got = []

        def holder():
            yield resource.acquire()
            yield Timeout(5.0)
            resource.release()

        def doomed():
            yield resource.acquire()
            got.append("doomed")

        def late():
            yield Timeout(10.0)
            yield resource.acquire()
            got.append("late")
            resource.release()

        engine.process(holder(), name="holder")
        d = engine.process(doomed(), name="doomed")
        engine.process(late(), name="late")
        engine.schedule(1.0, d.cancel)
        engine.run()
        # The late acquirer gets the slot the cancelled process passed by.
        assert got == ["late"]
        assert resource.in_use == 0

    def test_grant_in_flight_to_cancelled_process_returns_slot(self):
        """Cancellation *after* the grant was issued but before wake-up."""
        engine = Engine()
        resource = Resource(capacity=1)
        ran = []

        def holder():
            yield resource.acquire()
            yield Timeout(1.0)
            resource.release()

        def victim():
            yield resource.acquire()
            ran.append("victim")

        engine.process(holder(), name="holder")
        v = engine.process(victim(), name="victim")
        # At t=1.0 release() issues the grant; cancel the victim at the
        # same timestamp, after the release callback but before the
        # grant's run-queue entry fires (same-time FIFO ordering).
        engine.schedule(1.0, v.cancel)
        engine.run()
        assert ran == []
        assert resource.in_use == 0


class TestSimEventWaiterOrder:
    """Satellite (b): fire() resumes waiters in registration order."""

    @pytest.mark.parametrize("n_waiters", [1, 2, 7, 32, 101])
    def test_n_waiters_resume_in_registration_order(self, n_waiters):
        engine = Engine()
        event = SimEvent()
        resumed = []

        def waiter(idx):
            value = yield event.wait()
            resumed.append((idx, value, engine.now))

        for idx in range(n_waiters):
            engine.process(waiter(idx), name=f"w{idx}")
        engine.schedule(3.0, lambda: event.fire("payload"))
        engine.run()
        assert resumed == [(idx, "payload", 3.0) for idx in range(n_waiters)]

    def test_interleaved_registration_still_fifo(self):
        """Waiters registered across different times keep arrival order."""
        engine = Engine()
        event = SimEvent()
        resumed = []

        def waiter(idx):
            yield event.wait()
            resumed.append(idx)

        def spawner(idx, delay):
            yield Timeout(delay)
            engine.process(waiter(idx), name=f"w{idx}")

        for idx, delay in enumerate([0.5, 0.1, 0.3, 0.2, 0.4]):
            engine.process(spawner(idx, delay), name=f"s{idx}")
        engine.schedule(1.0, event.fire)
        engine.run()
        # Resume order follows wait-registration (= spawn-delay) order.
        assert resumed == [1, 3, 2, 4, 0]

    def test_fire_uses_run_queue_not_heap(self):
        """Waiter wake-ups are zero-delay run-queue events."""
        engine = Engine()
        event = SimEvent()

        def waiter():
            yield event.wait()

        for idx in range(5):
            engine.process(waiter(), name=f"w{idx}")
        engine.schedule(1.0, event.fire)
        engine.run()
        # 5 process starts + 5 event wake-ups, all via the ready queue.
        assert engine.ready_dispatched == 10


class TestRunUntilEdges:
    """Satellite (c): bounded-run horizon and deadlock reporting."""

    def test_event_exactly_at_horizon_fires(self):
        engine = Engine()
        log = []
        engine.schedule(5.0, lambda: log.append(engine.now))
        engine.schedule(5.0 + 1e-9, lambda: log.append("late"))
        final = engine.run(until=5.0)
        assert log == [5.0]
        assert final == 5.0 and engine.now == 5.0
        assert len(engine._heap) == 1 and not engine._ready  # the event past the horizon

    def test_blocked_after_bounded_run_is_not_deadlock(self):
        engine = Engine()

        def sleeper():
            yield Timeout(10.0)

        p = engine.process(sleeper(), name="sleeper")
        final = engine.run(until=1.0)  # returns normally, no deadlock
        assert final == 1.0
        assert engine.blocked() == [p]
        engine.run()  # resuming to completion clears the in-flight set
        assert engine.blocked() == []
        assert p.done

    def test_deadlock_message_truncates_after_ten(self):
        engine = Engine()
        event = SimEvent()  # never fired

        def stuck(idx):
            yield event.wait()

        for idx in range(12):
            engine.process(stuck(idx), name=f"stuck{idx:02d}")
        with pytest.raises(SimulationError) as err:
            engine.run()
        message = str(err.value)
        for idx in range(10):
            assert f"stuck{idx:02d}" in message
        assert "stuck10" not in message and "stuck11" not in message
        assert message.endswith("...")

    def test_deadlock_message_complete_at_ten_or_fewer(self):
        engine = Engine()
        event = SimEvent()

        def stuck():
            yield event.wait()

        for idx in range(3):
            engine.process(stuck(), name=f"s{idx}")
        with pytest.raises(SimulationError) as err:
            engine.run()
        assert not str(err.value).endswith("...")


# ----------------------------------------------------------------------
# The compiled core's native slot access and its two inlined methods
# ----------------------------------------------------------------------
#
# The C core loads and stores ``__slots__`` members at the offsets their
# member descriptors state, and runs ``TraceRecorder.record`` and
# ``Resource.release`` itself when they would do nothing but add. Every
# other case must reach the attribute protocol or the Python method, so
# each test here runs one scenario on ``CompiledEngine``, whose core walks
# ``FusedOp`` requests, and on the reference ``Engine``, which runs the
# same operations as the ``Network`` generators, and requires the same
# observable outcome.

needs_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled engine core unavailable"
)


class _DuckRecorder:
    """Not a TraceRecorder at all: just something with ``record``."""

    def __init__(self, n_ranks):
        self.calls = []

    def record(self, src, category, start, end):
        self.calls.append((src, category, start, end))

    def record_compute(self, src, tid, start, end):
        self.calls.append((src, tid, start, end))


class _LoudRecorder(TraceRecorder):
    __slots__ = ("seen",)

    def __init__(self, n_ranks):
        super().__init__(n_ranks)
        self.seen = []

    def record(self, rank, category, start, end):
        self.seen.append((rank, category))
        super().record(rank, category, start, end)


class _CountingNic(Resource):
    __slots__ = ("releases",)

    def __init__(self, capacity=1):
        super().__init__(capacity)
        self.releases = 0

    def release(self):
        self.releases += 1
        super().release()


def _task_chain(net, trace, src, category=COMM, bad_step=False):
    """A 64 KiB get from rank 1, a 1 us kernel and a 4 KiB accumulate
    into rank 1 as one chained request — ``bad_step`` leaves the category
    out of the accumulate's step."""

    def step(kind, nbytes):
        programs = tuple(net._tier_program(kind, tier, nbytes) for tier in (0, 1, 2))
        return (1, programs, category)

    steps = (step("rma", 1 << 16), None, step("accumulate", 4096))
    if bad_step:
        steps = (*steps[:2], steps[2][:2])
    return FusedOp(
        trace, src, chain=net._chain(steps), end=3, duration=1.0e-6, tid=src
    )


def _task_walk(engine, net, trace, src, category=COMM):
    """:func:`_task_chain`'s task as the generators run it."""
    yield from net.rma_traced(src, 1, 1 << 16, trace, category)
    start = engine.now
    yield pooled_timeout(1.0e-6)
    trace.record_compute(src, src, start, engine.now)
    yield from net.accumulate_traced(src, 1, 4096, trace, category)


class _Halted(Exception):
    """Stops a reference run where the compiled run under test fails."""


class _HaltingRecorder(TraceRecorder):
    """Raises :class:`_Halted` as rank 0's first interval is recorded
    (``at="interval"``, before it counts) or once its first kernel
    interval has been (``at="kernel"``)."""

    __slots__ = ("at",)

    def record(self, rank, category, start, end):
        if rank == 0 and self.at == "interval":
            raise _Halted
        super().record(rank, category, start, end)

    def record_compute(self, rank, tid, start, end):
        super().record_compute(rank, tid, start, end)
        if rank == 0 and self.at == "kernel":
            raise _Halted


def _outcome(engine_cls, recorder_cls=TraceRecorder, nic_cls=None, category=COMM,
             tamper=None, cancel_at=None, intervals=False, chain=False, bad_step=False,
             halt=None):
    """Three ranks issue traced ops at rank 1's NIC (one per rank, so two
    queue behind the first); returns everything observable afterwards.

    ``tamper(engine, net, ops)`` is called mid-flight, 2.2 us in, while the
    first op holds the NIC and the other two are queued; ``cancel_at``
    lists ranks whose processes are cancelled at that same moment. With
    ``chain`` each rank's first op is a whole task (:func:`_task_chain`).
    On ``CompiledEngine`` the ops are ``FusedOp``s, on ``Engine`` the
    generators; ``halt`` stops the run with a :class:`_HaltingRecorder`.
    """
    engine = engine_cls()
    net = Network(engine, NetworkModel(), 4)
    if nic_cls is not None:
        net.nics[1] = nic_cls(1)
    if halt is None:
        trace = recorder_cls(4)
    else:
        trace = _HaltingRecorder(4)
        trace.at = halt
    if intervals:
        trace.keep_intervals()
    cell = SharedCell()
    ops, log = [], []

    def rank(src):
        if chain and net.op_type is not None:
            op = _task_chain(net, trace, src, category, bad_step)
        elif chain:
            op = _task_walk(engine, net, trace, src, category)
        else:
            op = net.rma_traced(src, 1, 1 << 16, trace, category)
        ops.append(op)
        yield from op
        old = yield from net.fetch_add_traced(src, 1, cell, 1, trace, OVERHEAD)
        log.append((src, old, engine.now))

    procs = {src: engine.process(rank(src), name=f"r{src}") for src in (0, 2, 3)}

    def midway():
        for src in cancel_at or ():
            procs[src].cancel()
        if tamper is not None:
            tamper(engine, net, ops)

    engine.schedule(2.2e-6, midway)
    error = None
    try:
        engine.run()
    except Exception as exc:  # compared, not swallowed: part of the outcome
        error = (type(exc).__name__, str(exc))
    nic = net.nics[1]
    return {
        "error": error,
        "log": log,
        "engine": (engine.now, engine.events_dispatched, engine.grant_resumes),
        "nic": (nic.in_use, nic.total_acquisitions, nic.total_waits, len(nic._queue)),
        "releases": getattr(nic, "releases", None),
        "trace": {
            name: getattr(trace, name, None)
            for name in (
                "_totals", "records", "intervals", "task_ids", "task_ranks", "task_starts",
                "task_ends", "seen", "calls",
            )
        },
        "cell": cell.value,
    }


def _future_start(engine, net, ops):
    ops[0].start = 1.0  # completes at ~15 us: the interval ends before it starts


def _malformed_step():
    """The step :func:`_task_chain` writes with ``bad_step``."""
    op = _task_chain(Network(Engine(), NetworkModel(), 4), None, 0, bad_step=True)
    return op.chain[0][2]


def _forget_acquire(engine, net, ops):
    net.nics[1].in_use = 0  # the holder's release() is now unmatched


@needs_compiled
class TestCompiledCoreFallbacks:
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({}, id="inline"),
            pytest.param({"nic_cls": _CountingNic}, id="resource-subclass"),
            pytest.param({"recorder_cls": _LoudRecorder}, id="recorder-subclass"),
            pytest.param({"recorder_cls": _DuckRecorder}, id="duck-recorder"),
            pytest.param({"intervals": True}, id="keep-intervals"),
            pytest.param({"category": "bogus"}, id="unknown-category"),
            pytest.param({"tamper": _future_start}, id="end-before-start"),
            pytest.param({"cancel_at": (2,)}, id="release-skips-cancelled-waiter"),
            pytest.param({"cancel_at": (2, 3)}, id="release-all-cancelled-queue"),
            pytest.param({"cancel_at": (0,)}, id="cancelled-holder-releases"),
            pytest.param({"tamper": _forget_acquire}, id="release-without-acquire"),
            pytest.param({"chain": True}, id="chain"),
            pytest.param({"chain": True, "nic_cls": _CountingNic}, id="chain-resource-subclass"),
            pytest.param({"chain": True, "recorder_cls": _DuckRecorder}, id="chain-duck-recorder"),
            pytest.param({"chain": True, "intervals": True}, id="chain-keep-intervals"),
            pytest.param({"chain": True, "category": "bogus"}, id="chain-unknown-category"),
            pytest.param({"chain": True, "tamper": _future_start}, id="chain-end-before-start"),
            pytest.param({"chain": True, "cancel_at": (0, 3)}, id="chain-cancelled-holder-and-waiter"),
            pytest.param({"chain": True, "bad_step": True}, id="chain-step-of-the-wrong-shape"),
        ],
    )
    def test_same_outcome_as_reference_engine(self, kwargs):
        outcome = _outcome(CompiledEngine, **kwargs)
        if kwargs.get("tamper") is _future_start or "bad_step" in kwargs:
            # Only the fused op has a start to move or a step to break:
            # the generators stop where the compiled run fails, as rank
            # 0's get records its interval or once its kernel has.
            if "bad_step" in kwargs:
                reference = _outcome(Engine, chain=True, halt="kernel")
                # The core's own error, raised before it touched the NIC
                # or the trace for the step.
                expected = ("TypeError", f"malformed fused op step 2: {_malformed_step()!r}")
            else:
                reference = _outcome(Engine, **{**kwargs, "tamper": None}, halt="interval")
                end = outcome["engine"][0]
                expected = ("SimulationError", f"interval ends before it starts: [1.0, {end})")
            assert reference.pop("error") == ("_Halted", "")
            assert outcome.pop("error") == expected
            assert outcome == reference
            return
        reference = _outcome(Engine, **kwargs)
        assert outcome == reference
        # The scenario did what its name says on the reference engine.
        error, log = reference["error"], reference["log"]
        if "category" in kwargs:
            assert error[0] == "ConfigurationError" and "bogus" in error[1]
        elif kwargs.get("tamper") is _forget_acquire:
            assert error == ("SimulationError", "release() without a matching acquire()")
        else:
            assert error is None
            assert sorted(src for src, _, _ in log) == sorted(
                {0, 2, 3} - set(kwargs.get("cancel_at", ()))
            )
            assert reference["nic"][0] == 0  # every NIC slot came back

    def test_subclass_methods_really_ran(self):
        """The parity above is not two engines skipping the override alike."""
        for chain, ops in ((False, 6), (True, 9)):  # per rank: rma (+ accumulate) + fetch_add
            outcome = _outcome(
                CompiledEngine, nic_cls=_CountingNic, recorder_cls=_LoudRecorder, chain=chain
            )
            assert outcome["releases"] == ops  # one NIC hold each
            assert len(outcome["trace"]["seen"]) == ops  # ...and as many records seen

    @pytest.mark.parametrize("victim", ["op.pre", "proc._send"])
    def test_unset_slot_raises_the_attribute_protocols_error(self, victim):
        def message(engine_cls):
            engine = engine_cls()
            net = Network(engine, NetworkModel(), 2)

            def rank():
                op = net.rma_traced(0, 1, 64, TraceRecorder(2), COMM)
                if victim == "op.pre":
                    del op.pre
                yield from op

            proc = engine.process(rank())
            if victim == "proc._send":
                del proc._send
            with pytest.raises(AttributeError) as caught:
                engine.run()
            return str(caught.value)

        if victim == "proc._send":
            assert message(CompiledEngine) == message(Engine)
            return
        unset = FusedOp(None, 0)
        del unset.pre
        with pytest.raises(AttributeError) as cpython:
            unset.pre
        assert message(CompiledEngine) == str(cpython.value)

    def test_class_mutated_after_first_use_is_resolved_again(self, monkeypatch):
        """An offset the core has already used holds only while the class
        is unchanged: a descriptor planted over the slot afterwards sees
        the core's stores, and taking it away restores the native path."""
        reference = _outcome(Engine)
        assert _outcome(CompiledEngine) == reference  # offsets now cached
        slot = vars(Resource)["in_use"]
        grabs = []

        class Spy:
            def __get__(self, obj, owner=None):
                return self if obj is None else slot.__get__(obj, owner)

            def __set__(self, obj, value):
                if value == 1:  # capacity 1: an immediate acquire
                    grabs.append(obj)
                slot.__set__(obj, value)

        monkeypatch.setattr(Resource, "in_use", Spy())
        assert _outcome(Engine) == reference
        from_python = len(grabs)
        assert from_python > 0
        assert _outcome(CompiledEngine) == reference
        assert len(grabs) == 2 * from_python  # the C acquire went through it too
        monkeypatch.undo()
        assert _outcome(CompiledEngine) == reference
        assert len(grabs) == 2 * from_python

    def test_core_refuses_a_malformed_chain(self):
        """The op's fields are the core's own: a chain of the wrong shape
        fails with the core's TypeError naming the step before the op
        takes a seq or touches a NIC or the trace, and a numeric field
        refuses a non-integer, or deletion, as it is written."""
        engine = CompiledEngine()
        net = Network(engine, NetworkModel(), 4)
        trace = TraceRecorder(4)
        op = _task_chain(net, trace, 0)
        op.chain = op.chain[:2]  # (steps, nics): no node ids

        def rank():
            yield from op

        engine.process(rank())
        with pytest.raises(TypeError, match="^fused op chain has no step 0$"):
            engine.run()
        assert engine._seq == 1  # the process start's, and no more
        assert trace.records == 0 and net.nics[1].total_acquisitions == 0
        for value in (1.5, "1", None):
            with pytest.raises(TypeError):
                op.pos = value
        with pytest.raises(TypeError):
            del op.end
        assert op.end == 3

    def test_a_nic_queue_that_is_not_a_deque_is_refused(self):
        """The core appends a waiting op to a NIC's ``_queue`` itself,
        which only an exact deque lets it do without running Python.
        Resource builds one; a queue replaced by anything else is refused
        where the first op would wait on it."""

        class _Queue(collections.deque):
            pass

        class _QueueNic(Resource):
            __slots__ = ()

            def __init__(self, capacity=1):
                super().__init__(capacity)
                self._queue = _Queue()

        assert _outcome(Engine, nic_cls=_QueueNic)["error"] is None
        outcome = _outcome(CompiledEngine, nic_cls=_QueueNic)
        assert outcome["error"] == (
            "TypeError", "a Resource's _queue must be a collections.deque"
        )
        assert outcome["nic"][2:] == (1, 0)  # counted as a wait, never queued


# ----------------------------------------------------------------------
# What the core refuses before or instead of running
# ----------------------------------------------------------------------


def _foreign(kind):
    """A callback and its argument that hand engine A's process or fused
    op to whichever engine runs them: its resume (the process then yields
    a Timeout, or a fused op), a Resource grant to it, or a step or a grant
    of an op A has begun to walk."""
    a = CompiledEngine()
    net = Network(a, NetworkModel(), 2)
    op = net.rma_traced(0, 1, 64, TraceRecorder(2), COMM)

    def walks():
        yield from op

    def sleeps():
        yield Timeout(1.0)

    proc = a.process(walks() if kind in ("op", "op-step", "op-grant") else sleeps())
    if kind in ("op-step", "op-grant"):
        a.run(until=1e-9)  # the op's first pre-delay is pending
        assert op.engine is a
        return (op._advance, None) if kind == "op-step" else (net.nics[1]._deliver_grant, op)
    return (Resource(1)._deliver_grant, proc) if kind == "grant" else (proc._resume, None)


@needs_compiled
@pytest.mark.parametrize("kind", ["timeout", "op", "grant", "op-step", "op-grant"])
def test_a_process_or_op_of_another_engine_is_refused(kind):
    """Engine B's core takes its seqs and wake-ups for B: one for A's
    process or op is refused where it would be taken, B's own pending
    wake-ups go back to its queues as the reference keeps them, and both B
    and a fresh engine run on."""
    callback, arg = _foreign(kind)
    engine = CompiledEngine()

    def timed():
        yield Timeout(2.0)

    def zero():
        yield Timeout(0.0)

    own = [engine.process(timed(), name="timed"), engine.process(zero(), name="zero")]
    engine.call_now(callback, arg)  # seq 2, after both starts
    with pytest.raises(SimulationError, match="runs only the processes and fused network ops"):
        engine.run()
    # timed's wake-up (seq 3) in the heap, zero's Timeout(0) (seq 4) in the
    # run-queue, no seq taken for the refused one
    assert [entry[:2] for entry in engine._heap] == [(2.0, 3)]
    assert [entry[0] for entry in engine._ready] == [4]
    assert (engine.now, engine._seq, engine.timeout_allocs) == (0.0, 5, 2)
    assert engine.run() == 2.0 and all(proc.done for proc in own)
    fresh = CompiledEngine()
    proc = fresh.process(timed())
    assert fresh.run() == 2.0 and proc.done


@needs_compiled
@pytest.mark.parametrize(
    "name, value, match",
    [
        pytest.param("_ready", [], "engine._ready a collections.deque", id="ready-list"),
        pytest.param("_heap", (), "engine._heap must be a list", id="heap-tuple"),
        pytest.param("now", "0", "must be real number", id="clock-str"),
    ],
)
def test_run_refuses_engine_state_of_the_wrong_type(name, value, match):
    """The core checks the engine's queues and clock before it holds
    anything: the run raises TypeError, the engine is left as it was, and
    the next run, on it or a fresh engine, works."""
    engine = CompiledEngine()

    def sleeps():
        for _ in range(3):
            yield Timeout(1.0)

    good = getattr(engine, name)
    setattr(engine, name, value)
    with pytest.raises(TypeError, match=match):
        engine.run()
    setattr(engine, name, good)
    assert engine.run() == 0.0
    fresh = CompiledEngine()
    # more timed wake-ups at once than the C heap's first buffer holds
    procs = [fresh.process(sleeps()) for _ in range(300)]
    assert fresh.run() == 3.0 and all(proc.done for proc in procs)


@needs_compiled
@pytest.mark.parametrize(
    "fields, match",
    [
        pytest.param({}, "pre-delays must be a non-empty tuple", id="no-pre-delay"),
        pytest.param({"hold": 1e-6, "post": [1e-6]}, "delays must be tuples", id="post-list"),
    ],
)
def test_an_op_without_a_chain_refuses_delays_of_the_wrong_shape(fields, match):
    """An op built by hand, not by Network: no first pre-delay is refused
    as it is yielded, and return-path delays that are not a tuple once
    the NIC hold ends."""
    engine = CompiledEngine()
    if "hold" in fields:
        fields = {"pre": (1e-6,), "nic": Resource(1), **fields}
    op = FusedOp(TraceRecorder(2), 0, **fields)

    def rank():
        yield from op

    engine.process(rank())
    with pytest.raises(TypeError, match=match):
        engine.run()


def _nothing():
    pass


@needs_compiled
@pytest.mark.parametrize(
    "heap, ready, match",
    [
        pytest.param(["junk"], [], "heap entry is not a", id="heap-not-a-tuple"),
        pytest.param([("1", 0, _nothing)], [], "must be real number", id="heap-time-str"),
        pytest.param([(1.0, "0", _nothing)], [], "cannot be interpreted as an integer", id="heap-seq-str"),
        pytest.param(
            [(0.0, 0, _nothing)], ["junk"], "run-queue entry is not a", id="ready-head-beside-due"
        ),
        pytest.param([], ["junk"], "run-queue entry is not a", id="ready-popped"),
        pytest.param(
            [(1.0, 0, _nothing), (2.0, 1, _nothing), "junk"], [], "'<' not supported",
            id="heap-pop-compares",
        ),
        pytest.param(
            [(0.0, 0, _nothing), (2.0, 1, _nothing), "junk"], [(5, _nothing, None)],
            "'<' not supported", id="due-heap-pop-compares",
        ),
    ],
)
def test_run_refuses_a_malformed_queue_entry(heap, ready, match):
    """Python's own ``_heap`` and ``_ready`` entries are read where the
    loop meets them; one that is not a ``(time, seq, callback)`` or
    ``(seq, callback, arg)`` tuple of a float and ints raises TypeError
    there, also when ``heappop`` has to compare it."""
    engine = CompiledEngine()
    engine._heap.extend(heap)
    engine._ready.extend(ready)
    with pytest.raises(TypeError, match=match):
        engine.run()


@needs_compiled
def test_the_core_entry_points_refuse_bad_arguments():
    """``setup`` and ``run`` as ``sched`` calls them, the balancers'
    kernels and the op type's constructor, each given what it cannot
    take, raise before they store anything: the core afterwards runs as
    before."""
    core = _load_engine_core()
    good = (Process, Timeout, Request, SimulationError, Resource, _timeout_pool, TraceRecorder)
    for args, error, match in [
        (good[:6], TypeError, "takes exactly 7 arguments"),
        ((*good[:5], (), good[6]), TypeError, "timeout_pool must be a list"),
        ((object, *good[1:]), AttributeError, "resume"),
        ((*good[:4], object, *good[5:]), AttributeError, "_deliver_grant"),
    ]:
        with pytest.raises(error, match=match):
            core.setup(*args)
    with pytest.raises(TypeError):
        core.run(CompiledEngine())  # no horizon
    for kernel in ("lpt", "greedy_semi_matching", "semi_matching_sweep"):
        with pytest.raises(TypeError, match=kernel):
            getattr(core, kernel)()
    with pytest.raises(TypeError):
        FusedOp()  # no trace, no source rank
    def sleeps():
        yield Timeout(1.0)

    engine = CompiledEngine()
    proc = engine.process(sleeps())
    assert engine.run() == 1.0 and proc.done


@needs_compiled
def test_out_of_memory_in_a_run_is_a_memory_error():
    """Failing each Python allocation of a run in turn (fused ops with a
    NIC hold and a fetch-add, timed and zero-delay Timeouts) never
    crashes: the run raises MemoryError, or completes as an unfailed run
    does when the failed allocation was one the core may do without (the
    Timeout freelist). Run in a child, so a crash fails this test instead
    of the test session."""
    pytest.importorskip("_testcapi")
    script = textwrap.dedent(
        """
        import gc
        import _testcapi
        from repro.runtime.trace import COMM, TraceRecorder
        from repro.simulate.engine import Timeout
        from repro.simulate.network import Network, NetworkModel, SharedCell
        from repro.simulate.sched import CompiledEngine

        def scenario():
            engine = CompiledEngine()
            net = Network(engine, NetworkModel(), 4)
            trace, cell = TraceRecorder(4), SharedCell()

            def rank(src):
                for _ in range(3):
                    yield from net.rma_traced(src, 1, 1 << 16, trace, COMM)
                    yield Timeout(1e-6)
                    yield Timeout(0.0)
                    yield from net.fetch_add_traced(src, 1, cell, 1, trace, COMM)

            for src in range(4):
                engine.process(rank(src), name=f"r{src}")
            return engine

        reference = scenario()
        reference.run()
        expected = (reference.now, reference._seq, reference.events_dispatched)
        gc.disable()
        failed = 0
        for k in range(400):
            engine = scenario()
            _testcapi.set_nomemory(k, k + 1)
            try:
                engine.run()
            except MemoryError:
                failed += 1
                continue
            finally:
                _testcapi.remove_mem_hooks()
            assert (engine.now, engine._seq, engine.events_dispatched) == expected, k
        assert failed >= 100, failed
        print("ok")
        """
    )
    env = dict(os.environ, REPRO_ENGINE="compiled", REPRO_ENGINE_REQUIRE="1")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr[-2000:]


# ----------------------------------------------------------------------
# The kernel's record: the core's append against record_compute
# ----------------------------------------------------------------------
#
# A chained op's kernel interval is recorded by the core itself when
# ``TraceRecorder.record_compute`` would only add it to the rank's compute
# total and append one entry to each task column; every other case calls
# the method. Either way the recorder must end as the reference engine,
# which always calls the method, leaves it.


class _RecorderSubclass(TraceRecorder):
    """Overrides nothing but counts its ``record_compute`` calls."""

    __slots__ = ("computed",)

    def __init__(self, n_ranks):
        super().__init__(n_ranks)
        self.computed = 0

    def record_compute(self, rank, tid, start, end):
        self.computed += 1
        super().record_compute(rank, tid, start, end)


def _kernel_outcome(engine_cls, recorder_cls=TraceRecorder, intervals=False, tid=7, rank=1,
                    late_start=False):
    """Task ``tid``'s 1 us kernel on ``rank`` of four, after one already
    recorded on rank 0: a chained request where the engine walks them,
    else the generator. ``late_start`` moves the kernel's start past its
    end while it runs. Returns the error and the recorder's state."""
    engine = engine_cls()
    net = Network(engine, NetworkModel(), 4)
    trace = recorder_cls(4)
    if intervals:
        trace.keep_intervals()
    trace.record_compute(0, 3, 0.0, 0.0)
    held = {}

    def kernel():
        if net.op_type is not None:
            held["op"] = FusedOp(
                trace, rank, chain=net._chain((None,)), end=1, duration=1.0e-6, tid=tid
            )
            yield from held["op"]
        else:
            held["start"] = engine.now
            yield pooled_timeout(1.0e-6)
            trace.record_compute(rank, tid, held["start"], engine.now)

    def move_start():
        if "op" in held:
            held["op"].start = 1.0
        else:
            held["start"] = 1.0

    engine.process(kernel(), name="kernel")
    if late_start:
        engine.schedule(0.5e-6, move_start)
    error = None
    try:
        engine.run()
    except Exception as exc:  # compared, not swallowed: part of the outcome
        error = (type(exc).__name__, str(exc))
    columns = (trace.task_ids, trace.task_ranks, trace.task_starts, trace.task_ends)
    return {
        "error": error,
        "totals": trace._totals,
        "records": trace.records,
        "intervals": trace.intervals,
        "columns": columns,
        "id_types": [type(tid) for tid in trace.task_ids],
        "computed": getattr(trace, "computed", None),
    }


@needs_compiled
class TestKernelRecordFastPath:
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({}, id="native"),
            pytest.param({"recorder_cls": _RecorderSubclass}, id="recorder-subclass"),
            pytest.param({"intervals": True}, id="keep-intervals"),
            pytest.param({"tid": np.int64(7)}, id="numpy-tid"),
            pytest.param({"tid": True}, id="bool-tid"),
            pytest.param({"tid": None}, id="no-tid"),
            pytest.param({"rank": 4}, id="rank-past-the-end"),
            pytest.param({"rank": -1}, id="negative-rank"),
            pytest.param({"late_start": True}, id="end-before-start"),
        ],
    )
    def test_same_state_as_the_method(self, kwargs):
        outcome = _kernel_outcome(CompiledEngine, **kwargs)
        assert outcome == _kernel_outcome(Engine, **kwargs)
        error, columns = outcome["error"], outcome["columns"]
        if kwargs.get("late_start"):
            assert error == (
                "SimulationError", "interval ends before it starts: [1.0, 1e-06)"
            )
        elif kwargs.get("rank") == 4:
            assert error == ("IndexError", "list index out of range")
        else:
            assert error is None
            tid = kwargs.get("tid", 7)
            assert columns[0] == [3] + ([] if tid is None else [tid])
            assert outcome["records"] == 2
        if "recorder_cls" in kwargs:
            assert outcome["computed"] == 2  # the core called the override

    def test_the_native_record_skips_the_method(self, monkeypatch):
        """On the exact class the core records the kernel itself: the
        method only sees the set-up record, and the state is the same."""
        reference = _kernel_outcome(Engine)
        method = TraceRecorder.record_compute
        calls = []

        def watched(self, *args):
            calls.append(args)
            method(self, *args)

        monkeypatch.setattr(TraceRecorder, "record_compute", watched)
        assert _kernel_outcome(CompiledEngine) == reference
        assert calls == [(0, 3, 0.0, 0.0)]


# ----------------------------------------------------------------------
# A finished fused op is freed by reference count
# ----------------------------------------------------------------------
#
# ``op._step`` is a bound method of the op, so while it is set the op is
# cyclic garbage: it, its ``trace`` and its ``proc`` wait for the cyclic
# collector. The core drops it when the op completes, ``close`` when the
# op is closed.


@pytest.fixture
def no_gc():
    """The cyclic collector off: what dies here dies by reference count."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@needs_compiled
@pytest.mark.parametrize("chain", [False, True], ids=["op", "chain"])
@pytest.mark.parametrize("engine_cls", [CompiledEngine])
class TestFusedOpLifetime:
    def _issue(self, net, trace, chain, refs):
        op = _task_chain(net, trace, 0) if chain else net.rma_traced(0, 1, 1 << 16, trace, COMM)
        refs.append(weakref.ref(op))
        return op

    def test_dead_once_it_completes(self, engine_cls, chain, no_gc):
        engine = engine_cls()
        net = Network(engine, NetworkModel(), 2)
        trace = TraceRecorder(2)
        refs, alive = [], []

        def rank():
            yield from self._issue(net, trace, chain, refs)
            yield Timeout(0.0)  # the dispatch that completed the op is over
            alive.append(refs[0]() is not None)
            yield Timeout(1.0)

        engine.process(rank())
        engine.run()
        assert alive == [False]
        assert trace.records == (3 if chain else 1)

    def test_dead_once_closed_mid_hold(self, engine_cls, chain, no_gc):
        engine = engine_cls()
        net = Network(engine, NetworkModel(), 2)
        trace = TraceRecorder(2)
        refs, seen = [], []

        def rank():
            yield from self._issue(net, trace, chain, refs)

        proc = engine.process(rank())

        def cancel():
            seen.append((refs[0]().holding, net.nics[1].in_use))
            proc.cancel()
            seen.append(net.nics[1].in_use)

        engine.schedule(5.0e-6, cancel)  # 1.9 us out, then a 13.3 us hold
        engine.run(until=6.0e-6)
        # Only the hold's pending wake-up still refers to the closed op.
        assert seen == [(True, 1), 0] and refs[0]() is not None
        engine.run()
        assert refs[0]() is None
        assert trace.records == 0


@pytest.mark.parametrize("model_name", ["static_cyclic", "counter_dynamic", "work_stealing"])
def test_a_finished_run_leaves_no_garbage_per_task(model_name, no_gc):
    """What ``gc.collect()`` finds after a fault-free cell — the rank
    processes, each a cycle through its cached ``_resume`` — grows with
    the number of ranks and not with the number of tasks: no op, claim
    state, trace record or task record is left to the cyclic collector."""
    from repro.chemistry.tasks import synthetic_task_graph
    from repro.exec_models import make_model
    from repro.simulate import commodity_cluster

    def census(n_tasks, n_ranks=8):
        graph = synthetic_task_graph(n_tasks, 12, seed=5, skew=1.2, mean_cost=2.0e5)
        gc.collect()
        result = make_model(model_name).run(graph, commodity_cluster(n_ranks), seed=3)
        assert result.n_tasks == n_tasks
        return gc.collect()

    census(50)  # first-use caches (the engine build, interned names)
    small, large, wide = census(200), census(2000), census(200, n_ranks=16)
    # Work stealing's steal and token messages each run a delivery
    # process, and there are more of them in a longer run.
    assert large <= small + (0 if model_name != "work_stealing" else 200), (small, large)
    assert small < wide <= 2 * small, (small, wide)


@pytest.mark.parametrize("model_name", ["counter_dynamic", "work_stealing", "work_stealing_hier"])
def test_a_finished_runs_harness_dies_by_reference_count(model_name, no_gc, monkeypatch):
    """Nothing a run leaves in its rank processes' cycles — an idle pass's
    claim source, the steal state its ranks share — holds the harness:
    it goes, with its queues, locks and mailboxes, as ``run`` returns,
    not at the next full collection."""
    from repro.chemistry.tasks import synthetic_task_graph
    from repro.exec_models import make_model
    from repro.exec_models.base import Harness
    from repro.simulate import hierarchical_cluster

    refs, finish = [], Harness.finish

    def finished(harness, name):
        refs.append(weakref.ref(harness))
        return finish(harness, name)

    monkeypatch.setattr(Harness, "finish", finished)
    graph = synthetic_task_graph(300, 12, seed=5, skew=1.2, mean_cost=2.0e5)
    result = make_model(model_name).run(graph, hierarchical_cluster(2, 4), seed=3)
    assert result.n_tasks == 300 and len(refs) == 1
    assert refs[0]() is None


def _claim_loop_harness(source, n_tasks=120, n_ranks=4):
    """A compiled-engine harness set up for the model whose claim loop
    ``source`` names, the loop not yet started."""
    from repro.chemistry.tasks import synthetic_task_graph
    from repro.exec_models import make_model
    from repro.exec_models.base import Harness
    from repro.simulate import commodity_cluster

    graph = synthetic_task_graph(n_tasks, 8, seed=5, skew=1.2, mean_cost=2.0e5)
    models = {"claims": "counter_dynamic", "drain": "work_stealing", "list": "static_cyclic"}
    model = make_model(models[source])
    harness = Harness(graph, commodity_cluster(n_ranks), seed=3)
    assert type(harness.engine) is CompiledEngine and harness._chain is not None
    model.setup(harness)
    return harness


def _start_claim_loop(harness, source, ctx):
    state = harness.model_state
    if source == "claims":
        return harness.claim_loop(ctx, state["counter"], state["sequence"])
    if source == "list":
        return harness.execute_tasks(ctx, state["task_lists"][ctx.rank])
    return harness.local_drain(ctx, state["queues"][ctx.rank], state["locks"])


@needs_compiled
@pytest.mark.parametrize("source", ["claims", "drain", "list"])
def test_a_claim_loop_dies_with_its_rank(source, monkeypatch, no_gc):
    """Each rank runs its loop as one op; once the loop is over the op is
    freed by reference count — its claim state refers to the harness, and
    nothing the run keeps refers to the op or its state. A drain returns
    how many tasks it ran, a counter loop the claim that ended it, a
    static list nothing."""
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    harness = _claim_loop_harness(source)
    queued = [len(queue) for queue in harness.model_state.get("queues", ())]
    outcomes = []

    def rank_process(harness, ctx):
        op = _start_claim_loop(harness, source, ctx)
        assert type(op) is FusedOp
        ref = weakref.ref(op)
        result = yield from op
        del op
        yield Timeout(0.0)  # the dispatch that finished the loop is over
        outcomes.append((ctx.rank, result, ref() is None))

    harness.spawn_ranks(rank_process)
    result = harness.finish("claim-loop")
    assert sorted(alive for _, _, alive in outcomes) == [True] * 4
    if source == "list":
        assert [end for _, end, _ in outcomes] == [None] * 4
        assert result.assignment.tolist() == [tid % 4 for tid in range(120)]
        return
    ends = sorted(end for _, end, _ in outcomes)
    if source == "claims":
        assert ends == [120, 121, 122, 123]  # one claim past the last task each
        assert result.counters["claims"] == 124
    else:
        assert ends == sorted(queued) and sum(ends) == 120


@needs_compiled
@pytest.mark.parametrize("source", ["claims", "drain", "list"])
def test_a_claim_loop_is_reference_neutral(source, monkeypatch):
    """Every object a claim loop's op touches — trace, locks, queues, the
    counter cell, the harness its claim state holds — has the reference
    count it had before the loop ran, and no op outlives it."""
    import sys

    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    harness = _claim_loop_harness(source)
    state = harness.model_state

    def counts():
        gc.collect()
        watched = [harness, harness.trace, harness.counters, *harness.network.nics]
        if source == "claims":
            watched.append(state["counter"].cell)
        elif source == "list":
            watched += state["task_lists"]
        else:
            watched += [*state["locks"], *state["queues"]]
        return [sys.getrefcount(obj) for obj in watched]

    before = counts()
    harness.spawn_ranks(lambda harness, ctx: (yield from _start_claim_loop(harness, source, ctx)))
    harness.finish("claim-loop")
    assert counts() == before
    assert sum(type(obj) is FusedOp for obj in gc.get_objects()) == 0


# ----------------------------------------------------------------------
# The core's claim sources and a steal's lock steps: what they refuse,
# and where the FIFO hand-off leaves a release to the method
# ----------------------------------------------------------------------


def _table(net, n_tasks=3, n_ranks=4):
    """A task table (``Harness._tasks``) of ``n_tasks`` tasks, each a 64
    B get from rank 1 and a 1 us kernel."""
    programs = tuple(net._tier_program("rma", tier, 64) for tier in (0, 1, 2))
    steps = ((1, programs, COMM), None) * n_tasks
    bounds = np.arange(0, 2 * n_tasks + 1, 2, dtype=np.int64)
    return net._chain(steps), bounds, np.full(n_tasks, 1.0e-6), np.ones(n_ranks)


def _walk_one(make_op, until=float("inf")):
    """Run the op ``make_op(net, trace)`` makes as rank 0's one request
    on a fresh compiled engine, up to ``until``; returns ``(engine, net,
    op)``."""
    engine = CompiledEngine()
    net = Network(engine, NetworkModel(), 4)
    op = make_op(net, TraceRecorder(4))

    def rank():
        yield from op

    engine.process(rank(), name="r0")
    engine.run(until=until)
    return engine, net, op


_MALFORMED_SOURCES = {
    "unknown-kind": (lambda t: ("queue", t, []), TypeError, "malformed claim source"),
    "short": (lambda t: ("list", t), TypeError, "malformed claim source"),
    "table-of-three": (lambda t: ("list", t[:3], [0]), TypeError, "malformed claim source"),
    "ids-in-a-tuple": (lambda t: ("list", t, (0,)), TypeError, "malformed claim source"),
    "drain-of-a-list": (lambda t: ("drain", t, [0], t[0]), TypeError, "malformed claim source"),
    "loop-not-a-chain": (
        lambda t: ("counter", t, [], SharedCell(), np.arange(3), SharedCell()),
        TypeError, "malformed claim source",
    ),
    "float32-costs": (
        lambda t: ("list", (t[0], t[1], t[2].astype(np.float32), t[3]), [0]),
        TypeError, "costs must be",
    ),
    "bounds-too-short": (
        lambda t: ("list", (t[0], t[1][:-1], t[2], t[3]), [0]), ValueError, "one entry more"
    ),
    "sequence-too-short": (
        lambda t: ("counter", t, t[0], SharedCell(), np.arange(2), SharedCell()),
        ValueError, "one entry more",
    ),
}


@needs_compiled
@pytest.mark.parametrize("case", _MALFORMED_SOURCES)
def test_a_malformed_claim_source_is_refused_where_the_op_is_made(case):
    """The core reads a claim source once, when the op is made: a tuple
    of the wrong shape, kind or item types, or whose arrays disagree in
    length, is refused there, before any run."""
    make, error, match = _MALFORMED_SOURCES[case]
    net = Network(CompiledEngine(), NetworkModel(), 4)
    with pytest.raises(error, match=match):
        FusedOp(TraceRecorder(4), 0, chain=(), claim=make(_table(net)))


def _counter_op(cell_value, tally_value):
    """A counter claim loop over a three-task table whose counter cell
    starts at ``cell_value`` and whose tally holds ``tally_value``."""

    def make(net, trace):
        programs = tuple(net._tier_program("fetch_add", tier, 0) for tier in (0, 1, 2))
        fetch_add = net._chain(((1, programs, OVERHEAD),))
        cell = SharedCell(cell_value)
        source = ("counter", _table(net), fetch_add, cell, np.arange(3), SharedCell(tally_value))
        return FusedOp(trace, 0, counter=cell, amount=1, chain=fetch_add, end=1, claim=source)

    return make


_REFUSED_CLAIMS = {
    "id-outside-the-table": (
        lambda net, trace: FusedOp(trace, 0, chain=(), claim=("list", _table(net), [3])),
        ValueError, "claimed task 3 of rank 0 is outside the task table",
    ),
    "rank-without-a-rate": (
        lambda net, trace: FusedOp(
            trace, 0, chain=(), claim=("list", _table(net, n_ranks=0), [0])
        ),
        ValueError, "claimed task 0 of rank 0 is outside",
    ),
    "negative-position": (_counter_op(-1, 0), ValueError, "a claim read position -1"),
    "tally-not-an-int": (_counter_op(5, "none"), TypeError, "integer"),
}


@needs_compiled
@pytest.mark.parametrize("case", _REFUSED_CLAIMS)
def test_a_claim_the_table_cannot_serve_is_refused(case):
    """A claimed id outside the task table, a rank with no rate, a
    counter position below zero and a tally that is not an int each
    raise from the run, where the claim is read."""
    make, error, match = _REFUSED_CLAIMS[case]
    with pytest.raises(error, match=match):
        _walk_one(make)


def _steal_op(
    steps, result=None, steal=True, victim=(), thief=(), duration=0.0, staged=False
):
    """A steal-shaped op of ``steps`` on a lock of its own (the victim's
    queue ``victim``, the thief's ``thief``, with ``staged`` an empty
    staging queue between them), its result ``result``."""

    def make(net, trace):
        queues = (victim, (), thief) if staged else (victim, thief)
        op = FusedOp(
            trace, 0, chain=net._chain(tuple(steps)), end=len(steps), duration=duration,
            steal=(Resource(1), *map(collections.deque, queues)) if steal is True else steal,
        )  # fmt: skip
        op.result = result
        return op

    return make


_REFUSED_LOCK_STEPS = {
    "no-steal": (_steal_op([KEEP_LOCK], steal=None), TypeError, "malformed fused op step 0"),
    "queues-not-deques": (
        _steal_op([KEEP_LOCK], steal=(Resource(1), [], [])), TypeError, "for steal"
    ),
    "unknown-step": (_steal_op([3]), TypeError, "malformed fused op step 0: 3"),
    "move-without-the-lock": (_steal_op([MOVE_TASKS], 0), TypeError, "step 0: 1 for"),
    "keep-it-twice": (_steal_op([KEEP_LOCK, KEEP_LOCK]), TypeError, "step 1: 0 for"),
    "end-keeping-it": (_steal_op([KEEP_LOCK]), TypeError, "end keeping its lock"),
    "take-more-than-queued": (
        _steal_op([KEEP_LOCK, MOVE_TASKS], 3, victim=[7, 8]), ValueError,
        "a steal takes 3 tasks from a queue of 2",
    ),
    "take-a-non-int": (
        _steal_op([KEEP_LOCK, MOVE_TASKS], 1.0, victim=[7]), ValueError, "takes 1.0 tasks"
    ),
    "land-without-staging": (_steal_op([LAND_TASKS]), TypeError, "step 0: 2 for"),
    "land-keeping-the-lock": (
        _steal_op([KEEP_LOCK, LAND_TASKS], staged=True), TypeError, "step 1: 2 for"
    ),
    "staging-not-a-deque": (
        _steal_op([KEEP_LOCK], steal=(Resource(1), collections.deque(), [], collections.deque())),
        TypeError, "for steal",
    ),
    "five-slots": (
        _steal_op([KEEP_LOCK], steal=(Resource(1), *[collections.deque()] * 4)),
        TypeError, "for steal",
    ),
}


@needs_compiled
@pytest.mark.parametrize("case", _REFUSED_LOCK_STEPS)
def test_a_lock_step_out_of_place_is_refused(case):
    """A steal's lock steps need ``steal = (lock, victim deque, thief
    deque)`` or ``(lock, victim deque, staging deque, thief deque)``, keep
    the lock once, move only while keeping it and land only staged tasks
    after letting go of it, and move a non-negative int of tasks the
    victim holds: anything else raises before a task moves."""
    make, error, match = _REFUSED_LOCK_STEPS[case]
    with pytest.raises(error, match=match):
        _walk_one(make)


@needs_compiled
def test_a_steal_moves_its_tasks_in_order_and_lets_go_of_the_lock():
    """Keep, move two, and the lock is free again: the victim's two tail
    tasks land at the thief's tail in their order, and the kernel-less
    wait that follows is recorded under its category, as one Timeout."""
    steps = [KEEP_LOCK, MOVE_TASKS, IDLE]
    engine, net, op = _walk_one(_steal_op(steps, 2, victim=[5, 6, 7], thief=[1]))
    lock, victim, thief = op.steal
    assert (list(victim), list(thief), op.kept, op.done) == ([5], [1, 6, 7], False, True)
    assert (lock.in_use, lock.total_acquisitions, engine.timeout_allocs) == (0, 1, 1)
    assert op.trace.records == 1 and engine.grant_resumes == 1


@needs_compiled
def test_a_staged_steal_lands_after_the_steps_between():
    """Keep, move two into the staging queue, wait 1 s, land: during the
    wait the victim's two tail tasks are out of its queue, the lock is
    free and the thief's queue is as it was; then they land at its tail
    in their order."""
    steps = [KEEP_LOCK, MOVE_TASKS, IDLE, LAND_TASKS]
    make = _steal_op(steps, 2, victim=[5, 6, 7], thief=[1], duration=1.0, staged=True)
    for until, staged, thief, done in ((0.5, [6, 7], [1], False), (2.0, [], [1, 6, 7], True)):
        engine, net, op = _walk_one(make, until=until)
        lock, victim, staging, thief_queue = op.steal
        assert (list(victim), list(staging), list(thief_queue)) == ([5], staged, thief)
        assert (lock.in_use, op.kept, op.done) == (0, False, done)


@needs_compiled
def test_closing_an_op_that_keeps_a_lock():
    """``close`` lets go of a kept lock as the generator's ``finally``
    does, once: a closed op closes again as a no-op, and a steal rebound
    to something without the lock in it is refused."""
    held = _steal_op([KEEP_LOCK, IDLE, MOVE_TASKS], 0, victim=[1], duration=1.0)
    for rebind in (False, True):
        engine, net, op = _walk_one(held, until=0.0)
        lock = op.steal[0]
        assert op.kept and lock.in_use == 1
        if rebind:
            op.steal = None
            with pytest.raises(TypeError, match="steal\\[0\\]"):
                op.close()
            continue
        assert op.close() is None and lock.in_use == 0
        assert op.close() is None and lock.in_use == 0


def _idle_source(net, **changes):
    """An idle pass's claim source (``Harness.idle_pass``) for rank 0 of
    four over :func:`_table`, rank 1 queueing tasks 0 and 1 and the ring
    its victim order (1, 2, 3), 1 us first backoff, parking after one
    failure; ``changes`` replace its items by name (``make`` the shared
    descriptor maker)."""

    def programs(nbytes):
        return tuple(net._tier_program("rma", tier, nbytes) for tier in (0, 1, 2))

    make = changes.pop("make", lambda k: programs(16 * k))
    items = dict(
        tasks=_table(net),
        shared=(
            [None] * 4, programs(8), programs(16), OVERHEAD, {}, make,
            net._chain((MOVE_TASKS, IDLE)), np.zeros(4, dtype=np.int64),
        ),
        queues=[collections.deque(queued) for queued in ([], [0, 1], [], [])],
        locks=[Resource(1) for _ in range(4)], dirty=[False] * 4, rank=0, staging=None,
        bit_generator=np.random.default_rng(0).bit_generator, victim="ring", peers=(),
        steal="half", tags=None, messages=collections.deque(), park_after=1,
        min_backoff=1.0e-6, max_backoff=4.0e-6, backoff=1.0e-6, scan=0, failures=0,
    )  # fmt: skip
    items.update(changes)
    return ("idle", *items.values())


def _idle_op(**changes):
    """The op of :func:`_idle_source`'s pass, for :func:`_walk_one`."""

    def make(net, trace):
        source = _idle_source(net, **changes)
        return FusedOp(trace, 0, chain=source[1][0], claim=source)

    return make


_MALFORMED_IDLE = {
    "short": (lambda net: _idle_source(net)[:-1], TypeError, "malformed claim source"),
    "shared-of-seven": (
        lambda net: _idle_source(net, shared=_idle_source(net)[2][:-1]), TypeError, "idle claim"
    ),
    "steal-policy": (lambda net: _idle_source(net, steal="all"), ValueError, "malformed idle"),
    "victim-policy": (lambda net: _idle_source(net, victim="far"), ValueError, "no victim draw"),
    "rank-outside": (lambda net: _idle_source(net, rank=4), ValueError, "malformed idle"),
    "one-rank": (
        lambda net: _idle_source(
            net, queues=[collections.deque()], locks=[Resource(1)], dirty=[False],
            shared=(([None],) + _idle_source(net)[2][1:]),
        ),
        ValueError, "no victim draw",
    ),  # fmt: skip
    "staging-a-list": (lambda net: _idle_source(net, staging=[]), ValueError, "malformed idle"),
    "tags-a-list": (lambda net: _idle_source(net, tags=["token"]), ValueError, "malformed idle"),
    "no-bit-generator": (
        lambda net: _idle_source(net, victim="random", bit_generator=None),
        AttributeError, "capsule",
    ),
    "tally-of-three": (
        lambda net: _idle_source(
            net, shared=(*_idle_source(net)[2][:-1], np.zeros(3, dtype=np.int64))
        ),
        ValueError, "a tally four",
    ),
    "float-tally": (
        lambda net: _idle_source(net, shared=(*_idle_source(net)[2][:-1], np.zeros(4))),
        TypeError, "tally must be",
    ),
}


@needs_compiled
@pytest.mark.parametrize("case", _MALFORMED_IDLE)
def test_a_malformed_idle_pass_is_refused_where_the_op_is_made(case):
    """An idle pass's spec is read once too: the wrong shape, a policy or
    victim choice the pass does not know, a rank outside its queues, a
    draw over fewer than two ranks, a staging queue or poll tags of the
    wrong type, a Generator without a bit generator, or a tally that is
    not four int64 counts is refused where the op is made."""
    make, error, match = _MALFORMED_IDLE[case]
    net = Network(CompiledEngine(), NetworkModel(), 4)
    with pytest.raises(error, match=match):
        FusedOp(TraceRecorder(4), 0, chain=(), claim=make(net))


_IDLE_ENDINGS = {
    # ring victim 1 holds two tasks: half of them, at once
    "success": ({}, (1.0e-6, 1, 0), [1, 1, 1, 0], [1]),
    # nothing anywhere: two failures park the pass
    "park": (dict(queues=[collections.deque()] * 4, park_after=2), (4.0e-6, 2, 2), [2, 0, 0, 2], []),
    # a message it polls for ends it at the first poll, one it does not poll for does not
    "poll": (
        dict(queues=[collections.deque()] * 4, park_after=3, tags=("token",),
             messages=collections.deque([Message(2, "token", 0)])),
        (2.0e-6, 1, 1), [1, 0, 0, 1], [],
    ),
    "poll-other-tag": (
        dict(queues=[collections.deque()] * 4, park_after=3, tags=("token",),
             messages=collections.deque([Message(2, "other", 0)])),
        (4.0e-6, 3, 3), [3, 0, 0, 3], [],
    ),
    "half-cost-from-scan-three": (dict(scan=3, steal="half_cost"), (1.0e-6, 4, 0), [1, 1, 1, 0], [1]),
}  # fmt: skip


@needs_compiled
@pytest.mark.parametrize("case", _IDLE_ENDINGS)
def test_an_idle_pass_returns_the_loop_state_it_ends_with(case):
    """The pass returns ``(backoff, scan, failures)`` as its loop leaves
    them, tallies every attempt, marks the thief dirty only when it takes
    tasks, and lets go of every lock it took."""
    changes, state, tally, thief = _IDLE_ENDINGS[case]
    engine, net, op = _walk_one(_idle_op(**changes))
    assert op.done and op.result == pytest.approx(state)
    source = op.claim
    assert source[2][-1].tolist() == tally
    assert source[5] == [bool(thief), False, False, False]
    assert list(source[3][0]) == thief
    assert all(lock.in_use == 0 for lock in source[4])


_REFUSED_IDLE = {
    "queued-task-outside-the-table": (
        _idle_op(steal="half_cost", queues=[collections.deque(q) for q in ([], [0, 7], [], [])]),
        ValueError, "a queued task 7 is outside the task table",
    ),
    "descriptors-raise": (_idle_op(make=lambda k: 1 / 0), ZeroDivisionError, "division"),
    "message-without-a-tag": (
        _idle_op(queues=[collections.deque()] * 4, tags=("token",),
                 messages=collections.deque([object()])),
        AttributeError, "tag",
    ),
    "peer-outside-the-ranks": (
        _idle_op(victim="hierarchical", peers=(9,)), ValueError, "a node peer 9 is no rank",
    ),
}  # fmt: skip


@needs_compiled
@pytest.mark.parametrize("case", _REFUSED_IDLE)
def test_an_idle_pass_refuses_what_it_cannot_serve(case):
    """A queued task outside the task table (read by ``half_cost``), a
    descriptor maker that raises, a mailbox message without a tag, and a
    node peer outside the ranks each raise from the run, where the pass
    meets them."""
    make, error, match = _REFUSED_IDLE[case]
    with pytest.raises(error, match=match):
        _walk_one(make)


class _SubProcess(Process):
    """A waiter of a kind the core's hand-off leaves to the method."""

    __slots__ = ()


def _handoff(engine_cls):
    """Rank 0 holds a lock for 1 us, through a lock-hold step of a fused
    op where the engine walks one, while a process queued for it is
    cancelled and a ``Process`` subclass queues behind that: the release
    passes the cancelled one by and leaves the subclass to
    ``Resource.release``. Returns what both engines must agree on."""
    engine = engine_cls()
    net = Network(engine, NetworkModel(), 4)
    lock, log = Resource(1), []
    program = ((), 1.0e-6, ())
    trace = TraceRecorder(4)

    def holder():
        if net.op_type is None:
            yield lock.acquire()
            yield Timeout(1.0e-6)
            lock.release()
        else:
            chain = (((0, (program,) * 3, OVERHEAD),), [lock], None)
            yield net.op_type(trace, 0, chain=chain, end=1)
        log.append(("released", engine.now, engine._seq))

    def waiter(name):
        yield lock.acquire()
        log.append((name, engine.now, engine._seq))
        lock.release()

    engine.process(holder(), name="holder")
    doomed = engine.process(waiter("doomed"), name="doomed")
    late = _SubProcess(engine, waiter("subclass"), name="subclass")
    engine._processes.append(late)
    engine.call_now(late._resume, None)
    engine.schedule(5.0e-7, doomed.cancel)
    engine.run()
    return log, (lock.in_use, lock.total_acquisitions, lock.total_waits), engine.grant_resumes


@needs_compiled
def test_the_hand_off_passes_a_cancelled_waiter_by_and_leaves_a_subclass_to_the_method():
    log, counts, grants = _handoff(CompiledEngine)
    assert (log, counts, grants) == _handoff(Engine)
    assert [entry[0] for entry in log] == ["released", "subclass"]
    assert counts == (0, 2, 2)


@needs_compiled
def test_compiled_core_holds_no_references_after_a_run(monkeypatch):
    """ROADMAP 5(b), first slice: the C core's reference counting.

    A leaked reference per fused op, chained step, grant or pooled
    timeout shows as a refcount that grows with the number of
    operations, so the same 64-rank ``work_stealing`` cell is run small
    and then large (> 10^5 fused ops, > 10^5 chained steps) and every
    object the core touches on the per-event path must end both runs
    with the same count; the interned category strings, shared by every
    run, must not move between the two.
    """
    import sys

    monkeypatch.setenv("REPRO_ENGINE", "compiled")

    from repro.chemistry.tasks import synthetic_task_graph
    from repro.exec_models.base import Harness
    from repro.exec_models import make_model
    from repro.runtime import trace as trace_mod
    from repro.simulate import commodity_cluster
    from repro.simulate.engine import _timeout_pool

    categories = [getattr(trace_mod, name) for name in ("COMPUTE", "COMM", "OVERHEAD", "IDLE")]
    machine = commodity_cluster(64)
    model = make_model("work_stealing")

    def run(n_tasks):
        graph = synthetic_task_graph(n_tasks, 24, seed=5, skew=1.2, mean_cost=2.0e5)
        harness = Harness(graph, machine, seed=3)
        assert type(harness.engine) is CompiledEngine
        # Every task runs as one chain: that many steps, walked in C.
        assert len(harness._chain[0]) > 4 * n_tasks
        model.setup(harness)
        harness.spawn_ranks(model.rank_process)
        result = harness.finish(model.name)
        del graph
        gc.collect()
        counts = {
            "trace": sys.getrefcount(harness.trace),
            # every Process ever started refers to its engine
            "engine": sys.getrefcount(harness.engine) - len(harness.engine._processes),
            "nics": [sys.getrefcount(nic) for nic in harness.network.nics],
            "totals": [sys.getrefcount(harness.trace._totals[c]) for c in categories],
        }
        return result, counts

    def shared():
        gc.collect()
        return [sys.getrefcount(c) for c in categories] + [
            sys.getrefcount(None), sys.getrefcount(True), sys.getrefcount(False)
        ]

    def live(cls):
        return sum(type(obj) is cls for obj in gc.get_objects())

    small, small_counts = run(400)
    del small
    timeouts_outside_pool = live(Timeout) - len(_timeout_pool)
    before = shared()
    large, large_counts = run(26000)
    assert large.fused_ops >= 100_000 and large.timeout_allocs > 26_000
    assert large.grant_resumes > 100_000
    del large
    after = shared()

    assert large_counts == small_counts
    # None/True/False are refcounted before 3.12 and pass through the
    # core on every event; a handful of references may come and go with
    # the interpreter's own caches, 10^5 may not.
    assert after[:4] == before[:4]
    assert all(abs(a - b) < 64 for a, b in zip(after[4:], before[4:]))
    assert live(FusedOp) == 0
    assert live(Timeout) - len(_timeout_pool) <= timeouts_outside_pool
