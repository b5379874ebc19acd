"""The clock and seq counter Python sees while the compiled core runs.

During ``run()`` the compiled core keeps ``now``, ``_seq`` and its own
run-queue in C and publishes the clock and the counter at every call into
Python. These tests hold what Python observes there to the reference
``Engine`` at the same dispatch — in a process generator, a callback that
fires a ``SimEvent``, a ``Resource`` subclass's ``release`` and a
``TraceRecorder`` subclass's ``record`` — and the state either engine
leaves behind when ``run`` stops early, at a horizon or by an exception.
Claims are held the same way by the cross-engine scenario of
``test_sched.py``, which logs ``engine._seq`` wherever its Python runs.
"""

import pytest

from repro.runtime.trace import COMM, OVERHEAD, TraceRecorder
from repro.simulate.engine import Engine, Resource, SimEvent, SimulationError, Timeout
from repro.simulate.network import Network, NetworkModel, SharedCell
from repro.simulate.sched import CompiledEngine, compiled_available

ENGINE_CLASSES = [Engine] + ([CompiledEngine] if compiled_available() else [])
needs_core = pytest.mark.skipif(not compiled_available(), reason="no compiled core")


def _hooked_run(engine_cls):
    """Ranks moving data through a Resource-subclass NIC and recording
    into a TraceRecorder subclass, a callback firing a SimEvent, waiters
    and a Timeout(0) spinner; every Python hook logs what it sees."""
    engine = engine_cls()
    log = []

    def seen(*label):
        log.append((*label, engine.now, engine._seq))

    class LoggingNic(Resource):
        __slots__ = ()

        def release(self):
            seen("release")
            super().release()

    class LoggingTrace(TraceRecorder):
        __slots__ = ()

        def record(self, rank, category, start, end):
            seen("record", rank, category, start, end)
            super().record(rank, category, start, end)

    net = Network(engine, NetworkModel(), 4, node_of=lambda rank: rank // 2)
    net.nics[2] = LoggingNic(1)
    trace = LoggingTrace(4)
    cell = SharedCell()
    gate = SimEvent()

    def rank(src):
        for i in range(3):
            yield from net.rma_traced(src, 2, 4096 * (i + 1), trace, COMM)
            seen("rma", src, i)
            old = yield from net.fetch_add_traced(src, 2, cell, 1, trace, OVERHEAD)
            seen("fetch_add", src, old)

    def waiter(pid):
        value = yield gate.wait()
        seen("gate", pid, value)

    def spinner():
        for i in range(4):
            yield Timeout(0.0)
            seen("spin", i)
            yield Timeout(1.0e-6)

    def fire():
        seen("fire")
        gate.fire("open")

    for src in (0, 1, 3):
        engine.process(rank(src), name=f"r{src}")
    for pid in range(2):
        engine.process(waiter(pid), name=f"w{pid}")
    engine.process(spinner(), name="spinner")
    engine.schedule(2.5e-6, fire)
    engine.run()
    log.append(("end", engine.now, engine._seq, engine.events_dispatched, engine.ready_dispatched))
    log.append((trace.records, trace._totals, cell.value, engine.grant_resumes))
    return log


def test_python_sees_the_reference_clock_and_counter():
    reference = _hooked_run(Engine)
    kinds = {entry[0] for entry in reference}
    assert {"release", "record", "rma", "fetch_add", "gate", "spin", "fire"} <= kinds
    for engine_cls in ENGINE_CLASSES[1:]:
        assert _hooked_run(engine_cls) == reference


def _pending_keys(engine):
    """``now``, ``_seq``, the heap's ``(time, seq)`` keys in key order and
    the run-queue's seqs in queue order."""
    return (
        engine.now,
        engine._seq,
        sorted(entry[:2] for entry in engine._heap),
        [entry[0] for entry in engine._ready],
    )


class Boom(Exception):
    pass


def _stopped_run(engine_cls):
    """Runs stopped at a horizon with timed wake-ups and fused-op steps
    pending, then by an exception with Timeout(0) resumes and SimEvent
    wake-ups interleaved in the run-queue, then drained; the state after
    each stop and the final state."""
    engine = engine_cls()
    trace = TraceRecorder(4)
    net = Network(engine, NetworkModel(), 4)
    gate = SimEvent()
    log = []
    at = 5.0e-6

    def ranker(src):
        for _ in range(2):
            yield from net.rma_traced(src, 3, 1 << 16, trace, COMM)
            log.append(("rma", src, engine.now, engine._seq))

    def spinner(pid):
        yield Timeout(at)
        for i in range(3):
            yield Timeout(0.0)
            log.append(("spin", pid, i, engine.now, engine._seq))

    def firer():
        yield Timeout(at)
        gate.fire(7)
        log.append(("fired", engine.now, engine._seq))

    def waiter(pid):
        value = yield gate.wait()
        log.append(("gate", pid, value, engine.now, engine._seq))

    def bomber():
        yield Timeout(at)
        raise Boom

    for src in range(3):
        engine.process(ranker(src), name=f"r{src}")
    engine.process(spinner(0), name="s0")
    engine.process(firer(), name="firer")
    engine.process(spinner(1), name="s1")
    for pid in range(2):
        engine.process(waiter(pid), name=f"w{pid}")
    engine.process(bomber(), name="bomber", daemon=True)
    engine.schedule(3 * at, lambda: log.append(("late", engine.now, engine._seq)))

    states = []
    engine.run(until=at / 2)
    states.append(_pending_keys(engine))
    with pytest.raises(Boom):
        engine.run()
    states.append(_pending_keys(engine))
    engine.run()
    states.append(_pending_keys(engine))
    counters = (engine.events_dispatched, engine.ready_dispatched, trace.records, trace._totals)
    return states, log, counters


def test_early_stops_leave_the_reference_state():
    states, log, counters = _stopped_run(Engine)
    horizon, raised, _ = states
    assert horizon[2] and not horizon[3]  # timed events pending at the horizon
    assert len(raised[3]) >= 4  # spins and gate wake-ups pending at the raise
    for engine_cls in ENGINE_CLASSES[1:]:
        assert _stopped_run(engine_cls) == (states, log, counters)


class _ScheduleOnDelete:
    """A callback whose finalizer schedules an event."""

    def __init__(self, engine):
        self.engine = engine

    def __call__(self):
        pass

    def __del__(self):
        self.engine.schedule(1.0, lambda: None)


def test_reference_lets_a_finalizer_schedule():
    engine = Engine()
    engine.schedule(1.0, _ScheduleOnDelete(engine))
    engine.schedule(2.0, lambda: None)
    engine.run()
    assert engine.events_dispatched == 3  # the finalizer's event fired too


@needs_core
def test_core_refuses_a_seq_taken_outside_a_call_out():
    """The core drops the heap entry holding the callback after the call
    returned, so the finalizer takes a seq between two calls out; the core
    raises rather than hand the same seq out again."""
    engine = CompiledEngine()
    engine.schedule(1.0, _ScheduleOnDelete(engine))
    engine.schedule(2.0, lambda: None)
    with pytest.raises(SimulationError, match="outside a call out"):
        engine.run()


@needs_core
def test_core_refuses_a_clock_set_in_a_call_out():
    """Only the run loop moves ``engine.now`` (the reference loop keeps its
    own copy and overwrites the attribute at its next timed event), so the
    core never takes the clock back from a call out: one that set it is
    found at the next publish, and the core raises."""
    engine = CompiledEngine()
    engine.schedule(1.0, lambda: setattr(engine, "now", 5.0))
    engine.schedule(2.0, lambda: None)
    with pytest.raises(SimulationError, match="set engine.now"):
        engine.run()
