import pytest

from repro.simulate.engine import (
    Engine,
    Resource,
    SimEvent,
    Timeout,
    _timeout_pool,
    pooled_timeout,
)
from repro.simulate.sched import CompiledEngine, compiled_available
from repro.util import SimulationError

#: The reference engine and the compiled one, which is skipped where its
#: core cannot be built.
ENGINES = [
    Engine,
    pytest.param(
        CompiledEngine,
        marks=pytest.mark.skipif(
            not compiled_available(), reason="compiled engine core unavailable"
        ),
    ),
]


def hold(resource, duration):
    """Acquire ``resource``, hold it for ``duration``, release it."""
    yield resource.acquire()
    try:
        yield pooled_timeout(duration)
    finally:
        resource.release()


class TestEngineScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(2.0, lambda: log.append("b"))
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule(3.0, lambda: log.append("c"))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_equal_times_fire_fifo(self):
        engine = Engine()
        log = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: log.append(i))
        engine.run()
        assert log == [0, 1, 2, 3, 4]

    def test_run_until_stops_early(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda: log.append(1))
        engine.schedule(5.0, lambda: log.append(5))
        engine.run(until=2.0)
        assert log == [1]
        assert engine.now == 2.0

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected_by_schedule_and_both_timeout_paths(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="got nan"):
            Engine().schedule(nan, lambda: None)
        with pytest.raises(ValueError, match="got nan"):
            Timeout(nan)
        _timeout_pool.append(Timeout(0.0))  # a banked Timeout is re-checked on reuse
        with pytest.raises(ValueError, match="got nan"):
            pooled_timeout(nan)

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]


class TestProcesses:
    def test_process_advances_through_timeouts(self):
        engine = Engine()
        times = []

        def proc():
            yield Timeout(1.0)
            times.append(engine.now)
            yield Timeout(2.0)
            times.append(engine.now)

        engine.process(proc())
        engine.run()
        assert times == [1.0, 3.0]

    def test_process_result_captured(self):
        engine = Engine()

        def proc():
            yield Timeout(1.0)
            return 42

        p = engine.process(proc())
        engine.run()
        assert p.done and p.result == 42

    def test_yield_from_composes(self):
        engine = Engine()
        marks = []

        def inner():
            yield Timeout(1.0)
            return "inner-value"

        def outer():
            value = yield from inner()
            marks.append((engine.now, value))

        engine.process(outer())
        engine.run()
        assert marks == [(1.0, "inner-value")]

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_yielding_non_request_raises(self, engine_cls):
        engine = engine_cls()

        def bad():
            yield 17

        engine.process(bad())
        with pytest.raises(SimulationError, match="must yield Request"):
            engine.run()

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_resuming_a_finished_process_raises(self, engine_cls):
        engine = engine_cls()

        def once():
            yield Timeout(1.0)

        proc = engine.process(once(), name="once")
        engine.run()
        assert proc.done and not proc.cancelled
        engine.call_now(proc._resume)
        with pytest.raises(SimulationError, match="^process 'once' resumed after completion$"):
            engine.run()

    def test_deterministic_across_runs(self):
        def build():
            engine = Engine()
            log = []

            def proc(name, delay):
                for _ in range(3):
                    yield Timeout(delay)
                    log.append((engine.now, name))

            engine.process(proc("a", 1.0))
            engine.process(proc("b", 1.0))
            engine.run()
            return log

        assert build() == build()


class TestSimEvent:
    def test_waiters_resume_with_value(self):
        engine = Engine()
        event = SimEvent()
        got = []

        def waiter():
            value = yield event.wait()
            got.append(value)

        def firer():
            yield Timeout(1.0)
            event.fire("payload")

        engine.process(waiter())
        engine.process(firer())
        engine.run()
        assert got == ["payload"]

    def test_late_waiter_resumes_immediately(self):
        engine = Engine()
        event = SimEvent()
        event.fire(7)
        got = []

        def waiter():
            value = yield event.wait()
            got.append((engine.now, value))

        engine.process(waiter())
        engine.run()
        assert got == [(0.0, 7)]

    def test_double_fire_raises(self):
        event = SimEvent()
        event.fire()
        with pytest.raises(SimulationError, match="fired twice"):
            event.fire()


class TestResource:
    def test_serializes_capacity_one(self):
        engine = Engine()
        resource = Resource(1)
        spans = []

        def proc():
            start = engine.now
            yield from hold(resource, 2.0)
            spans.append((start, engine.now))

        for _ in range(3):
            engine.process(proc())
        engine.run()
        assert [e for _, e in spans] == [2.0, 4.0, 6.0]

    def test_fifo_order(self):
        engine = Engine()
        resource = Resource(1)
        order = []

        def proc(name):
            yield from hold(resource, 1.0)
            order.append(name)

        for name in "abcd":
            engine.process(proc(name))
        engine.run()
        assert order == list("abcd")

    def test_capacity_two_overlaps(self):
        engine = Engine()
        resource = Resource(2)
        ends = []

        def proc():
            yield from hold(resource, 2.0)
            ends.append(engine.now)

        for _ in range(4):
            engine.process(proc())
        engine.run()
        assert ends == [2.0, 2.0, 4.0, 4.0]

    def test_release_without_acquire_raises(self):
        with pytest.raises(SimulationError, match="release"):
            Resource(1).release()

    def test_invalid_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(0)

    def test_wait_statistics(self):
        engine = Engine()
        resource = Resource(1)

        def proc():
            yield from hold(resource, 1.0)

        for _ in range(3):
            engine.process(proc())
        engine.run()
        assert resource.total_acquisitions == 3
        assert resource.total_waits == 2


class TestDeadlockDetection:
    def test_blocked_process_raises(self):
        engine = Engine()
        event = SimEvent()  # never fired

        def stuck():
            yield event.wait()

        engine.process(stuck(), name="stuck-proc")
        with pytest.raises(SimulationError, match="deadlock.*stuck-proc"):
            engine.run()

    def test_daemon_processes_exempt(self):
        engine = Engine()
        event = SimEvent()

        def stuck():
            yield event.wait()

        engine.process(stuck(), daemon=True)
        engine.run()  # must not raise

    def test_clean_completion_passes(self):
        engine = Engine()

        def fine():
            yield Timeout(1.0)

        engine.process(fine())
        assert engine.run() == 1.0
