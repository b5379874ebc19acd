"""Engine selection and cross-engine dispatch-order equivalence.

The load-bearing property is that the compiled engine dispatches events in
exact ``(time, seq)`` order — the reference heap engine's order — so simulations
are bit-for-bit identical regardless of ``REPRO_ENGINE``. The randomized
property test here exercises the order-sensitive corners directly:
equal timestamps, zero-delay wake-ups, horizon-bounded ``run(until=)``
stages, cancellations, and deadlock truncation — and, for the network
path, ``Engine`` + the ``_walk`` generator against ``CompiledEngine`` +
the C-walked ``_FusedOp``: traced one-sided ops contending for NICs while
other processes hold the same NICs, cancelled mid-op — single ops and
whole tasks (gets, kernel, accumulates) chained into one request, the
chain also walked by the pure-Python ``_FusedOp`` that is its spec.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.simulate.sched as sched
from repro.runtime.trace import COMM, OVERHEAD, TraceRecorder
from repro.simulate.engine import (
    Engine,
    Resource,
    SimEvent,
    SimulationError,
    Timeout,
    pooled_timeout,
)
from repro.simulate.network import Network, NetworkModel, SharedCell, _FusedOp
from repro.simulate.sched import (
    ENGINE_MODES,
    CompiledEngine,
    DegradedEngineWarning,
    compiled_available,
    engine_mode,
    make_engine,
    set_engine_mode,
)
from repro.util import ConfigurationError
from tests.simulate.test_engine import hold

#: Engine classes under test; the compiled loop only where buildable.
ENGINE_CLASSES = [Engine] + ([CompiledEngine] if compiled_available() else [])


class TestModeSelection:
    def test_default_mode_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert engine_mode() == "auto"

    def test_invalid_env_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(ConfigurationError):
            engine_mode()

    def test_set_engine_mode_roundtrip(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        previous = set_engine_mode("python")
        assert previous == "auto"
        assert engine_mode() == "python"
        # Written to the environment so forked sweep workers inherit it.
        import os

        assert os.environ["REPRO_ENGINE"] == "python"

    def test_set_engine_mode_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            set_engine_mode("turbo")

    def test_make_engine_per_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert type(make_engine()) is Engine
        if compiled_available():
            monkeypatch.setenv("REPRO_ENGINE", "compiled")
            assert type(make_engine()) is CompiledEngine
            monkeypatch.setenv("REPRO_ENGINE", "auto")
            assert type(make_engine()) is CompiledEngine

    def test_compiled_unavailable_warns_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "compiled")
        # Inherited from a compiled-and-required environment (the
        # sanitizer CI leg), it would turn the degrade into an error.
        monkeypatch.delenv("REPRO_ENGINE_REQUIRE", raising=False)
        monkeypatch.setattr(sched, "_load_engine_core", lambda: None)
        monkeypatch.setattr(sched, "_degraded_warned", False)
        with pytest.warns(DegradedEngineWarning):
            engine = make_engine()
        assert type(engine) is Engine
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert type(make_engine()) is Engine  # second call is silent

    def test_auto_degrades_silently(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        monkeypatch.delenv("REPRO_ENGINE_REQUIRE", raising=False)
        monkeypatch.setattr(sched, "_load_engine_core", lambda: None)
        monkeypatch.setattr(sched, "_degraded_warned", False)
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert type(make_engine()) is Engine

    def test_mode_names_are_stable(self):
        assert ENGINE_MODES == ("auto", "python", "compiled")

    @pytest.mark.parametrize("door", ["env", "cli", "jobspec"])
    def test_removed_bucket_mode_rejected_at_every_door(self, door, monkeypatch, capsys):
        """A removed mode arriving from outside gets the structured
        error naming the three modes that remain."""
        if door == "env":
            monkeypatch.setenv("REPRO_ENGINE", "bucket")
            with pytest.raises(ConfigurationError) as caught:
                make_engine()
            message = str(caught.value)
        elif door == "cli":
            from repro.__main__ import main

            assert main(["study", "--engine", "bucket"]) == 2
            message = capsys.readouterr().err
            assert message.startswith("error: engine:")
        else:
            from repro.core.jobspec import JobSpec, JobSpecError

            spec = JobSpec.from_json('{"engine": "bucket"}')
            with pytest.raises(JobSpecError) as caught:
                spec.validate()
            assert caught.value.field == "engine"
            message = str(caught.value)
        assert "'bucket'" in message
        assert "auto, python, compiled" in message


# --------------------------------------------------------------------------
# Cross-engine dispatch-order equivalence


#: How a scenario's network steps are interpreted, whatever the engine:
#: ``walk`` is the ``Network._walk`` generator per op (the reference),
#: ``ops`` one ``_FusedOp`` per op, ``chain`` additionally runs each
#: ``task`` step as one chained ``_FusedOp``.
INTERPRETERS = ("walk", "ops", "chain")


def _task_steps(net, gets, accumulates):
    """A task's chain steps, as ``exec_models.base._step_table`` lays
    them out: one three-tier step per op, ``None`` for the kernel."""

    def step(kind, dst, nbytes):
        programs = tuple(net._tier_program(kind, tier, nbytes) for tier in (0, 1, 2))
        return (dst, programs, COMM)

    return (
        *(step("rma", dst, nbytes) for dst, nbytes in gets),
        None,
        *(step("accumulate", dst, nbytes) for dst, nbytes in accumulates),
    )


def _run_scenario(
    engine_cls,
    delays,
    horizons,
    cancel_victim,
    net_plans=(),
    net_cancel=None,
    interpreter=None,
    late_cancel=False,
    probe=None,
):
    """One mixed workload on ``engine_cls``; returns the dispatch log.

    Each process walks its delay list (zero delays take the run-queue,
    equal nonzero delays collide in time), one process round-trips a
    FIFO resource, one waits on a broadcast event, and ``cancel_victim``
    optionally cancels process 0 mid-run. The run is staged through the
    ``horizons`` prefixes before the final drain.

    ``net_plans`` adds one rank process per plan on a 4-rank, 2-node
    network read by ``interpreter`` (default: the engine's own, ``walk``
    on ``Engine`` and ``chain`` on ``CompiledEngine``): traced
    ``fetch_add``/``rma`` ops against shared home NICs, plain ``hold``s
    of those same NICs, so fused waiters queue behind process waiters
    and the other way round, and ``task`` steps — gets, a kernel,
    accumulates, the kernel recorded as it ends or, a burst, by the
    caller afterwards (from the span a chain returns). ``net_cancel = (rank, time)`` cancels one of them
    wherever it then is — in a pre-delay, queued, holding, on the return
    path, in a later step of a task or inside its kernel — before
    anything else due at that time, or with ``late_cancel`` after what
    was already scheduled for it (a grant issued but not yet delivered).
    ``probe(ops)`` is called just before the cancel with the chained
    requests made so far. NIC counters, the counter cell, the trace and
    ``grant_resumes`` close the log; its last entry, ``timeout_allocs``,
    is equal only among the fused interpreters.
    """
    engine = engine_cls()
    log = []
    resource = Resource(capacity=1)
    gate = SimEvent()
    net = Network(engine, NetworkModel(), 4, node_of=lambda rank: rank // 2)
    if interpreter is None:
        interpreter = "chain" if net._fused else "walk"
    net._fused = interpreter != "walk"
    trace = TraceRecorder(4)
    cell = SharedCell()
    chained = []

    def task(src, tid, gets, kernel, accumulates, burst):
        if interpreter == "chain":
            steps = _task_steps(net, gets, accumulates)
            op = _FusedOp(
                trace,
                src,
                chain=net._chain(steps),
                end=len(steps),
                duration=kernel,
                tid=None if burst else tid,
            )
            chained.append(op)
            span = yield from op
        else:
            for dst, nbytes in gets:
                yield from net.rma_traced(src, dst, nbytes, trace, COMM)
            start = engine.now
            yield pooled_timeout(kernel)
            span = (start, engine.now)
            if not burst:
                trace.record_compute(src, tid, *span)
            for dst, nbytes in accumulates:
                yield from net.accumulate_traced(src, dst, nbytes, trace, COMM)
        if burst:  # as Harness.execute_tasks: recorded once the task is over
            trace.record_compute(src, tid, *span)

    def rank(src, plan):
        for tid, (kind, *args) in enumerate(plan):
            if kind == "fetch_add":
                dst, amount = args
                old = yield from net.fetch_add_traced(src, dst, cell, amount, trace, OVERHEAD)
                log.append(("fetch_add", src, old, engine.now))
            elif kind == "rma":
                dst, nbytes = args
                yield from net.rma_traced(src, dst, nbytes, trace, COMM)
                log.append(("rma", src, engine.now))
            elif kind == "task":
                yield from task(src, 10 * src + tid, *args)
                log.append(("task", src, engine.now))
            else:
                dst, nanoseconds = args
                yield from hold(net.nics[dst], nanoseconds * 1.0e-9)
                log.append(("nic-held", src, engine.now))

    ranks = [
        engine.process(rank(src, plan), name=f"r{src}")
        for src, plan in enumerate(net_plans)
    ]
    if net_cancel is not None and net_cancel[0] < len(ranks):
        victim, when = net_cancel

        def cancel():
            if probe is not None:
                probe(chained)
            ranks[victim].cancel()

        def canceller():
            # Scheduled from inside the run, after what the rank
            # processes scheduled when they started: among events due at
            # ``when``, theirs fire first.
            yield Timeout(0.0)
            yield Timeout(when)
            cancel()

        if late_cancel:
            engine.process(canceller(), name="canceller")
        else:
            engine.schedule(when, cancel)

    def walker(pid, steps):
        for i, delay in enumerate(steps):
            yield Timeout(delay)
            log.append(("walk", pid, i, engine.now))

    def holder():
        yield from hold(resource, 2.0e-7)
        log.append(("held", engine.now))
        gate.fire("open")

    def waiter():
        value = yield gate.wait()
        log.append(("gate", value, engine.now))

    procs = [
        engine.process(walker(pid, steps), name=f"w{pid}")
        for pid, steps in enumerate(delays)
    ]
    engine.process(waiter(), name="waiter")
    engine.process(holder(), name="holder")
    if cancel_victim:
        engine.schedule(3.0e-7, procs[0].cancel)
    for horizon in horizons:
        engine.run(until=horizon)
        log.append(("horizon", engine.now, len(engine._heap) + len(engine._ready)))
    engine.run()
    log.append(("end", engine.now, engine.events_dispatched, engine.ready_dispatched))
    log.append(
        [(n.in_use, n.total_acquisitions, n.total_waits, len(n._queue)) for n in net.nics]
    )
    log.append((cell.value, trace.records, trace._totals, trace.tasks, engine.grant_resumes))
    log.append(engine.timeout_allocs)
    return log


def _assert_interpreters_agree(*scenario, **kwargs):
    """The reference log, after holding every other engine/interpreter
    pair to it — and the fused ones to one ``timeout_allocs``: a chained
    kernel counts as the ``Timeout`` it stands for."""
    reference = _run_scenario(Engine, *scenario, interpreter="walk", **kwargs)
    fused_timeouts = set()
    for engine_cls in ENGINE_CLASSES:
        for interpreter in INTERPRETERS:
            log = _run_scenario(engine_cls, *scenario, interpreter=interpreter, **kwargs)
            assert log[:-1] == reference[:-1], (engine_cls.__name__, interpreter)
            if interpreter != "walk":
                fused_timeouts.add(log[-1])
    assert len(fused_timeouts) == 1
    return reference


_DELAY = st.sampled_from(
    [0.0, 0.0, 1.0e-7, 3.0e-7, 1.0e-6, 1.0e-6, 1.5e-6, 2.5e-6, 1.0e-3, 0.5]
)

#: One network step: (kind, home rank, amount | payload bytes | hold ns).
#: Two home ranks for four initiators on two nodes, so NICs are
#: contended, some ops are self-ops and some same-node (no NIC at all).
_NET_OP = st.tuples(
    st.sampled_from(["fetch_add", "fetch_add", "rma", "rma", "hold"]),
    st.integers(min_value=0, max_value=1),
    st.sampled_from([1, 64, 4096, 1 << 20]),
)
_BLOCK = st.tuples(
    st.integers(min_value=0, max_value=1), st.sampled_from([0, 288, 4096, 1 << 18])
)
#: ("task", gets, kernel seconds, accumulates, recorded by the caller?)
_TASK_OP = st.tuples(
    st.just("task"),
    st.lists(_BLOCK, min_size=1, max_size=3),
    st.sampled_from([0.0, 4.0e-7, 3.0e-6, 2.0e-4]),
    st.lists(_BLOCK, min_size=1, max_size=3),
    st.booleans(),
)
#: Cancel times from inside the first pre-delay out to past a 1 MiB hold.
_NET_CANCEL = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1.0e-7, 6.0e-7, 1.5e-6, 2.0e-6, 2.6e-6, 4.0e-6, 1.0e-4, 3.0e-4]),
)

#: One task by rank 2 against rank 1's NIC, which rank 3 holds for the
#: first 4 us: cancel ``(time, late)`` pairs that find the chained request
#: in each state it passes through, as ``(phase, holding, queued, steps
#: armed)``. LogGP defaults: o = 0.4 us, L = 1.5 us, the 64 KiB get
#: occupies the NIC for 13.3072 us, the kernel runs 5 us.
_VICTIM_PLANS = [
    [],
    [],
    [("task", [(1, 1 << 16)], 5.0e-6, [(1, 4096)], False)],
    [("hold", 1, 4000)],
]
_HELD_UNTIL = 4000 * 1.0e-9
_CANCEL_PHASES = {
    "pre-delay": (2.0e-7, False, (0, False, False, 1)),
    "queued": (2.5e-6, False, (1, False, True, 1)),
    "granted-not-woken": (_HELD_UNTIL, True, (1, False, False, 1)),
    "holding": (9.0e-6, False, (2, True, False, 1)),
    "return-path": (1.8e-5, False, (3, False, False, 1)),
    "inside-the-kernel": (2.1e-5, False, (4, False, False, 2)),
    "between-two-steps": (2.4e-5, False, (0, False, False, 3)),
}


class TestCrossEngineOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        delays=st.lists(
            st.lists(_DELAY, min_size=1, max_size=8), min_size=1, max_size=5
        ),
        horizons=st.lists(
            st.sampled_from([2.0e-7, 8.0e-7, 2.2e-6, 0.25]),
            max_size=2,
        ).map(sorted),
        cancel_victim=st.booleans(),
        net_plans=st.lists(
            st.lists(_NET_OP | _TASK_OP, min_size=1, max_size=6), max_size=4
        ),
        net_cancel=st.none() | _NET_CANCEL,
        late_cancel=st.booleans(),
    )
    def test_dispatch_order_identical_across_engines(
        self, delays, horizons, cancel_victim, net_plans, net_cancel, late_cancel
    ):
        _assert_interpreters_agree(
            delays, horizons, cancel_victim, net_plans, net_cancel, late_cancel=late_cancel
        )

    @pytest.mark.parametrize("horizons", [(), (1.0e-6, 1.0e-5, 2.2e-5)], ids=["drain", "staged"])
    @pytest.mark.parametrize("phase", _CANCEL_PHASES)
    def test_chain_cancelled_in_every_phase(self, phase, horizons):
        """A cancel landing in each state of a chained request leaves what
        the generators leave — also when the run is staged, so the step
        pending at a horizon is flushed to the heap and re-entered."""
        when, late, expected = _CANCEL_PHASES[phase]
        seen = []

        def probe(ops):
            (op,) = ops
            seen.append((op.phase, op.holding, op in op.chain[1][1]._queue, op.pos))

        scenario = ([[1.0e-6]], list(horizons), False, _VICTIM_PLANS, (2, when))
        reference = _assert_interpreters_agree(*scenario, late_cancel=late)
        for engine_cls in ENGINE_CLASSES:
            _run_scenario(
                engine_cls, *scenario, interpreter="chain", late_cancel=late, probe=probe
            )
        assert seen == [expected] * len(ENGINE_CLASSES)
        # The victim never finished its task; rank 3 still got its hold,
        # and rank 1's NIC came back whoever held or awaited it.
        assert not any(entry[0] == "task" for entry in reference if isinstance(entry, tuple))
        assert ("nic-held", 3, _HELD_UNTIL) in reference
        assert reference[-3][1][0] == 0

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_deadlock_truncation_identical(self, engine_cls):
        engine = engine_cls()
        log = []
        gate = SimEvent()

        def stuck():
            yield Timeout(1.0e-6)
            log.append(engine.now)
            yield gate.wait()  # never fired

        engine.process(stuck(), name="stuck")
        with pytest.raises(SimulationError, match="stuck"):
            engine.run()
        assert log == [1.0e-6]

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_horizon_does_not_raise_deadlock(self, engine_cls):
        engine = engine_cls()
        gate = SimEvent()

        def stuck():
            yield gate.wait()

        def later():
            yield Timeout(5.0)

        engine.process(stuck(), name="stuck")
        engine.process(later(), name="later")
        # Blocked process + pending future event: the horizon exit must
        # not be mistaken for a drained deadlock.
        assert engine.run(until=1.0) == 1.0
        with pytest.raises(SimulationError, match="stuck"):
            engine.run()  # the real drain still detects it

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_counters_partition_dispatches(self, engine_cls):
        engine = engine_cls()

        def proc():
            yield Timeout(1.0e-6)
            yield Timeout(0.0)
            yield Timeout(2.0)

        engine.process(proc())
        engine.run()
        assert engine.events_dispatched == 4  # process start + 3 timeouts
        # Start and the zero-delay timeout take the run-queue; the two
        # timed ones take the heap.
        assert engine.ready_dispatched == 2


# --------------------------------------------------------------------------
# Vectorized cost evaluation


class TestBatchCostEvaluation:
    def test_batch_matches_scalar_bitwise(self):
        from repro.core import MACHINE_PRESETS
        from repro.simulate.noise import RandomStaticVariability, StaticHeterogeneity

        rng = np.random.default_rng(7)
        flops = rng.uniform(1.0e5, 1.0e9, size=64)
        for variability in (
            None,
            StaticHeterogeneity(slow_ranks=(1, 3), factor=0.5),
            RandomStaticVariability(n_ranks=8, sigma=0.1, seed=3),
        ):
            machine = MACHINE_PRESETS["commodity"](8)
            if variability is not None:
                machine = machine.with_variability(variability)
            for rank in (0, 3, 7):
                batch = machine.compute_seconds_batch(rank, flops)
                assert batch is not None
                scalar = [machine.compute_seconds(rank, f, 0.0) for f in flops]
                assert batch.tolist() == scalar  # bit-for-bit

    def test_time_dependent_models_opt_out(self):
        from repro.core import MACHINE_PRESETS
        from repro.simulate.noise import PeriodicThrottle

        machine = MACHINE_PRESETS["commodity"](4).with_variability(
            PeriodicThrottle(n_ranks=4, period=1.0, duty=0.5, factor=0.5)
        )
        assert machine.compute_seconds_batch(0, np.ones(4)) is None

    def test_record_batch_matches_sequential(self):
        from repro.runtime.trace import COMPUTE, TraceRecorder

        spans = [(0, 0.0, 1.0e-4), (1, 1.0e-4, 3.0e-4), (2, 3.0e-4, 3.0e-4)]
        a, b = TraceRecorder(4), TraceRecorder(4)
        for tid, start, end in spans:
            a.record_compute(2, tid, start, end)
        b.record_compute_batch(2, spans)
        assert b.records == a.records
        assert b.total(COMPUTE).tolist() == a.total(COMPUTE).tolist()
        assert b.tasks == a.tasks

    def test_record_batch_rejects_negative_span(self):
        from repro.runtime.trace import TraceRecorder

        trace = TraceRecorder(2)
        with pytest.raises(SimulationError):
            trace.record_compute_batch(0, [(0, 1.0, 0.5)])


# --------------------------------------------------------------------------
# Whole-run equivalence across modes


def _digest(result):
    return (
        result.makespan,
        result.assignment.tobytes(),
        result.task_starts.tobytes(),
        result.task_durations.tobytes(),
        result.finish_times.tobytes(),
        tuple(sorted(result.counters.items())),
        tuple(sorted(result.network.items())),
        result.sim_events,
        result.sim_ready_events,
        result.trace_records,
    )


class TestCrossModeRunResults:
    @pytest.mark.parametrize("model_name", ["static_block", "counter_dynamic", "work_stealing"])
    def test_results_identical_across_modes(self, model_name, monkeypatch):
        from repro.chemistry.tasks import synthetic_task_graph
        from repro.core import MACHINE_PRESETS
        from repro.exec_models import make_model

        graph = synthetic_task_graph(300, 12, seed=5, skew=1.1)
        machine = MACHINE_PRESETS["commodity"](8)
        modes = ["python"] + (["compiled"] if compiled_available() else [])
        digests = {}
        batched = {}
        for mode in modes:
            monkeypatch.setenv("REPRO_ENGINE", mode)
            result = make_model(model_name).run(graph, machine, seed=11)
            digests[mode] = _digest(result)
            batched[mode] = result.batched_costs
        assert len(set(digests.values())) == 1, digests.keys()
        # The batch path is mode-independent (decided by model/machine).
        assert len(set(batched.values())) == 1
        if model_name == "static_block":
            assert batched["python"] > 0
