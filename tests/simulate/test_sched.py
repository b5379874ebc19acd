"""Engine selection and cross-engine dispatch-order equivalence.

The load-bearing property is that the compiled engine dispatches events in
exact ``(time, seq)`` order — the reference heap engine's order — so simulations
are bit-for-bit identical regardless of ``REPRO_ENGINE``. The randomized
property test here exercises the order-sensitive corners directly:
equal timestamps, zero-delay wake-ups, horizon-bounded ``run(until=)``
stages, cancellations, and deadlock truncation — and, for the network
path, ``Engine`` + the ``_walk`` generator against ``CompiledEngine`` +
the C-walked ``FusedOp``: traced one-sided ops contending for NICs while
other processes hold the same NICs, cancelled mid-op — single ops and
whole tasks (gets, kernel, accumulates) chained into one request, the
exec models' claim loops (counter claims, queue drains under a lock, a
static rank's list) chained into one request each, with their claims
made in Python or read by the core itself, and work stealing's steal
attempt (lock word, lock kept, metadata, decision, descriptors, task
move, unlock, or the backoff) as one request, and a stealing rank's idle
pass (victim draw, attempt, backoff, poll, again) as one more. The C core
is the only walker of a ``FusedOp``; the generators on ``Engine`` are the
reference it is held to.
"""

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.simulate.sched as sched
from repro.exec_models.work_stealing import WorkStealing
from repro.runtime.trace import COMM, IDLE, OVERHEAD, TraceRecorder
from repro.simulate.engine import (
    Engine,
    Resource,
    SimEvent,
    SimulationError,
    Timeout,
    pooled_timeout,
)
from repro.simulate.network import (
    KEEP_LOCK,
    LAND_TASKS,
    MOVE_TASKS,
    Network,
    NetworkModel,
    SharedCell,
)
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
#: The engines that walk a ``FusedOp``: the compiled core alone.
FUSED_ENGINE_CLASSES = ENGINE_CLASSES[1:]


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

    def test_fm_pass_selects_its_core_like_make_engine(self, monkeypatch):
        """The partitioner's FM pass resolves the mode the same way: the
        reference under a missing core, with the same one-time warning,
        and the same error under REPRO_ENGINE_REQUIRE=1."""
        import numpy as np

        from repro.balance import Hypergraph
        from repro.balance.partition import _fm_pass

        hg = Hypergraph(np.ones(6), [np.array([i, i + 1]) for i in range(5)], np.ones(5))
        args = (hg, np.zeros(6, dtype=np.int8), 2.5, 3.5, 3.0)
        monkeypatch.setenv("REPRO_ENGINE", "python")
        expected_improved, expected = _fm_pass(*args)
        monkeypatch.setenv("REPRO_ENGINE", "compiled")
        monkeypatch.delenv("REPRO_ENGINE_REQUIRE", raising=False)
        monkeypatch.setattr(sched, "_load_engine_core", lambda: None)
        monkeypatch.setattr(sched, "_degraded_warned", False)
        with pytest.warns(DegradedEngineWarning):
            improved, side = _fm_pass(*args)
        assert improved is expected_improved
        assert side.tobytes() == expected.tobytes()
        monkeypatch.setenv("REPRO_ENGINE_REQUIRE", "1")
        with pytest.raises(ConfigurationError, match="REPRO_ENGINE_REQUIRE=1"):
            _fm_pass(*args)

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


#: How a scenario's network steps are interpreted: ``walk`` is the
#: ``Network._walk`` generator per op (the reference, on either engine),
#: ``ops`` one ``FusedOp`` per op, ``chain`` additionally runs each
#: ``task`` step, each claim loop and each steal attempt as one chained
#: ``FusedOp``, its claims made in Python, and ``native`` runs the claim
#: loops on the core's own claim sources (as ``Harness`` does); the three
#: fused interpreters run on ``CompiledEngine`` only.
INTERPRETERS = ("walk", "ops", "chain", "native")


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


#: ``Harness.LOCAL_QUEUE_OP``: a pop from a rank's own queue.
_POP_SECONDS = 1.0e-7

#: Where a plan's queued or listed tasks number from, by plan kind: task
#: ``i`` of the rank's step ``pos`` is ``base + 100 * rank + 10 * pos + i``.
_TID_BASE = {"drain": 1000, "tasks": 2000, "queue": 3000}


def _task_table(net, specs, n_tasks):
    """The ``tasks`` of a native claim source (``Harness._tasks``): task
    ``t`` of ``specs`` as the chain's slice ``bounds[t]:bounds[t + 1]``,
    its kernel ``costs[t]`` seconds at rate 1 on every rank."""
    steps, bounds, costs = [], [], []
    for tid in range(n_tasks):
        gets, kernel, accumulates = specs.get(tid, ((), 0.0, ()))
        bounds.append(len(steps))
        if tid in specs:
            steps += _task_steps(net, gets, accumulates)
        costs.append(kernel)
    bounds.append(len(steps))
    chain = net._chain(tuple(steps))
    return chain, np.array(bounds, dtype=np.int64), np.array(costs), np.ones(4)


def _steal_count(policy, queue, kernel):
    """``WorkStealing._steal_count`` under ``policy`` on a queue of this
    scenario's tasks, each task's ``kernel`` seconds its modeled cost (in
    a float64 array, as a graph's costs are: the core sums them as
    ``sum()`` sums NumPy scalars)."""
    costs = np.array([kernel(task) for task in queue], dtype=np.float64)
    harness = SimpleNamespace(graph=SimpleNamespace(costs=costs))
    return WorkStealing(steal=policy)._steal_count(harness, deque(range(len(costs))))


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
    claimable=(),
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
    and the other way round, and ``task`` steps — gets, a kernel
    recorded as it ends, accumulates. Three claim loops, as the exec
    models run them: ``claims`` fetch-adds a shared counter at a home NIC
    and runs the ``claimable`` task it reads until it reads past them;
    ``drain`` queues tasks on the rank and pops them one by one holding
    the rank's lock for ``_POP_SECONDS``, while a ``steal`` holds a
    victim's lock and takes tasks from its tail under it; ``tasks`` runs
    a list of the rank's own in order. The ``chain`` interpreter runs
    each loop as one ``FusedOp`` whose claim loads the next slice, a
    list only when it is not empty (as ``Harness.execute_tasks``), and
    ``native`` as one whose claim source the core reads. An ``attempt``
    is ``WorkStealing``'s steal attempt on a victim under a steal policy
    — lock word, the victim's lock kept, metadata, the decision, then
    descriptors, the task move and the unlock, or the backoff sleep —
    as one request under both (a claim in Python decides it), its tasks
    landing in the thief's queue before the unlock write or, given
    ``after_unlock``, after it (from a staging queue); ``queue``
    puts tasks on the rank's queue for thieves. ``idle`` is
    ``WorkStealing._steal_loop``'s idle pass from the rank's empty queue
    — a victim drawn on a seeded Generator, an attempt, the backoff,
    a poll of the rank's mailbox, again — until an attempt took tasks, a
    message for it waits (``send`` puts one there, ``recv`` takes one or
    times out) or ``park_after`` failures in a row end it: attempt by
    attempt under the generators and ``chain``, one request whose claim
    source the core reads under ``native`` (``Harness.idle_pass``).
    ``net_cancel = (rank, time)`` cancels one of them wherever it then
    is — in a pre-delay, queued, holding (a NIC or a kept lock), on the
    return path, in a later step of a task or inside its kernel — before
    anything else due at that time, or with ``late_cancel`` after what
    was already scheduled for it (a grant issued but not yet delivered).
    ``probe(ops)`` is called just before the cancel with the chained
    requests made so far. Every entry Python logs during the run is
    followed by ``("at", engine.now, engine._seq)``, also from inside a
    claim, where the compiled core has called out to Python: the clock
    and counter it publishes are held to the reference's at the same
    dispatch, as are the ``(time, seq)`` keys pending at each horizon.
    Lock and NIC counters, the queues, the counter
    cells, the trace and ``grant_resumes`` close the log; its last entry,
    ``timeout_allocs``, differs between the generators and the fused
    interpreters (a fused delay is no ``Timeout``).
    """
    engine = engine_cls()
    log = []

    def note(*entry):
        """Log ``entry``, then the clock and seq counter Python sees."""
        log.append(entry)
        log.append(("at", engine.now, engine._seq))
    resource = Resource(capacity=1)
    gate = SimEvent()
    net = Network(engine, NetworkModel(), 4, node_of=lambda rank: rank // 2)
    if interpreter is None:
        interpreter = "walk" if net.op_type is None else "chain"
    if interpreter == "walk":
        net.op_type = None
    FusedOp = net.op_type
    native = interpreter == "native"
    chained_loops = interpreter in ("chain", "native")
    trace = TraceRecorder(4)
    cell = SharedCell()
    claim_cell = SharedCell()
    tally = SharedCell()
    locks = [Resource(capacity=1) for _ in range(4)]
    queues = [deque() for _ in range(4)]
    dirty = [False] * 4
    # What the idle passes stole: attempts, successes, tasks, failures.
    steals = np.zeros(4, dtype=np.int64)
    chained = []
    # Every task a claim loop or queue may hold, by tid: claimed ones are
    # the counter's positions, the rank's own numbered from _TID_BASE.
    own = {}
    for src, plan in enumerate(net_plans):
        for pos, (kind, *args) in enumerate(plan):
            if kind in _TID_BASE:
                base = _TID_BASE[kind] + 100 * src + 10 * pos
                own.update((base + i, spec) for i, spec in enumerate(args[0]))
    if native:
        claim_table = _task_table(net, dict(enumerate(claimable)), len(claimable))
        own_table = _task_table(net, own, max(own, default=-1) + 1)

    def item(tid):
        """What a queue or list holds of task ``tid``: the task itself,
        or under ``native`` its id in the task table."""
        return tid if native else (tid, *own[tid])

    def kernel_of(queued):
        return own[queued][1] if native else queued[2]

    def load(op, tid, gets, kernel, accumulates):
        """Make a task the claim loop's next slice."""
        steps = _task_steps(net, gets, accumulates)
        op.chain = net._chain(steps)
        op.pos = 0
        op.end = len(steps)
        op.duration = kernel
        op.tid = tid

    def claims(src, home):
        if not chained_loops:
            while True:
                value = yield from net.fetch_add_traced(src, home, claim_cell, 1, trace, OVERHEAD)
                note("claimed", src, value, engine.now)
                if value >= len(claimable):
                    return
                yield from task(src, value, *claimable[value])
                note("task", src, engine.now)
        programs = tuple(net._tier_program("fetch_add", tier, 0) for tier in (0, 1, 2))
        fetch_add = net._chain(((home, programs, OVERHEAD),))

        def claim(op):
            if op.chain is fetch_add:
                value = op.result
                note("claimed", src, value, engine.now)
                if value >= len(claimable):
                    return False
                op.counter = None
                load(op, value, *claimable[value])
                return True
            note("task", src, engine.now)
            op.chain, op.pos, op.end, op.counter = fetch_add, 0, 1, claim_cell
            return True

        if native:
            sequence = np.arange(len(claimable), dtype=np.int64)
            claim = ("counter", claim_table, fetch_add, claim_cell, sequence, tally)
        op = FusedOp(
            trace, src, counter=claim_cell, amount=1, chain=fetch_add, end=1, claim=claim
        )
        chained.append(op)
        yield from op

    def drain(src):
        queue, lock = queues[src], locks[src]
        if not chained_loops:
            ran = 0
            while queue:  # WorkStealing._pop_local, then the task
                yield lock.acquire()
                try:
                    start = engine.now
                    yield pooled_timeout(_POP_SECONDS)
                    trace.record(src, OVERHEAD, start, engine.now)
                    head = queue.popleft() if queue else None
                finally:
                    lock.release()
                if head is None:
                    break
                yield from task(src, *head)
                note("task", src, engine.now)
                ran += 1
            return ran
        program = ((), _POP_SECONDS, ())
        pop = (((src, (program, program, program), OVERHEAD),), locks, None)

        def claim(op):
            if op.chain is pop:
                if not queue:
                    return False
                load(op, *queue.popleft())
                return True
            note("task", src, engine.now)
            op.result += 1
            if not queue:
                return False
            op.chain, op.pos, op.end = pop, 0, 1
            return True

        if native:
            claim = ("drain", own_table, queue, pop)
        op = FusedOp(trace, src, chain=pop, end=1, claim=claim)
        op.result = 0
        chained.append(op)
        return (yield from op)

    def steal(src, victim, nanoseconds, take):
        lock = locks[victim]
        yield lock.acquire()
        try:
            yield pooled_timeout(nanoseconds * 1.0e-9)
            queue = queues[victim]
            stolen = [queue.pop() for _ in range(min(take, len(queue)))]
        finally:
            lock.release()
        note("stole", src, victim, len(stolen), engine.now)

    def attempt(src, victim, policy, backoff_ns, after_unlock=False):
        got = yield from steal_once(src, victim, policy, backoff_ns * 1.0e-9, after_unlock)
        note("attempted", src, victim, got, engine.now)

    def steal_once(src, victim, policy, backoff, after_unlock, idle=False):
        """One steal attempt, the backoff sleep after a failure. Its
        decision is noted, or for an idle pass, whose decisions the core
        makes under ``native``, tallied and the thief marked dirty as
        ``Harness.idle_pass`` does."""
        lock, queue = locks[victim], queues[victim]

        def take(queue):
            k = _steal_count(policy, queue, kernel_of) if queue else 0
            if not idle:
                note("decided", src, victim, k)
            elif k:
                steals[1:3] += (1, k)
                dirty[src] = True
            else:
                steals[3] += 1
            return k

        if not chained_loops:  # WorkStealing._attempt_steal, then the backoff
            yield from net.rma_traced(src, victim, 8, trace, OVERHEAD)
            yield lock.acquire()
            try:
                yield from net.rma_traced(src, victim, 16, trace, OVERHEAD)
                got = take(queue)
                if got:
                    yield from net.rma_traced(src, victim, 16 * got, trace, OVERHEAD)
                    stolen = [queue.pop() for _ in range(got)]
            finally:
                lock.release()
            if got:
                stolen.reverse()
                if after_unlock:
                    yield from net.rma_traced(src, victim, 8, trace, OVERHEAD)
                queues[src].extend(stolen)
                if not after_unlock:
                    yield from net.rma_traced(src, victim, 8, trace, OVERHEAD)
            else:
                start = engine.now
                yield pooled_timeout(backoff)
                trace.record(src, IDLE, start, engine.now)
        else:  # one request, an idle pass's attempt with the decision in Python

            def rma(nbytes):
                programs = tuple(net._tier_program("rma", tier, nbytes) for tier in (0, 1, 2))
                return (victim, programs, OVERHEAD)

            def decide(op):
                k = take(queue)
                op.claim, op.result, op.pos = None, k, 0
                if not k:
                    op.chain, op.end, op.duration = net._chain((MOVE_TASKS, IDLE)), 2, backoff
                else:
                    tail = (rma(8), LAND_TASKS) if after_unlock else (rma(8),)
                    op.chain = net._chain((rma(16 * k), MOVE_TASKS, *tail))
                    op.end = 2 + len(tail)
                return True

            staging = (deque(),) if after_unlock else ()
            op = FusedOp(
                trace, src, chain=net._chain((rma(8), KEEP_LOCK, rma(16))), end=3,
                claim=decide, steal=(lock, queue, *staging, queues[src]),
            )  # fmt: skip
            chained.append(op)
            got = yield from op
        return got

    def idle(src, pos, victim, policy, park_after, backoff_ns, after_unlock, tags):
        """``WorkStealing._steal_loop``'s idle pass (see above); notes the
        loop's state and the Generator's after it."""
        rng = np.random.default_rng(100 * src + pos)
        model = WorkStealing(
            steal=policy, victim=victim, min_backoff=backoff_ns * 1.0e-9,
            max_backoff=4 * backoff_ns * 1.0e-9, park_after=max(park_after, 1),
        )  # fmt: skip
        node = src - src % 2
        peers = [node + 1 - src % 2]
        backoff, scan, failures = model.min_backoff, 0, 0
        if native:

            def programs(nbytes):
                return tuple(net._tier_program("rma", tier, nbytes) for tier in (0, 1, 2))

            shared = (
                [None] * 4, programs(8), programs(16), OVERHEAD, {},
                lambda k: programs(16 * k), net._chain((MOVE_TASKS, IDLE)), steals,
            )  # fmt: skip
            source = (
                "idle", own_table, shared, queues, locks, dirty, src,
                deque() if after_unlock else None, rng.bit_generator, victim, tuple(peers),
                policy, tags, net._mailboxes[src].messages, park_after,
                model.min_backoff, model.max_backoff, backoff, scan, failures,
            )  # fmt: skip
            op = FusedOp(trace, src, chain=own_table[0], claim=source)
            chained.append(op)
            backoff, scan, failures = yield from op
        else:
            ctx = SimpleNamespace(rank=src, machine=SimpleNamespace(n_ranks=4))
            mailbox = net._mailboxes[src].messages
            while True:
                target = model._choose_victim(ctx, rng, peers, scan)
                scan += 1
                steals[0] += 1
                got = yield from steal_once(src, target, policy, backoff, after_unlock, True)
                if got:
                    backoff, failures = model.min_backoff, 0
                    break
                failures += 1
                backoff = min(backoff * 2.0, model.max_backoff)
                if any(tags is None or message.tag in tags for message in mailbox):
                    break
                if park_after and failures >= park_after:
                    break
        note("idled", src, backoff, scan, failures, engine.now, rng.bit_generator.state)

    def task_list(src, listed):
        if not chained_loops or not listed:
            for head in listed:
                yield from task(src, *head)
                note("task", src, engine.now)
            return
        pending = iter(listed)

        def claim(op):
            if op.tid is not None:  # a task ran
                note("task", src, engine.now)
            head = next(pending, None)
            if head is None:
                return False
            load(op, *head)
            return True

        if native:
            claim = ("list", own_table, listed)
        op = FusedOp(trace, src, chain=net._chain(()), claim=claim)
        chained.append(op)
        yield from op

    def task(src, tid, gets, kernel, accumulates):
        if chained_loops:
            steps = _task_steps(net, gets, accumulates)
            op = FusedOp(
                trace,
                src,
                chain=net._chain(steps),
                end=len(steps),
                duration=kernel,
                tid=tid,
            )
            chained.append(op)
            yield from op
            return
        for dst, nbytes in gets:
            yield from net.rma_traced(src, dst, nbytes, trace, COMM)
        start = engine.now
        yield pooled_timeout(kernel)
        trace.record_compute(src, tid, start, engine.now)
        for dst, nbytes in accumulates:
            yield from net.accumulate_traced(src, dst, nbytes, trace, COMM)

    def rank(src, plan):
        for pos, (kind, *args) in enumerate(plan):
            if kind == "fetch_add":
                dst, amount = args
                old = yield from net.fetch_add_traced(src, dst, cell, amount, trace, OVERHEAD)
                note("fetch_add", src, old, engine.now)
            elif kind == "rma":
                dst, nbytes = args
                yield from net.rma_traced(src, dst, nbytes, trace, COMM)
                note("rma", src, engine.now)
            elif kind == "task":
                yield from task(src, 10 * src + pos, *args)
                note("task", src, engine.now)
            elif kind == "claims":
                yield from claims(src, *args)
            elif kind in _TID_BASE:
                base = _TID_BASE[kind] + 100 * src + 10 * pos
                items = [item(base + i) for i in range(len(args[0]))]
                if kind == "queue":
                    queues[src].extend(items)
                elif kind == "drain":
                    queues[src].extend(items)
                    ran = yield from drain(src)
                    note("drained", src, ran, engine.now)
                else:
                    yield from task_list(src, items)
                    note("listed", src, engine.now)
            elif kind == "steal":
                yield from steal(src, *args)
            elif kind == "attempt":
                yield from attempt(src, *args)
            elif kind == "idle":
                yield from idle(src, pos, *args)
            elif kind == "send":
                dst, tag = args
                yield from net.send(src, dst, tag)
                note("sent", src, dst, tag, engine.now)
            elif kind == "recv":
                message = yield from net.recv(src, timeout=args[0] * 1.0e-9)
                note("received", src, message and message.tag, engine.now)
            else:
                dst, nanoseconds = args
                yield from hold(net.nics[dst], nanoseconds * 1.0e-9)
                note("nic-held", src, engine.now)

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
            note("walk", pid, i, engine.now)

    def holder():
        yield from hold(resource, 2.0e-7)
        note("held", engine.now)
        gate.fire("open")

    def waiter():
        value = yield gate.wait()
        note("gate", value, engine.now)

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
        log.append(("horizon", engine.now, engine._seq, *_pending_keys(engine)))
    engine.run()
    if native and net_cancel is None:  # every loop ended: one fetch-add each past the last
        assert tally.value == claim_cell.value
    log.append(
        ("end", engine.now, engine._seq, engine.events_dispatched, engine.ready_dispatched)
    )
    log.append(
        (
            [(n.in_use, n.total_acquisitions, n.total_waits, len(n._queue)) for n in locks],
            [[(t, *own[t]) if native else t for t in queue] for queue in queues],
            claim_cell.value,
            dirty,
            steals.tolist(),
        )
    )
    log.append(
        [(n.in_use, n.total_acquisitions, n.total_waits, len(n._queue)) for n in net.nics]
    )
    log.append(
        (
            cell.value, trace.records, trace._totals,
            trace.task_ids, trace.task_ranks, trace.task_starts, trace.task_ends,
            engine.grant_resumes,
        )
    )
    log.append(engine.timeout_allocs)
    return log


def _pending_keys(engine):
    """The ``(time, seq)`` keys of the engine's heap, in key order, and
    the seqs of its run-queue, in queue order."""
    return sorted(entry[:2] for entry in engine._heap), [entry[0] for entry in engine._ready]


def _entries(log, kind):
    """The log's ``kind`` events, in dispatch order."""
    return [entry for entry in log if isinstance(entry, tuple) and entry[0] == kind]


def _without_claim_notes(log):
    """``log`` less the ``claimed`` and ``task`` entries, and the clock
    after each: what a claim made in Python notes and a claim source the
    core reads cannot."""
    kept, dropped = [], False
    for entry in log:
        if dropped and entry[0] == "at":  # the clock after a dropped note
            dropped = False
            continue
        dropped = isinstance(entry, tuple) and entry[:1] in (("claimed",), ("task",))
        if not dropped:
            kept.append(entry)
    return kept


def _assert_interpreters_agree(*scenario, **kwargs):
    """The reference log of ``(Engine, "walk")``, after holding every
    compiled-engine interpreter to it: the generators to its
    ``timeout_allocs`` as well, the fused ones to one ``timeout_allocs``
    of their own — a chained kernel or backoff counts as the ``Timeout``
    it stands for — and the core's claim sources to all of it but what
    claims in Python note."""
    reference = _run_scenario(Engine, *scenario, interpreter="walk", **kwargs)
    fused_timeouts = set()
    for engine_cls in FUSED_ENGINE_CLASSES:
        for interpreter in INTERPRETERS:
            log = _run_scenario(engine_cls, *scenario, interpreter=interpreter, **kwargs)
            if interpreter == "native":
                expected = _without_claim_notes(reference[:-1])
                assert _without_claim_notes(log[:-1]) == expected, engine_cls.__name__
            else:
                assert log[:-1] == reference[:-1], (engine_cls.__name__, interpreter)
            if interpreter == "walk":
                assert log[-1] == reference[-1], engine_cls.__name__
            else:
                fused_timeouts.add(log[-1])
    assert len(fused_timeouts) <= 1
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
#: ("task", gets, kernel seconds, accumulates)
_TASK_OP = st.tuples(
    st.just("task"),
    st.lists(_BLOCK, min_size=1, max_size=3),
    st.sampled_from([0.0, 4.0e-7, 3.0e-6, 2.0e-4]),
    st.lists(_BLOCK, min_size=1, max_size=3),
)
#: Cancel times from inside the first pre-delay out to past a 1 MiB hold.
_NET_CANCEL = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1.0e-7, 6.0e-7, 1.5e-6, 2.0e-6, 2.6e-6, 4.0e-6, 1.0e-4, 3.0e-4]),
)

#: One task by rank 2 against rank 1's NIC, which rank 3 holds for the
#: first 4 us: cancel ``(time, late)`` pairs that find the chained request
#: in each state it passes through, as ``(phase, holding, kept, queued at
#: the NIC, queued for the lock, steps armed)``. LogGP defaults: o = 0.4
#: us, L = 1.5 us, the 64 KiB get occupies the NIC for 13.3072 us, the
#: kernel runs 5 us.
_VICTIM_PLANS = [
    [],
    [],
    [("task", [(1, 1 << 16)], 5.0e-6, [(1, 4096)])],
    [("hold", 1, 4000)],
]
_HELD_UNTIL = 4000 * 1.0e-9


def _steal_victim_plans(queued, after_unlock=False):
    """Rank 2's steal attempt on rank 1 (another node), halving its queue
    of three, or finding it empty and backing off 8 us: rank 3 holds rank
    1's NIC for the first 4 us, so the lock word's read queues there, and
    rank 0 holds rank 1's lock for the first 8 us, so the attempt then
    queues for the lock it keeps. The lock is granted at 8 us, the
    metadata read holds the NIC at ~10 us, the decision at ~11.6 us takes
    two tasks (or none, then the backoff), the descriptor read is back at
    ~15.2 us, the unlock write done at ~18.8 us; ``after_unlock``, the two
    tasks land in rank 2's queue only then."""
    spec = ([(1, 288)], 3.0e-6, [(1, 288)])
    queue = [("queue", [spec] * 3)] if queued else []
    thief = [("attempt", 1, "half", 8000, after_unlock)]
    return [[("steal", 1, 8000, 0)], queue, thief, [("hold", 1, 4000)]]


_LOCK_HELD_UNTIL = 8000 * 1.0e-9
_CANCEL_PHASES = {
    "pre-delay": (_VICTIM_PLANS, 2.0e-7, False, (0, False, False, False, False, 1)),
    "queued": (_VICTIM_PLANS, 2.5e-6, False, (1, False, False, True, False, 1)),
    "granted-not-woken": (
        _VICTIM_PLANS, _HELD_UNTIL, True, (1, False, False, False, False, 1)
    ),
    "holding": (_VICTIM_PLANS, 9.0e-6, False, (2, True, False, False, False, 1)),
    "return-path": (_VICTIM_PLANS, 1.8e-5, False, (3, False, False, False, False, 1)),
    "inside-the-kernel": (
        _VICTIM_PLANS, 2.1e-5, False, (4, False, False, False, False, 2)
    ),
    "between-two-steps": (
        _VICTIM_PLANS, 2.4e-5, False, (0, False, False, False, False, 3)
    ),
    "steal-lock-word-pre-delay": (
        _steal_victim_plans(True), 1.0e-6, False, (0, False, False, False, False, 1)
    ),
    "steal-lock-word-queued": (
        _steal_victim_plans(True), 3.0e-6, False, (1, False, False, True, False, 1)
    ),
    "steal-queued-for-the-lock": (
        _steal_victim_plans(True), 7.0e-6, False, (6, False, False, False, True, 2)
    ),
    "steal-lock-granted-not-woken": (
        _steal_victim_plans(True), _LOCK_HELD_UNTIL, True, (6, False, False, False, False, 2)
    ),
    "steal-metadata-under-the-lock": (
        _steal_victim_plans(True), 9.0e-6, False, (0, False, True, False, False, 3)
    ),
    "steal-metadata-holding-the-nic": (
        _steal_victim_plans(True), 1.0e-5, False, (2, True, True, False, False, 3)
    ),
    "steal-descriptors-under-the-lock": (
        _steal_victim_plans(True), 1.4e-5, False, (3, False, True, False, False, 1)
    ),
    "steal-unlock-write": (
        _steal_victim_plans(True), 1.7e-5, False, (0, False, False, False, False, 3)
    ),
    "steal-backoff": (
        _steal_victim_plans(False), 1.4e-5, False, (5, False, False, False, False, 2)
    ),
    "steal-after-unlock-loot-popped-not-landed": (
        _steal_victim_plans(True, True), 1.55e-5, False, (0, False, False, False, False, 3)
    ),
    "steal-after-unlock-write-before-landing": (
        _steal_victim_plans(True, True), 1.8e-5, False, (3, False, False, False, False, 3)
    ),
}

#: A task a claim loop runs: (gets, kernel seconds, accumulates).
_LOOP_TASK = st.tuples(
    st.lists(_BLOCK, min_size=1, max_size=2),
    st.sampled_from([0.0, 4.0e-7, 3.0e-6]),
    st.lists(_BLOCK, min_size=1, max_size=2),
)
#: A list of the rank's own tasks, as ``StaticAssignment`` hands one to
#: ``Harness.execute_tasks``: ranks' lists differ in length, some are
#: empty, and their gets and accumulates contend for two home NICs.
_LIST_OP = st.tuples(st.just("tasks"), st.lists(_LOOP_TASK, max_size=3))
#: A steal policy of ``WorkStealing``.
_POLICY = st.sampled_from(["one", "half", "half_cost"])
#: An idle pass: ``(victim, policy, park_after, min_backoff ns,
#: after_unlock, tags)``, its backoff capped at four times the first.
_IDLE_OP = st.tuples(
    st.just("idle"),
    st.sampled_from(["random", "ring", "hierarchical"]),
    _POLICY,
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1000, 8000]),
    st.booleans(),
    st.sampled_from([None, ("token",)]),
)
#: A counter claim loop at home rank 0 or 1, a drain of the rank's own
#: queue, a list, a steal holding a victim's lock for some ns and taking
#: up to two tasks from its tail under it, tasks queued for thieves, or a
#: steal attempt on a victim under a policy, with its backoff in ns and
#: whether its tasks land after the unlock write, an idle pass, or a
#: message sent to a rank with a tag its idle pass polls for or not.
_LOOP_OP = st.one_of(
    st.tuples(st.just("claims"), st.integers(min_value=0, max_value=1)),
    _LIST_OP,
    st.tuples(st.just("drain"), st.lists(_LOOP_TASK, min_size=1, max_size=3)),
    st.tuples(
        st.just("steal"),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([100, 1500, 4000]),
        st.integers(min_value=0, max_value=2),
    ),
    st.tuples(st.just("queue"), st.lists(_LOOP_TASK, min_size=1, max_size=4)),
    st.tuples(
        st.just("attempt"),
        st.integers(min_value=0, max_value=3),
        _POLICY,
        st.sampled_from([1000, 8000]),
        st.booleans(),
    ),
    _IDLE_OP,
    st.tuples(
        st.just("send"), st.integers(min_value=0, max_value=3), st.sampled_from(["token", "other"])
    ),
)

#: Two queued tasks: a 3 us kernel on rank 1's blocks, and a 0.4 us one
#: reading rank 0's.
_SLOW = ([(1, 288)], 3.0e-6, [(1, 288)])
_FAST = ([(0, 4096)], 4.0e-7, [(1, 4096)])


def _thief_plans(take):
    """Rank 0 holds rank 1's NIC for 0.5 us, then drains two tasks; rank 1
    holds rank 0's lock from the start until 2 us (taking ``take`` tasks
    under it), so the drain's first pop step arms while the lock is held."""
    tasks = [([(1, 288)], 3.0e-6, [(1, 288)]), ([(0, 4096)], 4.0e-7, [(1, 4096)])]
    return [[("hold", 1, 500), ("drain", tasks)], [("steal", 0, 2000, take)]]


#: Rank 0 drains six tasks under its lock; ranks 1 (same node) and 2
#: (the other node) try to steal from it at once, halving and taking one;
#: rank 3 queues four tasks of its own and then steals half of what rank
#: 0 has left; rank 1 then finds rank 2's queue empty and backs off 1 us,
#: and rank 2 steals by half the cost from what rank 1 took.
_STEAL_RACE_PLANS = [
    [("drain", [_SLOW, _FAST] * 3)],
    [("attempt", 0, "half", 1000), ("attempt", 2, "one", 1000)],
    [("attempt", 0, "one", 1000), ("attempt", 1, "half_cost", 1000)],
    [("queue", [_FAST, _SLOW, _FAST, _FAST]), ("attempt", 0, "half", 1000)],
]

#: Rank 1's idle passes, ring victims 2, 3, 0 in turn, 1 us first backoff
#: capped at 4 us: ``(plans, (scan, failures) it ends with)``. Rank 0's
#: three tasks end the third attempt (two taken); with none anywhere two
#: failures park it; a token rank 0 sends at once ends it at the first
#: poll when it polls for tokens or for anything, and another tag does not.
_IDLE_ENDS = {
    "success": ([[("queue", [_SLOW, _FAST, _SLOW])], [("idle", "ring", "half", 3, 1000, False, None)]], (3, 0)),
    "park": ([[], [("idle", "ring", "half", 2, 1000, False, None)]], (2, 2)),
    "poll-token": ([[("send", 1, "token")], [("idle", "ring", "one", 3, 1000, True, ("token",))]], (1, 1)),
    "poll-any": ([[("send", 1, "other")], [("idle", "ring", "one", 3, 1000, True, None)]], (1, 1)),
    "poll-other-tag": ([[("send", 1, "other")], [("idle", "ring", "one", 3, 1000, True, ("token",))]], (3, 3)),
}  # fmt: skip


def _idle_cancel_plans(tail, token=False, park_after=3):
    """Rank 2's idle pass (ring victims 3, 0, 1), then ``tail``: rank 0
    holds rank 1's lock for the first 20 us, rank 1 queues three tasks,
    rank 3 sends rank 2 a token if ``token``. The pass fails on rank 3
    (same node) and backs off 1 us until ~2.4 us, fails on rank 0 (metadata
    read on its NIC at ~8 us, the 2 us backoff until ~11.6 us), then queues
    for rank 1's lock from ~15.2 us to 20 us and takes two tasks (the
    descriptor read ~23.6-27.2 us, the unlock write until ~30.8 us). A
    token ends it at its first poll, ``park_after`` 2 at its second."""
    idle = ("idle", "ring", "half", park_after, 1000, False, ("token",))
    spec = ([(1, 288)], 3.0e-6, [(1, 288)])
    sender = [("send", 2, "token")] if token else []
    return [[("steal", 1, 20000, 0)], [("queue", [spec] * 3)], [idle, *tail], sender]


#: Cancel ``(plans, time)`` pairs that find rank 2's idle pass in each
#: state it passes through, as ``(phase, holding, kept, queued for the
#: lock, done)``: backing off, reading a victim's metadata under its lock,
#: queued for a held lock, reading descriptors under it, and parked in a
#: ``recv`` after the pass ended on a poll or a park.
_IDLE_CANCEL_PHASES = {
    "backoff": (_idle_cancel_plans([]), 2.0e-6, (5, False, False, False, False)),
    "metadata-holding-the-nic": (_idle_cancel_plans([]), 8.0e-6, (2, True, True, False, False)),
    "queued-for-the-lock": (_idle_cancel_plans([]), 1.8e-5, (6, False, False, True, False)),
    "descriptors-under-the-lock": (_idle_cancel_plans([]), 2.5e-5, (0, False, True, False, False)),
    "poll-return": (
        _idle_cancel_plans([("recv", 100000), ("recv", 100000)], token=True),
        5.0e-5, (5, False, False, False, True),
    ),
    "park-return": (
        _idle_cancel_plans([("recv", 100000)], park_after=2),
        5.0e-5, (5, False, False, False, True),
    ),
}  # fmt: skip

_THIEF_UNTIL = 2000 * 1.0e-9
#: Cancel ``(time, late)`` pairs that find the drain's pop step in each
#: state it passes through, as ``(phase, holding, queued)``.
_DRAIN_CANCEL_PHASES = {
    "queued-for-the-lock": (1.0e-6, False, (1, False, True)),
    "granted-not-woken": (_THIEF_UNTIL, True, (1, False, False)),
    "holding-the-lock": (_THIEF_UNTIL + 0.5 * _POP_SECONDS, False, (2, True, False)),
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
            st.lists(_NET_OP | _TASK_OP | _LIST_OP, min_size=1, max_size=6), max_size=4
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
        """A cancel landing in each state of a chained request — a task's,
        or a steal attempt's, the victim's lock kept or awaited included —
        leaves what the generators leave, also when the run is staged, so
        the step pending at a horizon is flushed to the heap and
        re-entered."""
        plans, when, late, expected = _CANCEL_PHASES[phase]
        seen = []

        def probe(ops):
            (op,) = ops
            lock = op.steal[0] if op.steal is not None else None
            nic = op.chain[1][1]
            seen.append(
                (op.phase, op.holding, op.kept, op in nic._queue,
                 lock is not None and op in lock._queue, op.pos)
            )  # fmt: skip

        scenario = ([[1.0e-6]], list(horizons), False, plans, (2, when))
        reference = _assert_interpreters_agree(*scenario, late_cancel=late)
        for engine_cls in FUSED_ENGINE_CLASSES:
            _run_scenario(
                engine_cls, *scenario, interpreter="chain", late_cancel=late, probe=probe
            )
        assert seen == [expected] * len(FUSED_ENGINE_CLASSES)
        # The victim never finished its task or attempt; rank 3 still got
        # its hold, and rank 1's NIC and lock came back whoever held or
        # awaited them.
        assert not _entries(reference, "task") and not _entries(reference, "attempted")
        assert ("nic-held", 3, _HELD_UNTIL) in reference
        assert reference[-3][1][0] == 0 and reference[-4][0][1][0] == 0
        if phase.startswith("steal-after-unlock"):
            # The loot had left the victim's queue and not reached the thief's.
            assert [len(queue) for queue in reference[-4][1]] == [0, 1, 0, 0]

    @settings(max_examples=40, deadline=None)
    @given(
        net_plans=st.lists(
            st.lists(_LOOP_OP | _NET_OP, min_size=1, max_size=4), min_size=1, max_size=4
        ),
        claimable=st.lists(_LOOP_TASK, max_size=6),
        net_cancel=st.none() | _NET_CANCEL,
        late_cancel=st.booleans(),
    )
    def test_claim_loops_identical_across_engines(
        self, net_plans, claimable, net_cancel, late_cancel
    ):
        """A claim loop chained into one request dispatches as its
        generator, its claims made in Python or read by the core:
        counter claims against contended home NICs, drains racing steals
        and steal attempts for the same locks, cancels anywhere in any."""
        _assert_interpreters_agree(
            [[1.0e-6]], [], False, net_plans, net_cancel,
            late_cancel=late_cancel, claimable=claimable,
        )  # fmt: skip

    def test_counter_claims_at_a_contended_home(self):
        """Three claim loops on rank 1's counter while rank 1 holds its own
        NIC for 3 us: every claim queues, each task runs once, and every
        loop stops at its first claim past the last task."""
        claimable = [([(0, 288)], 4.0e-7, [(1, 288)])] * 5
        plans = [[("claims", 1)], [("hold", 1, 3000)], [("claims", 1)], [("claims", 1)]]
        log = _assert_interpreters_agree(
            [[1.0e-6]], [], False, plans, claimable=claimable
        )
        claimed = _entries(log, "claimed")
        assert sorted(value for _, _, value, _ in claimed) == list(range(8))
        assert min(time for *_, time in claimed) > 3.0e-6  # all waited for the hold
        assert len(_entries(log, "task")) == 5
        assert log[-3][1][2] >= 3  # rank 1's NIC: waits

    def test_task_lists_at_a_contended_nic(self):
        """Lists of two, none, three and one tasks, all reading and
        accumulating rank 1's blocks, while rank 0 holds rank 1's NIC for
        3 us: ranks 2 and 3, on the other node, queue for it. Each list
        runs in order, once, and its rank moves on when the last of its
        tasks is done — an empty list at once."""
        spec = ([(1, 4096)], 4.0e-7, [(1, 288)])
        plans = [
            [("hold", 1, 3000), ("tasks", [spec] * 2)],
            [("tasks", [])],
            [("tasks", [spec] * 3)],
            [("tasks", [spec])],
        ]
        log = _assert_interpreters_agree([[1.0e-6]], [], False, plans)
        tasks = _entries(log, "task")
        assert sorted(rank for _, rank, _ in tasks) == [0, 0, 2, 2, 2, 3]
        listed = {rank: time for _, rank, time in _entries(log, "listed")}
        assert listed[1] == 0.0
        for rank in (0, 2, 3):
            assert listed[rank] == max(time for _, src, time in tasks if src == rank)
        assert min(time for *_, time in tasks) > 3.0e-6  # all waited for the hold
        tids, ranks = log[-2][3:5]
        assert [tid for tid, rank in zip(tids, ranks) if rank == 2] == [2200, 2201, 2202]
        assert log[-3][1][2] >= 2  # rank 1's NIC: waits

    @pytest.mark.parametrize("take", [0, 9], ids=["lock-held", "queue-emptied"])
    def test_drain_pop_armed_under_a_held_lock(self, take):
        """The pop step queues behind the thief; its OVERHEAD interval is
        the hold after the grant, not the wait since it armed. A thief
        that took every task under the lock leaves the pop nothing: the
        drain finishes having run none."""
        log = _assert_interpreters_agree([[1.0e-6]], [], False, _thief_plans(take))
        pops = 2 if take == 0 else 1
        assert log[-4][0][0] == (0, 1 + pops, 1, 0)  # the thief, then every pop
        overhead = log[-2][2][OVERHEAD]
        assert overhead[0] == pytest.approx(pops * _POP_SECONDS, rel=1e-6)
        ((_, rank, ran, _),) = _entries(log, "drained")
        assert (rank, ran) == (0, pops if take == 0 else 0)
        assert ("stole", 1, 0, 0 if take == 0 else 2, _THIEF_UNTIL) in log

    def test_steal_attempts_race_a_drain_for_its_lock(self):
        """Each steal attempt is one request that dispatches as its
        generators: two thieves queue for the lock of a victim draining
        under it, and every decision — half, one, half the cost, and an
        empty victim's, whose backoff sleep ends the request — moves its
        tasks from the victim's tail to the thief's, in order."""
        log = _assert_interpreters_agree([[1.0e-6]], [], False, _STEAL_RACE_PLANS)
        decided = [entry[1:] for entry in _entries(log, "decided")]
        assert decided == [(1, 0, 3), (2, 0, 1), (1, 2, 0), (3, 0, 1), (2, 1, 2)]
        assert [entry[1:4] for entry in _entries(log, "attempted")] == [
            (1, 0, 3), (1, 2, 0), (2, 0, 1), (3, 0, 1), (2, 1, 2)
        ]  # fmt: skip
        ((_, rank, ran, _),) = _entries(log, "drained")
        assert (rank, ran) == (0, 1)  # the thieves took the other five
        locks, queues = log[-4][:2]
        assert locks[0] == (0, 5, 2, 0)  # a pop, four attempts; two waited
        assert [[task[0] for task in queue] for queue in queues] == [
            [], [1003], [1002, 1004, 1005], [3300, 3301, 3302, 3303, 1001]
        ]  # fmt: skip
        assert log[-2][2][IDLE][1] == pytest.approx(1.0e-6)  # the backoff

    @pytest.mark.parametrize(
        "after_unlock, hold_ns, found",
        [(False, 10000, 1), (True, 10000, 0), (True, 15000, 1)],
        ids=["before-unlock", "after-unlock-during-the-write", "after-unlock-once-landed"],
    )
    def test_a_thief_of_a_thief_sees_what_the_order_landed(self, after_unlock, hold_ns, found):
        """Rank 2 steals two of rank 1's three tasks; rank 3, on rank 2's
        node, reads rank 2's queue while rank 2 writes rank 1's lock word
        back (a 10 us hold first) or once it is done (15 us). During the
        write the tasks are in rank 2's queue unless they land after the
        unlock write, so rank 3 takes one or finds none."""
        spec = ([(1, 288)], 3.0e-6, [(1, 288)])
        plans = [
            [],
            [("queue", [spec] * 3)],
            [("attempt", 1, "half", 1000, after_unlock)],
            [("hold", 0, hold_ns), ("attempt", 2, "one", 1000)],
        ]
        log = _assert_interpreters_agree([[1.0e-6]], [], False, plans)
        assert [entry[1:] for entry in _entries(log, "decided")] == [(2, 1, 2), (3, 2, found)]
        queues = log[-4][1]
        assert [len(queue) for queue in queues] == [0, 1, 2 - found, found]

    @pytest.mark.parametrize("end", _IDLE_ENDS)
    def test_idle_pass_ends_as_its_loop_does(self, end):
        """An idle pass is one request that dispatches as the attempts,
        backoffs and polls of its loop, and ends where the loop leaves
        them: on a success, on a park or on a message it polls for, with
        the loop's backoff, scan and failures and the Generator's state
        as the loop leaves them."""
        plans, (scan, failures) = _IDLE_ENDS[end]
        log = _assert_interpreters_agree([[1.0e-6]], [], False, plans)
        ((_, rank, backoff, *ended, _),) = _entries(log, "idled")
        assert (rank, *ended[:2]) == (1, scan, failures)
        assert backoff == pytest.approx([1.0e-6, 2.0e-6, 4.0e-6, 4.0e-6][failures])
        attempts, successes, stolen, failed = log[-4][-1]
        assert (attempts, failed) == (scan, failures if end != "success" else 2)
        assert (successes, stolen) == ((1, 2) if end == "success" else (0, 0))
        assert log[-4][-2][1] == (end == "success")  # the thief's dirty bit
        if end == "success":
            assert [len(queue) for queue in log[-4][1]] == [1, 2, 0, 0]

    @pytest.mark.parametrize("horizons", [(), (1.0e-6, 1.0e-5, 2.2e-5)], ids=["drain", "staged"])
    @pytest.mark.parametrize("phase", _IDLE_CANCEL_PHASES)
    def test_idle_pass_cancelled_in_every_phase(self, phase, horizons):
        """A cancel landing in each state of an idle pass — backing off,
        inside an attempt under the victim's lock, waiting for that lock —
        closes the one request where the generators are closed; one landing
        after the pass ended on a poll or a park finds the rank parked in a
        ``recv``. Either way every lock and NIC comes back."""
        plans, when, expected = _IDLE_CANCEL_PHASES[phase]
        seen = []

        def probe(ops):
            (op,) = ops
            seen.append(
                (op.phase, op.holding, op.kept, op in op.steal[0]._queue, op.done)
            )  # fmt: skip

        scenario = ([[1.0e-6]], list(horizons), False, plans, (2, when))
        reference = _assert_interpreters_agree(*scenario)
        for engine_cls in FUSED_ENGINE_CLASSES:
            _run_scenario(engine_cls, *scenario, interpreter="native", probe=probe)
        assert seen == [expected] * len(FUSED_ENGINE_CLASSES)
        ended = phase.endswith("-return")
        assert len(_entries(reference, "idled")) == ended
        assert not [entry for entry in _entries(reference, "received") if entry[1] == 2][ended:]
        assert all(lock[0] == 0 for lock in reference[-4][0])  # every lock came back
        assert all(nic[0] == 0 for nic in reference[-3])

    @pytest.mark.parametrize("phase", _DRAIN_CANCEL_PHASES)
    def test_drain_closed_waiting_for_or_holding_its_lock(self, phase):
        """Cancelling the draining rank closes its op where the generator
        is closed: a queued pop is passed by, a granted or held lock is
        released, and the thief and the lock carry on as without it."""
        when, late, expected = _DRAIN_CANCEL_PHASES[phase]
        seen = []

        def probe(ops):
            (op,) = ops
            seen.append((op.phase, op.holding, op in op.chain[1][0]._queue))

        scenario = ([[1.0e-6]], [], False, _thief_plans(0), (0, when))
        log = _assert_interpreters_agree(*scenario, late_cancel=late)
        for engine_cls in FUSED_ENGINE_CLASSES:
            _run_scenario(
                engine_cls, *scenario, interpreter="chain", late_cancel=late, probe=probe
            )
        assert seen == [expected] * len(FUSED_ENGINE_CLASSES)
        assert not _entries(log, "task") and not _entries(log, "drained")
        assert ("stole", 1, 0, 0, _THIEF_UNTIL) in log
        assert log[-4][0][0][0] == 0  # lock 0 came back
        assert len(log[-4][1][0]) == 2  # closed before its pop took the head

    @pytest.mark.skipif(not FUSED_ENGINE_CLASSES, reason="compiled engine core unavailable")
    def test_timeout_allocs_by_hand(self):
        """What ``timeout_allocs`` counts, written out: a remote get is four
        ``Timeout``s on the generator (overhead and wire out, the NIC
        hold, the wire back) and none fused; a chained task's kernel is
        the one ``Timeout`` it stands for (the generator's 4 + 1 + 4)."""

        def allocs(engine_cls, body):
            engine = engine_cls()
            net = Network(engine, NetworkModel(), 4, node_of=lambda rank: rank // 2)
            engine.process(body(engine, net, TraceRecorder(4)))
            engine.run()
            return engine.timeout_allocs

        def get(engine, net, trace):
            yield from net.rma_traced(0, 2, 4096, trace, COMM)

        def task(engine, net, trace):
            if net.op_type is not None:
                steps = _task_steps(net, [(2, 4096)], [(2, 288)])
                chain = net._chain(steps)
                yield from net.op_type(trace, 0, chain=chain, end=3, duration=1.0e-6, tid=0)
                return
            yield from net.rma_traced(0, 2, 4096, trace, COMM)
            start = engine.now
            yield pooled_timeout(1.0e-6)
            trace.record_compute(0, 0, start, engine.now)
            yield from net.accumulate_traced(0, 2, 288, trace, COMM)

        (compiled,) = FUSED_ENGINE_CLASSES
        assert (allocs(Engine, get), allocs(compiled, get)) == (4, 0)
        assert (allocs(Engine, task), allocs(compiled, task)) == (9, 1)

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


def _variability(name):
    from repro.simulate.noise import RandomStaticVariability, StaticHeterogeneity

    if name == "heterogeneous":
        return StaticHeterogeneity(slow_ranks=(1, 3), factor=0.5)
    return RandomStaticVariability(n_ranks=8, sigma=0.1, seed=3)


#: ``(model, tasks, ranks, variability)``: the three claim disciplines,
#: then static lists of which some are empty, and static lists on the
#: two time-independent variability models, whose per-rank divisor the
#: chain takes once per run.
_CROSS_MODE_CASES = {
    "static_block": ("static_block", 300, 8, None),
    "counter_dynamic": ("counter_dynamic", 300, 8, None),
    "work_stealing": ("work_stealing", 300, 8, None),
    "static_block-empty-lists": ("static_block", 5, 8, None),
    "static_cyclic-heterogeneous": ("static_cyclic", 300, 8, "heterogeneous"),
    "static_cyclic-random-static": ("static_cyclic", 300, 8, "random-static"),
}


class TestCrossModeRunResults:
    @pytest.mark.parametrize("case", _CROSS_MODE_CASES)
    def test_results_identical_across_modes(self, case, monkeypatch):
        from repro.chemistry.tasks import synthetic_task_graph
        from repro.core import MACHINE_PRESETS
        from repro.exec_models import make_model

        model_name, n_tasks, n_ranks, variability = _CROSS_MODE_CASES[case]
        graph = synthetic_task_graph(n_tasks, 12, seed=5, skew=1.1)
        machine = MACHINE_PRESETS["commodity"](n_ranks)
        if variability is not None:
            machine = machine.with_variability(_variability(variability))
        modes = ["python"] + (["compiled"] if compiled_available() else [])
        digests = {}
        for mode in modes:
            monkeypatch.setenv("REPRO_ENGINE", mode)
            result = make_model(model_name).run(graph, machine, seed=11)
            digests[mode] = _digest(result)
        assert len(set(digests.values())) == 1, digests.keys()
        if variability is not None:
            # Every kernel lasts flops / (nominal rate x the rank's speed),
            # up to the rounding of its start and end times.
            for tid, rank in enumerate(result.assignment.tolist()):
                expected = machine.compute_seconds(rank, graph.costs[tid], 0.0)
                assert result.task_durations[tid] == pytest.approx(expected, rel=1e-12)
