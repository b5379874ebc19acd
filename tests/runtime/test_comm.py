import pytest

from repro.runtime.comm import RankContext
from repro.runtime.trace import COMM, COMPUTE, OVERHEAD, TraceRecorder
from repro.simulate.engine import Engine
from repro.simulate.machine import MachineSpec
from repro.simulate.network import Network, NetworkModel, SharedCell
from repro.simulate.noise import StaticHeterogeneity


def make_ctx(n_ranks=4, rank=0, variability=None):
    engine = Engine()
    machine = MachineSpec(
        n_ranks=n_ranks,
        flops_per_second=1.0e9,
        variability=variability if variability is not None else MachineSpec(1).variability,
    )
    network = Network(engine, machine.network, n_ranks)
    trace = TraceRecorder(n_ranks)
    return RankContext(rank, engine, network, machine, trace), engine


def drive(engine, gen):
    out = {}

    def proc():
        out["result"] = yield from gen

    engine.process(proc())
    engine.run()
    return out["result"]


class TestCompute:
    def test_duration_from_flops(self):
        ctx, engine = make_ctx()
        drive(engine, ctx.compute(2.0e9))
        assert engine.now == pytest.approx(2.0)
        assert ctx.trace.total(COMPUTE)[0] == pytest.approx(2.0)

    def test_variability_slows_compute(self):
        ctx, engine = make_ctx(variability=StaticHeterogeneity([0], 0.5))
        drive(engine, ctx.compute(1.0e9))
        assert engine.now == pytest.approx(2.0)

    def test_task_recording(self):
        ctx, engine = make_ctx()
        drive(engine, ctx.compute(1.0e9, tid=5))
        assert ctx.trace.task_ids == [5]
        assert ctx.trace.task_ranks == [0]

    def test_no_tid_no_task_record(self):
        ctx, engine = make_ctx()
        drive(engine, ctx.compute(1.0e9))
        assert ctx.trace.task_ids == []

    def test_negative_flops_rejected(self):
        ctx, engine = make_ctx()
        with pytest.raises(ValueError):
            drive(engine, ctx.compute(-1.0))

    def test_nan_delays_rejected(self):
        ctx, engine = make_ctx()
        nan = float("nan")
        for gen in (ctx.compute(nan), ctx.sleep(nan), ctx.overhead_delay(nan)):
            with pytest.raises(ValueError, match="got nan"):
                drive(engine, gen)


class TestTracedCategories:
    def test_get_traced_as_comm(self):
        ctx, engine = make_ctx()
        drive(engine, ctx.get(1, 1024))
        assert ctx.trace.total(COMM)[0] > 0
        assert ctx.trace.total(OVERHEAD)[0] == 0

    def test_accumulate_traced_as_comm(self):
        ctx, engine = make_ctx()
        drive(engine, ctx.accumulate(1, 1024))
        assert ctx.trace.total(COMM)[0] > 0

    def test_fetch_add_traced_as_overhead(self):
        ctx, engine = make_ctx()
        value = drive(engine, ctx.fetch_add(1, SharedCell(3)))
        assert value == 3
        assert ctx.trace.total(OVERHEAD)[0] > 0
        assert ctx.trace.total(COMM)[0] == 0

    def test_protocol_ops_traced_as_overhead(self):
        ctx, engine = make_ctx()
        drive(engine, ctx.protocol_get(1, 8))
        drive(engine, ctx.protocol_put(1, 8))
        assert ctx.trace.total(OVERHEAD)[0] > 0
        assert ctx.trace.total(COMM)[0] == 0

    def test_overhead_delay(self):
        ctx, engine = make_ctx()
        drive(engine, ctx.overhead_delay(0.25))
        assert ctx.trace.total(OVERHEAD)[0] == pytest.approx(0.25)

    def test_sleep_untraced(self):
        ctx, engine = make_ctx()
        drive(engine, ctx.sleep(1.0))
        assert engine.now == pytest.approx(1.0)
        for cat in (COMPUTE, COMM, OVERHEAD):
            assert ctx.trace.total(cat)[0] == 0


class TestMessaging:
    def test_send_recv_roundtrip(self):
        ctx0, engine = make_ctx(rank=0)
        ctx1 = RankContext(1, engine, ctx0.network, ctx0.machine, ctx0.trace)
        got = []

        def sender():
            yield from ctx0.send(1, "tag", "hello")

        def receiver():
            message = yield from ctx1.recv("tag")
            got.append(message.payload)

        engine.process(receiver())
        engine.process(sender())
        engine.run()
        assert got == ["hello"]

    def test_untraced_recv_leaves_idle(self):
        ctx0, engine = make_ctx(rank=0)
        ctx1 = RankContext(1, engine, ctx0.network, ctx0.machine, ctx0.trace)

        def sender():
            yield from ctx0.sleep(1.0)
            yield from ctx0.send(1, "t", None)

        def receiver():
            yield from ctx1.recv("t", traced=False)

        engine.process(receiver())
        engine.process(sender())
        engine.run()
        # Receiver waited ~1s but none of it shows as overhead.
        assert ctx1.trace.total(OVERHEAD)[1] == 0

    def test_try_recv(self):
        ctx, engine = make_ctx()
        assert ctx.try_recv() is None
