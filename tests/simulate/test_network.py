import numpy as np
import pytest

from repro.simulate.engine import Engine
from repro.simulate.network import Network, NetworkModel, SharedCell
from repro.util import ConfigurationError


def make_net(n_ranks=4, **kwargs):
    engine = Engine()
    model = NetworkModel(**kwargs)
    return engine, model, Network(engine, model, n_ranks)


def run_op(engine, gen):
    """Drive one generator op as a process; return (duration, result)."""
    out = {}

    def proc():
        start = engine.now
        result = yield from gen
        out["duration"] = engine.now - start
        out["result"] = result

    engine.process(proc())
    engine.run()
    return out["duration"], out.get("result")


class TestNetworkModel:
    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(latency=-1.0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(bandwidth=0.0)

    def test_transfer_time(self):
        model = NetworkModel(bandwidth=1e9)
        assert model.transfer(1e9) == pytest.approx(1.0)


class TestRmaCosts:
    def test_remote_get_cost_formula(self):
        engine, m, net = make_net()
        nbytes = 4096
        duration, _ = run_op(engine, net.get(0, 1, nbytes))
        expected = (
            m.software_overhead + 2 * m.latency + m.nic_occupancy + nbytes / m.bandwidth
        )
        assert duration == pytest.approx(expected)

    def test_local_get_cheaper_than_remote(self):
        engine, m, net = make_net()
        local, _ = run_op(engine, net.get(0, 0, 4096))
        engine2, _, net2 = make_net()
        remote, _ = run_op(engine2, net2.get(0, 1, 4096))
        assert local < remote

    def test_put_costs_like_get(self):
        e1, _, n1 = make_net()
        d_get, _ = run_op(e1, n1.get(0, 1, 1024))
        e2, _, n2 = make_net()
        d_put, _ = run_op(e2, n2.put(0, 1, 1024))
        assert d_get == pytest.approx(d_put)

    def test_accumulate_adds_reduction_time(self):
        e1, _, n1 = make_net()
        d_put, _ = run_op(e1, n1.put(0, 1, 8192))
        e2, m, n2 = make_net()
        d_acc, _ = run_op(e2, n2.accumulate(0, 1, 8192))
        assert d_acc == pytest.approx(d_put + 8192 / m.accumulate_bandwidth)

    def test_rank_range_validated(self):
        engine, _, net = make_net(n_ranks=2)
        with pytest.raises(ConfigurationError, match="out of range"):
            list(net.get(0, 5, 8))

    def test_nic_contention_serializes_concurrent_gets(self):
        engine, m, net = make_net(n_ranks=8)
        nbytes = 1 << 20  # big payload: occupancy dominates
        ends = []

        def proc(src):
            yield from net.get(src, 7, nbytes)
            ends.append(engine.now)

        for src in range(4):
            engine.process(proc(src))
        engine.run()
        # Four transfers through one NIC must pipeline head-to-tail.
        occupancy = m.nic_occupancy + nbytes / m.bandwidth
        assert max(ends) - min(ends) >= 3 * occupancy * 0.999


class TestFetchAdd:
    def test_returns_old_value_and_increments(self):
        engine, _, net = make_net()
        cell = SharedCell(10)
        _, old = run_op(engine, net.fetch_add(1, 0, cell, 5))
        assert old == 10
        assert cell.value == 15

    def test_concurrent_fetch_adds_unique_values(self):
        engine, _, net = make_net(n_ranks=8)
        cell = SharedCell(0)
        claimed = []

        def proc(rank):
            value = yield from net.fetch_add(rank, 0, cell)
            claimed.append(value)

        for rank in range(8):
            engine.process(proc(rank))
        engine.run()
        assert sorted(claimed) == list(range(8))
        assert cell.value == 8

    def test_serialization_lower_bounds_duration(self):
        engine, m, net = make_net(n_ranks=8)
        cell = SharedCell(0)

        def proc(rank):
            yield from net.fetch_add(rank, 0, cell)

        for rank in range(8):
            engine.process(proc(rank))
        end = engine.run()
        assert end >= 8 * m.atomic_service

    def test_local_fetch_add_skips_wire_latency(self):
        e1, m, n1 = make_net()
        d_local, _ = run_op(e1, n1.fetch_add(0, 0, SharedCell()))
        e2, _, n2 = make_net()
        d_remote, _ = run_op(e2, n2.fetch_add(1, 0, SharedCell()))
        assert d_remote - d_local == pytest.approx(2 * m.latency)


class TestMessages:
    def test_send_then_recv_delivers_payload(self):
        engine, _, net = make_net()
        got = []

        def sender():
            yield from net.send(0, 1, "tag", {"k": 1})

        def receiver():
            message = yield from net.recv(1, "tag")
            got.append(message)

        engine.process(receiver())
        engine.process(sender())
        engine.run()
        assert got[0].payload == {"k": 1}
        assert got[0].src == 0

    def test_recv_filters_by_tag(self):
        engine, _, net = make_net()
        got = []

        def sender():
            yield from net.send(0, 1, "other", "first")
            yield from net.send(0, 1, "wanted", "second")

        def receiver():
            message = yield from net.recv(1, "wanted")
            got.append(message.payload)

        engine.process(receiver())
        engine.process(sender())
        engine.run()
        assert got == ["second"]
        assert net.try_recv(1, "other").payload == "first"

    def test_recv_any_tag(self):
        engine, _, net = make_net()
        got = []

        def sender():
            yield from net.send(0, 1, "x", 1)

        def receiver():
            message = yield from net.recv(1, None)
            got.append(message.payload)

        engine.process(receiver())
        engine.process(sender())
        engine.run()
        assert got == [1]

    def test_try_recv_empty_returns_none(self):
        _, _, net = make_net()
        assert net.try_recv(0) is None

    def test_sender_pays_only_software_overhead(self):
        engine, m, net = make_net()
        duration, _ = run_op(engine, net.send(0, 1, "t", None))
        assert duration == pytest.approx(m.software_overhead)

    def test_same_pair_message_order_preserved(self):
        engine, _, net = make_net()
        got = []

        def sender():
            for i in range(5):
                yield from net.send(0, 1, "seq", i)

        def receiver():
            for _ in range(5):
                message = yield from net.recv(1, "seq")
                got.append(message.payload)

        engine.process(receiver())
        engine.process(sender())
        engine.run()
        assert got == [0, 1, 2, 3, 4]


class TestStats:
    def test_operation_counts(self):
        engine, _, net = make_net()

        def proc():
            yield from net.get(0, 1, 100)
            yield from net.put(0, 1, 100)
            yield from net.accumulate(0, 1, 100)
            yield from net.fetch_add(0, 1, SharedCell())
            yield from net.send(0, 1, "t")

        engine.process(proc())
        engine.run()
        s = net.stats
        assert (s.gets, s.puts, s.accumulates, s.fetch_adds, s.messages) == (1, 1, 1, 1, 1)

    def test_bytes_accounted_to_source(self):
        engine, _, net = make_net()

        def proc():
            yield from net.get(2, 1, 100)

        engine.process(proc())
        engine.run()
        assert net.stats.bytes_moved == 100
