"""Node topology: two-tier network costs and machine helpers."""

import pytest

from repro.simulate import MachineSpec, commodity_cluster, hierarchical_cluster
from repro.simulate.engine import Engine
from repro.simulate.network import Network, NetworkModel, SharedCell


def run_op(engine, gen):
    out = {}

    def proc():
        start = engine.now
        result = yield from gen
        out["duration"] = engine.now - start
        out["result"] = result

    engine.process(proc())
    engine.run()
    return out["duration"], out.get("result")


def make_net(cores_per_node=4, n_ranks=16):
    engine = Engine()
    machine = MachineSpec(n_ranks=n_ranks, cores_per_node=cores_per_node)
    network = Network(engine, machine.network, n_ranks, machine.node_of)
    return engine, machine.network, network


class TestMachineTopology:
    def test_node_of(self):
        spec = hierarchical_cluster(4, cores_per_node=8)
        assert spec.n_ranks == 32
        assert spec.node_of(0) == 0
        assert spec.node_of(7) == 0
        assert spec.node_of(8) == 1
        assert spec.n_nodes == 4

    def test_node_peers(self):
        spec = hierarchical_cluster(2, cores_per_node=4)
        assert list(spec.node_peers(5)) == [4, 5, 6, 7]

    def test_flat_machine_is_one_rank_per_node(self):
        spec = commodity_cluster(8)
        assert spec.cores_per_node is None
        assert spec.n_nodes == 8
        assert list(spec.node_peers(3)) == [3]

    def test_partial_last_node(self):
        spec = MachineSpec(n_ranks=10, cores_per_node=4)
        assert spec.n_nodes == 3
        assert list(spec.node_peers(9)) == [8, 9]

    def test_copies_preserve_topology(self):
        spec = hierarchical_cluster(2, 4)
        assert spec.with_ranks(16).cores_per_node == 4
        from repro.simulate import StaticHeterogeneity

        assert spec.with_variability(StaticHeterogeneity([0], 0.5)).cores_per_node == 4


class TestTwoTierNetwork:
    @staticmethod
    def _one_hop(net, a, b):
        """Whether a message from ``a`` to ``b`` takes the same-node path
        (no NIC hold) rather than the wire."""
        return net._fused_program("message", a, b, 64)[1] is None

    def test_same_node_detection(self):
        _, _, net = make_net(cores_per_node=4)
        assert self._one_hop(net, 0, 3)
        assert not self._one_hop(net, 3, 4)
        assert self._one_hop(net, 5, 5)

    def test_flat_network_everything_remote(self):
        engine = Engine()
        net = Network(engine, NetworkModel(), 8)
        assert not self._one_hop(net, 0, 1)

    def test_intra_node_get_cheaper(self):
        e1, m, n1 = make_net()
        intra, _ = run_op(e1, n1.get(0, 1, 4096))
        e2, _, n2 = make_net()
        remote, _ = run_op(e2, n2.get(0, 5, 4096))
        assert intra < remote
        expected = m.software_overhead + 2 * m.intra_latency + 4096 / m.intra_bandwidth
        assert intra == pytest.approx(expected)

    def test_intra_node_accumulate_cheaper(self):
        e1, _, n1 = make_net()
        intra, _ = run_op(e1, n1.accumulate(0, 1, 4096))
        e2, _, n2 = make_net()
        remote, _ = run_op(e2, n2.accumulate(0, 5, 4096))
        assert intra < remote

    def test_intra_node_fetch_add_cheaper_but_still_serialized(self):
        e1, m, n1 = make_net()
        intra, old = run_op(e1, n1.fetch_add(1, 0, SharedCell(0)))
        assert old == 0
        e2, _, n2 = make_net()
        remote, _ = run_op(e2, n2.fetch_add(5, 0, SharedCell(0)))
        assert intra < remote
        # Still at least the atomic service time.
        assert intra >= m.atomic_service

    def test_intra_fetch_add_contention_preserved(self):
        engine, m, net = make_net(cores_per_node=8, n_ranks=8)
        cell = SharedCell(0)
        claimed = []

        def proc(rank):
            value = yield from net.fetch_add(rank, 0, cell)
            claimed.append(value)

        for rank in range(8):
            engine.process(proc(rank))
        end = engine.run()
        assert sorted(claimed) == list(range(8))
        assert end >= 8 * m.atomic_service

    def test_intra_node_message_faster(self):
        e1, _, n1 = make_net()
        got = {}

        def recv(net, rank):
            message = yield from net.recv(rank, "t")
            got[rank] = e1.now

        def send(net, dst):
            yield from net.send(0, dst, "t")

        e1.process(recv(n1, 1))
        e1.process(send(n1, 1))
        e1.run()
        intra_time = got[1]

        e2, _, n2 = make_net()
        got2 = {}

        def recv2(rank):
            message = yield from n2.recv(rank, "t")
            got2[rank] = e2.now

        def send2(dst):
            yield from n2.send(0, dst, "t")

        e2.process(recv2(5))
        e2.process(send2(5))
        e2.run()
        assert intra_time < got2[5]
