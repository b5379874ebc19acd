import math

import numpy as np
import pytest

from repro.runtime.collectives import (
    allreduce,
    barrier,
    broadcast,
    reduce,
    _tree_children,
    _tree_parent,
)
from repro.runtime.comm import RankContext
from repro.runtime.trace import TraceRecorder
from repro.simulate import MachineSpec, commodity_cluster, hierarchical_cluster
from repro.simulate.engine import Engine
from repro.simulate.network import Network


def collective_cost(collective, machine, nbytes=0):
    """Simulated wall time of one collective on an otherwise idle machine."""
    engine = Engine()
    node_of = machine.node_of if machine.cores_per_node is not None else None
    network = Network(engine, machine.network, machine.n_ranks, node_of)
    trace = TraceRecorder(machine.n_ranks)
    for rank in range(machine.n_ranks):
        ctx = RankContext(rank, engine, network, machine, trace)
        if nbytes:
            engine.process(collective(ctx, machine.n_ranks, nbytes), name=f"coll{rank}")
        else:
            engine.process(collective(ctx, machine.n_ranks), name=f"coll{rank}")
    return engine.run()


def run_collective(n_ranks, collective, nbytes=None, record=None):
    """Run one collective on all ranks; returns (end_time, exit_times)."""
    engine = Engine()
    machine = MachineSpec(n_ranks=n_ranks)
    network = Network(engine, machine.network, n_ranks)
    trace = TraceRecorder(n_ranks)
    exits = {}

    def proc(rank):
        ctx = RankContext(rank, engine, network, machine, trace)
        if nbytes is None:
            yield from collective(ctx, n_ranks)
        else:
            yield from collective(ctx, n_ranks, nbytes)
        exits[rank] = engine.now
        if record is not None:
            record(rank, engine.now)

    for rank in range(n_ranks):
        engine.process(proc(rank), name=f"c{rank}")
    end = engine.run()
    return end, exits


class TestTreeStructure:
    @pytest.mark.parametrize("n_ranks", [2, 3, 5, 8, 13, 16])
    def test_tree_is_a_spanning_tree(self, n_ranks):
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for child in _tree_children(node, n_ranks):
                assert child not in seen
                seen.add(child)
                frontier.append(child)
        assert seen == set(range(n_ranks))

    @pytest.mark.parametrize("rank", [1, 2, 3, 6, 7, 12])
    def test_parent_child_inverse(self, rank):
        parent = _tree_parent(rank)
        assert rank in _tree_children(parent, 16)


class TestBarrier:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 7, 16])
    def test_completes_for_any_world_size(self, n_ranks):
        end, exits = run_collective(n_ranks, barrier)
        assert len(exits) == n_ranks

    def test_no_rank_exits_before_all_enter(self):
        """The barrier property: a late rank holds everyone."""
        n_ranks = 8
        engine = Engine()
        machine = MachineSpec(n_ranks=n_ranks)
        network = Network(engine, machine.network, n_ranks)
        trace = TraceRecorder(n_ranks)
        exits = {}
        delay = 5.0e-3

        def proc(rank):
            ctx = RankContext(rank, engine, network, machine, trace)
            if rank == 3:
                yield from ctx.sleep(delay)
            yield from barrier(ctx, n_ranks)
            exits[rank] = engine.now

        for rank in range(n_ranks):
            engine.process(proc(rank), name=f"b{rank}")
        engine.run()
        assert min(exits.values()) >= delay

    def test_log_depth_cost(self):
        cost_8 = collective_cost(barrier, commodity_cluster(8))
        cost_64 = collective_cost(barrier, commodity_cluster(64))
        # Dissemination: cost ~ log2(P); 64 ranks is 2x the rounds of 8.
        assert cost_64 < 3.0 * cost_8

    def test_epochs_do_not_collide(self):
        """Two back-to-back barriers with distinct epochs complete."""
        n_ranks = 4
        engine = Engine()
        machine = MachineSpec(n_ranks=n_ranks)
        network = Network(engine, machine.network, n_ranks)
        trace = TraceRecorder(n_ranks)

        def proc(rank):
            ctx = RankContext(rank, engine, network, machine, trace)
            yield from barrier(ctx, n_ranks, epoch=0)
            yield from barrier(ctx, n_ranks, epoch=1)

        for rank in range(n_ranks):
            engine.process(proc(rank), name=f"e{rank}")
        engine.run()  # deadlock would raise


class TestReduceBroadcast:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 5, 8, 16])
    def test_reduce_completes(self, n_ranks):
        end, exits = run_collective(n_ranks, reduce, nbytes=1024)
        assert len(exits) == n_ranks

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 5, 8, 16])
    def test_broadcast_completes(self, n_ranks):
        end, exits = run_collective(n_ranks, broadcast, nbytes=1024)
        assert len(exits) == n_ranks

    def test_broadcast_root_exits_first(self):
        _, exits = run_collective(8, broadcast, nbytes=1024)
        assert exits[0] <= min(exits[r] for r in range(1, 8))

    def test_reduce_root_exits_last_among_tree(self):
        _, exits = run_collective(8, reduce, nbytes=1024)
        assert exits[0] == max(exits.values())

    def test_payload_size_increases_cost(self):
        small = collective_cost(reduce, commodity_cluster(16), nbytes=64)
        large = collective_cost(reduce, commodity_cluster(16), nbytes=1 << 20)
        assert large > small * 2


class TestAllreduce:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 6, 16])
    def test_completes(self, n_ranks):
        end, exits = run_collective(n_ranks, allreduce, nbytes=4096)
        assert len(exits) == n_ranks

    def test_costs_about_reduce_plus_broadcast(self):
        machine = commodity_cluster(16)
        c_all = collective_cost(allreduce, machine, nbytes=4096)
        c_red = collective_cost(reduce, machine, nbytes=4096)
        c_bc = collective_cost(broadcast, machine, nbytes=4096)
        assert c_all <= (c_red + c_bc) * 1.2
        assert c_all >= max(c_red, c_bc)

    def test_hierarchical_machine_cheaper(self):
        flat = collective_cost(allreduce, commodity_cluster(64), nbytes=4096)
        smp = collective_cost(allreduce, hierarchical_cluster(4, 16), nbytes=4096)
        assert smp < flat
