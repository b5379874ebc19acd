"""Simulator-vs-theory checks: the network model must obey the closed-form
predictions of its own parameters. These tests anchor the simulator to
queueing theory the same way the chemistry is anchored to literature
energies."""

import numpy as np
import pytest

from repro.chemistry.tasks import synthetic_task_graph
from repro.exec_models import CounterDynamic, StaticBlock
from repro.simulate import MachineSpec, commodity_cluster
from repro.simulate.network import NetworkModel


class TestCounterSaturationLaw:
    def test_saturated_counter_throughput(self):
        """With near-zero tasks, the counter's home NIC is the system:
        makespan -> n_claims * atomic_service (the deterministic-server
        saturation law)."""
        n_tasks = 4000
        graph = synthetic_task_graph(n_tasks, 8, seed=0, skew=0.0, mean_cost=1.0)
        machine = commodity_cluster(64)
        result = CounterDynamic(chunk=1).run(graph, machine, seed=0)
        service = machine.network.atomic_service
        floor = (n_tasks + 64) * service  # useful + overflow claims
        assert result.makespan >= floor * 0.999
        # Within 25% of the pure-service floor (wire latency pipeline-
        # overlaps across ranks; per-claim client overheads are hidden
        # behind the saturated server).
        assert result.makespan <= floor * 1.25

    def test_unsaturated_counter_is_compute_bound(self):
        """With long tasks, counter service vanishes from the makespan."""
        graph = synthetic_task_graph(640, 8, seed=0, skew=0.0, mean_cost=6.0e6)
        machine = commodity_cluster(16)
        result = CounterDynamic(chunk=1).run(graph, machine, seed=0)
        compute_floor = graph.total_flops / (16 * machine.flops_per_second)
        assert result.makespan == pytest.approx(compute_floor, rel=0.10)


class TestBandwidthLaw:
    def test_large_transfers_reach_bandwidth(self):
        """One rank pulling a large block must take ~bytes/bandwidth."""
        from repro.simulate.engine import Engine
        from repro.simulate.network import Network

        engine = Engine()
        model = NetworkModel()
        network = Network(engine, model, 2)
        nbytes = 200 << 20  # 200 MiB

        def puller():
            yield from network.get(0, 1, nbytes)

        engine.process(puller())
        end = engine.run()
        assert end == pytest.approx(nbytes / model.bandwidth, rel=0.01)


class TestPerfectScalingLimit:
    def test_embarrassingly_parallel_static_efficiency(self):
        """Uniform tasks, exact multiple of P, negligible comm: static
        block must reach ~100% efficiency."""
        graph = synthetic_task_graph(64 * 10, 8, seed=0, skew=0.0, mean_cost=6.0e6)
        machine = commodity_cluster(64)
        result = StaticBlock().run(graph, machine, seed=0)
        assert result.efficiency > 0.95

    def test_makespan_never_below_work_bound(self):
        from repro.balance import makespan_lower_bound

        for seed in range(3):
            graph = synthetic_task_graph(200, 8, seed=seed, skew=1.0)
            machine = commodity_cluster(8)
            result = StaticBlock().run(graph, machine, seed=seed)
            bound = makespan_lower_bound(graph.costs, 8) / machine.flops_per_second
            assert result.makespan >= bound * 0.999
