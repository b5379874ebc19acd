"""The makespan lower bound (``repro.balance.makespan_lower_bound``)
against graphs and simulated schedules: no schedule beats it."""

import pytest

from repro.balance import makespan_lower_bound
from repro.chemistry.tasks import TaskGraph, synthetic_task_graph
from repro.exec_models import make_model
from repro.simulate import commodity_cluster


def bound_seconds(graph, machine) -> float:
    return makespan_lower_bound(graph.costs, machine.n_ranks) / machine.flops_per_second


class TestMakespanBounds:
    def test_work_bound(self):
        graph = synthetic_task_graph(100, 8, seed=0, skew=0.0, mean_cost=6.0e9)
        machine = commodity_cluster(10)
        assert bound_seconds(graph, machine) == pytest.approx(
            graph.total_flops / (10 * 6.0e9)
        )

    def test_critical_task_bound(self):
        graph = synthetic_task_graph(50, 4, seed=1, skew=2.0)
        machine = commodity_cluster(50)  # one task per rank: the largest binds
        assert bound_seconds(graph, machine) == pytest.approx(
            graph.costs.max() / 6.0e9
        )

    def test_tightest_picks_max(self):
        graph = synthetic_task_graph(4, 2, seed=0, skew=3.0)
        costs = graph.costs
        for n_ranks in (1, 2, 64):
            assert makespan_lower_bound(costs, n_ranks) == max(
                costs.sum() / n_ranks, costs.max()
            )

    def test_empty_graph(self):
        graph = TaskGraph((), synthetic_task_graph(1, 2).blocks, 0.0)
        assert bound_seconds(graph, commodity_cluster(4)) == 0.0


def efficiency(result, graph, machine) -> float:
    return bound_seconds(graph, machine) / result.makespan


class TestBoundEfficiency:
    def test_no_schedule_beats_the_bound(self):
        graph = synthetic_task_graph(300, 8, seed=2, skew=1.0)
        machine = commodity_cluster(16)
        for model_name in ("static_block", "counter_dynamic", "work_stealing"):
            result = make_model(model_name).run(graph, machine, seed=1)
            assert 0.0 < efficiency(result, graph, machine) <= 1.0

    def test_dynamic_models_closer_to_bound(self):
        graph = synthetic_task_graph(300, 8, seed=2, skew=1.2)
        machine = commodity_cluster(16)
        static = make_model("static_block").run(graph, machine, seed=1)
        dynamic = make_model("counter_dynamic").run(graph, machine, seed=1)
        assert efficiency(dynamic, graph, machine) > efficiency(static, graph, machine)
