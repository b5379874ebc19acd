import numpy as np
import pytest

from repro.chemistry.tasks import synthetic_task_graph
from repro.exec_models import StaticBlock, WorkStealing
from repro.simulate import commodity_cluster
from repro.util import ConfigurationError


class TestWorkStealingBasics:
    def test_all_tasks_execute_exactly_once(self, synthetic_graph, machine16):
        result = WorkStealing().run(synthetic_graph, machine16)
        # Harness validates exactly-once; reaching here means it held.
        assert result.n_tasks == synthetic_graph.n_tasks

    def test_beats_static_block(self, synthetic_graph, machine16):
        static = StaticBlock().run(synthetic_graph, machine16)
        stealing = WorkStealing().run(synthetic_graph, machine16)
        assert stealing.makespan < static.makespan

    def test_steals_happen(self, synthetic_graph, machine16):
        result = WorkStealing().run(synthetic_graph, machine16)
        assert result.counters["steal_successes"] > 0
        assert result.counters["tasks_stolen"] > 0

    def test_counters_consistent(self, synthetic_graph, machine16):
        result = WorkStealing().run(synthetic_graph, machine16)
        c = result.counters
        assert c["steal_attempts"] == c["steal_successes"] + c["failed_steals"]
        assert c["tasks_stolen"] >= c["steal_successes"]

    def test_improves_imbalance_of_initial_distribution(self, machine16):
        graph = synthetic_task_graph(400, 16, seed=4, skew=1.8)
        static = StaticBlock().run(graph, machine16)
        stealing = WorkStealing(initial="block").run(graph, machine16)
        assert stealing.compute_imbalance < static.compute_imbalance

    def test_single_rank_no_stealing(self, synthetic_graph):
        result = WorkStealing().run(synthetic_graph, commodity_cluster(1))
        assert result.counters["steal_attempts"] == 0

    def test_two_ranks(self, synthetic_graph):
        result = WorkStealing().run(synthetic_graph, commodity_cluster(2))
        assert result.n_tasks == synthetic_graph.n_tasks

    def test_more_ranks_than_tasks(self):
        graph = synthetic_task_graph(5, 4, seed=0)
        result = WorkStealing().run(graph, commodity_cluster(16))
        assert result.n_tasks == 5

    def test_deterministic_per_seed(self, synthetic_graph, machine16):
        a = WorkStealing().run(synthetic_graph, machine16, seed=11)
        b = WorkStealing().run(synthetic_graph, machine16, seed=11)
        assert a.makespan == b.makespan
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_seeds_change_stealing_pattern(self, synthetic_graph, machine16):
        a = WorkStealing().run(synthetic_graph, machine16, seed=1)
        b = WorkStealing().run(synthetic_graph, machine16, seed=2)
        assert not np.array_equal(a.assignment, b.assignment)


class TestConfigurations:
    def test_steal_one_moves_fewer_tasks_per_steal(self, machine16):
        graph = synthetic_task_graph(400, 16, seed=4, skew=1.5)
        half = WorkStealing(steal="half").run(graph, machine16)
        one = WorkStealing(steal="one").run(graph, machine16)
        per_steal_half = half.counters["tasks_stolen"] / half.counters["steal_successes"]
        per_steal_one = one.counters["tasks_stolen"] / one.counters["steal_successes"]
        assert per_steal_one == pytest.approx(1.0)
        assert per_steal_half > 1.0

    def test_half_cost_policy_balances_cost_not_count(self, machine16):
        """Cost-aware splitting moves fewer tasks when the tail is light."""
        from repro.chemistry.tasks import TaskGraph, TaskSpec

        base = synthetic_task_graph(400, 16, seed=7, skew=0.0)
        # Front-loaded cost: early tasks heavy, tail tasks trivial.
        tasks = [
            TaskSpec(t.tid, t.quartet, 8.0e6 if t.tid < 100 else 2.0e5, t.reads, t.writes)
            for t in base.tasks
        ]
        graph = TaskGraph(tuple(tasks), base.blocks, 0.0)
        half_cost = WorkStealing(steal="half_cost").run(graph, machine16, seed=3)
        half_count = WorkStealing(steal="half").run(graph, machine16, seed=3)
        assert half_cost.n_tasks == graph.n_tasks
        # Both valid; the cost-aware variant should not be slower by much.
        assert half_cost.makespan < half_count.makespan * 1.15

    def test_half_cost_single_task_queues(self, machine4):
        graph = synthetic_task_graph(6, 4, seed=0)
        result = WorkStealing(steal="half_cost").run(graph, machine4, seed=0)
        assert result.n_tasks == 6

    def test_ring_victim_selection_runs(self, synthetic_graph, machine16):
        result = WorkStealing(victim="ring").run(synthetic_graph, machine16)
        assert result.n_tasks == synthetic_graph.n_tasks

    def test_cyclic_initial_distribution(self, synthetic_graph, machine16):
        result = WorkStealing(initial="cyclic").run(synthetic_graph, machine16)
        assert result.n_tasks == synthetic_graph.n_tasks

    def test_explicit_initial_assignment(self, synthetic_graph, machine4):
        init = np.zeros(synthetic_graph.n_tasks, dtype=np.int64)  # all on rank 0
        result = WorkStealing(initial=init).run(synthetic_graph, machine4)
        # Other ranks must have stolen substantial work.
        assert (result.assignment != 0).sum() > synthetic_graph.n_tasks // 10

    def test_wrong_initial_shape_rejected(self, synthetic_graph, machine4):
        with pytest.raises(ConfigurationError):
            WorkStealing(initial=np.zeros(3, dtype=np.int64)).run(
                synthetic_graph, machine4
            )

    def test_initial_list_is_the_assignment_it_names(self, synthetic_graph, machine4):
        """A list of ranks is honoured like the array, not read as cyclic."""
        n = synthetic_graph.n_tasks
        from_list = WorkStealing(initial=[0] * n).run(synthetic_graph, machine4, seed=3)
        from_array = WorkStealing(initial=np.zeros(n, dtype=np.int64)).run(
            synthetic_graph, machine4, seed=3
        )
        cyclic = WorkStealing(initial="cyclic").run(synthetic_graph, machine4, seed=3)
        assert from_list.makespan == from_array.makespan
        assert from_list.counters == from_array.counters
        np.testing.assert_array_equal(from_list.assignment, from_array.assignment)
        assert from_list.counters["tasks_stolen"] > cyclic.counters["tasks_stolen"]

    def test_initial_list_of_wrong_length_rejected(self, synthetic_graph, machine4):
        with pytest.raises(ConfigurationError, match="must be"):
            WorkStealing(initial=[0, 1, 2]).run(synthetic_graph, machine4)

    def test_initial_negative_rank_rejected(self, synthetic_graph, machine4):
        initial = [0] * synthetic_graph.n_tasks
        initial[5] = -1  # would have landed on the last rank's queue
        with pytest.raises(ConfigurationError, match=r"outside \[0, 4\)"):
            WorkStealing(initial=initial).run(synthetic_graph, machine4)

    def test_initial_rank_past_the_machine_rejected(self, synthetic_graph, machine4):
        initial = np.zeros(synthetic_graph.n_tasks, dtype=np.int64)
        initial[-1] = 4
        with pytest.raises(ConfigurationError, match=r"outside \[0, 4\)"):
            WorkStealing(initial=initial).run(synthetic_graph, machine4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steal": "most"},
            {"victim": "nearest"},
            {"initial": "random"},
            {"min_backoff": 0.0},
            {"min_backoff": 2e-6, "max_backoff": 1e-6},
            {"park_after": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises((ConfigurationError, ValueError)):
            WorkStealing(**kwargs)


class TestTermination:
    def test_token_hops_recorded(self, synthetic_graph, machine16):
        result = WorkStealing().run(synthetic_graph, machine16)
        assert result.counters["token_hops"] >= 2 * 16

    def test_terminate_broadcast_messages(self, synthetic_graph, machine16):
        result = WorkStealing().run(synthetic_graph, machine16)
        # At least token hops + 15 terminate messages.
        assert result.network["messages"] >= result.counters["token_hops"] + 15

    def test_no_deadlock_with_empty_rank_queues(self, machine16):
        """All tasks initially on rank 0; 15 ranks start with nothing."""
        graph = synthetic_task_graph(50, 8, seed=0)
        init = np.zeros(50, dtype=np.int64)
        result = WorkStealing(initial=init).run(graph, machine16)
        assert result.n_tasks == 50

    def test_tiny_workload_terminates(self):
        graph = synthetic_task_graph(1, 2, seed=0)
        result = WorkStealing().run(graph, commodity_cluster(8))
        assert result.n_tasks == 1
