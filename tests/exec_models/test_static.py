import numpy as np
import pytest

from repro.chemistry.tasks import synthetic_task_graph
from repro.exec_models import StaticAssignment, StaticBlock, StaticCyclic
from repro.exec_models.static_ import block_assignment, cyclic_assignment
from repro.simulate import commodity_cluster
from repro.util import ConfigurationError, SchedulingError


class TestAssignmentHelpers:
    def test_block_contiguous(self):
        a = block_assignment(10, 3)
        assert np.all(np.diff(a) >= 0)
        assert set(a) == {0, 1, 2}

    def test_block_balanced_counts(self):
        a = block_assignment(100, 7)
        counts = np.bincount(a, minlength=7)
        assert counts.max() - counts.min() <= 1

    def test_cyclic_round_robin(self):
        a = cyclic_assignment(7, 3)
        assert a.tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_more_ranks_than_tasks(self):
        a = block_assignment(3, 10)
        assert a.max() < 10
        a = cyclic_assignment(3, 10)
        assert a.tolist() == [0, 1, 2]

    def test_empty_tasks(self):
        assert block_assignment(0, 4).size == 0


class TestStaticModels:
    def test_static_block_runs_all_tasks(self, synthetic_graph, machine16):
        result = StaticBlock().run(synthetic_graph, machine16)
        assert result.n_tasks == synthetic_graph.n_tasks
        assert result.makespan > 0

    def test_static_block_assignment_is_blocked(self, synthetic_graph, machine16):
        result = StaticBlock().run(synthetic_graph, machine16)
        np.testing.assert_array_equal(
            result.assignment, block_assignment(synthetic_graph.n_tasks, 16)
        )

    def test_static_cyclic_assignment(self, synthetic_graph, machine16):
        result = StaticCyclic().run(synthetic_graph, machine16)
        np.testing.assert_array_equal(
            result.assignment, cyclic_assignment(synthetic_graph.n_tasks, 16)
        )

    def test_cyclic_beats_block_on_correlated_costs(self, machine16):
        """Spatially correlated costs are the static-block killer."""
        graph = synthetic_task_graph(600, 16, seed=2, skew=0.0)
        # Build correlated costs: first half of task ids are 4x heavier.
        from repro.chemistry.tasks import TaskGraph, TaskSpec

        tasks = [
            TaskSpec(t.tid, t.quartet, 4.0e6 if t.tid < 300 else 1.0e6, t.reads, t.writes)
            for t in graph.tasks
        ]
        corr = TaskGraph(tuple(tasks), graph.blocks, 0.0)
        block = StaticBlock().run(corr, machine16)
        cyclic = StaticCyclic().run(corr, machine16)
        assert cyclic.makespan < block.makespan

    def test_explicit_assignment_respected(self, synthetic_graph, machine4):
        forced = np.full(synthetic_graph.n_tasks, 2, dtype=np.int64)
        result = StaticAssignment(forced, name="forced").run(synthetic_graph, machine4)
        np.testing.assert_array_equal(result.assignment, forced)
        # All compute on rank 2.
        assert result.breakdown["compute"][2] > 0
        assert result.breakdown["compute"][0] == 0

    def test_wrong_length_assignment_rejected(self, synthetic_graph, machine4):
        bad = np.zeros(synthetic_graph.n_tasks + 1, dtype=np.int64)
        with pytest.raises(SchedulingError, match="covers"):
            StaticAssignment(bad).run(synthetic_graph, machine4)

    def test_out_of_range_rank_rejected(self, synthetic_graph, machine4):
        bad = np.full(synthetic_graph.n_tasks, 99, dtype=np.int64)
        with pytest.raises(SchedulingError, match="ranks outside"):
            StaticAssignment(bad).run(synthetic_graph, machine4)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0.9, 0.2, 1.7, 1.1, 0.5, 1.99]),
            np.array([True, False, True, True, False, True]),
            np.array(["0", "1", "0", "1", "0", "1"]),
            np.array([0, 1, 0, 1, 0, 1], dtype=object),
        ],
        ids=["float", "bool", "string", "object"],
    )
    def test_non_integer_assignment_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="integer ranks"):
            StaticAssignment(bad)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
    def test_every_integer_width_accepted(self, dtype, machine4):
        graph = synthetic_task_graph(6, 4, seed=1)
        ranks = [0, 0, 1, 1, 0, 1]
        result = StaticAssignment(np.array(ranks, dtype=dtype)).run(graph, machine4)
        assert result.assignment.tolist() == ranks

    def test_single_rank(self, synthetic_graph):
        result = StaticBlock().run(synthetic_graph, commodity_cluster(1))
        assert result.compute_imbalance == pytest.approx(1.0)
        assert result.speedup <= 1.0 + 1e-9

    def test_result_breakdown_consistent(self, synthetic_graph, machine16):
        result = StaticBlock().run(synthetic_graph, machine16)
        for values in result.breakdown.values():
            assert values.shape == (16,)
            assert np.all(values >= 0)
        per_rank = sum(result.breakdown.values())
        np.testing.assert_allclose(per_rank, result.makespan, rtol=1e-9)

    def test_deterministic(self, synthetic_graph, machine16):
        a = StaticBlock().run(synthetic_graph, machine16, seed=3)
        b = StaticBlock().run(synthetic_graph, machine16, seed=3)
        assert a.makespan == b.makespan
