import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.balance import (
    communication_volume,
    imbalance,
    makespan_lower_bound,
    rank_loads,
)
from repro.chemistry.tasks import synthetic_task_graph
from repro.runtime.garrays import BlockDistribution
from repro.util import ConfigurationError


class TestRankLoads:
    def test_basic(self):
        loads = rank_loads(np.array([1.0, 2.0, 3.0]), np.array([0, 1, 0]), 2)
        np.testing.assert_allclose(loads, [4.0, 2.0])

    def test_empty_ranks_zero(self):
        loads = rank_loads(np.array([1.0]), np.array([0]), 4)
        np.testing.assert_allclose(loads, [1.0, 0, 0, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            rank_loads(np.array([1.0, 2.0]), np.array([0]), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            rank_loads(np.array([1.0]), np.array([5]), 2)


class TestImbalance:
    def test_perfect_balance(self):
        assert imbalance(np.ones(4), np.array([0, 1, 2, 3]), 4) == pytest.approx(1.0)

    def test_all_on_one_rank(self):
        assert imbalance(np.ones(4), np.zeros(4, dtype=int), 4) == pytest.approx(4.0)

    @given(
        st.lists(st.floats(0.1, 100.0), min_size=1, max_size=50),
        st.integers(1, 8),
        st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_at_least_one(self, costs, n_ranks, seed):
        costs = np.array(costs)
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, n_ranks, size=costs.size)
        assert imbalance(costs, assignment, n_ranks) >= 1.0 - 1e-12


class TestMakespanLowerBound:
    def test_average_binds(self):
        assert makespan_lower_bound(np.ones(8), 4) == pytest.approx(2.0)

    def test_max_task_binds(self):
        assert makespan_lower_bound(np.array([10.0, 1.0, 1.0]), 4) == 10.0

    def test_empty(self):
        assert makespan_lower_bound(np.array([]), 4) == 0.0

    @given(
        st.lists(st.floats(0.1, 100.0), min_size=1, max_size=40), st.integers(1, 8)
    )
    @settings(max_examples=40, deadline=None)
    def test_no_schedule_can_beat_it(self, costs, n_ranks):
        costs = np.array(costs)
        lb = makespan_lower_bound(costs, n_ranks)
        from repro.balance import lpt

        loads = rank_loads(costs, lpt(costs, n_ranks), n_ranks)
        assert loads.max() >= lb - 1e-9


class TestCommunicationVolume:
    def test_local_assignment_zero_volume(self):
        graph = synthetic_task_graph(40, 4, seed=0)
        dist = BlockDistribution(4, 2)
        # Put every task on the owner of its first write ref: not zero in
        # general (other refs may be remote), but an all-on-one-rank
        # distribution with a 1-rank world is exactly zero.
        one_rank = BlockDistribution(4, 1)
        assignment = np.zeros(40, dtype=np.int64)
        assert communication_volume(graph, assignment, one_rank) == 0

    def test_volume_positive_for_remote(self):
        graph = synthetic_task_graph(40, 4, seed=0)
        dist = BlockDistribution(4, 8)
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, 8, size=40)
        assert communication_volume(graph, assignment, dist) > 0

    def test_volume_counts_block_bytes(self):
        graph = synthetic_task_graph(1, 2, seed=3, block_size=4)
        task = graph.tasks[0]
        dist = BlockDistribution(2, 2)
        # Choose the rank that owns none or some of the refs; volume must
        # equal the sum of remote refs' bytes.
        for rank in (0, 1):
            expected = sum(
                graph.block_bytes(ref)
                for ref in (*task.reads, *task.writes)
                if dist.owner(ref) != rank
            )
            got = communication_volume(graph, np.array([rank]), dist)
            assert got == expected

    def test_wrong_length_rejected(self):
        graph = synthetic_task_graph(5, 2, seed=0)
        with pytest.raises(ConfigurationError):
            communication_volume(graph, np.zeros(3, dtype=int), BlockDistribution(2, 2))

    def test_out_of_range_footprint_rejected(self, stray_ref_graph):
        assignment = np.zeros(stray_ref_graph.n_tasks, dtype=np.int64)
        with pytest.raises(ConfigurationError, match="out of range for 16 blocks"):
            communication_volume(stray_ref_graph, assignment, BlockDistribution(16, 8))
