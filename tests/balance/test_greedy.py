import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.balance import capacity_lpt, locality_greedy, lpt, lpt_balancer, rank_loads
from repro.chemistry.tasks import synthetic_task_graph
from repro.runtime.garrays import BlockDistribution
from repro.util import ConfigurationError

cost_lists = st.lists(st.floats(0.01, 1000.0), min_size=1, max_size=60)


class TestLpt:
    def test_trivial(self):
        a = lpt(np.array([3.0, 2.0, 1.0]), 3)
        assert sorted(a.tolist()) == [0, 1, 2]

    def test_classic_instance(self):
        # Costs 7,6,5,4 on 2 ranks: LPT gives {7,4} and {6,5} -> max 11.
        loads = rank_loads(np.array([7.0, 6.0, 5.0, 4.0]), lpt(np.array([7.0, 6.0, 5.0, 4.0]), 2), 2)
        assert loads.max() == pytest.approx(11.0)

    @given(cost_lists, st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_graham_bound(self, costs, n_ranks):
        """List scheduling guarantee: makespan <= avg + max."""
        costs = np.array(costs)
        loads = rank_loads(costs, lpt(costs, n_ranks), n_ranks)
        assert loads.max() <= costs.sum() / n_ranks + costs.max() + 1e-9

    @given(cost_lists, st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_every_task_assigned(self, costs, n_ranks):
        costs = np.array(costs)
        a = lpt(costs, n_ranks)
        assert a.shape == costs.shape
        assert a.min() >= 0 and a.max() < n_ranks

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ValueError):
            lpt(np.ones(3), 0)


class TestCapacityLpt:
    def test_homogeneous_matches_lpt_quality(self):
        costs = np.exp(np.random.default_rng(0).normal(size=100))
        uniform = capacity_lpt(costs, np.ones(4))
        classic = lpt(costs, 4)
        max_u = rank_loads(costs, uniform, 4).max()
        max_c = rank_loads(costs, classic, 4).max()
        assert max_u == pytest.approx(max_c, rel=0.05)

    def test_fast_rank_gets_more_work(self):
        costs = np.ones(100)
        capacities = np.array([1.0, 3.0])
        a = capacity_lpt(costs, capacities)
        loads = rank_loads(costs, a, 2)
        assert loads[1] > 2.0 * loads[0]

    def test_completion_times_balanced(self):
        rng = np.random.default_rng(1)
        costs = np.exp(rng.normal(size=200))
        capacities = np.array([0.5, 1.0, 2.0, 4.0])
        a = capacity_lpt(costs, capacities)
        finish = rank_loads(costs, a, 4) / capacities
        assert finish.max() / finish.mean() < 1.15

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            capacity_lpt(np.ones(3), np.array([1.0, 0.0]))

    def test_empty_capacities_rejected(self):
        with pytest.raises(ConfigurationError):
            capacity_lpt(np.ones(3), np.array([]))


class TestLocalityGreedy:
    def test_assignment_valid(self, synthetic_graph):
        dist = BlockDistribution(synthetic_graph.blocks.n_blocks, 8)
        a = locality_greedy(synthetic_graph, 8, dist)
        assert a.shape == (synthetic_graph.n_tasks,)
        assert a.min() >= 0 and a.max() < 8

    def test_prefers_owners(self):
        graph = synthetic_task_graph(200, 8, seed=0, skew=0.2)
        dist = BlockDistribution(8, 8)
        a = locality_greedy(graph, 8, dist, slack=10.0)  # huge slack: pure locality
        for task in graph.tasks[:50]:
            owners = {dist.owner(ref) for ref in (*task.reads, *task.writes)}
            assert a[task.tid] in owners

    def test_slack_limits_overload(self):
        graph = synthetic_task_graph(400, 4, seed=0, skew=0.5)
        dist = BlockDistribution(4, 16)
        a = locality_greedy(graph, 16, dist, slack=0.1)
        loads = rank_loads(graph.costs, a, 16)
        assert loads.max() / loads.mean() < 1.6

    def test_lower_comm_than_lpt(self):
        from repro.balance import communication_volume

        graph = synthetic_task_graph(500, 16, seed=2, skew=0.5)
        dist = BlockDistribution(16, 16)
        local = communication_volume(graph, locality_greedy(graph, 16, dist), dist)
        plain = communication_volume(graph, lpt(graph.costs, 16), dist)
        assert local < plain

    def test_out_of_range_footprint_rejected(self, stray_ref_graph):
        dist = BlockDistribution(16, 8)
        with pytest.raises(ConfigurationError, match="out of range for 16 blocks"):
            locality_greedy(stray_ref_graph, 8, dist)

    def test_none_distribution_falls_back_to_lpt(self, synthetic_graph):
        a = locality_greedy(synthetic_graph, 8, None)
        np.testing.assert_array_equal(a, lpt(synthetic_graph.costs, 8))


class TestLptBalancer:
    def test_signature_wrapper(self, synthetic_graph):
        a = lpt_balancer(synthetic_graph, 8, None)
        np.testing.assert_array_equal(a, lpt(synthetic_graph.costs, 8))
