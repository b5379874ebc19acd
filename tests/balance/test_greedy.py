import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.balance import capacity_lpt, locality_greedy, lpt, lpt_balancer, rank_loads
from repro.balance.metrics import footprint_owners
from repro.chemistry.basis import BlockStructure
from repro.chemistry.tasks import graph_from_arrays, synthetic_task_graph
from repro.runtime.garrays import BlockDistribution
from repro.util import ConfigurationError

cost_lists = st.lists(st.floats(0.01, 1000.0), min_size=1, max_size=60)
# Few distinct values: equal costs and exact load ties, which the first-minimum
# tie-breaks must settle the same way in the heaps as in the scans.
tied_costs = st.lists(
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 0.5, 7.5]), min_size=1, max_size=80
)


def reference_lpt(costs, n_ranks):
    """The pop-then-push loop lpt's heapreplace replaced, verbatim."""
    assignment = np.empty(costs.size, dtype=np.int64)
    cost_list = costs.tolist()
    heap = [(0.0, r) for r in range(n_ranks)]
    heapq.heapify(heap)
    for tid in np.argsort(-costs, kind="stable").tolist():
        load, rank = heapq.heappop(heap)
        assignment[tid] = rank
        heapq.heappush(heap, (load + cost_list[tid], rank))
    return assignment


def reference_locality_greedy(graph, n_ranks, distribution, slack=0.15):
    """The loop locality_greedy's spill heap replaced, verbatim: a spill
    scans every rank's load for the first minimum."""
    costs = graph.costs
    ideal = float(costs.sum()) / n_ranks if costs.size else 0.0
    limit = (1.0 + slack) * ideal
    loads = [0.0] * n_ranks
    cost_list = costs.tolist()
    all_ranks = range(n_ranks)
    assignment = np.empty(graph.n_tasks, dtype=np.int64)
    owners_flat, offsets = (
        a.tolist() for a in footprint_owners(graph, distribution)
    )
    spills = 0
    for tid in np.argsort(-costs, kind="stable").tolist():
        owners = set(owners_flat[offsets[tid] : offsets[tid + 1]])
        best_owner = min(owners, key=loads.__getitem__)
        cost = cost_list[tid]
        if loads[best_owner] + cost <= limit or ideal == 0.0:
            rank = best_owner
        else:
            rank = min(all_ranks, key=loads.__getitem__)
            spills += 1
        assignment[tid] = rank
        loads[rank] += cost
    return assignment, spills


def tied_graph(costs, n_blocks, seed):
    """Uniform quartets over ``n_blocks`` blocks under the given costs."""
    quartets = np.random.default_rng(seed).integers(0, n_blocks, size=(len(costs), 4))
    blocks = BlockStructure.uniform(n_blocks * 2, 2)
    return graph_from_arrays(quartets, np.array(costs), blocks, 0.0)


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

    @given(st.one_of(cost_lists, tied_costs), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_equals_pop_then_push(self, costs, n_ranks):
        costs = np.array(costs)
        np.testing.assert_array_equal(lpt(costs, n_ranks), reference_lpt(costs, n_ranks))


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

    @given(
        st.one_of(tied_costs, cost_lists),
        st.integers(1, 4),
        st.integers(1, 40),
        st.sampled_from([0.0, 0.15, 10.0]),
        st.sampled_from(["cyclic", "row"]),
        st.integers(0, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_all_rank_scan(self, costs, n_blocks, n_ranks, slack, scheme, seed):
        """n_ranks reaches past n_blocks**2, where ownerless ranks take every spill."""
        graph = tied_graph(costs, n_blocks, seed)
        dist = BlockDistribution(n_blocks, n_ranks, scheme)
        expected, _ = reference_locality_greedy(graph, n_ranks, dist, slack)
        np.testing.assert_array_equal(locality_greedy(graph, n_ranks, dist, slack), expected)

    @pytest.mark.parametrize(
        "n_blocks, n_ranks, slack, spilled",
        [
            (2, 64, 0.0, "most"),  # 4 owners, 60 ownerless ranks
            (16, 8, 10.0, "none"),
            (16, 32, 0.0, "some"),
            (16, 256, 0.15, "some"),
        ],
    )
    def test_equals_all_rank_scan_from_never_to_nearly_always_spilling(
        self, n_blocks, n_ranks, slack, spilled
    ):
        graph = synthetic_task_graph(600, n_blocks, seed=3, skew=1.0)
        dist = BlockDistribution(n_blocks, n_ranks)
        expected, spills = reference_locality_greedy(graph, n_ranks, dist, slack)
        np.testing.assert_array_equal(locality_greedy(graph, n_ranks, dist, slack), expected)
        if spilled == "none":
            assert spills == 0
        elif spilled == "most":
            assert spills > 0.9 * graph.n_tasks
        else:
            assert 0 < spills < graph.n_tasks

    def test_every_task_spills_once_the_only_owner_is_full(self):
        # Equal costs over one block: rank 0 owns everything and reaches the
        # limit (the ideal, 3) with its third task, so the other nine spill
        # and the load ties among ranks 1-3 are settled by rank order.
        graph = tied_graph([1.0] * 12, 1, seed=0)
        dist = BlockDistribution(1, 4)
        got = locality_greedy(graph, 4, dist, slack=0.0)
        assert got.tolist() == [0, 0, 0, 1, 2, 3, 1, 2, 3, 1, 2, 3]
        np.testing.assert_array_equal(got, reference_locality_greedy(graph, 4, dist, 0.0)[0])

    def test_zero_cost_graph_never_spills(self):
        graph = tied_graph([0.0] * 10, 2, seed=1)
        dist = BlockDistribution(2, 16)
        expected, spills = reference_locality_greedy(graph, 16, dist)
        np.testing.assert_array_equal(locality_greedy(graph, 16, dist), expected)
        assert spills == 0 and expected.max() < 4

    @pytest.mark.parametrize("slack", [-2.0, -1e-9, float("nan")])
    def test_negative_or_nan_slack_rejected(self, synthetic_graph, slack):
        dist = BlockDistribution(synthetic_graph.blocks.n_blocks, 8)
        with pytest.raises(ConfigurationError, match="slack must be >= 0"):
            locality_greedy(synthetic_graph, 8, dist, slack=slack)

    def test_distribution_over_more_ranks_rejected(self):
        graph = synthetic_task_graph(200, 12, seed=0)
        stray = r"task \d+ eligible for rank 8 outside \[0, 8\)"
        with pytest.raises(ConfigurationError, match=stray):
            locality_greedy(graph, 8, BlockDistribution(12, 9))


class TestLptBalancer:
    def test_signature_wrapper(self, synthetic_graph):
        a = lpt_balancer(synthetic_graph, 8, None)
        np.testing.assert_array_equal(a, lpt(synthetic_graph.costs, 8))
