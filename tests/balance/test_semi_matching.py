from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.balance import (
    build_eligibility,
    greedy_semi_matching,
    optimal_semi_matching,
    rank_loads,
    semi_matching_balancer,
    weighted_semi_matching,
)
from repro.balance.semi_matching import Eligibility, _draw_extras
from repro.chemistry.tasks import synthetic_task_graph
from repro.runtime.garrays import BlockDistribution
from repro.util import ConfigurationError, spawn_rng


def random_eligibility(n_tasks, n_ranks, seed, max_degree=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_tasks):
        degree = int(rng.integers(1, max_degree + 1))
        out.append(sorted(rng.choice(n_ranks, size=min(degree, n_ranks), replace=False).tolist()))
    return out


def reference_build_eligibility(graph, n_ranks, distribution, extra_degree, seed):
    """The per-task loop build_eligibility replaced: one choice() per task."""
    rng = spawn_rng(seed, "eligibility", n_ranks)
    out = []
    for task in graph.tasks:
        owners = {distribution.owner(ref) for ref in (*task.reads, *task.writes)}
        if extra_degree:
            extras = rng.choice(n_ranks, size=min(extra_degree, n_ranks), replace=False)
            owners.update(int(r) for r in extras)
        out.append(sorted(owners))
    return out


def reference_weighted_semi_matching(costs, eligibility, n_ranks, sweeps=4):
    """The scalar refinement sweep weighted_semi_matching replaced, verbatim."""
    costs = np.asarray(costs, dtype=np.float64)
    assignment = greedy_semi_matching(costs, eligibility, n_ranks)
    loads = np.bincount(assignment, weights=costs, minlength=n_ranks).tolist()
    costs_l = costs.tolist()
    tasks_on = [[] for _ in range(n_ranks)]
    for tid, rank in enumerate(assignment):
        tasks_on[rank].append(tid)
    for _ in range(sweeps):
        moved = False
        for rank in np.argsort(-np.array(loads)).tolist():
            for tid in sorted(tasks_on[rank], key=lambda t: -costs_l[t]):
                best_dst = None
                load_r = loads[rank]
                best_peak = load_r
                c = costs_l[tid]
                for dst in eligibility[tid]:
                    if dst == rank:
                        continue
                    peak = max(load_r - c, loads[dst] + c)
                    if peak < best_peak - 1e-12:
                        best_peak = peak
                        best_dst = dst
                if best_dst is not None:
                    tasks_on[rank].remove(tid)
                    tasks_on[best_dst].append(tid)
                    loads[rank] = load_r - c
                    loads[best_dst] += c
                    assignment[tid] = best_dst
                    moved = True
        if not moved:
            break
    return assignment


class TestDrawExtras:
    """Pins Generator.choice's draw layout, which _draw_extras reproduces."""

    @pytest.mark.parametrize(
        "n, k",
        [(1, 1), (2, 2), (3, 2), (5, 5), (64, 2), (256, 3), (4096, 8), (20_000, 2)]
        # past 10 000 with k > n // 50 choice() permutes instead: drawn per row
        + [(10_001, 201), (20_000, 401)],
    )
    def test_equals_successive_choice_calls_and_generator_state(self, n, k):
        m = 7 if n > 10_000 and k > n // 50 else 300
        for seed in (0, 1, 2):
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            ref = np.array([ref_rng.choice(n, size=k, replace=False) for _ in range(m)])
            got = _draw_extras(rng, m, n, k)
            np.testing.assert_array_equal(got, ref.reshape(m, k))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_no_extras_and_no_tasks_draw_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert _draw_extras(rng, 5, 8, 0).shape == (5, 0)
        assert _draw_extras(rng, 0, 8, 2).shape == (0, 2)
        assert rng.bit_generator.state == before


class TestEligibility:
    def test_answers_like_the_list_of_lists(self):
        lists = [[0, 2], [1], [0, 1, 2]]
        elig = Eligibility.of(lists, 3)
        assert len(elig) == 3 and list(elig) == lists and elig[2] == [0, 1, 2]
        assert elig == lists and elig == Eligibility.of(lists, 3)
        assert elig.offsets.tolist() == [0, 2, 3, 6]
        assert elig.ranks.tolist() == [0, 2, 1, 0, 1, 2]
        assert Eligibility.of(elig, 3) is elig

    def test_rechecked_against_another_rank_count(self):
        elig = Eligibility.of([[0, 2], [1]], 3)
        with pytest.raises(ConfigurationError, match=r"task 0 .* rank 2 outside \[0, 2\)"):
            Eligibility.of(elig, 2)

    def test_first_offending_task_is_named(self):
        with pytest.raises(ConfigurationError, match="task 1 has an empty"):
            Eligibility.of([[0], [], [9], []], 2)
        with pytest.raises(ConfigurationError, match=r"task 1 .* rank -1 outside \[0, 2\)"):
            Eligibility.of([[0], [1, -1, 5], [], [9]], 2)


class TestBuildEligibility:
    @pytest.mark.parametrize("n_ranks, extra_degree", [(8, 0), (8, 2), (3, 5), (64, 3)])
    def test_equals_per_task_loop(self, synthetic_graph, n_ranks, extra_degree):
        dist = BlockDistribution(synthetic_graph.blocks.n_blocks, n_ranks, "cyclic")
        got = build_eligibility(synthetic_graph, n_ranks, dist, extra_degree, seed=4)
        assert got == reference_build_eligibility(
            synthetic_graph, n_ranks, dist, extra_degree, 4
        )

    def test_out_of_range_footprint_rejected(self, stray_ref_graph):
        dist = BlockDistribution(16, 8)
        with pytest.raises(ConfigurationError, match="out of range for 16 blocks"):
            build_eligibility(stray_ref_graph, 8, dist)

    @pytest.mark.parametrize("seed", range(6))
    def test_distribution_over_more_ranks_rejected(self, seed):
        # Unchecked, owner 8 of task t packs to the key of rank 0 of task t + 1.
        graph = synthetic_task_graph(200, 12, seed=seed)
        stray = r"task \d+ eligible for rank 8 outside \[0, 8\)$"
        with pytest.raises(ConfigurationError, match=stray):
            build_eligibility(graph, 8, BlockDistribution(12, 9))

    def test_owners_included(self, synthetic_graph):
        dist = BlockDistribution(synthetic_graph.blocks.n_blocks, 8)
        elig = build_eligibility(synthetic_graph, 8, dist, extra_degree=0)
        for task in synthetic_graph.tasks[:40]:
            owners = {dist.owner(ref) for ref in (*task.reads, *task.writes)}
            assert owners == set(elig[task.tid])

    def test_extra_degree_adds_ranks(self, synthetic_graph):
        dist = BlockDistribution(synthetic_graph.blocks.n_blocks, 32)
        base = build_eligibility(synthetic_graph, 32, dist, extra_degree=0)
        extra = build_eligibility(synthetic_graph, 32, dist, extra_degree=3)
        assert sum(map(len, extra)) > sum(map(len, base))

    def test_deterministic(self, synthetic_graph):
        dist = BlockDistribution(synthetic_graph.blocks.n_blocks, 8)
        a = build_eligibility(synthetic_graph, 8, dist, extra_degree=2, seed=5)
        b = build_eligibility(synthetic_graph, 8, dist, extra_degree=2, seed=5)
        assert a == b

    def test_negative_extra_rejected(self, synthetic_graph):
        dist = BlockDistribution(synthetic_graph.blocks.n_blocks, 8)
        with pytest.raises(ConfigurationError):
            build_eligibility(synthetic_graph, 8, dist, extra_degree=-1)


class TestGreedySemiMatching:
    def test_respects_eligibility(self):
        elig = random_eligibility(50, 6, seed=0)
        a = greedy_semi_matching(np.ones(50), elig, 6)
        for tid, rank in enumerate(a):
            assert rank in elig[tid]

    def test_single_rank_eligibility_forced(self):
        elig = [[2]] * 10
        a = greedy_semi_matching(np.ones(10), elig, 4)
        assert set(a) == {2}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            greedy_semi_matching(np.ones(3), [[0]] * 2, 2)

    def test_empty_eligibility_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            greedy_semi_matching(np.ones(1), [[]], 2)

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(ConfigurationError):
            greedy_semi_matching(np.ones(1), [[7]], 2)


class TestOptimalSemiMatching:
    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_max_load(self, seed):
        rng = np.random.default_rng(seed)
        n_tasks = int(rng.integers(3, 9))
        n_ranks = int(rng.integers(2, 5))
        elig = random_eligibility(n_tasks, n_ranks, seed + 1)
        opt = optimal_semi_matching(elig, n_ranks)
        got = np.bincount(opt, minlength=n_ranks).max()
        best = min(
            np.bincount(list(choice), minlength=n_ranks).max()
            for choice in product(*[tuple(e) for e in elig])
        )
        assert got == best

    def test_never_worse_than_greedy(self):
        for seed in range(10):
            elig = random_eligibility(60, 8, seed)
            greedy = greedy_semi_matching(np.ones(60), elig, 8)
            opt = optimal_semi_matching(elig, 8)
            assert (
                np.bincount(opt, minlength=8).max()
                <= np.bincount(greedy, minlength=8).max()
            )

    def test_respects_eligibility(self):
        elig = random_eligibility(40, 6, seed=3)
        a = optimal_semi_matching(elig, 6)
        for tid, rank in enumerate(a):
            assert rank in elig[tid]

    def test_complete_bipartite_perfectly_balanced(self):
        elig = [list(range(4))] * 12
        a = optimal_semi_matching(elig, 4)
        assert np.bincount(a, minlength=4).tolist() == [3, 3, 3, 3]


class TestWeightedSemiMatching:
    def test_never_worse_than_greedy(self):
        rng = np.random.default_rng(0)
        for seed in range(6):
            elig = random_eligibility(80, 8, seed)
            costs = np.exp(rng.normal(size=80))
            g = greedy_semi_matching(costs, elig, 8)
            w = weighted_semi_matching(costs, elig, 8)
            assert (
                rank_loads(costs, w, 8).max() <= rank_loads(costs, g, 8).max() + 1e-9
            )

    def test_zero_sweeps_equals_greedy(self):
        elig = random_eligibility(40, 4, seed=1)
        costs = np.linspace(1, 5, 40)
        np.testing.assert_array_equal(
            weighted_semi_matching(costs, elig, 4, sweeps=0),
            greedy_semi_matching(costs, elig, 4),
        )

    def test_respects_eligibility(self):
        elig = random_eligibility(40, 6, seed=4)
        costs = np.linspace(1, 3, 40)
        a = weighted_semi_matching(costs, elig, 6)
        for tid, rank in enumerate(a):
            assert rank in elig[tid]

    def test_negative_sweeps_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_semi_matching(np.ones(2), [[0], [0]], 1, sweeps=-1)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_sweep(self, data):
        n_ranks = data.draw(st.integers(1, 6))
        n_tasks = data.draw(st.integers(1, 40))
        # Few distinct values, so zeros, duplicates and exact load ties are
        # common; 1e-13 makes improvements that the 1e-12 rule must ignore.
        cost = st.sampled_from([0.0, 1e-13, 1.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 7.5])
        costs = np.array(data.draw(st.lists(cost, min_size=n_tasks, max_size=n_tasks)))
        ranks = st.lists(st.integers(0, n_ranks - 1), min_size=1, max_size=4, unique=True)
        lists = data.draw(st.lists(ranks, min_size=n_tasks, max_size=n_tasks))
        sweeps = data.draw(st.integers(0, 4))
        expected = reference_weighted_semi_matching(costs, lists, n_ranks, sweeps)
        got = weighted_semi_matching(costs, lists, n_ranks, sweeps)
        np.testing.assert_array_equal(got, expected)
        csr = Eligibility.of(lists, n_ranks)
        np.testing.assert_array_equal(
            weighted_semi_matching(costs, csr, n_ranks, sweeps), expected
        )

    def test_tail_is_tested_again_after_a_move_on_the_same_rank(self):
        # Greedy loads are [11, 5, 1] with tasks 5, 0, 3, 4 (by cost) on rank
        # 0. At those loads both task 5 and task 0 could move, but once task 5
        # (cost 5) has gone to rank 2, rank 0 is at 6 and moving task 0 (cost
        # 3) to rank 1 would raise the pair's peak to 8: it has to stay. (With
        # non-negative costs a move can only close destinations for the tasks
        # behind it on the same rank, never open one.)
        costs = np.array([3.0, 1.0, 5.0, 2.0, 1.0, 5.0])
        lists = [[0, 1], [0, 1, 2], [1, 2], [0], [0], [0, 1, 2]]
        assert greedy_semi_matching(costs, lists, 3).tolist() == [0, 2, 1, 0, 0, 0]
        for sweeps in (1, 4):
            got = weighted_semi_matching(costs, lists, 3, sweeps)
            assert got.tolist() == [0, 2, 1, 0, 0, 2]
            np.testing.assert_array_equal(
                got, reference_weighted_semi_matching(costs, lists, 3, sweeps)
            )

    def test_a_rank_that_lost_a_task_is_rebuilt_before_its_next_visit(self):
        # Greedy loads are [8, 3, 1]. Sweep 1: rank 0 sends task 0 (cost 6) to
        # rank 2, which on its own visit sends task 2 on to rank 1: [2, 4, 6].
        # Sweep 2 visits rank 2 first. Its pair arrays from sweep 1 still
        # list task 2, and at the new loads that task "could move" once more;
        # rebuilt, rank 2 holds task 0 alone and keeps it. Rank 1 then sends
        # task 1 to rank 0, which is what sweeps=1 lacks.
        costs = np.array([6.0, 1.0, 1.0, 2.0, 2.0])
        lists = [[0, 1, 2], [0, 1], [1, 2], [0], [1]]
        assert greedy_semi_matching(costs, lists, 3).tolist() == [0, 1, 2, 0, 1]
        assert weighted_semi_matching(costs, lists, 3, sweeps=1).tolist() == [2, 1, 1, 0, 1]
        for sweeps in (2, 4):
            got = weighted_semi_matching(costs, lists, 3, sweeps)
            assert got.tolist() == [2, 0, 1, 0, 1]
            np.testing.assert_array_equal(
                got, reference_weighted_semi_matching(costs, lists, 3, sweeps)
            )

    def test_a_rank_that_gained_a_task_is_rebuilt_before_its_next_visit(self):
        # Greedy loads are [14, 4, 5, 5, 3]. Sweep 1 visits ranks 2 and 3
        # without a move (their pair arrays are kept) and ends at [7, 7, 5, 9,
        # 3]. Sweep 2 starts on rank 3, which sends task 5 (cost 3) to rank 2
        # and task 0 to rank 4: [7, 7, 8, 4, 5]. Rank 2 is visited later in the
        # same sweep and has to see task 5, which it sends back to the now
        # lighter rank 3; on its sweep-1 arrays task 5 would stay.
        costs = np.array([2.0, 5.0, 4.0, 7.0, 7.0, 3.0, 3.0])
        lists = [[1, 3, 4], [2, 4], [0, 1, 3], [0, 1, 2], [0], [0, 2, 3], [0, 3, 4]]
        assert greedy_semi_matching(costs, lists, 5).tolist() == [3, 2, 1, 0, 0, 3, 4]
        assert weighted_semi_matching(costs, lists, 5, sweeps=1).tolist() == [3, 2, 3, 1, 0, 3, 4]
        for sweeps in (2, 4):
            got = weighted_semi_matching(costs, lists, 5, sweeps)
            assert got.tolist() == [4, 2, 3, 1, 0, 3, 4]
            np.testing.assert_array_equal(
                got, reference_weighted_semi_matching(costs, lists, 5, sweeps)
            )

    def test_equals_scalar_sweep_on_a_built_eligibility(self, synthetic_graph):
        for n_ranks in (8, 32):
            dist = BlockDistribution(synthetic_graph.blocks.n_blocks, n_ranks)
            elig = build_eligibility(synthetic_graph, n_ranks, dist, extra_degree=2)
            np.testing.assert_array_equal(
                weighted_semi_matching(synthetic_graph.costs, elig, n_ranks),
                reference_weighted_semi_matching(
                    synthetic_graph.costs, list(elig), n_ranks
                ),
            )


class TestBalancerEntryPoint:
    def test_weighted_mode_quality(self, synthetic_graph):
        from repro.balance import makespan_lower_bound

        a = semi_matching_balancer(synthetic_graph, 16)
        loads = rank_loads(synthetic_graph.costs, a, 16)
        lb = makespan_lower_bound(synthetic_graph.costs, 16)
        assert loads.max() <= 1.1 * lb

    def test_all_modes_run(self, synthetic_graph):
        for mode in ("weighted", "greedy", "optimal_unit"):
            a = semi_matching_balancer(synthetic_graph, 8, mode=mode)
            assert a.shape == (synthetic_graph.n_tasks,)

    def test_unknown_mode_rejected(self, synthetic_graph):
        with pytest.raises(ConfigurationError):
            semi_matching_balancer(synthetic_graph, 8, mode="perfect")

    def test_distribution_over_more_ranks_rejected(self, synthetic_graph):
        dist = BlockDistribution(synthetic_graph.blocks.n_blocks, 9)
        for mode in ("weighted", "greedy", "optimal_unit"):
            with pytest.raises(ConfigurationError, match=r"eligible for rank 8 outside \[0, 8\)"):
                semi_matching_balancer(synthetic_graph, 8, dist, mode=mode)

    def test_default_distribution_constructed(self, synthetic_graph):
        a = semi_matching_balancer(synthetic_graph, 8, distribution=None)
        assert a.max() < 8
