"""The core's balancer kernels against the Python bodies they replace.

``greedy_semi_matching``, one sweep of ``weighted_semi_matching`` and
``lpt`` each run a kernel of the compiled core whenever the engine mode
selects one, and their Python bodies otherwise. The bodies are the
reference: every test here runs a call under ``REPRO_ENGINE=python`` and
under ``compiled`` in one process and wants the same assignment, bit for
bit (the pattern of ``TestCompiledFmPass`` in ``test_partition.py``).
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.balance import (
    build_eligibility,
    capacity_lpt,
    greedy_semi_matching,
    locality_greedy,
    lpt,
    optimal_semi_matching,
    semi_matching_balancer,
    weighted_semi_matching,
)
from repro.balance.semi_matching import Eligibility
from repro.chemistry.tasks import synthetic_task_graph
from repro.runtime.garrays import BlockDistribution
from repro.simulate import sched
from repro.util import ConfigurationError
from tests.balance.test_partition import at, engine_mode, requires_core

REFERENCE = pathlib.Path(__file__).parents[2] / "bench" / "reference.json"

#: Few distinct values, so equal costs and exact load ties decide; zeros of
#: both signs and negative costs are legal and must tie as the reference ties.
tied_cost = st.sampled_from([0.0, -0.0, 1e-13, 0.5, 1.0, 1.0, 2.0, 3.0, 0.1, 0.2, -1.0])


@st.composite
def instances(draw, max_tasks=40):
    """(costs, rows, n_ranks): rows unsorted, with repeats and single ranks."""
    n_ranks = draw(st.integers(1, 6))
    n_tasks = draw(st.integers(0, max_tasks))
    costs = np.array(draw(st.lists(tied_cost, min_size=n_tasks, max_size=n_tasks)))
    row = st.lists(st.integers(0, n_ranks - 1), min_size=1, max_size=5)
    rows = draw(st.lists(row, min_size=n_tasks, max_size=n_tasks))
    return costs, rows, n_ranks


def in_both_modes(solve, *args):
    """``solve(*args)`` under each engine mode; the compiled answer, after
    asserting it is the reference's to the byte."""
    with engine_mode("python"):
        expected = solve(*args)
    with engine_mode("compiled"):
        got = solve(*args)
    assert got.dtype == expected.dtype == np.int64
    assert got.tobytes() == expected.tobytes()
    return got


def digest(assignment):
    """``bench/harness.py``'s digest of an assignment."""
    return hashlib.sha256(np.ascontiguousarray(assignment, dtype=np.int64).tobytes()).hexdigest()[:32]


@requires_core
class TestKernelsMatchReference:
    @given(instances())
    @settings(max_examples=200, deadline=None)
    def test_greedy(self, instance):
        costs, rows, n_ranks = instance
        in_both_modes(greedy_semi_matching, costs, rows, n_ranks)

    @given(instances(), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_weighted(self, instance, sweeps):
        costs, rows, n_ranks = instance
        got = in_both_modes(weighted_semi_matching, costs, rows, n_ranks, sweeps)
        assert all(rank in row for rank, row in zip(got.tolist(), rows))

    @given(st.lists(tied_cost, max_size=80), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_lpt(self, costs, n_ranks):
        in_both_modes(lpt, np.array(costs), n_ranks)

    def test_zero_tasks_and_one_rank(self):
        none = np.zeros(0)
        assert in_both_modes(lpt, none, 3).shape == (0,)
        assert in_both_modes(greedy_semi_matching, none, [], 2).shape == (0,)
        assert in_both_modes(weighted_semi_matching, none, [], 2).shape == (0,)
        costs = np.array([3.0, 1.0, 2.0])
        assert in_both_modes(lpt, costs, 1).tolist() == [0, 0, 0]
        assert in_both_modes(weighted_semi_matching, costs, [[0]] * 3, 1).tolist() == [0, 0, 0]

    def test_tail_is_tested_again_after_a_move(self):
        # Rank 0 holds tasks 5, 0, 3, 4 after greedy; task 5 moves first, and
        # at the new loads task 0 has to stay (test_semi_matching.py spells
        # out the loads).
        costs = np.array([3.0, 1.0, 5.0, 2.0, 1.0, 5.0])
        rows = [[0, 1], [0, 1, 2], [1, 2], [0], [0], [0, 1, 2]]
        for sweeps in (1, 4):
            got = in_both_modes(weighted_semi_matching, costs, rows, 3, sweeps)
            assert got.tolist() == [0, 2, 1, 0, 0, 2]

    def test_a_moved_in_task_comes_after_an_equal_cost_resident(self):
        # Greedy: [0, 2, 0, 1, 0], loads [6, 2, 1]. Rank 0 sends task 0 to
        # rank 1, which then holds task 3 and task 0, both of cost 2. Task 3
        # arrived first, so it is tested first and moves to rank 2; task 0
        # then has nowhere to go. Ordered by tid, task 0 would go instead.
        costs = np.array([2.0, 1.0, 2.0, 2.0, 2.0])
        rows = [[0, 1, 2], [2], [0], [1, 2], [0]]
        assert greedy_semi_matching(costs, rows, 3).tolist() == [0, 2, 0, 1, 0]
        got = in_both_modes(weighted_semi_matching, costs, rows, 3, 1)
        assert got.tolist() == [1, 2, 0, 2, 0]

    def test_arrival_order_is_carried_across_sweeps(self):
        # A task moved in one sweep still sorts after the equal-cost tasks
        # its new rank already held when that rank is visited in the next;
        # re-deriving the order from tids at each sweep gives
        # [3, 4, 2, 0, 4, 1, 3, 0, 2] at sweeps=2.
        costs = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 2.0, 1.0, 2.0])
        rows = [[3], [0, 2, 4], [2, 4], [0, 3], [0, 4], [0, 1, 2], [3], [0, 2, 4], [2, 3]]
        assert in_both_modes(weighted_semi_matching, costs, rows, 5, 1).tolist() == [
            3, 0, 2, 3, 4, 1, 3, 0, 2,
        ]
        for sweeps in (2, 4):
            got = in_both_modes(weighted_semi_matching, costs, rows, 5, sweeps)
            assert got.tolist() == [3, 0, 2, 0, 4, 1, 3, 4, 2]

    def test_a_task_that_moves_on_leaves_its_last_rank_for_good(self):
        # Greedy: [4, 0, 0, 3, 1, 3], visits 0, 4, 3, 1, 2. Task 1 moves
        # 0 -> 4, task 0 moves 4 -> 3 and then 3 -> 2, task 3 moves 3 -> 1,
        # and at rank 1's visit task 4 moves 1 -> 3. Task 0 was the last to
        # arrive at rank 3 and has moved on: a list of rank 3's arrivals
        # kept past its visit would link task 4 behind task 0 on rank 2, and
        # rank 2's visit would move task 4 off rank 3.
        costs = np.array([5.0, 10.0, 10.0, 2.5, 1.0, 1.5])
        rows = [[4, 3, 2], [0, 4], [0], [3, 1], [1, 3], [3]]
        assert greedy_semi_matching(costs, rows, 5).tolist() == [4, 0, 0, 3, 1, 3]
        for sweeps in (1, 2, 4):
            got = in_both_modes(weighted_semi_matching, costs, rows, 5, sweeps)
            assert got.tolist() == [2, 4, 0, 1, 3, 3]

    def test_greedy_takes_the_first_least_loaded_rank_in_row_order(self):
        # All loads tie at first: the row's first entry wins, sorted or not,
        # and a repeated rank changes nothing.
        rows = [[2, 0, 1], [1, 1, 0], [0, 2], [2, 2]]
        got = in_both_modes(greedy_semi_matching, np.ones(4), rows, 3)
        assert got.tolist() == [2, 1, 0, 2]

    def test_lpt_load_ties_go_to_the_lower_rank(self):
        # Tasks 0 and 3 (cost 2) fill ranks 0 and 1; at loads (2, 2) the
        # next task goes to rank 0, and at (3, 3) both zero-cost tasks do,
        # since adding a zero of either sign leaves the tie as it was.
        costs = np.array([2.0, 1.0, 1.0, 2.0, 0.0, -0.0])
        assert in_both_modes(lpt, costs, 2).tolist() == [0, 0, 1, 1, 0, 0]
        assert in_both_modes(lpt, np.ones(5), 3).tolist() == [0, 1, 2, 0, 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_bench_cases_identical_across_modes(self, seed):
        # The balance_matching workload's solves, called below
        # semi_matching_balancer: its artifact memo would hand the second
        # mode the first mode's answer.
        graphs = {
            "water": api.ScfProblem.build(
                api.water_cluster(3, seed=seed), block_size=2, tau=1.0e-10
            ).graph,
            "synthetic": synthetic_task_graph(20000, 48, seed=seed, skew=1.3),
        }
        pins = json.loads(REFERENCE.read_text())["balance_matching"]
        for gname, graph in graphs.items():
            for n_ranks in (64, 256):
                dist = BlockDistribution(graph.blocks.n_blocks, n_ranks)
                rows = build_eligibility(graph, n_ranks, dist, 2, 0)
                semi = in_both_modes(weighted_semi_matching, graph.costs, rows, n_ranks, 4)
                plain = in_both_modes(lpt, graph.costs, n_ranks)
                if seed == 0:
                    case = f"{gname}@{n_ranks}"
                    assert digest(semi) == pins[f"semi_matching:{case}"]["assignment"]
                    assert digest(plain) == pins[f"lpt:{case}"]["assignment"]


def kernel_args(kernel):
    """Valid arguments for one of the core's balancer kernels, freshly made."""
    costs = np.array([3.0, 1.0, 5.0, 2.0, 1.0, 5.0])
    rows = Eligibility.of([[0, 1], [0, 1, 2], [1, 2], [0], [0], [0, 1, 2]], 3)
    order = np.argsort(-costs, kind="stable")
    assignment = np.zeros(costs.size, dtype=np.int64)
    if kernel == "lpt":
        return [costs, order, assignment, 3]
    if kernel == "greedy_semi_matching":
        return [costs, rows.offsets.copy(), rows.ranks.copy(), order, assignment, 3]
    greedy = np.array([0, 2, 1, 0, 0, 0])
    loads = np.bincount(greedy, weights=costs, minlength=3)
    return [
        costs, rows.offsets.copy(), rows.ranks.copy(), np.argsort(-loads), greedy, loads,
        np.arange(costs.size),
    ]


#: The arguments each kernel names, in order (the last int is ``n_ranks``).
KERNEL_FIELDS = {
    "greedy_semi_matching": ["costs", "offsets", "ranks", "order", "assignment", "n_ranks"],
    "semi_matching_sweep": [
        "costs", "offsets", "ranks", "visit", "assignment", "loads", "stamps",
    ],
    "lpt": ["costs", "order", "assignment", "n_ranks"],
}


_MALFORMED = [
    ("costs", at(1, np.nan), ValueError),
    ("costs", at(0, -np.inf), ValueError),
    ("costs", lambda a: a.reshape(2, 3), TypeError),
    ("costs", lambda a: np.repeat(a, 2)[::2], (TypeError, ValueError)),
    ("costs", lambda a: a[:-1].copy(), ValueError),
    ("offsets", at(0, 1), ValueError),
    ("offsets", at(-1, 11), ValueError),
    ("offsets", at(2, 2), ValueError),  # task 1's row is empty
    ("offsets", at(3, 1), ValueError),
    ("ranks", at(4, 3), ValueError),
    ("ranks", at(0, -1), ValueError),
    ("ranks", lambda a: a.astype(np.int32), TypeError),
    ("order", at(0, 1), ValueError),
    ("order", at(5, 6), ValueError),
    ("order", lambda a: a[:-1].copy(), ValueError),
    ("visit", at(0, 1), ValueError),
    ("visit", at(0, 3), ValueError),
    ("visit", lambda a: np.append(a, 3), ValueError),
    ("assignment", at(2, 3), ValueError, {"semi_matching_sweep"}),  # read there only
    ("assignment", lambda a: np.broadcast_to(a, a.shape), ValueError),
    ("assignment", lambda a: a.astype(np.float64), TypeError),
    ("loads", lambda a: a[:-1].copy(), ValueError),
    ("loads", lambda a: np.broadcast_to(a, a.shape), ValueError),
    ("stamps", at(3, -1), ValueError),
    ("stamps", at(3, 2**63 - 1), ValueError),
    ("stamps", at(3, 2**63 - 3), OverflowError),
    ("n_ranks", lambda n: 0, ValueError),
    ("n_ranks", lambda n: 2, ValueError, {"greedy_semi_matching"}),  # rank 2 in a row
]


def malformed_cases():
    """(kernel, field, bad, error) for every kernel that takes the field, or
    for the kernels an entry names."""
    for field, bad, error, *only in _MALFORMED:
        for kernel in only[0] if only else KERNEL_FIELDS:
            if field in KERNEL_FIELDS[kernel]:
                yield kernel, field, bad, error


@requires_core
class TestKernelContracts:
    @pytest.mark.parametrize("kernel, field, bad, error", list(malformed_cases()))
    def test_rejects_malformed_input(self, kernel, field, bad, error):
        args = kernel_args(kernel)
        i = KERNEL_FIELDS[kernel].index(field)
        args[i] = bad(args[i])
        before = [a.tobytes() for a in args if isinstance(a, np.ndarray)]
        with pytest.raises(error):
            getattr(sched._load_engine_core(), kernel)(*args)
        # Refused before anything was written.
        assert [a.tobytes() for a in args if isinstance(a, np.ndarray)] == before

    @pytest.mark.parametrize("kernel", sorted(KERNEL_FIELDS))
    def test_releases_its_buffers(self, kernel):
        core = sched._load_engine_core()
        args = kernel_args(kernel)
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        before = [sys.getrefcount(a) for a in arrays]
        getattr(core, kernel)(*args)
        assert [sys.getrefcount(a) for a in arrays] == before
        # The same after an error raised with every buffer acquired.
        args[0] = at(0, np.nan)(args[0])
        with pytest.raises(ValueError):
            getattr(core, kernel)(*args)
        assert [sys.getrefcount(a) for a in arrays][1:] == before[1:]
        for a in arrays[1:]:
            a.resize(a.size + 1, refcheck=False)  # refused while an export is held

    def test_a_sweep_reports_whether_a_task_moved(self):
        core = sched._load_engine_core()
        args = kernel_args("semi_matching_sweep")
        assert core.semi_matching_sweep(*args) is True
        assert args[4].tolist() == [0, 2, 1, 0, 0, 2]
        # The mover took the next stamp, after every one the sweep started with.
        assert args[6].tolist() == [0, 1, 2, 3, 4, 6]
        args[3] = np.argsort(-args[5])
        assert core.semi_matching_sweep(*args) is False

    def test_a_sweep_forgets_a_visited_rank_s_arrivals(self):
        # Task 1 goes 0 -> 1 -> 3 and task 5 goes 2 -> 1 after rank 1's
        # visit. Task 1 was the last to arrive at rank 1, so a list of
        # rank 1's arrivals kept past its visit would link task 5 behind
        # task 1 on rank 3, and rank 3's visit would move task 5 off rank 1.
        core = sched._load_engine_core()
        costs = np.array([10.0, 2.0, 3.0, 1.5, 3.5, 0.5, 2.5])
        rows = Eligibility.of([[0], [0, 1, 3], [1], [1, 4], [2], [2, 1], [3]], 5)
        assignment = np.array([0, 0, 1, 1, 2, 2, 3])
        loads = np.bincount(assignment, weights=costs, minlength=5)
        stamps = np.arange(costs.size)
        assert core.semi_matching_sweep(
            costs, rows.offsets, rows.ranks, np.arange(5), assignment, loads, stamps
        )
        # The reference's sweep, traced by hand.
        assert assignment.tolist() == [0, 3, 1, 4, 2, 1, 3]
        assert loads.tolist() == [10.0, 3.5, 3.5, 4.5, 1.5]
        assert stamps.tolist() == [0, 8, 2, 9, 4, 10, 6]
        np.testing.assert_array_equal(
            loads, np.bincount(assignment, weights=costs, minlength=5)
        )

    def test_out_of_memory_is_a_memory_error(self):
        """Failing each allocation in turn never crashes: the kernel raises
        MemoryError and leaves its arrays as they were, or returns the
        unfailed result. Run in a child, so a crash fails this test instead
        of the test session."""
        pytest.importorskip("_testcapi")
        script = textwrap.dedent(
            """
            import gc
            import numpy as np
            import _testcapi
            from repro.balance.semi_matching import Eligibility
            from repro.simulate import sched

            core = sched._load_engine_core()
            gen = np.random.default_rng(3)
            n, n_ranks = 300, 7
            costs = gen.choice([0.0, 1.0, 2.0, 3.5], n)
            rows = Eligibility.of(
                [gen.choice(n_ranks, 3).tolist() for _ in range(n)], n_ranks
            )
            order = np.argsort(-costs, kind="stable")
            greedy = np.empty(n, dtype=np.int64)
            core.greedy_semi_matching(costs, rows.offsets, rows.ranks, order, greedy, n_ranks)
            loads = np.bincount(greedy, weights=costs, minlength=n_ranks)

            def fresh(kernel):
                if kernel == "lpt":
                    return (costs, order, np.zeros(n, dtype=np.int64), n_ranks)
                if kernel == "greedy_semi_matching":
                    return (costs, rows.offsets, rows.ranks, order,
                            np.zeros(n, dtype=np.int64), n_ranks)
                return (costs, rows.offsets, rows.ranks, np.argsort(-loads),
                        greedy.copy(), loads.copy(), np.arange(n))

            def state(result, args):
                return result, [a.tobytes() for a in args if isinstance(a, np.ndarray)]

            gc.disable()
            for kernel, least in (("lpt", 2), ("greedy_semi_matching", 2),
                                  ("semi_matching_sweep", 7)):
                args = fresh(kernel)
                expected = state(getattr(core, kernel)(*args), args)
                untouched = state(None, fresh(kernel))
                failed = 0
                for k in range(200):
                    args = fresh(kernel)
                    _testcapi.set_nomemory(k, k + 1)
                    try:
                        result = getattr(core, kernel)(*args)
                    except MemoryError:
                        failed += 1
                        assert state(None, args) == untouched, (kernel, k)
                        continue
                    finally:
                        _testcapi.remove_mem_hooks()
                    assert state(result, args) == expected, (kernel, k)
                assert failed >= least, (kernel, failed)
            print("ok")
            """
        )
        env = dict(os.environ, REPRO_ENGINE="compiled", REPRO_ENGINE_REQUIRE="1")
        src = os.path.dirname(os.path.dirname(os.path.dirname(sched.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.startswith("ok")

    def test_compiled_solvers_never_build_the_row_lists(self, synthetic_graph):
        dist = BlockDistribution(synthetic_graph.blocks.n_blocks, 8)
        rows = build_eligibility(synthetic_graph, 8, dist, 2)
        with engine_mode("compiled"):
            weighted_semi_matching(synthetic_graph.costs, rows, 8)
        assert "rows" not in vars(rows) and len(rows) == synthetic_graph.n_tasks
        assert rows[3] == rows.ranks[rows.offsets[3] : rows.offsets[4]].tolist()


MODES = [
    "python",
    pytest.param("compiled", marks=requires_core),
]


@pytest.mark.parametrize("mode", MODES)
class TestEntryPointsRefuse:
    """What the kernels take (C integers, finite 1-D costs) is checked at
    the Python entry points, so both modes refuse the same calls alike."""

    @pytest.mark.parametrize("value", [1.5, 8.0, "2", True, None])
    def test_non_integer_options(self, mode, value, synthetic_graph):
        dist = BlockDistribution(synthetic_graph.blocks.n_blocks, 8)
        costs, rows = np.ones(3), [[0], [1], [0, 1]]
        calls = [
            lambda: lpt(costs, value),
            lambda: greedy_semi_matching(costs, rows, value),
            lambda: weighted_semi_matching(costs, rows, value),
            lambda: weighted_semi_matching(costs, rows, 2, sweeps=value),
            lambda: optimal_semi_matching(rows, value),
            lambda: optimal_semi_matching(rows, 2, max_flips=value),
            lambda: build_eligibility(synthetic_graph, value, dist),
            lambda: build_eligibility(synthetic_graph, 8, dist, extra_degree=value),
            lambda: locality_greedy(synthetic_graph, value, dist),
            lambda: semi_matching_balancer(synthetic_graph, value, dist),
            lambda: semi_matching_balancer(synthetic_graph, 8, dist, sweeps=value),
            lambda: semi_matching_balancer(synthetic_graph, 8, dist, extra_degree=value),
        ]
        with engine_mode(mode):
            for i, call in enumerate(calls):
                if value is None and i == 5:
                    continue  # max_flips=None is the default cap
                with pytest.raises(ConfigurationError, match="must be an integer"):
                    call()

    def test_numpy_integers_are_integers(self, mode):
        costs, rows = np.array([3.0, 1.0, 2.0, 2.0]), [[0, 1], [1], [0, 1], [1]]
        with engine_mode(mode):
            assert lpt(costs, np.int64(2)).tolist() == lpt(costs, 2).tolist()
            np.testing.assert_array_equal(
                weighted_semi_matching(costs, rows, np.int32(2), np.int64(3)),
                weighted_semi_matching(costs, rows, 2, 3),
            )
            np.testing.assert_array_equal(
                optimal_semi_matching(rows, np.int64(2), max_flips=np.int64(9)),
                optimal_semi_matching(rows, 2),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_costs(self, mode, bad):
        costs, rows = np.array([1.0, bad, 2.0]), [[0], [0, 1], [1]]
        calls = [
            lambda: lpt(costs, 2),
            lambda: greedy_semi_matching(costs, rows, 2),
            lambda: weighted_semi_matching(costs, rows, 2),
            lambda: capacity_lpt(costs, np.ones(2)),
        ]
        with engine_mode(mode), warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            for call in calls:
                with pytest.raises(ConfigurationError, match=r"costs\[1\] is .*not finite"):
                    call()

    def test_costs_that_are_not_1d(self, mode):
        costs = np.ones((2, 3))
        with engine_mode(mode):
            for call in (
                lambda: lpt(costs, 2),
                lambda: capacity_lpt(costs, np.ones(2)),
                lambda: greedy_semi_matching(costs, [[0]] * 2, 2),
                lambda: lpt(np.float64(1.0), 2),
            ):
                with pytest.raises(ConfigurationError, match="1-D"):
                    call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_capacities_positive_and_finite(self, mode, bad):
        with engine_mode(mode), pytest.raises(ConfigurationError, match="capacities"):
            capacity_lpt(np.ones(3), np.array([1.0, bad]))
