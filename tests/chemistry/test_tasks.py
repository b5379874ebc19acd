import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chemistry.basis import BlockStructure, build_basis
from repro.chemistry.molecules import linear_alkane, water_cluster
from repro.chemistry.screening import SchwarzScreen
import itertools
from dataclasses import replace

from repro.chemistry.tasks import (
    TaskGraph,
    TaskSpec,
    _task_footprint,
    build_task_graph,
    graph_from_arrays,
    synthetic_task_graph,
)
from repro.util import ConfigurationError


@pytest.fixture(scope="module")
def water_setup():
    basis = build_basis(water_cluster(2))
    blocks = BlockStructure.uniform(basis.n_basis, 4)
    screen = SchwarzScreen(basis)
    return basis, blocks, screen


class TestBuildTaskGraph:
    def test_tau_zero_enumerates_all_quartets(self, water_setup):
        basis, blocks, screen = water_setup
        graph = build_task_graph(basis, blocks, screen, tau=0.0)
        assert graph.n_tasks == blocks.n_blocks**4

    def test_screening_reduces_tasks(self):
        basis = build_basis(linear_alkane(6))
        blocks = BlockStructure.uniform(basis.n_basis, 4)
        screen = SchwarzScreen(basis)
        full = build_task_graph(basis, blocks, screen, tau=0.0)
        screened = build_task_graph(basis, blocks, screen, tau=1e-8)
        assert 0 < screened.n_tasks < full.n_tasks

    def test_task_ids_dense_and_ordered(self, water_setup):
        basis, blocks, screen = water_setup
        graph = build_task_graph(basis, blocks, screen, tau=1e-10)
        assert [t.tid for t in graph.tasks] == list(range(graph.n_tasks))

    def test_footprints_follow_quartet(self, water_setup):
        basis, blocks, screen = water_setup
        graph = build_task_graph(basis, blocks, screen, tau=1e-10)
        for task in graph.tasks[:50]:
            a, b, c, d = task.quartet
            assert set(task.reads) == {(c, d), (b, d)}
            assert set(task.writes) == {(a, b), (a, c)}

    def test_footprints_deduplicated(self):
        graph = synthetic_task_graph(200, 3, seed=0)
        for task in graph.tasks:
            assert len(task.reads) == len(set(task.reads))
            assert len(task.writes) == len(set(task.writes))

    def test_costs_positive(self, water_setup):
        basis, blocks, screen = water_setup
        graph = build_task_graph(basis, blocks, screen, tau=1e-10)
        assert np.all(graph.costs > 0)

    def test_cost_skew_grows_with_screening(self):
        basis = build_basis(linear_alkane(8))
        blocks = BlockStructure.uniform(basis.n_basis, 4)
        screen = SchwarzScreen(basis)
        flat = build_task_graph(basis, blocks, screen, tau=0.0)
        skewed = build_task_graph(basis, blocks, screen, tau=1e-9)
        assert skewed.cost_summary()["cv"] > 0.1

    def test_mismatched_blocks_rejected(self, water_setup):
        basis, _, screen = water_setup
        wrong = BlockStructure.uniform(basis.n_basis + 1, 4)
        with pytest.raises(ConfigurationError, match="covers"):
            build_task_graph(basis, wrong, screen)

    def test_negative_tau_rejected(self, water_setup):
        basis, blocks, screen = water_setup
        with pytest.raises(ConfigurationError):
            build_task_graph(basis, blocks, screen, tau=-1.0)


def deduped_footprint(a, b, c, d):
    """The footprint as first written: list the refs, drop repeats in order."""
    reads = tuple(dict.fromkeys([(c, d), (b, d)]))
    writes = tuple(dict.fromkeys([(a, b), (a, c)]))
    return reads, writes


class TestFootprintExpression:
    """One expression (``_task_footprint``) for the builder and the check."""

    QUARTETS = list(itertools.product(range(4), repeat=4))

    def test_identity_equals_the_dedupe_on_every_quartet(self):
        # Includes b == c, c == d, a == b == c == d and every other
        # coincidence four indices in range(4) can have.
        for quartet in self.QUARTETS:
            assert _task_footprint(*quartet) == deduped_footprint(*quartet)

    def test_graph_from_arrays_builds_exactly_those(self):
        quartets = np.array(self.QUARTETS, dtype=np.int64)
        blocks = BlockStructure.uniform(8, 2)
        graph = graph_from_arrays(quartets, np.ones(len(quartets)), blocks, 0.0)
        for task, quartet in zip(graph.tasks, self.QUARTETS):
            assert task.quartet == quartet
            assert (task.reads, task.writes) == deduped_footprint(*quartet)
        # The flag graph_from_arrays pre-seeds is what the property computes.
        rebuilt = TaskGraph(graph.tasks, blocks, 0.0)
        assert rebuilt.has_standard_footprints is True
        assert graph.has_standard_footprints is True

    def test_non_standard_footprint_is_detected(self):
        graph = synthetic_task_graph(20, 3, seed=2)
        first = graph.tasks[0]
        # Same refs, the other order: not what the quartet derives.
        a, b, c, d = first.quartet
        odd = replace(first, reads=((b, d), (c, d)) if b != c else ((d, c),))
        assert not TaskGraph((odd, *graph.tasks[1:]), graph.blocks, 0.0).has_standard_footprints


class TestTaskGraph:
    def test_block_bytes(self):
        graph = synthetic_task_graph(10, 4, seed=0, block_size=8)
        assert graph.block_bytes((0, 1)) == 8 * 8 * 8

    def test_total_flops(self):
        graph = synthetic_task_graph(100, 4, seed=0)
        assert graph.total_flops == pytest.approx(graph.costs.sum())

    def test_data_blocks_covers_footprints(self):
        graph = synthetic_task_graph(50, 4, seed=1)
        blocks = graph.data_blocks()
        for task in graph.tasks:
            for ref in (*task.reads, *task.writes):
                assert ref in blocks

    def test_non_dense_ids_rejected(self):
        t = TaskSpec(5, (0, 0, 0, 0), 1.0, ((0, 0),), ((0, 0),))
        with pytest.raises(ConfigurationError, match="dense"):
            TaskGraph((t,), BlockStructure.uniform(4, 4), 0.0)

    def test_cost_summary_empty_graph(self):
        graph = TaskGraph((), BlockStructure.uniform(4, 4), 0.0)
        assert graph.cost_summary()["n_tasks"] == 0


class TestSyntheticTaskGraph:
    def test_shape(self):
        graph = synthetic_task_graph(500, 10, seed=0)
        assert graph.n_tasks == 500
        assert graph.blocks.n_blocks == 10

    def test_seed_reproducible(self):
        a = synthetic_task_graph(100, 8, seed=5)
        b = synthetic_task_graph(100, 8, seed=5)
        np.testing.assert_array_equal(a.costs, b.costs)

    def test_skew_controls_cv(self):
        flat = synthetic_task_graph(2000, 8, seed=0, skew=0.1)
        spiky = synthetic_task_graph(2000, 8, seed=0, skew=2.0)
        assert spiky.cost_summary()["cv"] > flat.cost_summary()["cv"]

    @given(st.integers(1, 100), st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_quartets_in_range(self, n_tasks, n_blocks):
        graph = synthetic_task_graph(n_tasks, n_blocks, seed=0)
        for task in graph.tasks:
            assert all(0 <= b < n_blocks for b in task.quartet)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            synthetic_task_graph(0, 4)
        with pytest.raises(ConfigurationError):
            synthetic_task_graph(4, 0)
