import hashlib
import pickle

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


def same_tasks(a, b):
    """Task for task: ids, quartets, flops to the bit, reads, writes."""
    return [(t.tid, t.quartet, t.flops.hex(), t.reads, t.writes) for t in a.tasks] == [
        (t.tid, t.quartet, t.flops.hex(), t.reads, t.writes) for t in b.tasks
    ]


class TestDenseForm:
    """``to_arrays`` / ``graph_from_arrays`` / ``content_key``: one payload,
    one identity."""

    @pytest.mark.parametrize("name", ["synthetic_graph", "folded_graph", "hand_built"])
    def test_round_trip(self, name, request, footprint_twins):
        graph = footprint_twins[1] if name == "hand_built" else request.getfixturevalue(name)
        arrays = graph.to_arrays()
        standard = name == "synthetic_graph"
        assert graph.has_standard_footprints is standard
        assert list(arrays) == ["quartets", "flops", "offsets", "tau"] + (
            [] if standard else ["fp_rows", "fp_cols", "fp_counts"]
        )
        rebuilt = graph_from_arrays(**arrays)
        assert same_tasks(rebuilt, graph)
        assert rebuilt.has_standard_footprints is standard
        assert rebuilt.content_key == graph.content_key
        assert pickle.loads(pickle.dumps(graph)).content_key == graph.content_key

    def test_footprint_csr_is_reads_then_writes_per_task(self, folded_graph):
        arrays = folded_graph.to_arrays()
        refs = list(zip(arrays["fp_rows"].tolist(), arrays["fp_cols"].tolist()))
        assert refs == [r for t in folded_graph.tasks for r in (*t.reads, *t.writes)]
        assert arrays["fp_counts"].tolist() == [
            [len(t.reads), len(t.writes)] for t in folded_graph.tasks
        ]

    def test_inconsistent_csr_is_rejected(self, folded_graph):
        arrays = folded_graph.to_arrays()
        for name, bad in (
            ("fp_counts", arrays["fp_counts"][:-1]),
            ("fp_counts", arrays["fp_counts"] + 1),
            ("fp_rows", arrays["fp_rows"][:-1]),
        ):
            with pytest.raises(ConfigurationError, match="footprint CSR"):
                graph_from_arrays(**{**arrays, name: bad})

    def test_content_key_covers_footprints(self, footprint_twins):
        standard, twin = footprint_twins
        for mine, theirs in zip(standard.to_arrays().values(), twin.to_arrays().values()):
            assert np.array_equal(mine, theirs)  # quartets, costs, offsets, tau
        assert standard.content_key != twin.content_key

    def test_each_array_moves_the_key(self, folded_graph, perturbed_graphs):
        keys = {g.content_key for g in perturbed_graphs(folded_graph)}
        assert len(keys) == 7 and folded_graph.content_key not in keys

    def test_standard_key_is_the_pinned_four_array_hash(self):
        # Every stored task_graph / fock_hypergraph / semi_matching
        # artifact is addressed through this key: it must never move.
        graph = synthetic_task_graph(50, 5, seed=1)
        h = hashlib.sha256()
        for arr in (graph.quartet_array, graph.costs, graph.blocks.offsets):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(float(graph.tau).hex().encode())
        assert graph.content_key == h.hexdigest()
        assert graph.content_key == (
            "552f11587cd396f102400b9d2c133d46eb57163ede29874d8db609d4ffa7f57d"
        )

    def test_artifact_codec_stores_the_dense_form(self, water_setup, tmp_path):
        from repro.core.artifacts import ArtifactStore, use_store

        basis, blocks, screen = water_setup
        with use_store(ArtifactStore(tmp_path)) as store:
            built = build_task_graph(basis, blocks, screen, tau=1.0e-10)
        (entry,) = [
            store.get_arrays(path.stem)
            for path in tmp_path.glob("*/*.npz")
            if "quartets" in store.get_arrays(path.stem)[0]
        ]
        # The on-disk names predate this test: old stores stay readable.
        assert sorted(entry[0]) == ["flops", "offsets", "quartets"]
        assert entry[1] == {"tau": (1.0e-10).hex()}
        with use_store(ArtifactStore(tmp_path)):
            loaded = build_task_graph(basis, blocks, screen, tau=1.0e-10)
        assert same_tasks(loaded, built) and loaded.content_key == built.content_key


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
