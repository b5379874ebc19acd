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

    def test_equal_graphs_hash_alike(self, synthetic_graph):
        """``__eq__`` is content equality, so ``__hash__`` must follow it:
        a decoded copy is the same dict key and set member."""
        copy = graph_from_arrays(**synthetic_graph.to_arrays())
        assert copy is not synthetic_graph and copy == synthetic_graph
        assert hash(copy) == hash(synthetic_graph)
        assert len({synthetic_graph, copy}) == 1

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
            for path in store.entries()
            if "quartets" in store.get_arrays(path.stem)[0]
        ]
        # The on-disk names predate this test: old stores stay readable.
        assert sorted(entry[0]) == ["flops", "offsets", "quartets"]
        assert entry[1] == {"tau": (1.0e-10).hex()}
        with use_store(ArtifactStore(tmp_path)):
            loaded = build_task_graph(basis, blocks, screen, tau=1.0e-10)
        assert same_tasks(loaded, built) and loaded.content_key == built.content_key


# ----------------------------------------------------------------------
# Task-walk oracles: the bodies TaskGraph had while ``tasks`` was its
# state. The class now derives all of these from its arrays.
# ----------------------------------------------------------------------
def walked_footprint_arrays(tasks):
    rows, cols, tids = [], [], []
    for t in tasks:
        for i, j in (*t.reads, *t.writes):
            rows.append(i)
            cols.append(j)
            tids.append(t.tid)
    return tuple(np.array(x, dtype=np.int64) for x in (rows, cols, tids))


def walked_footprint_counts(tasks):
    counts = [(len(t.reads), len(t.writes)) for t in tasks]
    return np.array(counts, dtype=np.int64).reshape(len(tasks), 2)


def walked_has_standard_footprints(tasks):
    return all((t.reads, t.writes) == deduped_footprint(*t.quartet) for t in tasks)


def walked_data_blocks(tasks):
    out = set()
    for t in tasks:
        out.update(t.reads)
        out.update(t.writes)
    return out


def eager_standard_tasks(quartets, flops):
    """The loop ``graph_from_arrays`` ran on every decode of a standard graph."""
    shared = {}
    tasks = []
    for tid, quartet in enumerate(quartets.tolist()):
        reads, writes = deduped_footprint(*quartet)
        tasks.append(
            TaskSpec(
                tid,
                tuple(quartet),
                flops.tolist()[tid],
                shared.setdefault(reads, reads),
                shared.setdefault(writes, writes),
            )
        )
    return tuple(tasks)


def task_rows(tasks):
    return [(t.tid, t.quartet, t.flops.hex(), t.reads, t.writes) for t in tasks]


@pytest.fixture(params=["standard", "folded", "hand_built", "empty"])
def graph_and_oracle(request, synthetic_graph, folded_graph, footprint_twins):
    """``(graph, tasks)``: a graph of each kind and the task tuple an eager
    build of it holds, made without asking the graph."""
    if request.param == "standard":
        graph = synthetic_graph
        return graph, eager_standard_tasks(graph.quartet_array, graph.costs)
    if request.param == "folded":
        return folded_graph, folded_graph.tasks  # the tuple symmetry.py handed in
    if request.param == "hand_built":
        return footprint_twins[1], footprint_twins[1].tasks
    return TaskGraph((), BlockStructure.uniform(4, 4), 0.0), ()


class TestArrayFirst:
    """Everything but ``tasks`` comes from the arrays; ``tasks`` is built
    on first read and equals what an eager build held."""

    def test_array_derived_views_equal_the_task_walk(self, graph_and_oracle):
        graph, tasks = graph_and_oracle
        decoded = graph_from_arrays(**graph.to_arrays())
        for g in (graph, decoded):
            for mine, walked in zip(g.footprint_arrays, walked_footprint_arrays(tasks)):
                assert mine.dtype == walked.dtype and np.array_equal(mine, walked)
            assert g.footprint_counts.shape == (len(tasks), 2)
            assert np.array_equal(g.footprint_counts, walked_footprint_counts(tasks))
            assert g.has_standard_footprints is walked_has_standard_footprints(tasks)
            assert g.data_blocks() == walked_data_blocks(tasks)
            assert g.n_tasks == len(tasks)
        assert "tasks" not in decoded.__dict__  # none of the above walked them

    def test_lazy_tasks_equal_the_eager_build(self, graph_and_oracle):
        graph, tasks = graph_and_oracle
        decoded = graph_from_arrays(**graph.to_arrays())
        assert task_rows(decoded.tasks) == task_rows(tasks)
        assert decoded.tasks is decoded.tasks
        # Equal reads (or writes) are one tuple between tasks, as in PR 19.
        for side in ("reads", "writes"):
            held = [getattr(t, side) for t in decoded.tasks]
            assert len({id(refs) for refs in held}) == len(set(held))

    def test_constructor_keeps_the_tuple_it_was_given(self, folded_graph):
        tasks = folded_graph.tasks
        graph = TaskGraph(tasks, folded_graph.blocks, folded_graph.tau)
        assert graph.tasks is tasks
        assert graph.content_key == folded_graph.content_key

    def test_pickle_is_the_dense_form(self, graph_and_oracle):
        graph, tasks = graph_and_oracle
        graph.tasks, graph.footprint_arrays  # noqa: B018 - caches that must not ship
        blob = pickle.dumps(graph)
        assert len(blob) <= len(pickle.dumps(graph.to_arrays())) + 256
        copy = pickle.loads(blob)
        assert set(copy.__dict__) <= {
            "quartet_array", "costs", "blocks", "tau", "has_standard_footprints", "_footprints",
        }
        assert copy == graph and copy.content_key == graph.content_key
        assert task_rows(copy.tasks) == task_rows(tasks)

    def test_step_tables_are_not_pickled(self, synthetic_graph):
        from repro.exec_models import make_model
        from repro.simulate import commodity_cluster

        make_model("static_block").run(synthetic_graph, commodity_cluster(4))
        assert "_step_tables" not in pickle.loads(pickle.dumps(synthetic_graph)).__dict__

    def test_content_keys_are_the_parents(self, folded_graph, small_problem):
        # Literal pins taken from the commit before ``tasks`` became lazy:
        # a cache or artifact directory it filled stays 100 % hits.
        assert small_problem.graph.content_key == (
            "4b586bc1f871c37c843c8eb63856cd0f7458e38aa2b7a25ad815ac2acf3988aa"
        )
        assert folded_graph.content_key == (
            "8b475f7cc7bbffa7221bd532c81b4207bcee7369c289dabdc1e575c683758227"
        )

    def test_graph_is_immutable(self, synthetic_graph):
        with pytest.raises(AttributeError, match="immutable"):
            synthetic_graph.tau = 1.0
        with pytest.raises(ValueError, match="read-only"):
            synthetic_graph.costs[0] = 0.0

    def test_first_readers_of_tasks_share_one_tuple(self, racing_reads):
        """``parallel/pool.py`` workers race into the first ``graph.tasks``;
        ``Harness.execute_task`` compares ``tasks[tid] is task``."""
        graph = synthetic_task_graph(4000, 8, seed=3)
        seen = racing_reads(lambda: graph.tasks)
        assert all(tasks is graph.tasks for tasks in seen)


class TestArrayValidation:
    """``graph_from_arrays`` input comes from disk, a pickle and the network."""

    BLOCKS = BlockStructure.uniform(8, 2)
    QUARTETS = np.array([[0, 1, 2, 3], [1, 1, 2, 0]])

    @pytest.mark.parametrize(
        "arrays, message",
        [
            (dict(flops=np.ones(3)), "quartet indices"),  # was n_tasks 2, costs (3,)
            (dict(flops=np.ones(1)), "quartet indices"),  # was a bare IndexError
            (dict(quartets=np.arange(7), flops=np.ones(2)), "quartet indices"),
            (dict(quartets=np.array([[0, 1, 2, 9], [0, 0, 0, 0]])), "blocks 0..9"),
            (dict(quartets=np.array([[0, -1, 2, 3], [0, 0, 0, 0]])), "blocks -1..3"),
            (dict(fp_counts=np.ones((2, 2), dtype=np.int64)), "together"),  # AttributeError
            (dict(fp_rows=np.zeros(4, dtype=np.int64)), "together"),
            (
                dict(
                    fp_rows=np.zeros(4, dtype=np.int64),
                    fp_cols=np.zeros(4, dtype=np.int64),
                    fp_counts=np.array([[3, 3], [-1, -1]]),
                ),
                "footprint CSR",
            ),
        ],
    )
    def test_bad_shapes_raise_configuration_error(self, arrays, message):
        good = dict(quartets=self.QUARTETS, flops=np.ones(2), offsets=self.BLOCKS, tau=0.0)
        assert graph_from_arrays(**good).n_tasks == 2
        with pytest.raises(ConfigurationError, match=message):
            graph_from_arrays(**{**good, **arrays})

    def test_a_csr_that_is_the_standard_one_is_dropped(self, synthetic_graph):
        rows, cols, _tids = synthetic_graph.footprint_arrays
        graph = graph_from_arrays(
            **synthetic_graph.to_arrays(),
            fp_rows=rows, fp_cols=cols, fp_counts=synthetic_graph.footprint_counts,
        )
        assert graph.has_standard_footprints
        assert list(graph.to_arrays()) == ["quartets", "flops", "offsets", "tau"]
        assert graph.content_key == synthetic_graph.content_key

    def test_store_heals_an_entry_its_decoder_refuses(self, water_setup, tmp_path):
        """A sound archive with a short ``flops`` array is a corrupt miss."""
        from repro.core.artifacts import ArtifactStore, use_store

        basis, blocks, screen = water_setup
        with use_store(ArtifactStore(tmp_path)) as store:
            built = build_task_graph(basis, blocks, screen, tau=1.0e-10)
        (key,) = [
            path.stem
            for path in store.entries()
            if "quartets" in store.get_arrays(path.stem)[0]
        ]
        arrays, meta = store.get_arrays(key)
        store.put_arrays(key, {**arrays, "flops": arrays["flops"][:-1]}, meta)
        with use_store(ArtifactStore(tmp_path)) as fresh:
            healed = build_task_graph(basis, blocks, screen, tau=1.0e-10)
            assert fresh.stats.errors == 1 and fresh.stats.disk_hits == fresh.stats.lookups - 1
        assert healed.content_key == built.content_key
        with use_store(ArtifactStore(tmp_path)) as again:
            build_task_graph(basis, blocks, screen, tau=1.0e-10)
            assert again.stats.errors == 0 and again.stats.misses == 0


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
