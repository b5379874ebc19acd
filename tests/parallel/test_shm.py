"""Zero-copy graph handoff: publish/attach round-trip, sweep integration."""

import pickle

import numpy as np
import pytest

from repro.chemistry.basis import BlockStructure
from repro.chemistry.tasks import synthetic_task_graph
from repro.core.config import StudyConfig
from repro.core.sweep import SweepCell, SweepRunner, execute_cell
from repro.parallel.executor import fork_available
from repro.parallel.shm import (
    SHM_MIN_TASKS,
    GraphHandle,
    attach_graph,
    publish_graph,
    publishable,
)
from repro.simulate import commodity_cluster


@pytest.fixture(scope="module")
def big_graph():
    return synthetic_task_graph(SHM_MIN_TASKS + 50, 12, seed=11)


@pytest.fixture(scope="module")
def folded_graph(medium_problem):
    """A symmetry-folded graph (non-standard footprints) above SHM_MIN_TASKS."""
    from repro.chemistry.symmetry import build_symmetric_task_graph

    return build_symmetric_task_graph(
        medium_problem.basis,
        BlockStructure.uniform(medium_problem.basis.n_basis, 3),
        medium_problem.screen,
        tau=1.0e-10,
    )


class TestPublishAttach:
    def test_roundtrip_bitwise(self, big_graph):
        pub = publish_graph(big_graph)
        try:
            got = attach_graph(pub.handle)
            assert got.content_key == big_graph.content_key
            assert np.array_equal(got.quartet_array, big_graph.quartet_array)
            assert got.costs.dtype == big_graph.costs.dtype
            assert np.array_equal(got.costs, big_graph.costs)
            assert np.array_equal(got.blocks.offsets, big_graph.blocks.offsets)
            assert got.tau == big_graph.tau
            assert [t.quartet for t in got.tasks] == [
                t.quartet for t in big_graph.tasks
            ]
        finally:
            pub.close()

    def test_attach_cached_per_process(self, big_graph):
        pub = publish_graph(big_graph)
        try:
            assert attach_graph(pub.handle) is attach_graph(pub.handle)
        finally:
            pub.close()

    def test_handle_is_small_on_the_wire(self, big_graph):
        pub = publish_graph(big_graph)
        try:
            handle_bytes = len(pickle.dumps(pub.handle))
            graph_bytes = len(pickle.dumps(big_graph))
            assert handle_bytes < 1024
            # A pickled graph is its arrays, 40 bytes a task.
            assert handle_bytes * 20 < graph_bytes
        finally:
            pub.close()

    def test_close_is_idempotent_and_unlinks(self, big_graph):
        pub = publish_graph(big_graph)
        pub.close()
        pub.close()  # second close must not raise

    def test_publishability_gates(self, big_graph):
        assert publishable(big_graph)
        small = synthetic_task_graph(8, 4, seed=1)
        assert not publishable(small)  # below the size threshold
        assert not publishable("not a graph")

    def test_publish_attach_reproduces_folded_footprints(self, folded_graph):
        folded = folded_graph
        # Folded footprints carry multi-image refs the quartets do not
        # determine; they travel as the footprint CSR, three more segments.
        assert not folded.has_standard_footprints
        assert publishable(folded)
        pub = publish_graph(folded)
        try:
            assert [name for name, _spec in pub.handle.segments] == [
                "quartets", "flops", "offsets", "fp_rows", "fp_cols", "fp_counts"
            ]
            assert len(pickle.dumps(pub.handle)) < 1024
            got = attach_graph(pub.handle)
            assert got.tasks == folded.tasks
            assert not got.has_standard_footprints
            assert got.content_key == folded.content_key == pub.handle.content_key
        finally:
            pub.close()

    def test_execute_cell_resolves_handle(self, big_graph):
        machine = commodity_cluster(4)
        cell = SweepCell(model="static_block", graph=big_graph, machine=machine, seed=3)
        direct = execute_cell(cell)
        pub = publish_graph(big_graph)
        try:
            via_handle = execute_cell(
                SweepCell(
                    model="static_block",
                    graph=pub.handle,
                    machine=machine,
                    seed=3,
                )
            )
        finally:
            pub.close()
        assert pickle.dumps(via_handle) == pickle.dumps(direct)


class TestSweepIntegration:
    CFG = dict(
        models=("static_block", "counter_dynamic", "work_stealing"),
        n_ranks=(4, 8),
        seed=7,
    )

    def test_runner_substitutes_handles_for_workers(self, big_graph):
        runner = SweepRunner(jobs=2)
        machine = commodity_cluster(4)
        cells = [
            SweepCell(model=m, graph=big_graph, machine=machine, seed=s)
            for s, m in enumerate(("static_block", "work_stealing"))
        ]
        published = []
        try:
            jobs = runner._publish_graphs(cells, published)
            # One distinct graph -> one publication, every job a handle.
            assert len(published) == 1
            assert runner.stats.shm_graphs == 1
            assert all(isinstance(c.graph, GraphHandle) for c in jobs)
            assert jobs[0].graph is jobs[1].graph
            # The original cells (and cache keys) are untouched.
            assert all(c.graph is big_graph for c in cells)
        finally:
            for pub in published:
                pub.close()

    def test_small_graphs_still_pickled(self):
        runner = SweepRunner(jobs=2)
        small = synthetic_task_graph(16, 4, seed=2)
        cells = [
            SweepCell(
                model="static_block", graph=small, machine=commodity_cluster(4)
            )
        ]
        published = []
        jobs = runner._publish_graphs(cells, published)
        assert published == []
        assert jobs[0].graph is small

    @pytest.mark.skipif(not fork_available(), reason="needs fork workers")
    def test_folded_sweep_bit_identical_to_serial(self, folded_graph):
        self.test_parallel_sweep_bit_identical_to_serial(folded_graph)

    @pytest.mark.skipif(not fork_available(), reason="needs fork workers")
    def test_parallel_sweep_bit_identical_to_serial(self, big_graph):
        config = StudyConfig(**self.CFG)
        serial = SweepRunner(jobs=1)
        report1 = serial.run_study(config, big_graph)
        assert serial.stats.shm_graphs == 0  # no handoff in-process

        parallel = SweepRunner(jobs=2)
        report2 = parallel.run_study(config, big_graph)
        assert parallel.stats.shm_graphs == 1  # workers got the handle

        assert report1.results.keys() == report2.results.keys()
        for key, r1 in report1.results.items():
            assert pickle.dumps(r1) == pickle.dumps(report2.results[key]), key
