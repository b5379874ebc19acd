import numpy as np
import pytest

from repro.balance import Hypergraph, connectivity_cut, fock_hypergraph
from repro.balance.hypergraph import part_weights
from repro.chemistry.tasks import synthetic_task_graph
from repro.util import ConfigurationError


def small_hg():
    return Hypergraph(
        vertex_weights=np.array([1.0, 2.0, 3.0, 4.0]),
        nets=[np.array([0, 1]), np.array([1, 2, 3]), np.array([0, 3])],
        net_weights=np.array([1.0, 2.0, 3.0]),
    )


class TestHypergraph:
    def test_counts(self):
        hg = small_hg()
        assert hg.n_vertices == 4
        assert hg.n_nets == 3
        assert hg.n_pins == 7
        assert hg.total_vertex_weight == 10.0

    def test_vertex_nets_incidence(self):
        hg = small_hg()
        incidence = hg.vertex_nets()
        assert incidence[0] == [0, 2]
        assert incidence[1] == [0, 1]
        assert incidence[3] == [1, 2]

    def test_vertex_net_csr_is_the_transposed_pin_csr(self):
        # Vertex 4 is isolated and net 1 is out of id order on purpose.
        hg = Hypergraph(
            np.ones(5),
            [np.array([3, 0]), np.array([2, 1, 3]), np.array([0, 3])],
            np.ones(3),
        )
        np.testing.assert_array_equal(hg.xnets, [0, 2, 3, 4, 7, 7])
        np.testing.assert_array_equal(hg.vnets, [0, 2, 1, 1, 0, 1, 2])
        assert hg.vertex_nets() == [[0, 2], [1], [1], [0, 1, 2], []]
        empty = Hypergraph(np.empty(0), [], np.empty(0))
        np.testing.assert_array_equal(empty.xnets, [0])
        assert empty.vnets.size == 0 and empty.vertex_nets() == []

    def test_duplicate_pins_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            Hypergraph(np.ones(2), [np.array([0, 0])], np.ones(1))

    def test_empty_net_rejected(self):
        with pytest.raises(ConfigurationError, match="no pins"):
            Hypergraph(np.ones(2), [np.array([], dtype=int)], np.ones(1))

    def test_pin_range_validated(self):
        with pytest.raises(ConfigurationError):
            Hypergraph(np.ones(2), [np.array([0, 5])], np.ones(1))

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            Hypergraph(np.array([-1.0]), [], np.array([]))
        with pytest.raises(ConfigurationError):
            Hypergraph(np.ones(2), [np.array([0, 1])], np.array([-1.0]))

    def test_net_weight_count_validated(self):
        with pytest.raises(ConfigurationError):
            Hypergraph(np.ones(2), [np.array([0, 1])], np.ones(2))


class TestConnectivityCut:
    def test_uncut_is_zero(self):
        hg = small_hg()
        assert connectivity_cut(hg, np.zeros(4, dtype=int)) == 0.0

    def test_fully_cut(self):
        hg = small_hg()
        # Each vertex its own part: every net has lambda = its pin count.
        parts = np.arange(4)
        expected = 1.0 * (2 - 1) + 2.0 * (3 - 1) + 3.0 * (2 - 1)
        assert connectivity_cut(hg, parts) == expected

    def test_partial_cut(self):
        hg = small_hg()
        parts = np.array([0, 0, 1, 1])
        # net0 {0,1}: lambda 1; net1 {1,2,3}: lambda 2; net2 {0,3}: lambda 2.
        assert connectivity_cut(hg, parts) == 2.0 + 3.0

    def test_shape_validated(self):
        with pytest.raises(ConfigurationError):
            connectivity_cut(small_hg(), np.zeros(3, dtype=int))


class TestPartWeights:
    def test_sums(self):
        hg = small_hg()
        w = part_weights(hg, np.array([0, 1, 0, 1]), 2)
        np.testing.assert_allclose(w, [4.0, 6.0])

    def test_range_validated(self):
        with pytest.raises(ConfigurationError):
            part_weights(small_hg(), np.array([0, 0, 0, 5]), 2)


class TestFockHypergraph:
    def test_vertices_are_tasks(self, synthetic_graph):
        hg = fock_hypergraph(synthetic_graph)
        assert hg.n_vertices == synthetic_graph.n_tasks
        np.testing.assert_allclose(hg.vertex_weights, synthetic_graph.costs)

    def test_one_net_per_data_block(self, synthetic_graph):
        hg = fock_hypergraph(synthetic_graph)
        assert hg.n_nets == len(synthetic_graph.data_blocks())

    def test_net_weights_are_block_bytes(self):
        graph = synthetic_task_graph(30, 3, seed=0, block_size=4)
        hg = fock_hypergraph(graph)
        assert set(np.unique(hg.net_weights)) == {4 * 4 * 8}

    def test_pins_cover_footprints(self):
        graph = synthetic_task_graph(50, 4, seed=1)
        hg = fock_hypergraph(graph)
        blocks = sorted(graph.data_blocks())
        for task in graph.tasks:
            for ref in (*task.reads, *task.writes):
                net = hg.nets[blocks.index(ref)]
                assert task.tid in net


def dict_of_lists_hypergraph(graph):
    """The construction ``fock_hypergraph`` vectorises: one net per data
    block in sorted order, pinning the tasks that name it, ascending."""
    nets = {}
    for task in graph.tasks:
        for ref in dict.fromkeys((*task.reads, *task.writes)):
            nets.setdefault(ref, []).append(task.tid)
    refs = sorted(nets)
    weights = [float(graph.block_bytes(ref)) for ref in refs]
    return [nets[ref] for ref in refs], weights


class TestFockHypergraphFootprints:
    """Nets come from the graph's footprints, not from what its quartets
    would derive (they differ on symmetry-folded and hand-built graphs)."""

    def check(self, graph):
        hg = fock_hypergraph(graph)
        nets, weights = dict_of_lists_hypergraph(graph)
        assert [list(net) for net in hg.nets] == nets
        assert hg.net_weights.tolist() == weights
        assert np.array_equal(hg.vertex_weights, graph.costs)
        return hg

    def test_folded_graph(self, folded_graph):
        hg = self.check(folded_graph)
        # The quartets alone give 164 pins over 13 nets.
        assert (hg.n_pins, hg.n_nets) == (292, 16)

    def test_hand_built_graph(self, footprint_twins):
        standard, twin = footprint_twins
        assert self.check(twin).n_pins > self.check(standard).n_pins

    def test_standard_graph(self, synthetic_graph, medium_graph):
        self.check(synthetic_graph)
        self.check(medium_graph)


class TestArtifactsKeyedByFootprints:
    """Two graphs equal in quartets, costs, offsets and tau but not in
    footprints must never be served each other's stored artifact."""

    def test_no_cross_serving(self, footprint_twins, tmp_path):
        from repro.balance import hypergraph_balancer, semi_matching_balancer
        from repro.core.artifacts import ArtifactStore, use_store

        def products(graph):
            hg = fock_hypergraph(graph)
            return (
                (hg.xpins.tolist(), hg.pins.tolist()),
                hypergraph_balancer(graph, 4, seed=1).tolist(),
                semi_matching_balancer(graph, 4, seed=1).tolist(),
            )

        with use_store(None):
            expected = [products(graph) for graph in footprint_twins]
        assert all(a != b for a, b in zip(*expected))  # the footprints matter
        for root in (None, tmp_path):  # memo layer, then a cold memo over the disk
            for _ in range(2):
                with use_store(ArtifactStore(root)):
                    assert [products(graph) for graph in footprint_twins] == expected


def _set(name, index, value):
    def damage(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = value
    return damage


def _replace(name, make):
    def damage(arrays):
        arrays[name] = make(arrays[name])
    return damage


class TestStoredHypergraphIsChecked:
    """A sound archive holding a malformed CSR is a corrupt miss: the
    decoder refuses it and the graph is rebuilt, never trusted."""

    @pytest.mark.parametrize(
        "damage",
        [
            _set("pins", 0, 10_000),
            _set("pins", -1, -1),
            _set("xpins", 0, 1),
            _set("xpins", -1, 3),
            _set("xpins", 2, 0),
            _replace("pins", lambda a: a.astype(np.int32)),
            _replace("vertex_weights", lambda a: a[:-1]),
            _replace("net_weights", lambda a: a[:-1]),
            _set("net_weights", 0, np.nan),
            _set("vertex_weights", 0, -1.0),
        ],
        ids=[
            "pin_out_of_range",
            "negative_pin",
            "xpins_not_from_zero",
            "xpins_short_of_pins",
            "xpins_not_increasing",
            "pins_int32",
            "vertex_weights_short",
            "net_weights_short",
            "net_weight_nan",
            "vertex_weight_negative",
        ],
    )
    def test_malformed_artifact_is_rebuilt(self, damage, tmp_path):
        from repro.balance import hypergraph_balancer
        from repro.core.artifacts import ArtifactStore, use_store

        graph = synthetic_task_graph(120, 8, seed=3)
        with use_store(None):
            expected = fock_hypergraph(graph)
            expected_parts = hypergraph_balancer(graph, 4, seed=1)
        store = ArtifactStore(tmp_path)
        with use_store(store):
            fock_hypergraph(graph)
        key = store.key("fock_hypergraph", graph.content_key)
        arrays, meta = store.get_arrays(key)
        damage(arrays)
        store.put_arrays(key, arrays, meta)
        cold = ArtifactStore(tmp_path)
        with use_store(cold):
            rebuilt = fock_hypergraph(graph)
            parts = hypergraph_balancer(graph, 4, seed=1)
        assert (cold.stats.errors, cold.stats.disk_hits) == (1, 0)
        for name in ("vertex_weights", "xpins", "pins", "net_weights"):
            np.testing.assert_array_equal(getattr(rebuilt, name), getattr(expected, name))
        np.testing.assert_array_equal(parts, expected_parts)

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            Hypergraph(np.array([1.0, np.inf]), [np.array([0, 1])], np.ones(1))
        with pytest.raises(ConfigurationError):
            Hypergraph(np.ones(2), [np.array([0, 1])], np.array([np.nan]))
