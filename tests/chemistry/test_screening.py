import tracemalloc

import numpy as np
import pytest

import repro.chemistry.integrals as integrals
from repro.chemistry.basis import BlockStructure, build_basis
from repro.chemistry.integrals import IntegralEngine, eri_tensor, upper_pairs
from repro.chemistry.molecules import Molecule, linear_alkane, water_cluster
from repro.chemistry.screening import SchwarzScreen
from repro.core.artifacts import configure_artifacts, default_store, use_store


def scalar_q(engine) -> np.ndarray:
    """The per-shell-pair Schwarz loop ``SchwarzScreen._build_q`` used to be.

    One ``pair_data`` + ``eri_pair_pair`` call per pair: the oracle the
    batched diagonal must equal bit for bit, on either engine.
    """
    n = engine.basis.n_basis
    q = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            pd = engine.pair_data(i, j)
            val = engine.eri_pair_pair(pd, pd)
            q[i, j] = q[j, i] = np.sqrt(max(val, 0.0))
    return q


def screened_q(engine) -> np.ndarray:
    """``SchwarzScreen.q`` computed here and now (no artifact store)."""
    with use_store(None):
        return SchwarzScreen(engine.basis, engine).q


@pytest.fixture(scope="module")
def water_screen():
    basis = build_basis(water_cluster(1))
    return SchwarzScreen(basis)


class TestSchwarzBounds:
    def test_q_symmetric_non_negative(self, water_screen):
        q = water_screen.q
        np.testing.assert_allclose(q, q.T)
        assert np.all(q >= 0)

    def test_bound_dominates_all_integrals(self, water_screen):
        """The Cauchy-Schwarz inequality itself: |(ij|kl)| <= Q_ij Q_kl."""
        basis = water_screen.basis
        g = eri_tensor(basis, water_screen.engine)
        q = water_screen.q
        bound = q[:, :, None, None] * q[None, None, :, :]
        assert np.all(np.abs(g) <= bound + 1e-12)

    def test_distant_pairs_have_small_q(self):
        mol = Molecule(
            ("H", "H", "H", "H"),
            np.array([[0.0, 0, 0], [1.4, 0, 0], [20.0, 0, 0], [21.4, 0, 0]]),
        )
        screen = SchwarzScreen(build_basis(mol))
        # Shells 0-1 belong to the near H pair; 4-5 to the far one.
        near_q = screen.q[0, 1]
        cross_q = screen.q[0, 4]
        assert cross_q < 1e-8 * near_q

    def test_q_max(self, water_screen):
        assert water_screen.q_max == pytest.approx(water_screen.q.max())


class TestBatchedDiagonal:
    """``eri_diagonal`` against the scalar double loop, ``array_equal``."""

    @pytest.mark.parametrize(
        "molecule",
        [water_cluster(2, seed=3), water_cluster(3, seed=1), linear_alkane(3)],
        ids=["water2", "water3", "propane"],
    )
    @pytest.mark.parametrize("cutoff", [0.0, 1e-6, 1e-2])
    def test_q_equals_scalar_loop(self, molecule, cutoff):
        # 1-, 3- and 6-primitive shells: table sizes 1 to 36, and ragged
        # ones once the cutoff drops products.
        basis = build_basis(molecule)
        assert set(basis.primitive_counts.tolist()) == {1, 3, 6}
        engine = IntegralEngine(basis, cutoff)
        assert np.array_equal(screened_q(engine), scalar_q(IntegralEngine(basis, cutoff)))

    def test_cutoff_that_empties_tables_keeps_the_dominant_product(self):
        mol = Molecule(("H", "H"), np.array([[0.0, 0, 0], [30.0, 0, 0]]))
        engine = IntegralEngine(build_basis(mol), prim_cutoff=1e-2)
        q = screened_q(engine)
        assert engine.pair_data(0, 2).nprim == 1
        assert np.array_equal(q, scalar_q(engine))

    def test_one_function_basis(self):
        basis = build_basis(
            Molecule(("H",), np.zeros((1, 3))), basis={"H": [[(0.9, 1.0)]]}
        )
        engine = IntegralEngine(basis)
        assert screened_q(engine).shape == (1, 1)
        assert np.array_equal(screened_q(engine), scalar_q(engine))

    def test_groups_cut_by_the_chunk_bound(self, monkeypatch):
        # 36 * 36 = 1296 elements per 6x6 table: at 3000 a stack holds two
        # of them and the 36-entry group is cut several times; at 1 every
        # stack is a single table.
        basis = build_basis(water_cluster(2, seed=3))
        expected = scalar_q(IntegralEngine(basis))
        for limit in (3000, 1):
            monkeypatch.setattr(integrals, "_DIAGONAL_CHUNK", limit)
            assert np.array_equal(screened_q(IntegralEngine(basis)), expected)

    def test_any_pair_list(self, water_screen):
        engine = IntegralEngine(water_screen.basis)
        pairs = [(3, 1), (1, 3), (0, 0), (6, 2), (0, 0)]
        values = engine.eri_diagonal(pairs)
        for value, (i, j) in zip(values, pairs):
            pd = engine.pair_data(i, j)
            assert value == engine.eri_pair_pair(pd, pd)
        assert engine.eri_diagonal([]).shape == (0,)

    def test_diagonal_transient_is_bounded_by_the_chunk(self):
        """Working memory is O(chunk), not O(sum of table sizes squared)."""
        basis = build_basis(water_cluster(8, seed=5))
        engine = IntegralEngine(basis)
        pairs = upper_pairs(basis.n_basis)
        batch = engine.pair_batch(pairs)
        chunk_bytes = 8 * integrals._DIAGONAL_CHUNK
        tracemalloc.start()
        try:
            engine.eri_diagonal(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # All interactions at once would be ~10 arrays of this many
        # elements; make sure that is far beyond the 16 chunks allowed.
        assert int((np.bincount(batch.seg) ** 2).sum()) > 8 * integrals._DIAGONAL_CHUNK
        flat = batch.p.nbytes + batch.center.nbytes + batch.k.nbytes + batch.seg.nbytes
        assert peak < 2 * flat + 16 * chunk_bytes, (peak, flat, chunk_bytes)


class TestContentKey:
    def test_cutoff_engine_is_not_served_the_exact_q(self):
        """With a store on, Q is keyed by the engine's cutoff too."""
        basis = build_basis(water_cluster(1))
        before = default_store()
        try:
            configure_artifacts()
            exact = SchwarzScreen(basis, IntegralEngine(basis))
            loose = SchwarzScreen(basis, IntegralEngine(basis, prim_cutoff=1e-2))
            again = SchwarzScreen(basis, IntegralEngine(basis, prim_cutoff=1e-2))
        finally:
            configure_artifacts(before, enabled=before is not None)
        assert loose.content_key != exact.content_key
        assert again.content_key == loose.content_key and again.q is loose.q
        assert not np.array_equal(loose.q, exact.q)
        assert np.array_equal(
            loose.q, scalar_q(IntegralEngine(basis, prim_cutoff=1e-2))
        )

    def test_exact_engine_key_is_unchanged(self):
        # The two-part key every stored artifact of a cutoff-0 engine sits
        # under; folding the cutoff in must not move it.
        from repro.core.cache import fingerprint

        basis = build_basis(water_cluster(1))
        screen = SchwarzScreen(basis, IntegralEngine(basis))
        assert screen.content_key == fingerprint(("IntegralEngine", basis))


class TestReadOnly:
    """Q and its block aggregates outlive a job in the artifact memo, so
    whichever path produced them, nobody may write into them."""

    @staticmethod
    def outputs(store):
        basis = build_basis(water_cluster(1))
        blocks = BlockStructure.uniform(basis.n_basis, 3)
        with use_store(store):
            screen = SchwarzScreen(basis)
            return screen.q, screen.block_qmax(blocks), screen.pair_weights(blocks, 1e-10)

    def test_every_path(self, tmp_path):
        from repro.core.artifacts import ArtifactStore

        built = self.outputs(None)
        cold = ArtifactStore(tmp_path)
        self.outputs(cold)
        memo = self.outputs(cold)
        disk_store = ArtifactStore(tmp_path)
        disk = self.outputs(disk_store)
        assert cold.stats.memo_hits == 3 and disk_store.stats.disk_hits == 3
        for arrays in (built, memo, disk):
            for array, reference in zip(arrays, built):
                assert np.array_equal(array, reference)
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    array *= 2.0


def nested_block_qmax(q, blocks):
    nb = blocks.n_blocks
    out = np.empty((nb, nb))
    for a in range(nb):
        lo_a, hi_a = blocks.block_range(a)
        for b in range(a, nb):
            lo_b, hi_b = blocks.block_range(b)
            out[a, b] = out[b, a] = float(q[lo_a:hi_a, lo_b:hi_b].max())
    return out


def nested_pair_weights(screen, blocks, tau):
    n = screen.basis.n_basis
    bound = tau / screen.q_max if screen.q_max > 0 else 0.0
    alive = screen.q >= bound
    prim_pairs = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            size = screen.engine.pair_data(i, j).nprim
            prim_pairs[i, j] = prim_pairs[j, i] = size
    prim_pairs = prim_pairs * alive
    nb = blocks.n_blocks
    out = np.zeros((nb, nb))
    off = blocks.offsets
    for a in range(nb):
        for b in range(nb):
            out[a, b] = prim_pairs[off[a] : off[a + 1], off[b] : off[b + 1]].sum()
    return out


class TestBlockAggregates:
    @pytest.mark.parametrize("cutoff", [0.0, 1e-3])
    def test_aggregates_equal_the_nested_loops(self, cutoff):
        """``reduceat`` over the offsets against the per-block-pair loops."""
        basis = build_basis(linear_alkane(3))
        with use_store(None):
            screen = SchwarzScreen(basis, IntegralEngine(basis, cutoff))
            n = basis.n_basis
            for blocks in (
                BlockStructure(np.array([0, 1, 4, 9, 10, n])),
                BlockStructure.uniform(n, 4),
                BlockStructure(np.array([0, n])),
            ):
                assert np.array_equal(
                    screen.block_qmax(blocks), nested_block_qmax(screen.q, blocks)
                )
                for tau in (0.0, 1e-8, 1e-4):
                    assert np.array_equal(
                        screen.pair_weights(blocks, tau),
                        nested_pair_weights(screen, blocks, tau),
                    )

    def test_pair_weights_build_the_tables_a_stored_q_skipped(self):
        # Q from the store: no diagonal ran, the engine holds no tables yet.
        basis = build_basis(water_cluster(1))
        blocks = BlockStructure.uniform(basis.n_basis, 3)
        before = default_store()
        try:
            configure_artifacts()
            SchwarzScreen(basis, IntegralEngine(basis))
            warm = SchwarzScreen(basis, IntegralEngine(basis))
            assert not warm.engine._pair_cache
            weights = warm.pair_weights(blocks, 1e-10)
        finally:
            configure_artifacts(before, enabled=before is not None)
        assert np.array_equal(weights, nested_pair_weights(warm, blocks, 1e-10))

    def test_block_qmax_is_blockwise_max(self, water_screen):
        blocks = BlockStructure.uniform(water_screen.basis.n_basis, 3)
        qb = water_screen.block_qmax(blocks)
        for a in range(blocks.n_blocks):
            for b in range(blocks.n_blocks):
                lo_a, hi_a = blocks.block_range(a)
                lo_b, hi_b = blocks.block_range(b)
                assert qb[a, b] == pytest.approx(
                    water_screen.q[lo_a:hi_a, lo_b:hi_b].max()
                )

    def test_surviving_pairs_threshold_zero_keeps_all(self, water_screen):
        pairs = water_screen.surviving_pairs((0, 3), (3, 5), 0.0)
        assert len(pairs) == 6

    def test_surviving_pairs_filters(self, water_screen):
        q01 = water_screen.q[0, 3]
        pairs = water_screen.surviving_pairs((0, 3), (3, 5), q01 * 1.0001)
        assert (0, 3) not in pairs

    def test_surviving_pairs_absolute_indices(self, water_screen):
        pairs = water_screen.surviving_pairs((3, 5), (5, 7), 0.0)
        assert all(3 <= i < 5 and 5 <= j < 7 for i, j in pairs)


class TestPairWeights:
    def test_tau_zero_counts_all_products(self, water_screen):
        blocks = BlockStructure.uniform(water_screen.basis.n_basis, 3)
        w = water_screen.pair_weights(blocks, 0.0)
        nprim = water_screen.basis.primitive_counts
        expected_total = float(np.outer(nprim, nprim).sum())
        assert w.sum() == pytest.approx(expected_total)

    def test_weights_decrease_with_tau(self):
        basis = build_basis(linear_alkane(4))
        screen = SchwarzScreen(basis)
        blocks = BlockStructure.uniform(basis.n_basis, 5)
        loose = screen.pair_weights(blocks, 0.0).sum()
        tight = screen.pair_weights(blocks, 1e-6).sum()
        assert tight < loose

    def test_alkane_screening_kills_far_blocks(self):
        basis = build_basis(linear_alkane(8))
        screen = SchwarzScreen(basis)
        blocks = BlockStructure.uniform(basis.n_basis, 4)
        w = screen.pair_weights(blocks, 1e-8)
        # Some spatially distant block pairs must be fully screened out
        # while diagonal blocks keep all their work.
        assert (w == 0.0).any()
        assert w[0, 0] > 0.0
