import tracemalloc

import numpy as np
import pytest

import repro.chemistry.integrals_general as integrals_general
from repro.chemistry.basis import build_basis
from repro.chemistry.basis_sets import build_basis_sto3g
from repro.chemistry.integrals import IntegralEngine, eri_tensor, overlap_matrix
from repro.chemistry.integrals_general import (
    GeneralIntegralEngine,
    make_engine,
    overlap_matrix_general,
)
from repro.chemistry.mcmurchie import eri_prim
from repro.chemistry.integrals import upper_pairs
from repro.chemistry.molecules import Molecule, linear_alkane, water_cluster
from repro.util import ConfigurationError

from tests.chemistry.test_screening import scalar_q, screened_q


@pytest.fixture(scope="module")
def h2o_sto3g():
    return build_basis_sto3g(water_cluster(1))


@pytest.fixture(scope="module")
def h2_s_only():
    return build_basis(Molecule(("H", "H"), np.array([[0.0, 0, 0], [1.4, 0, 0]])))


class TestEngineSelection:
    def test_s_only_gets_fast_engine(self, h2_s_only):
        assert isinstance(make_engine(h2_s_only), IntegralEngine)

    def test_p_basis_gets_general_engine(self, h2o_sto3g):
        assert isinstance(make_engine(h2o_sto3g), GeneralIntegralEngine)

    def test_fast_engine_rejects_p(self, h2o_sto3g):
        with pytest.raises(ConfigurationError, match="s functions only"):
            IntegralEngine(h2o_sto3g)


class TestAgainstFastEngine:
    def test_s_only_eri_matrix_identical(self, h2_s_only):
        fast = IntegralEngine(h2_s_only)
        general = GeneralIntegralEngine(h2_s_only)
        pairs = [(i, j) for i in range(4) for j in range(i, 4)]
        m_fast = fast.eri_batch_matrix(fast.pair_batch(pairs), fast.pair_batch(pairs))
        m_gen = general.eri_batch_matrix(
            general.pair_batch(pairs), general.pair_batch(pairs)
        )
        np.testing.assert_allclose(m_gen, m_fast, rtol=1e-10)

    def test_s_only_overlap_identical(self, h2_s_only):
        np.testing.assert_allclose(
            overlap_matrix_general(h2_s_only), overlap_matrix(h2_s_only), rtol=1e-12
        )


class TestAgainstScalarReference:
    def test_contracted_eri_matches_primitive_sum(self, h2o_sto3g):
        """Vectorized engine vs explicit contraction of eri_prim."""
        engine = GeneralIntegralEngine(h2o_sto3g)
        # Pick a quartet involving p shells (O's p components are shells 2-4).
        quartets = [(2, 0, 3, 1), (2, 2, 3, 3), (0, 4, 2, 5)]
        for (i, j, k, l) in quartets:
            fast_val = engine.eri_pair_pair(engine.pair_data(i, j), engine.pair_data(k, l))
            sh = h2o_sto3g.shells
            ref = 0.0
            for a, ca in zip(sh[i].exponents, sh[i].coefficients):
                for b, cb in zip(sh[j].exponents, sh[j].coefficients):
                    for c, cc in zip(sh[k].exponents, sh[k].coefficients):
                        for d, cd in zip(sh[l].exponents, sh[l].coefficients):
                            ref += ca * cb * cc * cd * eri_prim(
                                sh[i].powers, sh[j].powers, sh[k].powers, sh[l].powers,
                                float(a), float(b), float(c), float(d),
                                sh[i].center, sh[j].center, sh[k].center, sh[l].center,
                            )
            assert fast_val == pytest.approx(ref, rel=1e-9, abs=1e-13)

    def test_tensor_symmetries_with_p(self):
        """8-fold ERI symmetry holds for a tiny p-containing basis."""
        mol = Molecule(("O", "H"), np.array([[0.0, 0, 0], [1.8, 0, 0]]), charge=-1)
        basis = build_basis_sto3g(mol)
        g = eri_tensor(basis)
        np.testing.assert_allclose(g, g.transpose(1, 0, 2, 3), atol=1e-11)
        np.testing.assert_allclose(g, g.transpose(0, 1, 3, 2), atol=1e-11)
        np.testing.assert_allclose(g, g.transpose(2, 3, 0, 1), atol=1e-11)


class TestBatchedDiagonal:
    """The Hermite ``eri_diagonal`` against the scalar double loop."""

    def test_two_waters_cover_every_table_size(self):
        basis = build_basis_sto3g(water_cluster(2, seed=5))
        engine = GeneralIntegralEngine(basis)
        q = screened_q(engine)
        sizes = {engine.pair_data(i, j).nprim for i, j in upper_pairs(basis.n_basis)}
        assert sizes == {8, 9, 18, 24, 25, 36}
        assert np.array_equal(q, scalar_q(GeneralIntegralEngine(basis)))

    @pytest.mark.parametrize(
        "basis, cutoff",
        [
            (build_basis_sto3g(water_cluster(1, seed=2)), 0.0),
            (build_basis_sto3g(linear_alkane(2)), 0.0),
            # Ragged tables, some emptied to the null entry.
            (build_basis_sto3g(water_cluster(2, seed=3)), 1e-3),
            (build_basis_sto3g(Molecule(("H", "H"), np.array([[0.0, 0, 0], [40.0, 0, 0]]))), 1e-2),
            # s-only through the general engine: table sizes 1 to 36.
            (build_basis(water_cluster(2, seed=1)), 0.0),
        ],
        ids=["water1", "ethane", "water2-cutoff", "far-h2-cutoff", "s-only"],
    )
    def test_q_equals_scalar_loop(self, basis, cutoff):
        engine = GeneralIntegralEngine(basis, cutoff)
        assert np.array_equal(
            screened_q(engine), scalar_q(GeneralIntegralEngine(basis, cutoff))
        )

    def test_groups_cut_by_the_chunk_bound(self, h2o_sto3g, monkeypatch):
        expected = scalar_q(GeneralIntegralEngine(h2o_sto3g))
        for limit in (200, 1):  # two 9-entry tables per stack; one per stack
            monkeypatch.setattr(integrals_general, "_DIAGONAL_CHUNK", limit)
            assert np.array_equal(screened_q(GeneralIntegralEngine(h2o_sto3g)), expected)

    def test_diagonal_transient_is_bounded_by_the_chunk(self):
        basis = build_basis_sto3g(water_cluster(3, seed=5))
        engine = GeneralIntegralEngine(basis)
        pairs = upper_pairs(basis.n_basis)
        batch = engine.pair_batch(pairs)
        tracemalloc.start()
        try:
            engine.eri_diagonal(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # (pp|pp) recursion: ~80 arrays of one chunk (70 R^n_tuv, 5 Boys
        # orders, separations, masks); all interactions at once would be
        # a dozen chunks of each.
        chunk_bytes = 8 * integrals_general._DIAGONAL_CHUNK
        assert int((np.bincount(batch.seg) ** 2).sum()) > 12 * integrals_general._DIAGONAL_CHUNK
        assert peak < 128 * chunk_bytes, (peak, chunk_bytes)


class TestSto3gBasis:
    def test_water_function_count(self, h2o_sto3g):
        # O: 1s + 2s + 3 x 2p = 5; H: 1 each -> 7.
        assert h2o_sto3g.n_basis == 7

    def test_normalized(self, h2o_sto3g):
        s = overlap_matrix(h2o_sto3g)
        np.testing.assert_allclose(np.diag(s), 1.0, rtol=1e-10)

    def test_overlap_positive_definite(self, h2o_sto3g):
        assert np.linalg.eigvalsh(overlap_matrix(h2o_sto3g)).min() > 0

    def test_p_components_present(self, h2o_sto3g):
        powers = {sh.powers for sh in h2o_sto3g.shells}
        assert {(1, 0, 0), (0, 1, 0), (0, 0, 1)} <= powers

    def test_unknown_element_rejected(self):
        # STO-3G data covers H/C/N/O; any other symbol must fail cleanly.
        class FakeMol:
            symbols = ("Xq",)
            coords = np.zeros((1, 3))

        with pytest.raises(ConfigurationError, match="no STO-3G data"):
            build_basis_sto3g(FakeMol())


class TestLiteratureAnchors:
    def test_h2_sto3g_energy(self):
        """Szabo-Ostlund: RHF/STO-3G H2 at 1.4 a0 gives -1.1167 Ha."""
        from repro.chemistry.scf import ScfProblem, run_scf

        h2 = Molecule(("H", "H"), np.array([[0.0, 0, 0], [1.4, 0, 0]]))
        problem = ScfProblem.build(h2, block_size=2, tau=0.0, basis_set="sto-3g")
        result = run_scf(h2, problem=problem)
        assert result.converged
        assert result.energy == pytest.approx(-1.1167, abs=2e-4)

    @pytest.mark.slow
    def test_water_sto3g_energy(self):
        """RHF/STO-3G water at the experimental geometry: ~ -74.963 Ha."""
        from repro.chemistry.scf import ScfProblem, run_scf

        mol = water_cluster(1)
        problem = ScfProblem.build(mol, block_size=4, tau=0.0, basis_set="sto-3g")
        result = run_scf(mol, problem=problem)
        assert result.converged
        assert result.energy == pytest.approx(-74.963, abs=5e-3)
