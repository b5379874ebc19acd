import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.chemistry.basis import BasisSet, BlockStructure, Shell, build_basis
from repro.chemistry.molecules import Molecule, water_cluster
from repro.util import ConfigurationError


class TestShell:
    def test_nprim(self):
        sh = Shell(np.zeros(3), np.array([1.0, 2.0]), np.array([0.5, 0.5]), 0)
        assert sh.nprim == 2

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            Shell(np.zeros(3), np.array([1.0, 2.0]), np.array([0.5]), 0)

    def test_rejects_non_positive_exponent(self):
        with pytest.raises(ConfigurationError, match="positive"):
            Shell(np.zeros(3), np.array([-1.0]), np.array([1.0]), 0)

    def test_rejects_bad_center(self):
        with pytest.raises(ConfigurationError):
            Shell(np.zeros(2), np.array([1.0]), np.array([1.0]), 0)

    def test_arrays_read_only(self):
        sh = Shell(np.zeros(3), np.array([1.0]), np.array([1.0]), 0)
        with pytest.raises(ValueError):
            sh.exponents[0] = 2.0


class TestBuildBasis:
    def test_water_shell_count(self):
        basis = build_basis(water_cluster(1))
        # O: 3 shells, H: 2 shells each.
        assert basis.n_basis == 3 + 2 + 2

    def test_atom_indices_assigned(self):
        basis = build_basis(water_cluster(1))
        assert [sh.atom_index for sh in basis.shells] == [0, 0, 0, 1, 1, 2, 2]

    def test_shells_centered_on_atoms(self):
        mol = water_cluster(1)
        basis = build_basis(mol)
        for sh in basis.shells:
            np.testing.assert_allclose(sh.center, mol.coords[sh.atom_index])

    def test_normalization_unit_self_overlap(self):
        basis = build_basis(water_cluster(1))
        for sh in basis.shells:
            p = sh.exponents[:, None] + sh.exponents[None, :]
            s = (
                sh.coefficients[:, None]
                * sh.coefficients[None, :]
                * (np.pi / p) ** 1.5
            ).sum()
            assert s == pytest.approx(1.0)

    def test_missing_element_raises(self):
        with pytest.raises(ConfigurationError, match="no basis"):
            build_basis(water_cluster(1), basis={"H": [[(1.0, 1.0)]]})

    def test_primitive_counts(self):
        basis = build_basis(water_cluster(1))
        assert basis.primitive_counts.tolist() == [6, 3, 1, 3, 1, 3, 1]


class TestBlockStructure:
    def test_uniform_tiling(self):
        blocks = BlockStructure.uniform(10, 4)
        assert blocks.n_blocks == 3
        assert blocks.offsets.tolist() == [0, 4, 8, 10]

    def test_exact_division(self):
        blocks = BlockStructure.uniform(12, 4)
        assert blocks.sizes().tolist() == [4, 4, 4]

    def test_block_size_larger_than_n(self):
        blocks = BlockStructure.uniform(5, 100)
        assert blocks.n_blocks == 1
        assert blocks.block_size(0) == 5

    def test_block_of(self):
        blocks = BlockStructure.uniform(10, 4)
        assert [blocks.block_of(i) for i in range(10)] == [0] * 4 + [1] * 4 + [2] * 2

    def test_block_of_out_of_range(self):
        blocks = BlockStructure.uniform(10, 4)
        with pytest.raises(ConfigurationError):
            blocks.block_of(10)

    def test_block_range(self):
        blocks = BlockStructure.uniform(10, 4)
        assert blocks.block_range(2) == (8, 10)

    def test_rejects_non_monotone_offsets(self):
        with pytest.raises(ConfigurationError):
            BlockStructure(np.array([0, 5, 5, 10]))

    def test_rejects_nonzero_start(self):
        with pytest.raises(ConfigurationError):
            BlockStructure(np.array([1, 5]))

    def test_by_atom(self):
        basis = build_basis(water_cluster(1))
        blocks = BlockStructure.by_atom(basis)
        assert blocks.n_blocks == 3
        assert blocks.sizes().tolist() == [3, 2, 2]

    @given(st.integers(1, 200), st.integers(1, 50))
    def test_uniform_covers_everything(self, n, bs):
        blocks = BlockStructure.uniform(n, bs)
        assert blocks.n_basis == n
        assert blocks.sizes().sum() == n
        assert all(blocks.block_size(b) >= 1 for b in range(blocks.n_blocks))

    @given(st.integers(1, 200), st.integers(1, 50), st.integers(0, 199))
    def test_block_of_consistent_with_ranges(self, n, bs, idx):
        if idx >= n:
            idx = idx % n
        blocks = BlockStructure.uniform(n, bs)
        b = blocks.block_of(idx)
        lo, hi = blocks.block_range(b)
        assert lo <= idx < hi


def reference_contraction(prims, powers=(0, 0, 0)):
    """The per-call normalisation ``_normalize_shell`` did before it was
    memoised per shell definition: the oracle for ``_contraction``."""
    exps = np.array([p[0] for p in prims], dtype=np.float64)
    raw = np.array([p[1] for p in prims], dtype=np.float64)
    if powers == (0, 0, 0):
        coefs = raw * (2.0 * exps / np.pi) ** 0.75
        p_sum = exps[:, None] + exps[None, :]
        s_self = (coefs[:, None] * coefs[None, :] * (np.pi / p_sum) ** 1.5).sum()
    else:
        from repro.chemistry.mcmurchie import overlap_prim, primitive_norm

        coefs = raw * np.array([primitive_norm(powers, a) for a in exps])
        origin = np.zeros(3)
        s_self = 0.0
        for ca, a in zip(coefs, exps):
            for cb, b in zip(coefs, exps):
                s_self += ca * cb * overlap_prim(powers, powers, a, b, origin, origin)
    return exps, coefs / np.sqrt(s_self)


def every_shell_definition():
    """(prims, powers) of each DEFAULT_BASIS shell and STO-3G s/p shell."""
    from repro.chemistry import basis_sets as sto
    from repro.chemistry.basis import DEFAULT_BASIS

    defs = [(prims, (0, 0, 0)) for shells in DEFAULT_BASIS.values() for prims in shells]
    for entries in sto._STO3G_EXPONENTS.values():
        for shell_type, exponents in entries:
            if shell_type == "1s":
                defs.append((list(zip(exponents, sto._S_COEFS_1S)), (0, 0, 0)))
            else:
                defs.append((list(zip(exponents, sto._S_COEFS_2S)), (0, 0, 0)))
                defs += [(list(zip(exponents, sto._P_COEFS_2P)), p) for p in sto._P_POWERS]
    return defs


class TestContractionMemo:
    """Normalisation runs once per (primitives, powers); the arrays it
    returns are the per-call oracle's, bit for bit, and read-only."""

    @pytest.mark.parametrize("prims, powers", every_shell_definition())
    def test_equals_per_call_normalisation(self, prims, powers):
        from repro.chemistry.basis import _contraction

        key = tuple((float(e), float(c)) for e, c in prims)
        exps, coefs = _contraction(key, powers)
        ref_exps, ref_coefs = reference_contraction(prims, powers)
        assert np.array_equal(exps, ref_exps) and np.array_equal(coefs, ref_coefs)
        assert not exps.flags.writeable and not coefs.flags.writeable
        assert _contraction(key, powers)[1] is coefs

    def test_atoms_of_one_element_share_arrays(self):
        from repro.chemistry.basis_sets import build_basis_sto3g

        mol = water_cluster(2, seed=1)
        hydrogens = [i for i, symbol in enumerate(mol.symbols) if symbol == "H"]
        for build in (build_basis, build_basis_sto3g):
            shells = build(mol).shells
            first, second = (
                next(sh for sh in shells if sh.atom_index == atom) for atom in hydrogens[:2]
            )
            assert first.coefficients is second.coefficients
            assert first.exponents is second.exponents
            assert not np.array_equal(first.center, second.center)

    def test_user_basis_as_lists_of_lists(self):
        table = {"O": [[[5.0, 0.4], [1.0, 0.7]]], "H": [[[1.2, 1.0]]]}
        basis = build_basis(water_cluster(1), basis=table)
        ref_exps, ref_coefs = reference_contraction(table["O"][0])
        assert np.array_equal(basis.shells[0].exponents, ref_exps)
        assert np.array_equal(basis.shells[0].coefficients, ref_coefs)
        assert basis.n_basis == 3

    def test_non_positive_exponent_raises_every_time(self):
        table = {"O": [[(0.0, 1.0)]], "H": [[(1.0, 1.0)]]}
        for _ in range(3):
            with pytest.raises(ConfigurationError, match="positive"):
                build_basis(water_cluster(1), basis=table)
