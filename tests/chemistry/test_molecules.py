import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chemistry.molecules import (
    ANGSTROM,
    Molecule,
    linear_alkane,
    nuclear_repulsion,
    water_cluster,
)
from repro.util import ConfigurationError, spawn_rng


def random_cluster(n_atoms, seed=0, elements=("H", "C", "N", "O"), min_dist=1.8):
    """Random cluster of ``n_atoms`` at least ``min_dist`` Bohr apart.

    Atoms are drawn uniformly in a cube sized for roughly liquid-like
    density and resampled until every pair is far enough apart; the
    property tests use it to exercise integral and screening code on
    unstructured geometries.
    """
    rng = spawn_rng(seed, "random_cluster", n_atoms)
    side = max(2.5 * min_dist, 1.6 * n_atoms ** (1.0 / 3.0) * min_dist)
    coords = []
    attempts = 0
    while len(coords) < n_atoms:
        candidate = rng.uniform(0.0, side, size=3)
        if all(np.linalg.norm(candidate - c) >= min_dist for c in coords):
            coords.append(candidate)
        attempts += 1
        if attempts > 2000 * n_atoms:
            # The box is too tight for the requested separation; grow it.
            side *= 1.3
            coords.clear()
            attempts = 0
    symbols = tuple(rng.choice(elements) for _ in range(n_atoms))
    return Molecule(symbols, np.vstack(coords))


class TestMolecule:
    def test_basic_construction(self):
        mol = Molecule(("H", "H"), np.array([[0.0, 0, 0], [1.4, 0, 0]]))
        assert mol.n_atoms == 2
        assert mol.n_electrons == 2

    def test_coords_shape_validated(self):
        with pytest.raises(ConfigurationError, match="shape"):
            Molecule(("H",), np.zeros((1, 2)))

    def test_symbol_count_validated(self):
        with pytest.raises(ConfigurationError):
            Molecule(("H", "H"), np.zeros((1, 3)))

    def test_unknown_element_rejected(self):
        with pytest.raises(ConfigurationError, match="unsupported"):
            Molecule(("Xx",), np.zeros((1, 3)))

    def test_coords_read_only(self):
        mol = Molecule(("H",), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            mol.coords[0, 0] = 1.0

    def test_charge_affects_electrons(self):
        mol = Molecule(("O",), np.zeros((1, 3)), charge=-2)
        assert mol.n_electrons == 10

    def test_concatenation(self):
        a = Molecule(("H",), np.zeros((1, 3)))
        b = Molecule(("O",), np.ones((1, 3)))
        ab = a + b
        assert ab.symbols == ("H", "O")
        assert ab.n_atoms == 2

    def test_translated(self):
        mol = Molecule(("H",), np.zeros((1, 3)))
        moved = mol.translated(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(moved.coords[0], [1.0, 2.0, 3.0])


class TestNuclearRepulsion:
    def test_h2_value(self):
        mol = Molecule(("H", "H"), np.array([[0.0, 0, 0], [1.4, 0, 0]]))
        assert nuclear_repulsion(mol) == pytest.approx(1.0 / 1.4)

    def test_single_atom_zero(self):
        assert nuclear_repulsion(Molecule(("O",), np.zeros((1, 3)))) == 0.0

    def test_translation_invariant(self):
        mol = water_cluster(2, seed=1)
        assert nuclear_repulsion(mol.translated(np.array([5.0, -3.0, 2.0]))) == (
            pytest.approx(nuclear_repulsion(mol))
        )


class TestWaterCluster:
    def test_atom_count(self):
        assert water_cluster(5).n_atoms == 15

    def test_composition(self):
        mol = water_cluster(3)
        assert mol.symbols.count("O") == 3
        assert mol.symbols.count("H") == 6

    def test_even_electron_count(self):
        assert water_cluster(4).n_electrons % 2 == 0

    def test_seed_reproducible(self):
        np.testing.assert_array_equal(
            water_cluster(3, seed=9).coords, water_cluster(3, seed=9).coords
        )

    def test_seeds_differ(self):
        assert not np.array_equal(
            water_cluster(3, seed=0).coords, water_cluster(3, seed=1).coords
        )

    def test_oh_bond_lengths_preserved_by_rotation(self):
        mol = water_cluster(4, seed=2)
        r_oh = 0.9572 * ANGSTROM
        for m in range(4):
            o, h1, h2 = mol.coords[3 * m : 3 * m + 3]
            assert np.linalg.norm(h1 - o) == pytest.approx(r_oh)
            assert np.linalg.norm(h2 - o) == pytest.approx(r_oh)

    def test_monomers_do_not_overlap(self):
        mol = water_cluster(8, seed=0)
        oxygens = mol.coords[::3]
        diffs = oxygens[:, None] - oxygens[None, :]
        dists = np.sqrt((diffs**2).sum(-1))
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 2.0


class TestLinearAlkane:
    def test_formula(self):
        mol = linear_alkane(4)
        assert mol.symbols.count("C") == 4
        assert mol.symbols.count("H") == 10  # C_n H_{2n+2}

    def test_chain_is_extended(self):
        mol = linear_alkane(8)
        carbons = np.array([c for s, c in zip(mol.symbols, mol.coords) if s == "C"])
        extent = carbons[:, 0].max() - carbons[:, 0].min()
        assert extent > 7 * 1.2  # roughly n-1 bonds of > 1.2 Bohr x-extent

    def test_rejects_zero_carbons(self):
        with pytest.raises(ConfigurationError):
            linear_alkane(0)


class TestRandomCluster:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 5))
    def test_min_distance_respected(self, n_atoms, seed):
        mol = random_cluster(n_atoms, seed=seed, min_dist=2.0)
        diffs = mol.coords[:, None] - mol.coords[None, :]
        dists = np.sqrt((diffs**2).sum(-1))
        np.fill_diagonal(dists, np.inf)
        assert dists.min() >= 2.0

    def test_element_restriction(self):
        mol = random_cluster(6, seed=1, elements=("H",))
        assert set(mol.symbols) == {"H"}
