"""Cross-cutting physical/mathematical property tests of the chemistry
substrate on randomized geometries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chemistry.basis import build_basis
from repro.chemistry.integrals import (
    IntegralEngine,
    eri_tensor,
    kinetic_matrix,
    overlap_matrix,
)
from repro.chemistry.screening import SchwarzScreen
from tests.chemistry.test_molecules import random_cluster


@pytest.fixture(scope="module")
def random_bases():
    """A few random small geometries (built once: integrals are costly)."""
    return [
        build_basis(random_cluster(3, seed=seed, elements=("H", "O"), min_dist=2.2))
        for seed in (0, 1, 2)
    ]


class TestEriPositivity:
    def test_eri_supermatrix_positive_semidefinite(self, random_bases):
        """(ij|kl) as a matrix over pairs is a Coulomb Gram matrix: PSD.

        This is the analytic fact behind Schwarz screening; a sign or
        transpose bug anywhere in the ERI path breaks it immediately.
        """
        for basis in random_bases:
            n = basis.n_basis
            g = eri_tensor(basis)
            mat = g.reshape(n * n, n * n)
            eigenvalues = np.linalg.eigvalsh(0.5 * (mat + mat.T))
            assert eigenvalues.min() > -1e-9 * max(eigenvalues.max(), 1.0)

    def test_schwarz_is_tight_on_diagonal(self, random_bases):
        """Q_ij^2 == (ij|ij) exactly (equality case of Cauchy-Schwarz)."""
        basis = random_bases[0]
        screen = SchwarzScreen(basis)
        g = eri_tensor(basis, screen.engine)
        for i in range(basis.n_basis):
            for j in range(basis.n_basis):
                assert screen.q[i, j] ** 2 == pytest.approx(
                    g[i, j, i, j], abs=1e-12
                )


class TestOneElectronProperties:
    def test_overlap_cauchy_schwarz(self, random_bases):
        """|S_ij| <= 1 for normalized functions."""
        for basis in random_bases:
            s = overlap_matrix(basis)
            assert np.abs(s).max() <= 1.0 + 1e-10

    def test_kinetic_positive_definite(self, random_bases):
        """T = (1/2) <grad i | grad j> is a Gram matrix: PD."""
        for basis in random_bases:
            t = kinetic_matrix(basis)
            assert np.linalg.eigvalsh(t).min() > 0

    @given(st.integers(0, 30))
    @settings(max_examples=8, deadline=None)
    def test_overlap_spd_random_geometries(self, seed):
        basis = build_basis(
            random_cluster(3, seed=seed, elements=("H",), min_dist=2.0)
        )
        s = overlap_matrix(basis)
        assert np.linalg.eigvalsh(s).min() > 0
        np.testing.assert_allclose(s, s.T)


class TestTaskCostModelConsistency:
    def test_modeled_flops_track_actual_table_sizes(self, small_problem):
        """The analytic cost model's interaction count must equal the
        vectorized kernel's actual inner-loop size, task by task."""
        from repro.chemistry.tasks import FLOPS_PER_DIGEST, FLOPS_PER_INTERACTION

        kernel = small_problem.kernel
        blocks = small_problem.blocks
        sizes = blocks.sizes()
        for task in small_problem.graph.tasks[:60]:
            a, b, c, d = task.quartet
            bra = kernel._batch(a, b)
            ket = kernel._batch(c, d)
            digest = 2.0 * sizes[a] * sizes[b] * sizes[c] * sizes[d]
            expected = (
                FLOPS_PER_INTERACTION * bra.nprim * ket.nprim
                + FLOPS_PER_DIGEST * digest
            )
            assert task.flops == pytest.approx(expected, rel=1e-12)
