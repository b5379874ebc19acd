import numpy as np
import pytest

from repro.chemistry.molecules import Molecule, water_cluster
from repro.chemistry.scf import ScfProblem, core_hamiltonian, run_scf
from repro.util import ConfigurationError


class TestScfProblem:
    def test_build_wires_consistent_sizes(self, small_problem):
        assert small_problem.blocks.n_basis == small_problem.basis.n_basis
        assert small_problem.hcore.shape == (small_problem.basis.n_basis,) * 2

    def test_n_occupied_even_electrons(self, small_problem):
        assert small_problem.n_occupied == small_problem.molecule.n_electrons // 2

    def test_odd_electron_count_rejected(self):
        mol = Molecule(("H",), np.zeros((1, 3)))
        problem = ScfProblem.build(mol, block_size=2)
        with pytest.raises(ConfigurationError, match="even electron"):
            _ = problem.n_occupied


class TestOneElectronOnFirstRead:
    """``hcore`` and ``overlap`` are computed when somebody reads them."""

    @pytest.mark.parametrize("basis_set, block_size", [("s-only", 3), ("sto-3g", 4)])
    def test_energy_equals_the_eager_build_to_the_bit(self, basis_set, block_size):
        from repro.chemistry.integrals import overlap_matrix

        lazy = ScfProblem.build(water_cluster(1), block_size, basis_set=basis_set)
        assert not {"hcore", "overlap"} & set(lazy.__dict__)
        eager = ScfProblem(
            molecule=lazy.molecule, basis=lazy.basis, blocks=lazy.blocks, screen=lazy.screen,
            graph=lazy.graph, kernel=lazy.kernel,
            hcore=core_hamiltonian(lazy.basis, lazy.kernel.engine),
            overlap=overlap_matrix(lazy.basis),
        )
        ours = run_scf(lazy.molecule, problem=lazy, accelerator="diis")
        theirs = run_scf(eager.molecule, problem=eager, accelerator="diis")
        assert ours.energy.hex() == theirs.energy.hex()
        assert [e.hex() for e in ours.energy_history] == [e.hex() for e in theirs.energy_history]
        assert lazy.hcore is lazy.hcore and lazy.overlap is lazy.overlap
        assert np.array_equal(lazy.hcore, eager.hcore)

    def test_first_readers_of_hcore_share_one_matrix(self, racing_reads):
        problem = ScfProblem.build(water_cluster(2), block_size=4)
        seen = racing_reads(lambda: problem.hcore)
        assert all(hcore is problem.hcore for hcore in seen)


class TestRunScf:
    def test_water_converges(self, tiny_problem):
        result = run_scf(tiny_problem.molecule, problem=tiny_problem)
        assert result.converged
        assert result.n_iterations < 50

    def test_energy_reproducible(self, tiny_problem):
        a = run_scf(tiny_problem.molecule, problem=tiny_problem)
        b = run_scf(tiny_problem.molecule, problem=tiny_problem)
        assert a.energy == pytest.approx(b.energy, abs=1e-12)

    def test_energy_below_core_guess(self, tiny_problem):
        """SCF iteration must lower the energy from the first estimate."""
        result = run_scf(tiny_problem.molecule, problem=tiny_problem)
        assert result.energy < result.energy_history[0] + 1e-10

    def test_total_is_electronic_plus_nuclear(self, tiny_problem):
        result = run_scf(tiny_problem.molecule, problem=tiny_problem)
        assert result.energy == pytest.approx(
            result.electronic_energy + result.nuclear_repulsion
        )

    def test_density_trace_counts_electron_pairs(self, tiny_problem):
        result = run_scf(tiny_problem.molecule, problem=tiny_problem)
        s = tiny_problem.overlap
        n_pairs = tiny_problem.molecule.n_electrons / 2
        assert np.trace(result.density @ s) == pytest.approx(n_pairs, rel=1e-6)

    def test_screened_energy_close_to_unscreened(self):
        mol = water_cluster(1, seed=0)
        exact = run_scf(mol, block_size=3, tau=0.0)
        screened = run_scf(mol, block_size=3, tau=1e-9)
        assert screened.energy == pytest.approx(exact.energy, abs=1e-6)

    def test_custom_g_builder_used(self, tiny_problem):
        calls = []
        serial = tiny_problem.serial_g_builder()

        def spy(density):
            calls.append(1)
            return serial(density)

        result = run_scf(tiny_problem.molecule, problem=tiny_problem, g_builder=spy)
        assert len(calls) == result.n_iterations

    def test_callback_invoked_each_iteration(self, tiny_problem):
        seen = []
        result = run_scf(
            tiny_problem.molecule,
            problem=tiny_problem,
            callback=lambda it, e, d: seen.append(it),
        )
        assert seen == list(range(1, result.n_iterations + 1))

    def test_max_iterations_respected(self, tiny_problem):
        result = run_scf(tiny_problem.molecule, problem=tiny_problem, max_iterations=2)
        assert result.n_iterations == 2
        assert not result.converged

    def test_invalid_damping_rejected(self, tiny_problem):
        with pytest.raises(ConfigurationError, match="damping"):
            run_scf(tiny_problem.molecule, problem=tiny_problem, damping=1.0)

    def test_block_size_does_not_change_energy(self):
        mol = water_cluster(1, seed=3)
        e_small = run_scf(mol, block_size=2, tau=0.0).energy
        e_large = run_scf(mol, block_size=7, tau=0.0).energy
        assert e_small == pytest.approx(e_large, abs=1e-9)


class TestCoreHamiltonian:
    def test_symmetric(self, tiny_problem):
        h = core_hamiltonian(tiny_problem.basis)
        np.testing.assert_allclose(h, h.T)

    def test_matches_problem_cache(self, tiny_problem):
        np.testing.assert_allclose(
            core_hamiltonian(tiny_problem.basis), tiny_problem.hcore
        )
