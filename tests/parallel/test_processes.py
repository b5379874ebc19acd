import numpy as np
import pytest

from repro.chemistry.fock import fock_reference_tasks
from repro.chemistry.scf import run_scf
from repro.parallel import ProcessFockBuilder, process_g_builder
from repro.util import ConfigurationError


def random_density(problem, seed=0):
    rng = np.random.default_rng(seed)
    n = problem.basis.n_basis
    d = rng.normal(size=(n, n))
    return 0.5 * (d + d.T)


@pytest.mark.parametrize("mode", ["static", "counter"])
class TestProcessModes:
    def test_matches_serial_reference(self, small_problem, mode):
        density = random_density(small_problem)
        serial = fock_reference_tasks(
            small_problem.kernel, small_problem.graph, density
        )
        builder = ProcessFockBuilder(small_problem, n_workers=2, mode=mode)
        parallel = builder.build(density)
        np.testing.assert_allclose(parallel, serial, atol=1e-11)

    def test_all_tasks_executed(self, small_problem, mode):
        builder = ProcessFockBuilder(small_problem, n_workers=3, mode=mode)
        builder.build(random_density(small_problem))
        assert sum(builder.last_stats.tasks_per_worker) == small_problem.graph.n_tasks

    def test_single_worker(self, small_problem, mode):
        density = random_density(small_problem, seed=1)
        serial = fock_reference_tasks(
            small_problem.kernel, small_problem.graph, density
        )
        builder = ProcessFockBuilder(small_problem, n_workers=1, mode=mode)
        np.testing.assert_allclose(builder.build(density), serial, atol=1e-11)

    def test_cold_kernel_forked(self, mode):
        """Forked workers fill their own copies of a cold ERI memo; the
        parent's kernel is left as it was."""
        from repro.chemistry import ScfProblem, water_cluster

        molecule = water_cluster(2, seed=6)
        problem = ScfProblem.build(molecule, block_size=4, tau=0.0)
        oracle = ScfProblem.build(molecule, block_size=4, tau=0.0)
        density = random_density(problem, seed=3)
        serial = fock_reference_tasks(oracle.kernel, oracle.graph, density)
        builder = ProcessFockBuilder(problem, n_workers=2, mode=mode)
        np.testing.assert_allclose(builder.build(density), serial, atol=1e-11)
        assert problem.kernel.eri_evaluated == problem.kernel.eri_reused == 0


class TestValidation:
    def test_bad_mode_rejected(self, small_problem):
        with pytest.raises(ConfigurationError):
            ProcessFockBuilder(small_problem, mode="stealing")

    def test_bad_workers_rejected(self, small_problem):
        with pytest.raises(ValueError):
            ProcessFockBuilder(small_problem, n_workers=0)

    def test_bad_density_rejected(self, small_problem):
        builder = ProcessFockBuilder(small_problem)
        with pytest.raises(ConfigurationError, match="density"):
            builder.build(np.zeros((3, 3)))


class TestScfIntegration:
    def test_process_scf_matches_serial(self, tiny_problem):
        serial = run_scf(tiny_problem.molecule, problem=tiny_problem)
        g = process_g_builder(tiny_problem, n_workers=2, mode="counter")
        parallel = run_scf(tiny_problem.molecule, problem=tiny_problem, g_builder=g)
        assert parallel.converged
        assert parallel.energy == pytest.approx(serial.energy, abs=1e-8)
