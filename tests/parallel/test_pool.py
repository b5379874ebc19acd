import numpy as np
import pytest

from repro.chemistry.fock import fock_reference_tasks
from repro.chemistry.scf import run_scf
from repro.parallel import SharedMemoryFockBuilder, parallel_g_builder
from repro.util import ConfigurationError


def random_density(problem, seed=0):
    rng = np.random.default_rng(seed)
    n = problem.basis.n_basis
    d = rng.normal(size=(n, n))
    return 0.5 * (d + d.T)


@pytest.mark.parametrize("mode", ["static", "counter", "stealing"])
class TestModesMatchSerial:
    def test_fock_matches_serial_reference(self, small_problem, mode):
        density = random_density(small_problem)
        serial = fock_reference_tasks(
            small_problem.kernel, small_problem.graph, density
        )
        builder = SharedMemoryFockBuilder(small_problem, n_workers=4, mode=mode)
        parallel = builder.build(density)
        np.testing.assert_allclose(parallel, serial, atol=1e-11)

    def test_all_tasks_executed(self, small_problem, mode):
        builder = SharedMemoryFockBuilder(small_problem, n_workers=3, mode=mode)
        builder.build(random_density(small_problem))
        assert sum(builder.last_stats.tasks_per_worker) == small_problem.graph.n_tasks

    def test_single_worker(self, small_problem, mode):
        builder = SharedMemoryFockBuilder(small_problem, n_workers=1, mode=mode)
        density = random_density(small_problem)
        serial = fock_reference_tasks(
            small_problem.kernel, small_problem.graph, density
        )
        np.testing.assert_allclose(builder.build(density), serial, atol=1e-11)

    def test_repeated_builds_consistent(self, small_problem, mode):
        builder = SharedMemoryFockBuilder(small_problem, n_workers=4, mode=mode)
        density = random_density(small_problem, seed=2)
        a = builder.build(density)
        b = builder.build(density)
        np.testing.assert_allclose(a, b, atol=1e-11)

    def test_cold_kernel_filled_by_racing_workers(self, mode):
        """Workers fill the shared kernel's ERI memo concurrently; the
        second build only reuses it."""
        from repro.chemistry import ScfProblem, water_cluster

        molecule = water_cluster(2, seed=6)
        problem = ScfProblem.build(molecule, block_size=4, tau=0.0)
        oracle = ScfProblem.build(molecule, block_size=4, tau=0.0)
        density = random_density(problem, seed=3)
        serial = fock_reference_tasks(oracle.kernel, oracle.graph, density)
        builder = SharedMemoryFockBuilder(problem, n_workers=4, mode=mode)
        np.testing.assert_allclose(builder.build(density), serial, atol=1e-11)
        kernel, n_tasks = problem.kernel, problem.graph.n_tasks
        assert kernel.eri_evaluated + kernel.eri_reused == n_tasks
        evaluated = kernel.eri_evaluated
        np.testing.assert_allclose(builder.build(density), serial, atol=1e-11)
        assert kernel.eri_evaluated == evaluated
        assert kernel.eri_reused == 2 * n_tasks - evaluated


class TestStealingBehaviour:
    def test_steals_counted_under_imbalanced_start(self, medium_problem):
        builder = SharedMemoryFockBuilder(medium_problem, n_workers=4, mode="stealing")
        builder.build(random_density(medium_problem))
        assert builder.last_stats.steals >= 0  # counted (may be 0 on tiny runs)
        assert builder.last_stats.wall_seconds > 0

    def test_work_spread_across_workers(self, medium_problem):
        builder = SharedMemoryFockBuilder(medium_problem, n_workers=4, mode="stealing")
        builder.build(random_density(medium_problem))
        counts = builder.last_stats.tasks_per_worker
        assert min(counts) > 0


class TestValidation:
    def test_bad_mode_rejected(self, small_problem):
        with pytest.raises(ConfigurationError):
            SharedMemoryFockBuilder(small_problem, mode="gpu")

    def test_bad_worker_count_rejected(self, small_problem):
        with pytest.raises(ValueError):
            SharedMemoryFockBuilder(small_problem, n_workers=0)

    def test_bad_density_shape_rejected(self, small_problem):
        builder = SharedMemoryFockBuilder(small_problem)
        with pytest.raises(ConfigurationError, match="density"):
            builder.build(np.zeros((2, 2)))


class TestScfIntegration:
    def test_parallel_scf_energy_matches_serial(self, tiny_problem):
        serial = run_scf(tiny_problem.molecule, problem=tiny_problem)
        g = parallel_g_builder(tiny_problem, n_workers=3, mode="stealing")
        parallel = run_scf(tiny_problem.molecule, problem=tiny_problem, g_builder=g)
        assert parallel.energy == pytest.approx(serial.energy, abs=1e-8)
        assert parallel.converged
