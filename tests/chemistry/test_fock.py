import numpy as np
import pytest

from repro.chemistry.basis import BlockStructure, build_basis
from repro.chemistry.fock import TaskKernel, fock_reference_dense, fock_reference_tasks
from repro.chemistry.molecules import water_cluster
from repro.chemistry.scf import ScfProblem
from repro.chemistry.screening import SchwarzScreen
from repro.chemistry.tasks import build_task_graph
from repro.util import ConfigurationError


def random_density(n, seed=0):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, n))
    return 0.5 * (d + d.T)


class TestTaskKernelVsDense:
    def test_unscreened_tasks_equal_dense(self, tiny_problem):
        n = tiny_problem.basis.n_basis
        density = random_density(n)
        f_tasks = fock_reference_tasks(tiny_problem.kernel, tiny_problem.graph, density)
        f_dense = fock_reference_dense(
            tiny_problem.basis, density, tiny_problem.kernel.engine
        )
        np.testing.assert_allclose(f_tasks, f_dense, atol=1e-12)

    def test_lightly_screened_tasks_close_to_dense(self, small_problem):
        n = small_problem.basis.n_basis
        density = random_density(n, seed=3)
        f_tasks = fock_reference_tasks(small_problem.kernel, small_problem.graph, density)
        f_dense = fock_reference_dense(
            small_problem.basis, density, small_problem.kernel.engine
        )
        scale = np.abs(f_dense).max()
        assert np.abs(f_tasks - f_dense).max() < 1e-8 * scale

    def test_block_size_independence(self):
        """Different tilings must produce the same Fock matrix."""
        mol = water_cluster(2, seed=4)
        basis = build_basis(mol)
        density = random_density(basis.n_basis, seed=1)
        results = []
        for block_size in (3, 5, 14):
            problem = ScfProblem.build(mol, block_size=block_size, tau=0.0)
            results.append(
                fock_reference_tasks(problem.kernel, problem.graph, density)
            )
        np.testing.assert_allclose(results[0], results[1], atol=1e-11)
        np.testing.assert_allclose(results[0], results[2], atol=1e-11)

    def test_linearity_in_density(self, tiny_problem):
        n = tiny_problem.basis.n_basis
        d1 = random_density(n, 1)
        d2 = random_density(n, 2)
        f1 = fock_reference_tasks(tiny_problem.kernel, tiny_problem.graph, d1)
        f2 = fock_reference_tasks(tiny_problem.kernel, tiny_problem.graph, d2)
        f12 = fock_reference_tasks(tiny_problem.kernel, tiny_problem.graph, d1 + 2 * d2)
        np.testing.assert_allclose(f12, f1 + 2 * f2, atol=1e-10)

    def test_wrong_density_shape_rejected(self, tiny_problem):
        with pytest.raises(ConfigurationError, match="density"):
            fock_reference_tasks(
                tiny_problem.kernel, tiny_problem.graph, np.zeros((2, 2))
            )


class TestTaskKernelInternals:
    def test_alive_pairs_cached(self, tiny_problem):
        kernel = tiny_problem.kernel
        assert kernel.alive_pairs(0, 1) is kernel.alive_pairs(0, 1)

    def test_alive_pairs_tau_zero_complete(self, tiny_problem):
        kernel = tiny_problem.kernel
        blocks = kernel.blocks
        pairs = kernel.alive_pairs(0, 1)
        assert len(pairs) == blocks.block_size(0) * blocks.block_size(1)

    def test_eri_block_tensor_matches_pairwise(self, tiny_problem):
        kernel = tiny_problem.kernel
        engine = kernel.engine
        g = kernel.eri_block_tensor(0, 0, 1, 1)
        lo0, _ = kernel.blocks.block_range(0)
        lo1, _ = kernel.blocks.block_range(1)
        val = engine.eri_pair_pair(
            engine.pair_data(lo0, lo0 + 1), engine.pair_data(lo1, lo1 + 1)
        )
        assert g[0, 1, 0, 1] == pytest.approx(val, rel=1e-12)

    def test_contributions_merge_when_b_equals_c(self, tiny_problem):
        kernel = tiny_problem.kernel
        task = next(
            t for t in tiny_problem.graph.tasks
            if t.quartet[1] == t.quartet[2] and t.quartet[0] != t.quartet[1]
        )
        a, b, c, d = task.quartet
        blocks = kernel.blocks
        d_cd = np.ones((blocks.block_size(c), blocks.block_size(d)))
        d_bd = np.ones((blocks.block_size(b), blocks.block_size(d)))
        contrib = kernel.contributions(task, d_cd, d_bd)
        # writes (a,b) and (a,c) collapse to one block when b == c.
        assert set(contrib) == {(a, b)}

    def test_execute_dense_accumulates(self, tiny_problem):
        n = tiny_problem.basis.n_basis
        density = random_density(n)
        fock = np.zeros((n, n))
        kernel = tiny_problem.kernel
        for task in tiny_problem.graph.tasks[:3]:
            kernel.execute_dense(task, density, fock)
        assert np.abs(fock).sum() > 0


class TestScreenedConsistency:
    def test_task_loop_respects_own_screening(self):
        """With tau > 0, the serial task loop is self-consistent: running
        it twice, or in reversed task order, gives identical results."""
        mol = water_cluster(2, seed=8)
        problem = ScfProblem.build(mol, block_size=4, tau=1e-6)
        n = problem.basis.n_basis
        density = random_density(n, 5)
        f1 = fock_reference_tasks(problem.kernel, problem.graph, density)
        fock = np.zeros((n, n))
        for task in reversed(problem.graph.tasks):
            problem.kernel.execute_dense(task, density, fock)
        np.testing.assert_allclose(fock, f1, atol=1e-10)

    def test_tau_controls_error_monotonically(self):
        mol = water_cluster(2, seed=9)
        basis = build_basis(mol)
        density = random_density(basis.n_basis, 7)
        dense = fock_reference_dense(basis, density)
        errors = []
        for tau in (1e-4, 1e-8, 1e-12):
            problem = ScfProblem.build(mol, block_size=4, tau=tau)
            f = fock_reference_tasks(problem.kernel, problem.graph, density)
            errors.append(np.abs(f - dense).max())
        assert errors[0] >= errors[1] >= errors[2]


class TestEriReuse:
    """The contracted ERI matrix of a block quartet is computed once per
    kernel; later uses only scatter it and contract with the density."""

    @pytest.fixture
    def problem(self):
        return ScfProblem.build(water_cluster(2, seed=1), tau=0.0)

    def test_scf_evaluates_each_quartet_once(self, problem):
        from repro.chemistry.scf import run_scf

        assert problem.graph.n_tasks == 16
        result = run_scf(problem.molecule, problem=problem, accelerator="diis")
        assert result.n_iterations == 10
        assert problem.kernel.eri_evaluated == 16
        assert problem.kernel.eri_reused == 144

    def test_warm_fresh_and_recomputing_kernels_bit_identical(self, problem, monkeypatch):
        import repro.chemistry.fock as fock

        density = random_density(problem.basis.n_basis, 2)
        fresh = fock_reference_tasks(problem.kernel, problem.graph, density)
        warm = fock_reference_tasks(problem.kernel, problem.graph, density)
        assert problem.kernel.eri_reused == problem.graph.n_tasks
        assert np.array_equal(warm, fresh)

        monkeypatch.setattr(fock, "_ERI_MEMO_BYTES", 0)
        recomputing = ScfProblem.build(problem.molecule, tau=0.0).kernel
        for _ in range(2):
            again = fock_reference_tasks(recomputing, problem.graph, density)
            assert np.array_equal(again, fresh)
        assert recomputing.eri_evaluated == 2 * problem.graph.n_tasks
        assert recomputing.eri_reused == 0
        assert recomputing.eri_bytes == 0

    def test_memo_stays_within_budget(self, problem, monkeypatch):
        import repro.chemistry.fock as fock

        density = random_density(problem.basis.n_basis, 4)
        oracle = fock_reference_tasks(problem.kernel, problem.graph, density)
        total = problem.kernel.eri_bytes
        budget = total // 3
        monkeypatch.setattr(fock, "_ERI_MEMO_BYTES", budget)
        tight = ScfProblem.build(problem.molecule, tau=0.0).kernel
        for _ in range(2):
            assert np.array_equal(
                fock_reference_tasks(tight, problem.graph, density), oracle
            )
        assert 0 < tight.eri_bytes <= budget
        assert 0 < tight.eri_reused < problem.graph.n_tasks
        assert tight.eri_evaluated + tight.eri_reused == 2 * problem.graph.n_tasks

    def test_kernels_do_not_share_entries(self, problem):
        other = TaskKernel(
            problem.basis, problem.blocks, problem.screen, problem.kernel.tau,
            problem.kernel.engine,
        )
        problem.kernel.eri_block_tensor(0, 0, 1, 1)
        g = other.eri_block_tensor(0, 0, 1, 1)
        assert (other.eri_evaluated, other.eri_reused) == (1, 0)
        assert (problem.kernel.eri_evaluated, problem.kernel.eri_reused) == (1, 0)
        assert np.array_equal(g, problem.kernel.eri_block_tensor(0, 0, 1, 1))

    def test_returned_tensor_is_private(self, problem):
        """Callers may scribble on a block tensor without touching the memo."""
        first = problem.kernel.eri_block_tensor(0, 1, 1, 0)
        expected = first.copy()
        first[:] = np.nan
        assert np.array_equal(problem.kernel.eri_block_tensor(0, 1, 1, 0), expected)

    def test_pickled_kernel_starts_cold(self, problem):
        import pickle

        density = random_density(problem.basis.n_basis, 6)
        oracle = fock_reference_tasks(problem.kernel, problem.graph, density)
        clone = pickle.loads(pickle.dumps(problem.kernel))
        assert (clone.eri_evaluated, clone.eri_reused, clone.eri_bytes) == (0, 0, 0)
        assert np.array_equal(fock_reference_tasks(clone, problem.graph, density), oracle)

    def test_counters_exact_under_racing_threads(self, problem):
        """More threads than cores hammer one cold kernel: a lost race may
        recompute a quartet, but never loses a count or a byte."""
        import sys
        import threading

        kernel = problem.kernel
        quartets = [task.quartet for task in problem.graph.tasks]
        oracle = {
            q: ScfProblem.build(problem.molecule, tau=0.0).kernel.eri_block_tensor(*q)
            for q in quartets[:4]
        }
        n_threads, rounds = 8, 3
        errors: list[Exception] = []

        def hammer(offset: int) -> None:
            try:
                for r in range(rounds):
                    for i in range(len(quartets)):
                        q = quartets[(i + offset) % len(quartets)]
                        g = kernel.eri_block_tensor(*q)
                        if q in oracle and not np.array_equal(g, oracle[q]):
                            raise AssertionError(f"quartet {q} differs")
            except Exception as exc:  # reported from the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(2 * t,), daemon=True)
                for t in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        calls = n_threads * rounds * len(quartets)
        assert kernel.eri_evaluated + kernel.eri_reused == calls
        assert kernel.eri_evaluated >= len(quartets)
        assert kernel.eri_bytes == sum(
            8 * len(kernel.alive_pairs(a, b)) * len(kernel.alive_pairs(c, d))
            for a, b, c, d in quartets
        )
