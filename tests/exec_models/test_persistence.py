import numpy as np
import pytest

from repro.chemistry.tasks import synthetic_task_graph
from repro.exec_models import run_persistence
from repro.exec_models.persistence import rebalance_from_measurements
from repro.exec_models.static_ import StaticBlock
from repro.simulate import StaticHeterogeneity, commodity_cluster
from repro.util import ConfigurationError


class TestRunPersistence:
    def test_iteration_count(self, synthetic_graph, machine16):
        history = run_persistence(synthetic_graph, machine16, n_iterations=3)
        assert len(history.results) == 3

    def test_improves_over_first_iteration(self, machine16):
        graph = synthetic_task_graph(400, 16, seed=6, skew=1.5)
        history = run_persistence(graph, machine16, n_iterations=4)
        assert history.steady_state.makespan < history.results[0].makespan
        assert history.improvement > 1.0

    def test_converges_quickly(self, machine16):
        """Deterministic costs: iteration 3 should match iteration 2."""
        graph = synthetic_task_graph(400, 16, seed=6, skew=1.5)
        history = run_persistence(graph, machine16, n_iterations=4)
        m = history.makespans
        assert abs(m[3] - m[2]) / m[2] < 0.05

    def test_adapts_to_heterogeneity(self):
        """Capacity-aware rebalancing must unload the slow ranks."""
        graph = synthetic_task_graph(600, 16, seed=1, skew=0.8)
        machine = commodity_cluster(16, variability=StaticHeterogeneity([0, 1], 0.4))
        history = run_persistence(graph, machine, n_iterations=4, capacity_aware=True)
        first, last = history.results[0], history.steady_state
        assert last.makespan < 0.7 * first.makespan
        # Slow ranks end with less modeled work than the mean.
        loads = np.bincount(last.assignment, weights=graph.costs, minlength=16)
        assert loads[0] < loads[2:].mean()

    def test_capacity_aware_beats_naive_under_heterogeneity(self):
        graph = synthetic_task_graph(600, 16, seed=1, skew=0.8)
        machine = commodity_cluster(16, variability=StaticHeterogeneity([0, 1], 0.4))
        aware = run_persistence(graph, machine, 4, capacity_aware=True)
        naive = run_persistence(graph, machine, 4, capacity_aware=False)
        assert aware.steady_state.makespan <= naive.steady_state.makespan * 1.05

    def test_invalid_iterations_rejected(self, synthetic_graph, machine4):
        with pytest.raises(ValueError):
            run_persistence(synthetic_graph, machine4, n_iterations=0)

    def test_invalid_initial_rejected(self, synthetic_graph, machine4):
        with pytest.raises(ConfigurationError):
            run_persistence(synthetic_graph, machine4, initial="random")


class TestRebalanceFromMeasurements:
    def test_assignment_shape_valid(self, synthetic_graph, machine16):
        result = StaticBlock().run(synthetic_graph, machine16)
        assignment = rebalance_from_measurements(result, synthetic_graph)
        assert assignment.shape == (synthetic_graph.n_tasks,)
        assert assignment.min() >= 0 and assignment.max() < 16

    def test_balances_measured_durations(self, synthetic_graph, machine16):
        result = StaticBlock().run(synthetic_graph, machine16)
        assignment = rebalance_from_measurements(result, synthetic_graph)
        loads = np.bincount(
            assignment, weights=result.task_durations, minlength=16
        )
        assert loads.max() / loads.mean() < 1.1
