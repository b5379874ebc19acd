import pytest

from repro.chemistry.tasks import synthetic_task_graph
from repro.exec_models import ScfSimulation


class TestRunPersistence:
    """The persistence mode of the whole-SCF simulation, iteration by iteration."""

    def test_iteration_count(self, synthetic_graph, machine16):
        result = ScfSimulation("persistence").run(synthetic_graph, machine16, n_iterations=3)
        assert len(result.iteration_times) == 3
        assert len(result.assignments) == 3

    def test_improves_over_first_iteration(self, machine16):
        graph = synthetic_task_graph(400, 16, seed=6, skew=1.5)
        result = ScfSimulation("persistence").run(graph, machine16, n_iterations=4)
        assert result.steady_state_time < result.first_iteration_time
        assert result.first_iteration_time / result.steady_state_time > 1.0

    def test_invalid_iterations_rejected(self, synthetic_graph, machine4):
        with pytest.raises(ValueError):
            ScfSimulation("persistence").run(synthetic_graph, machine4, n_iterations=0)
