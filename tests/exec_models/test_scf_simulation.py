import numpy as np
import pytest

from repro.chemistry.tasks import synthetic_task_graph
from repro.exec_models import ScfSimulation
from repro.simulate import RandomStaticVariability, commodity_cluster, hierarchical_cluster
from repro.util import ConfigurationError


@pytest.fixture(scope="module")
def graph():
    return synthetic_task_graph(400, 12, seed=4, skew=1.0)


@pytest.fixture(scope="module")
def machine():
    return commodity_cluster(8)


ALL_MODES = ("static_block", "static_cyclic", "persistence", "counter", "work_stealing")


class TestAllModes:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_exactly_once_per_iteration(self, graph, machine, mode):
        result = ScfSimulation(mode).run(graph, machine, n_iterations=3, seed=1)
        # run() raises on any violation; check the surfaced assignments too.
        assert len(result.assignments) == 3
        for assignment in result.assignments:
            assert assignment.min() >= 0
            assert assignment.max() < 8

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_iteration_times_positive_and_count(self, graph, machine, mode):
        result = ScfSimulation(mode).run(graph, machine, n_iterations=4, seed=2)
        assert result.iteration_times.shape == (4,)
        assert np.all(result.iteration_times > 0)
        # Total includes the final drain after rank 0's last barrier exit
        # (other ranks' exits, trailing deliveries): equal to within the
        # cost of one barrier wave.
        assert result.total_time >= result.iteration_times.sum() - 1e-12
        assert result.total_time == pytest.approx(result.iteration_times.sum(), rel=1e-3)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_deterministic(self, graph, machine, mode):
        a = ScfSimulation(mode).run(graph, machine, n_iterations=2, seed=5)
        b = ScfSimulation(mode).run(graph, machine, n_iterations=2, seed=5)
        np.testing.assert_array_equal(a.iteration_times, b.iteration_times)


class TestShapes:
    def test_static_iterations_identical(self, graph, machine):
        result = ScfSimulation("static_block").run(graph, machine, n_iterations=3)
        assert np.allclose(result.iteration_times, result.iteration_times[0], rtol=1e-3)

    def test_persistence_improves_after_first_iteration(self, graph):
        machine = commodity_cluster(
            16, variability=RandomStaticVariability(16, 0.3, seed=3)
        )
        result = ScfSimulation("persistence").run(graph, machine, n_iterations=4)
        assert result.iteration_times[1] < 0.8 * result.iteration_times[0]

    def test_persistence_first_iteration_matches_static_block(self, graph, machine):
        static = ScfSimulation("static_block").run(graph, machine, n_iterations=2, seed=1)
        persist = ScfSimulation("persistence").run(graph, machine, n_iterations=2, seed=1)
        assert persist.iteration_times[0] == pytest.approx(
            static.iteration_times[0], rel=1e-9
        )

    def test_dynamic_modes_beat_static_block(self, graph, machine):
        static = ScfSimulation("static_block").run(graph, machine, n_iterations=3)
        for mode in ("counter", "work_stealing"):
            dynamic = ScfSimulation(mode).run(graph, machine, n_iterations=3)
            assert dynamic.total_time < static.total_time

    def test_stealing_counters_recorded(self, graph, machine):
        result = ScfSimulation("work_stealing").run(graph, machine, n_iterations=2)
        assert result.counters["steals"] > 0
        assert result.counters["token_hops"] > 0

    def test_counter_claims_scale_with_iterations(self, graph, machine):
        two = ScfSimulation("counter").run(graph, machine, n_iterations=2)
        four = ScfSimulation("counter").run(graph, machine, n_iterations=4)
        assert four.counters["claims"] == pytest.approx(2 * two.counters["claims"], rel=0.05)

    def test_runs_on_hierarchical_machine(self, graph):
        machine = hierarchical_cluster(2, 8)
        result = ScfSimulation("work_stealing").run(graph, machine, n_iterations=2)
        assert result.n_ranks == 16


class TestValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ScfSimulation("quantum")

    def test_bad_chunk_rejected(self):
        with pytest.raises(ValueError):
            ScfSimulation("counter", chunk=0)

    def test_bad_steal_rejected(self):
        with pytest.raises(ConfigurationError):
            ScfSimulation("work_stealing", steal="all")

    @pytest.mark.parametrize("mode", [m for m in ALL_MODES if m != "counter"])
    @pytest.mark.parametrize("spelling", ["chunk", "chunk_size"])
    def test_chunk_outside_counter_rejected(self, mode, spelling):
        with pytest.raises(ConfigurationError, match="does not accept options .'chunk'."):
            ScfSimulation(mode, **{spelling: 4})

    @pytest.mark.parametrize("mode", [m for m in ALL_MODES if m != "work_stealing"])
    @pytest.mark.parametrize("spelling", ["steal", "steal_policy"])
    def test_steal_outside_work_stealing_rejected(self, mode, spelling):
        with pytest.raises(ConfigurationError, match="does not accept options .'steal'."):
            ScfSimulation(mode, **{spelling: "one"})

    def test_each_mode_takes_its_own_option(self):
        assert ScfSimulation("counter", chunk=4).chunk == 4
        assert ScfSimulation("work_stealing", steal="one").steal == "one"

    def test_bad_iterations_rejected(self, graph, machine):
        with pytest.raises(ValueError):
            ScfSimulation("counter").run(graph, machine, n_iterations=0)

    def test_single_rank(self, graph):
        result = ScfSimulation("work_stealing").run(
            graph, commodity_cluster(1), n_iterations=2
        )
        assert result.n_ranks == 1
