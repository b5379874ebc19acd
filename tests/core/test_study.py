import pytest

from repro.core import StudyConfig, Workload, build_workload, run_study, workload_label
from repro.chemistry import water_cluster


class TestBuildWorkload:
    def test_pipeline_wired(self):
        wl = build_workload(water_cluster(1), block_size=3, tau=0.0)
        assert wl.graph.n_tasks > 0
        assert wl.problem is not None
        assert wl.problem.graph is wl.graph

    def test_default_name(self):
        wl = build_workload(water_cluster(1), block_size=3)
        assert "3 atoms" in wl.name
        assert "H2O" in wl.name

    def test_custom_name(self):
        wl = build_workload(water_cluster(1), name="w1", block_size=3)
        assert wl.name == "w1"

    def test_default_names_unique_per_geometry(self):
        """Equal formula and atom count must not collide on the label."""
        a = workload_label(water_cluster(2, seed=0))
        b = workload_label(water_cluster(2, seed=1))
        assert a != b
        assert a.split("[")[0] == b.split("[")[0]  # same formula prefix


class TestRunStudy:
    def test_all_cells_present(self, synthetic_graph):
        config = StudyConfig(
            models=("static_block", "counter_dynamic"), n_ranks=(4, 8)
        )
        report = run_study(config, synthetic_graph)
        assert sorted(report.results) == [
            ("counter_dynamic", 4), ("counter_dynamic", 8),
            ("static_block", 4), ("static_block", 8),
        ]

    def test_no_source_rejected(self):
        config = StudyConfig(models=("static_block",), n_ranks=(4,))
        with pytest.raises(TypeError):
            run_study(config)

    def test_source_plus_legacy_keyword_rejected(self, synthetic_graph):
        config = StudyConfig(models=("static_block",), n_ranks=(4,))
        with pytest.raises(TypeError):
            run_study(
                config,
                synthetic_graph,
                workload=Workload("w", synthetic_graph),
            )

    def test_accepts_workload(self, synthetic_graph):
        config = StudyConfig(models=("static_block",), n_ranks=(4,))
        report = run_study(config, Workload("w", synthetic_graph))
        assert report.get("static_block", 4).n_tasks == synthetic_graph.n_tasks

    def test_accepts_problem(self, tiny_problem):
        config = StudyConfig(models=("static_cyclic",), n_ranks=(2,))
        report = run_study(config, tiny_problem)
        assert report.get("static_cyclic", 2).n_tasks == tiny_problem.graph.n_tasks

    def test_legacy_keywords_removed(self, synthetic_graph):
        config = StudyConfig(models=("static_block",), n_ranks=(4,), seed=3)
        with pytest.raises(TypeError):
            run_study(config, graph=synthetic_graph)

    def test_deterministic(self, synthetic_graph):
        config = StudyConfig(models=("work_stealing",), n_ranks=(4,), seed=7)
        a = run_study(config, synthetic_graph)
        b = run_study(config, synthetic_graph)
        assert (
            a.get("work_stealing", 4).makespan == b.get("work_stealing", 4).makespan
        )

    def test_seeds_differ_per_cell(self, synthetic_graph):
        """Two models at the same P must not share RNG streams (stealing
        patterns should differ from any coupled behaviour)."""
        config = StudyConfig(
            models=("work_stealing", "work_stealing_one"), n_ranks=(4,), seed=1
        )
        report = run_study(config, synthetic_graph)
        a = report.get("work_stealing", 4)
        b = report.get("work_stealing(one,random)", 4)
        assert a.makespan != b.makespan
