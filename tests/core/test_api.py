"""The repro.api facade: source polymorphism, shims, option vocabulary."""

import warnings

import pytest

from repro import api
from repro.util import ConfigurationError

from tests.core.test_cache import assert_results_identical


#: The frozen public surface. Changing it is an API decision: update this
#: tuple *and* docs/api_tour.md in the same commit, never casually.
PINNED_SURFACE = (
    "__version__", "api_surface",
    "Molecule", "water_cluster", "linear_alkane",
    "ScfProblem", "TaskGraph", "Workload", "build_workload", "resolve_source",
    "MachineSpec", "MACHINE_PRESETS", "commodity_cluster",
    "fast_network_cluster", "hierarchical_cluster",
    "run_scf", "ScfResult", "run_model", "make_model",
    "normalize_model_options", "MODEL_NAMES", "RunResult", "ScfSimulation",
    "ScfSimResult", "FaultPlan",
    "StudyConfig", "StudyReport", "run_study", "sweep", "JobSpec",
    "SourceSpec", "JobSpecError", "run_job", "study_cells", "SweepRunner",
    "SweepCell", "SweepProgress", "SweepStats", "print_progress",
    "ResultCache", "CacheStats", "default_cache_dir", "fingerprint",
    "CACHE_SALT",
    "ArtifactStore", "ArtifactStats", "artifact_key", "configure_artifacts",
    "default_store", "use_store",
    "CellFailure", "WorkerError", "RetryPolicy", "HOST_RETRY_POLICY",
    "SweepJournal", "JournalEntry",
    "CellExecutor", "DistributedExecutor", "DegradedExecutionWarning",
    "make_executor", "parse_executor_spec", "format_executor_spec",
    "format_table", "format_failures",
)


class TestStableSurface:
    def test_all_importable(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_core_entry_points_present(self):
        for name in ("sweep", "run_study", "build_workload", "run_scf", "run_model"):
            assert name in api.__all__

    def test_surface_is_pinned(self):
        assert api.api_surface() == PINNED_SURFACE

    def test_surface_is_all(self):
        assert list(api.api_surface()) == api.__all__

    def test_version_exported(self):
        import repro

        assert api.__version__ == repro.__version__


class TestSourcePolymorphism:
    def test_resolve_source(self, tiny_problem):
        graph = tiny_problem.graph
        workload = api.build_workload(tiny_problem.molecule, block_size=3, tau=0.0)
        assert api.resolve_source(graph) is graph
        assert api.resolve_source(tiny_problem) is graph
        assert api.resolve_source(workload) is workload.graph
        with pytest.raises(ConfigurationError):
            api.resolve_source("not a workload")

    def test_run_study_accepts_all_three(self, tiny_problem):
        config = api.StudyConfig(models=("static_block",), n_ranks=(2,))
        workload = api.Workload("w", tiny_problem.graph)
        reports = [
            api.run_study(config, source)
            for source in (tiny_problem, tiny_problem.graph, workload)
        ]
        makespans = {r.get("static_block", 2).makespan for r in reports}
        assert len(makespans) == 1

    def test_run_model_accepts_problem(self, tiny_problem):
        machine = api.commodity_cluster(2)
        via_problem = api.run_model("static_block", tiny_problem, machine, seed=1)
        via_graph = api.run_model("static_block", tiny_problem.graph, machine, seed=1)
        assert_results_identical(via_problem, via_graph)


class TestRemovedKeywords:
    """The workload=/problem=/graph= trio finished its deprecation cycle."""

    @pytest.mark.parametrize("kw", ["workload", "problem", "graph"])
    def test_legacy_keywords_raise_naming_replacement(self, synthetic_graph, kw):
        config = api.StudyConfig(models=("static_block",), n_ranks=(4,))
        with pytest.raises(TypeError):
            api.run_study(config, **{kw: synthetic_graph})

    def test_source_plus_keyword_rejected(self, synthetic_graph):
        config = api.StudyConfig(models=("static_block",), n_ranks=(4,))
        with pytest.raises(TypeError):
            api.run_study(config, synthetic_graph, graph=synthetic_graph)

    def test_missing_source_rejected(self):
        config = api.StudyConfig(models=("static_block",), n_ranks=(4,))
        with pytest.raises(TypeError):
            api.run_study(config)
        with pytest.raises(ConfigurationError, match="must be a Workload"):
            api.run_study(config, None)

    def test_no_deprecation_warnings_remain(self, synthetic_graph):
        config = api.StudyConfig(models=("static_block",), n_ranks=(2,))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.run_study(config, synthetic_graph)


class TestOptionVocabulary:
    def test_make_model_aliases(self, synthetic_graph):
        machine = api.commodity_cluster(4)
        canonical = api.make_model("work_stealing", steal="one")
        aliased = api.make_model("work_stealing", steal_policy="one")
        named = api.make_model("work_stealing_one")
        runs = [
            m.run(synthetic_graph, machine, seed=2) for m in (canonical, aliased, named)
        ]
        assert_results_identical(runs[0], runs[1])
        assert_results_identical(runs[0], runs[2])

    def test_scf_simulation_shares_spellings(self):
        assert api.ScfSimulation("counter", chunk_size=4).chunk == 4
        assert api.ScfSimulation("counter", chunk=4).chunk == 4

    def test_unknown_option_rejected_everywhere(self, synthetic_graph):
        machine = api.commodity_cluster(4)
        with pytest.raises(ConfigurationError, match="unknown model option"):
            api.make_model("work_stealing", stealing_mode="one")
        with pytest.raises(ConfigurationError, match="unknown model option"):
            api.ScfSimulation("counter", chunks=4)
        with pytest.raises(ConfigurationError, match="unknown model option"):
            api.run_model("work_stealing", synthetic_graph, machine, bogus=1)

    def test_alias_collision_rejected(self):
        with pytest.raises(ConfigurationError, match="more than once"):
            api.make_model("work_stealing", steal="one", steal_policy="half")

    def test_normalize_exported(self):
        assert api.normalize_model_options({"chunk_size": 8}) == {"chunk": 8}


class TestSweepFacade:
    def test_sweep_matches_run_study(self, synthetic_graph, tmp_path):
        config = api.StudyConfig(
            models=("static_block", "work_stealing"), n_ranks=(4,), seed=3
        )
        plain = api.run_study(config, synthetic_graph)
        swept = api.sweep(config, synthetic_graph, cache=tmp_path)
        rewarmed = api.sweep(config, synthetic_graph, cache=tmp_path)
        for key in plain.results:
            assert_results_identical(plain.results[key], swept.results[key])
            assert_results_identical(plain.results[key], rewarmed.results[key])
        assert set(rewarmed.provenance.values()) == {"cached"}

    def test_run_study_jobs_and_cache_passthrough(self, synthetic_graph, tmp_path):
        config = api.StudyConfig(models=("static_block",), n_ranks=(4,))
        api.run_study(config, synthetic_graph, cache=tmp_path)
        report = api.run_study(config, synthetic_graph, cache=tmp_path)
        assert set(report.provenance.values()) == {"cached"}


class TestWorkloadLabels:
    def test_label_includes_formula_and_hash(self):
        wl = api.build_workload(api.water_cluster(1), block_size=3)
        assert "3 atoms" in wl.name
        assert "H2O" in wl.name

    def test_same_atom_count_different_labels(self):
        a = api.build_workload(api.water_cluster(2, seed=0), block_size=3)
        b = api.build_workload(api.water_cluster(2, seed=1), block_size=3)
        assert a.name != b.name


class TestAJobPaysForWhatItReads:
    """A study reads a graph's arrays, never its ``TaskSpec``s or the SCF's
    one-electron matrices: a warm job builds neither."""

    @pytest.fixture
    def unread(self, monkeypatch):
        from repro.chemistry import scf
        from repro.chemistry.tasks import TaskSpec

        def boom(*_args, **_kwargs):
            raise AssertionError("built something no line of the job reads")

        def arm():
            monkeypatch.setattr(TaskSpec, "__init__", boom)
            monkeypatch.setattr(scf, "core_hamiltonian", boom)
            monkeypatch.setattr(scf, "overlap_matrix", boom)

        return arm

    def test_warm_source_build_and_cached_job(self, unread, tmp_path):
        spec = api.JobSpec(
            source=api.SourceSpec(size=2),
            models=("static_block", "work_stealing"),
            ranks=(4, 8),
            executor="serial",
            cache_dir=str(tmp_path),
        )
        with api.use_store(None):
            cold = api.run_job(spec)
            unread()
            api.configure_artifacts(tmp_path / "artifacts")  # nothing memoised
            problem = spec.source.build()
            assert "tasks" not in problem.graph.__dict__
            assert not {"hcore", "overlap"} & set(problem.__dict__)
            warm = api.run_job(spec)
        assert set(warm.provenance.values()) == {"cached"}
        assert warm.rows() == cold.rows()

    def test_cold_build_constructs_no_task_either(self, unread):
        unread()
        with api.use_store(None):
            problem = api.ScfProblem.build(api.water_cluster(1), block_size=3)
        assert problem.graph.n_tasks > 0 and "tasks" not in problem.graph.__dict__

    def test_balancers_read_arrays_only(self, unread):
        from repro.balance import hypergraph_balancer, semi_matching_balancer
        from repro.chemistry.tasks import synthetic_task_graph

        unread()
        graph = synthetic_task_graph(400, 8, seed=9)
        with api.use_store(None):
            for balancer in (semi_matching_balancer, hypergraph_balancer):
                assignment = balancer(graph, 4)
                assert len(assignment) == graph.n_tasks
        assert "tasks" not in graph.__dict__


class TestOneJobStore:
    """A job's artifact store is decided in one place: the default store
    is kept across jobs on one cache root, so its memo outlives a job."""

    @staticmethod
    def spec(cache_dir, **overrides):
        return api.JobSpec(
            **{
                "source": api.SourceSpec(size=1, block_size=3),
                "models": ("static_block", "work_stealing"),
                "ranks": (4,),
                "executor": "serial",
                "cache_dir": str(cache_dir),
                **overrides,
            }
        )

    def test_second_job_on_a_root_is_served_from_the_memo(self, tmp_path):
        with api.use_store(None):
            api.run_job(self.spec(tmp_path))
            store = api.default_store()
            assert store.root == tmp_path / "artifacts"
            before = (store.stats.memo_hits, store.stats.disk_hits)
            api.run_job(self.spec(tmp_path))
            assert api.default_store() is store
            assert store.stats.memo_hits > before[0]
            assert store.stats.disk_hits == before[1] == 0

    def test_other_root_or_no_artifacts_replaces_the_store(self, tmp_path):
        with api.use_store(None):
            api.run_job(self.spec(tmp_path / "a"))
            first = api.default_store()
            api.run_job(self.spec(tmp_path / "b"))
            second = api.default_store()
            assert second is not first and second.root == tmp_path / "b" / "artifacts"
            api.run_job(self.spec(tmp_path / "b", artifact_cache=False))
            assert api.default_store() is None

    def test_the_cli_installs_one_store(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main
        from repro.core import artifacts

        installed = []
        real = artifacts.configure_artifacts
        monkeypatch.setattr(
            artifacts,
            "configure_artifacts",
            lambda *a, **k: installed.append(real(*a, **k)) or installed[-1],
        )
        argv = ["study", "--size", "1", "--block-size", "3", "--ranks", "4",
                "--models", "static_block", "--cache-dir", str(tmp_path)]
        with api.use_store(None):
            assert main(argv) == 0
            assert len(installed) == 1 and api.default_store() is installed[0]
            assert main(argv) == 0
            assert len(installed) == 1
        capsys.readouterr()

    def test_concurrent_jobs_share_an_evicting_store(self, tmp_path):
        import threading

        specs = [
            self.spec(tmp_path, source=api.SourceSpec(size=size, block_size=3))
            for size in (1, 2)
        ]
        with api.use_store(None):
            serial = [api.run_job(spec.with_overrides(cache=False)).rows() for spec in specs]
        rows, errors = {}, []

        def worker(index):
            try:
                for round_ in range(3):
                    spec = specs[(index + round_) % 2]
                    rows[index, round_] = (specs.index(spec), api.run_job(spec).rows())
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        with api.use_store(None):
            store = api.configure_artifacts(
                api.ArtifactStore(tmp_path / "artifacts", memo_limit=2)
            )
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert api.default_store() is store
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(rows) == 6 and all(got == serial[which] for which, got in rows.values())
        assert len(store._memo) <= 2
