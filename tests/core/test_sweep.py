"""Sweep orchestrator: grid expansion, ordering, parallel equivalence."""

import functools
import pickle

import pytest

from repro.core import (
    ResultCache,
    StudyConfig,
    SweepCell,
    SweepRunner,
    execute_cell,
    run_study,
    study_cells,
)
from repro.faults import FaultPlan, RankCrash, RetryPolicy
from repro.parallel import fork_available
from repro.simulate import commodity_cluster
from repro.util import ConfigurationError

from tests.core.test_cache import assert_results_identical


class TestSweepCell:
    def test_options_canonicalized(self, synthetic_graph):
        a = SweepCell(
            model="counter_dynamic",
            graph=synthetic_graph,
            machine=commodity_cluster(4),
            options=(("order", "desc_cost"), ("chunk", 4)),
        )
        assert a.options == (("chunk", 4), ("order", "desc_cost"))

    def test_bad_kind_rejected(self, synthetic_graph):
        # "persistence" is an scf_sim mode, not a cell kind.
        for kind in ("nope", "persistence"):
            with pytest.raises(ConfigurationError, match="kind"):
                SweepCell(
                    model="static_block",
                    graph=synthetic_graph,
                    machine=commodity_cluster(4),
                    kind=kind,
                )

    @pytest.mark.parametrize("kind", ["scf_sim"])
    @pytest.mark.parametrize(
        "setting",
        [
            {"faults": FaultPlan(crashes=(RankCrash(1, 0.001),))},
            {"trace_intervals": True},
        ],
        ids=["faults", "trace_intervals"],
    )
    def test_a_setting_only_models_run_is_refused(self, synthetic_graph, kind, setting):
        # execute_cell would drop it, yet it would enter the cache key:
        # a "faulty" cell would cache a fault-free result.
        with pytest.raises(ConfigurationError, match="no fault plan and no trace_intervals"):
            SweepCell(
                model="counter",
                graph=synthetic_graph,
                machine=commodity_cluster(4),
                kind=kind,
                **setting,
            )

    @pytest.mark.parametrize("kind", ["scf_sim"])
    def test_an_empty_fault_plan_is_inert(self, synthetic_graph, kind):
        cell = SweepCell(
            model="counter",
            graph=synthetic_graph,
            machine=commodity_cluster(4),
            kind=kind,
            faults=FaultPlan(),
        )
        assert cell.faults.empty

    def test_label(self, synthetic_graph):
        cell = SweepCell(
            model="static_block",
            graph=synthetic_graph,
            machine=commodity_cluster(8),
            tag="baseline",
        )
        assert cell.label == "baseline@P=8"


class TestStudyCells:
    def test_matches_serial_driver(self, synthetic_graph):
        """Same grid, same seeds, same order as the legacy serial loop."""
        config = StudyConfig(
            models=("static_block", "work_stealing"), n_ranks=(4, 8), seed=5
        )
        cells = study_cells(config, synthetic_graph)
        assert [c.label for c in cells] == [
            "static_block@P=4",
            "work_stealing@P=4",
            "static_block@P=8",
            "work_stealing@P=8",
        ]
        report = run_study(config, synthetic_graph)
        for cell in cells:
            result = execute_cell(cell)
            assert_results_identical(result, report.get(result.model, result.n_ranks))


class TestSweepRunner:
    def test_results_in_input_order(self, synthetic_graph):
        cells = [
            SweepCell(model=m, graph=synthetic_graph, machine=commodity_cluster(4))
            for m in ("work_stealing", "static_block", "counter_dynamic")
        ]
        results = SweepRunner().run_cells(cells)
        assert [r.model for r in results] == [
            "work_stealing",
            "static_block",
            "counter_dynamic",
        ]

    def test_run_study_equals_legacy(self, synthetic_graph):
        config = StudyConfig(
            models=("static_block", "work_stealing"), n_ranks=(4, 8), seed=2
        )
        legacy = run_study(config, synthetic_graph)
        swept = SweepRunner().run_study(config, synthetic_graph)
        assert legacy.results.keys() == swept.results.keys()
        for key in legacy.results:
            assert_results_identical(legacy.results[key], swept.results[key])
        assert set(swept.provenance.values()) == {"fresh"}

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_parallel_equals_serial(self, synthetic_graph):
        config = StudyConfig(
            models=("static_block", "counter_dynamic", "work_stealing"),
            n_ranks=(4, 8),
            seed=9,
        )
        serial = SweepRunner(jobs=1).run_study(config, synthetic_graph)
        parallel = SweepRunner(jobs=3).run_study(config, synthetic_graph)
        assert serial.results.keys() == parallel.results.keys()
        for key in serial.results:
            assert_results_identical(serial.results[key], parallel.results[key])

    def test_progress_events(self, synthetic_graph, tmp_path):
        config = StudyConfig(models=("static_block",), n_ranks=(4, 8))
        events = []
        runner = SweepRunner(cache=tmp_path, progress=events.append)
        runner.run_study(config, synthetic_graph)
        assert [e.status for e in events] == ["done", "done"]
        assert events[-1].completed == events[-1].total == 2
        events.clear()
        runner.run_study(config, synthetic_graph)
        assert [e.status for e in events] == ["cached", "cached"]
        assert events[-1].running == 0

    def test_mixed_cached_and_fresh(self, synthetic_graph, tmp_path):
        machine = commodity_cluster(4)
        first = SweepCell(model="static_block", graph=synthetic_graph, machine=machine)
        second = SweepCell(model="static_cyclic", graph=synthetic_graph, machine=machine)
        runner = SweepRunner(cache=tmp_path)
        runner.run_cells([first])
        results = runner.run_cells([first, second])
        assert runner.last_provenance == ["cached", "fresh"]
        assert [r.model for r in results] == ["static_block", "static_cyclic"]

    def test_scf_sim_kind(self, synthetic_graph, tmp_path):
        machine = commodity_cluster(4)
        cells = [
            SweepCell(
                model=mode,
                graph=synthetic_graph,
                machine=machine,
                kind="scf_sim",
                options=(("n_iterations", 2),),
            )
            for mode in ("counter", "persistence")
        ]
        fresh = SweepRunner(cache=tmp_path).run_cells(cells)
        runner = SweepRunner(cache=tmp_path)
        cached = runner.run_cells(cells)
        assert runner.last_provenance == ["cached", "cached"]
        for a, b in zip(fresh, cached):
            assert a.total_time == b.total_time
            assert (a.iteration_times == b.iteration_times).all()

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            SweepRunner(jobs=0)


def _fail_label(label):
    """Picklable cell_fn factory: poison exactly one cell label."""
    return functools.partial(_fail_label_fn, label)


def _fail_label_fn(label, cell):
    if cell.label == label:
        raise RuntimeError(f"injected failure for {label}")
    return execute_cell(cell)


class TestQuarantine:
    def test_failed_cell_recorded_not_raised(self, synthetic_graph):
        config = StudyConfig(
            models=("static_block", "work_stealing"), n_ranks=(4,), seed=1
        )
        runner = SweepRunner(
            on_error="quarantine",
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02),
            cell_fn=_fail_label("work_stealing@P=4"),
        )
        report = runner.run_study(config, synthetic_graph)
        assert len(report.failures) == 1
        assert not report.complete
        failure = report.failures[0]
        assert failure.label == "work_stealing@P=4"
        assert failure.attempts == 2
        assert runner.stats.failed == 1
        assert runner.last_provenance == ["fresh", "failed"]
        # The surviving cell still matches an undisturbed run.
        clean = run_study(
            StudyConfig(models=("static_block",), n_ranks=(4,), seed=1),
            synthetic_graph,
        )
        assert_results_identical(
            report.get("static_block", 4), clean.get("static_block", 4)
        )

    def test_raise_mode_propagates(self, synthetic_graph):
        config = StudyConfig(models=("static_block",), n_ranks=(4,), seed=1)
        runner = SweepRunner(
            on_error="raise",
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02),
            cell_fn=_fail_label("static_block@P=4"),
        )
        with pytest.raises(RuntimeError, match="injected failure"):
            runner.run_study(config, synthetic_graph)
        # Accounting still flushed by the finally block.
        assert runner.last_provenance == ["pending"]


class TestJournalResume:
    def _interrupting_runner(self, stop_after, **kw):
        ticks = {"n": 0}

        def interrupter(event):
            ticks["n"] += 1
            if ticks["n"] >= stop_after:
                raise KeyboardInterrupt

        return SweepRunner(progress=interrupter, **kw)

    def test_interrupt_then_resume_recomputes_only_unfinished(
        self, synthetic_graph, tmp_path
    ):
        # The cache is the checkpoint: a rerun over it serves the cells
        # the interrupted sweep settled and computes only the rest.
        config = StudyConfig(
            models=("static_block", "counter_dynamic", "work_stealing"),
            n_ranks=(4, 8),
            seed=4,
        )
        cache = tmp_path / "cache"
        first = self._interrupting_runner(3, cache=cache)
        with pytest.raises(KeyboardInterrupt):
            first.run_study(config, synthetic_graph)
        assert first.stats.computed == 3
        assert first.last_provenance == ["fresh"] * 3 + ["pending"] * 3

        second = SweepRunner(cache=cache)
        report = second.run_study(config, synthetic_graph)
        assert second.stats.cached == 3
        assert second.stats.computed == 3
        assert second.last_provenance == ["cached"] * 3 + ["fresh"] * 3
        clean = run_study(config, synthetic_graph)
        for key in clean.results:
            assert_results_identical(clean.results[key], report.results[key])

    def test_fresh_run_rotates_stale_journal(self, synthetic_graph, tmp_path):
        config = StudyConfig(models=("static_block",), n_ranks=(4, 8), seed=4)
        journal = tmp_path / "journal"
        SweepRunner(journal=journal).run_study(config, synthetic_graph)
        # Each run starts its journal afresh: one line per cell it settled.
        runner = SweepRunner(journal=journal)
        runner.run_study(config, synthetic_graph)
        assert runner.stats.computed == 2
        (path,) = journal.glob("sweep-*.jsonl")
        assert len(path.read_text().splitlines()) == 2

    def test_stale_journal_matches_nothing(self, synthetic_graph, tmp_path):
        journal = tmp_path / "journal"
        old = StudyConfig(models=("static_block",), n_ranks=(4,), seed=4)
        SweepRunner(journal=journal).run_study(old, synthetic_graph)
        # A different grid writes a *different* journal file: content-
        # addressed naming means no cross-grid contamination.
        new = StudyConfig(models=("static_block",), n_ranks=(8,), seed=4)
        runner = SweepRunner(journal=journal)
        runner.run_study(new, synthetic_graph)
        assert runner.stats.computed == 1
        assert len(list(journal.glob("sweep-*.jsonl"))) == 2


class TestExecutorSelection:
    def test_serial_backend_equals_default(self, synthetic_graph):
        config = StudyConfig(
            models=("static_block", "work_stealing"), n_ranks=(4,), seed=7
        )
        default = SweepRunner(jobs=2).run_study(config, synthetic_graph)
        serial = SweepRunner(jobs=2, executor="serial").run_study(
            config, synthetic_graph
        )
        assert default.results.keys() == serial.results.keys()
        for key in default.results:
            assert_results_identical(default.results[key], serial.results[key])

    def test_executor_instance_accepted(self, synthetic_graph):
        from repro.parallel import SerialExecutor

        ex = SerialExecutor()
        runner = SweepRunner(jobs=2, executor=ex)
        assert runner.executor is ex
        config = StudyConfig(models=("static_block",), n_ranks=(4,), seed=7)
        report = runner.run_study(config, synthetic_graph)
        assert len(report.results) == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            SweepRunner(executor="telepathy")


@pytest.mark.skipif(not fork_available(), reason="needs fork workers")
class TestForkedWorkersInheritCells:
    """A forked worker reads its cells, task graph included, from the
    memory it inherits; ``jobs=2`` is bit for bit ``jobs=1`` for graphs
    the size of real studies and for symmetry-folded footprints."""

    CFG = dict(
        models=("static_block", "counter_dynamic", "work_stealing"),
        n_ranks=(4, 8),
        seed=7,
    )

    @pytest.fixture(scope="class")
    def big_graph(self):
        from repro.chemistry.tasks import synthetic_task_graph

        return synthetic_task_graph(306, 12, seed=11)

    @pytest.fixture(scope="class")
    def folded_graph(self, medium_problem):
        from repro.chemistry.basis import BlockStructure
        from repro.chemistry.symmetry import build_symmetric_task_graph

        return build_symmetric_task_graph(
            medium_problem.basis,
            BlockStructure.uniform(medium_problem.basis.n_basis, 3),
            medium_problem.screen,
            tau=1.0e-10,
        )

    def _assert_parallel_equals_serial(self, graph):
        config = StudyConfig(**self.CFG)
        report1 = SweepRunner(jobs=1).run_study(config, graph)
        report2 = SweepRunner(jobs=2).run_study(config, graph)
        assert report1.results.keys() == report2.results.keys()
        for key, r1 in report1.results.items():
            assert pickle.dumps(r1) == pickle.dumps(report2.results[key]), key

    def test_parallel_sweep_bit_identical_to_serial(self, big_graph):
        assert big_graph.n_tasks >= 256
        self._assert_parallel_equals_serial(big_graph)

    def test_folded_sweep_bit_identical_to_serial(self, folded_graph):
        # Folded footprints carry multi-image refs the quartets do not
        # determine.
        assert not folded_graph.has_standard_footprints
        assert folded_graph.n_tasks >= 256
        self._assert_parallel_equals_serial(folded_graph)
