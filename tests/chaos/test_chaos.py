"""Chaos harness: real host faults must not change sweep results."""

import functools
import pathlib
import re
import tempfile

import pytest

from repro.chaos import (
    SCENARIOS,
    ChaosPlan,
    chaos_execute_cell,
    results_identical,
    run_chaos,
)
from repro.chaos.harness import ChaosContext, diff_results
from repro.chemistry.tasks import synthetic_task_graph
from repro.core import StudyConfig, SweepRunner, study_cells
from repro.faults import RetryPolicy
from repro.parallel import CellFailure

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.0)


@pytest.fixture(scope="module")
def tiny_cells():
    graph = synthetic_task_graph(60, 8, seed=5, skew=1.2)
    config = StudyConfig(
        models=("static_block", "work_stealing"), n_ranks=(4,), seed=0
    )
    return study_cells(config, graph)


@pytest.fixture(scope="module")
def reference(tiny_cells):
    return SweepRunner(jobs=1, cache=None).run_cells(tiny_cells)


class TestResultsIdentical:
    def test_identical_runs_compare_equal(self, tiny_cells, reference):
        again = SweepRunner(jobs=1, cache=None).run_cells(tiny_cells)
        for a, b in zip(reference, again):
            assert results_identical(a, b)
            assert diff_results(a, b) == []

    def test_different_cells_differ(self, reference):
        assert not results_identical(reference[0], reference[1])
        assert diff_results(reference[0], reference[1])

    def test_array_mutation_detected(self, reference):
        import copy

        mutated = copy.deepcopy(reference[0])
        mutated.task_starts[0] += 1e-9
        assert "task_starts" in diff_results(reference[0], mutated)

    def test_type_mismatch_reported(self, reference):
        assert not results_identical(reference[0], "not a result")


class TestChaosExecuteCell:
    def test_no_plan_faults_is_plain_execution(self, tiny_cells, reference, tmp_path):
        plan = ChaosPlan(marker_dir=str(tmp_path))
        got = chaos_execute_cell(plan, tiny_cells[0])
        assert results_identical(reference[0], got)

    def test_poison_label_raises_every_attempt(self, tiny_cells, tmp_path):
        plan = ChaosPlan(marker_dir=str(tmp_path), fail=(tiny_cells[0].label,))
        for _ in range(3):  # not first-attempt-gated
            with pytest.raises(RuntimeError, match="chaos poison"):
                chaos_execute_cell(plan, tiny_cells[0])

    def test_hang_fires_once(self, tiny_cells, reference, tmp_path):
        plan = ChaosPlan(
            marker_dir=str(tmp_path),
            hang=(tiny_cells[0].label,),
            hang_seconds=0.2,  # short: verify the marker gating in-process
        )
        first = chaos_execute_cell(plan, tiny_cells[0])
        second = chaos_execute_cell(plan, tiny_cells[0])
        assert results_identical(reference[0], first)
        assert results_identical(reference[0], second)
        assert len(list(tmp_path.iterdir())) == 1  # one marker, one firing


class TestChaosSweeps:
    def test_sigkill_mid_cell_bit_for_bit(self, tiny_cells, reference, tmp_path):
        plan = ChaosPlan(
            marker_dir=str(tmp_path), kill=(tiny_cells[0].label,)
        )
        runner = SweepRunner(
            jobs=2,
            cache=None,
            retry=FAST_RETRY,
            on_error="quarantine",
            cell_fn=functools.partial(chaos_execute_cell, plan),
        )
        got = runner.run_cells(tiny_cells)
        assert runner.supervisor_stats.crashes >= 1
        assert not runner.last_failures
        for ref, result in zip(reference, got):
            assert results_identical(ref, result)

    def test_poison_cell_quarantined_rest_identical(
        self, tiny_cells, reference, tmp_path
    ):
        poison = tiny_cells[1].label
        plan = ChaosPlan(marker_dir=str(tmp_path), fail=(poison,))
        runner = SweepRunner(
            jobs=2,
            cache=None,
            retry=FAST_RETRY,
            on_error="quarantine",
            cell_fn=functools.partial(chaos_execute_cell, plan),
        )
        got = runner.run_cells(tiny_cells)
        assert isinstance(got[1], CellFailure)
        assert got[1].attempts == FAST_RETRY.max_attempts
        assert runner.stats.failed == 1
        assert results_identical(reference[0], got[0])


#: The sixteen scenarios the three former runners held, in their order.
#: Rows added since (folded-in smoke scripts) are listed after them.
SIXTEEN = [
    "worker SIGKILL + hung cell + corrupted cache, bit-for-bit",
    "SIGINT interrupt + corrupted journal + --resume, bit-for-bit",
    "poison cell quarantined, sweep completes",
    "corrupted artifact store heals to bit-identical rebuilds",
    "distributed: remote worker SIGKILL mid-cell, bit-for-bit",
    "distributed: frozen worker past lease, late result deduped",
    "distributed: socket severed mid-result-upload",
    "distributed: duplicate delivery deduped idempotently",
    "distributed: full remote loss degrades to local pool",
    "distributed: killed worker + interrupt + resume, 100% parity",
    "service: overload burst -> 503 + Retry-After -> retried to parity",
    "service: 32-thread identical-submit dedupe storm",
    "service: cancel racing queued->running promotion",
    "service: SIGTERM drain mid-sweep -> restart resumes",
    "service: retention GC racing a live row stream",
    "service: stalled NDJSON reader bounded away",
]
SMOKE_ROWS = {"artifact_warm_rebuild"}


class TestScenarioTable:
    def test_the_sixteen_titles_in_order(self):
        original = [s for s in SCENARIOS if s.key not in SMOKE_ROWS]
        assert [s.title for s in original] == SIXTEEN
        suites = [s.suite for s in original]
        assert [suites.count(name) for name in ("host", "distributed", "service")] == [4, 6, 6]
        assert suites == sorted(suites, key=("host", "distributed", "service").index)

    def test_keys_are_the_function_names_and_unique(self):
        keys = [s.key for s in SCENARIOS]
        assert len(set(keys)) == len(keys)
        assert all(s.key == s.run.__name__ for s in SCENARIOS)
        assert SMOKE_ROWS <= set(keys)

    def test_docs_table_lists_every_scenario(self):
        """docs/sweep.md holds the one scenario list: a row per key, its
        suite beside it."""
        doc = pathlib.Path(__file__).parents[2] / "docs" / "sweep.md"
        rows = dict(
            re.findall(r"^\| `(\w+)` \| (\w+) \|", doc.read_text("utf-8"), re.M)
        )
        assert rows == {s.key: s.suite for s in SCENARIOS}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            run_chaos(only=["host", "nope"])


@pytest.fixture
def no_grid(monkeypatch):
    """Fail the test if anything builds the sweep grid or its reference."""
    for name in ("cells", "reference"):
        monkeypatch.setattr(
            ChaosContext, name, property(lambda self, n=name: pytest.fail(f"built {n}"))
        )


@pytest.mark.slow
class TestOneRowAlone:
    """A scenario depends on the context, not on its neighbours."""

    def test_temp_workdir_is_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        report = run_chaos(only=["poison_quarantine"])
        assert [s.passed for s in report.scenarios] == [True], report.format()
        assert list(tmp_path.iterdir()) == []

    def test_explicit_workdir_is_kept(self, tmp_path):
        report = run_chaos(only=["poison_quarantine"], workdir=tmp_path)
        assert report.passed, report.format()
        assert [p.name for p in tmp_path.iterdir()] == ["poison_quarantine"]

    def test_duplicate_delivery_alone(self, tmp_path, monkeypatch):
        # The service suite's fixture must stay untouched.
        import repro.chaos.service as service_rows

        monkeypatch.setattr(
            service_rows, "daemon", lambda *a, **k: pytest.fail("spawned a daemon")
        )
        report = run_chaos(only=["duplicate_delivery"], workdir=tmp_path)
        assert [(s.name, s.passed) for s in report.scenarios] == [
            ("distributed: duplicate delivery deduped idempotently", True)
        ], report.format()

    def test_drain_restart_alone(self, tmp_path, no_grid):
        # Two daemon subprocesses: CI's dev-mode leg fails this test on an
        # unclosed stdout pipe or an unreaped child.
        report = run_chaos(only=["drain_restart"], workdir=tmp_path)
        assert [(s.name, s.passed) for s in report.scenarios] == [
            ("service: SIGTERM drain mid-sweep -> restart resumes", True)
        ], report.format()


@pytest.mark.slow
def test_full_quick_chaos_suite(tmp_path):
    report = run_chaos(quick=True, workdir=tmp_path)
    assert report.passed, report.format()
    assert len(report.scenarios) == 5
    assert [s.name for s in report.scenarios] == [
        s.title for s in SCENARIOS if s.suite == "host"
    ]
