"""The `repro.perf` layer: timers, counters, bench reports."""

import json

import pytest

from repro.chemistry.tasks import synthetic_task_graph
from repro.core import MACHINE_PRESETS
from repro.exec_models import make_model
from repro.perf import (
    SCHEMA,
    TimingStats,
    WallTimer,
    check_regression,
    events_per_second,
    median,
    run_counters,
    run_suite,
    time_repeated,
    validate_report,
    write_report,
)
from repro.util import ConfigurationError


class TestTimers:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        assert median([7.0]) == 7.0

    def test_median_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            median([])

    def test_wall_timer_measures_something(self):
        with WallTimer() as timer:
            sum(range(10_000))
        assert timer.elapsed > 0.0

    def test_time_repeated_returns_stats_and_result(self):
        calls = []
        stats, result = time_repeated(lambda: calls.append(1) or len(calls), repeats=3)
        assert result == 3 and len(calls) == 3
        assert len(stats.runs) == 3
        assert stats.min_s <= stats.median_s <= stats.max_s

    def test_time_repeated_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            time_repeated(lambda: None, repeats=0)

    def test_stats_as_dict(self):
        stats = TimingStats((2.0, 1.0, 3.0))
        d = stats.as_dict()
        assert d["median_s"] == 2.0 and d["min_s"] == 1.0 and d["max_s"] == 3.0
        assert d["repeats"] == 3 and d["runs_s"] == [2.0, 1.0, 3.0]


class TestCounters:
    @pytest.fixture(scope="class")
    def result(self):
        graph = synthetic_task_graph(200, 8, seed=3)
        machine = MACHINE_PRESETS["commodity"](8)
        return make_model("work_stealing").run(graph, machine, seed=5)

    def test_run_counters_includes_engine_and_model(self, result):
        counters = run_counters(result)
        assert counters["sim_events"] > 0
        assert 0 < counters["sim_ready_events"] <= counters["sim_events"]
        assert counters["trace_records"] > 0
        assert counters["n_tasks"] == 200.0
        assert any(key.startswith("model.steal") for key in counters)
        assert any(key.startswith("network.") for key in counters)

    def test_counters_deterministic_across_runs(self, result):
        graph = synthetic_task_graph(200, 8, seed=3)
        machine = MACHINE_PRESETS["commodity"](8)
        again = make_model("work_stealing").run(graph, machine, seed=5)
        assert run_counters(again) == run_counters(result)

    def test_events_per_second(self, result):
        assert events_per_second(result, 2.0) == result.sim_events / 2.0
        assert events_per_second(result, 0.0) == 0.0


class TestBenchReports:
    @pytest.fixture(scope="class")
    def core_report(self):
        # Smallest honest run: one repeat keeps the suite test-speed.
        return run_suite("core", repeats=1)

    def test_core_report_schema_valid(self, core_report):
        validate_report(core_report)
        assert core_report["schema"] == SCHEMA
        # engine_events_compiled drops out when no C toolchain exists;
        # everything else is unconditional.
        expected = {"engine_events", "steal_roundtrip", "trace_record"}
        names = set(core_report["benchmarks"])
        assert expected <= names
        assert names - expected <= {"engine_events_compiled"}
        assert core_report["benchmarks"]["engine_events"]["events_per_second"] > 0
        assert core_report["benchmarks"]["trace_record"]["records_per_second"] > 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError):
            run_suite("nope")

    def test_write_report_round_trips(self, core_report, tmp_path):
        path = write_report(core_report, tmp_path / "BENCH_core.json")
        loaded = json.loads(path.read_text())
        validate_report(loaded)
        assert loaded["benchmarks"].keys() == core_report["benchmarks"].keys()

    def test_validate_rejects_malformed(self, core_report):
        for mutant in (
            {},
            {**core_report, "schema": "other/9"},
            {**core_report, "git_sha": ""},
            {**core_report, "benchmarks": {}},
            {**core_report, "benchmarks": {"x": {"median_s": -1.0}}},
        ):
            with pytest.raises(ConfigurationError):
                validate_report(mutant)

    def test_check_regression_flags_big_drop(self, core_report):
        slow = json.loads(json.dumps(core_report))
        for entry in slow["benchmarks"].values():
            for key in ("events_per_second", "records_per_second"):
                if key in entry:
                    entry[key] = entry[key] / 2.0  # 50% slower
        failures = check_regression(slow, core_report, max_regression=0.30)
        assert failures, "a 2x throughput drop must be flagged"
        assert all("below" in f for f in failures)

    def test_check_regression_passes_identical(self, core_report):
        assert check_regression(core_report, core_report) == []

    def test_check_regression_tolerates_small_drift(self, core_report):
        drift = json.loads(json.dumps(core_report))
        for entry in drift["benchmarks"].values():
            for key in ("events_per_second", "records_per_second"):
                if key in entry:
                    entry[key] = entry[key] * 0.9  # 10% slower: within budget
        assert check_regression(drift, core_report, max_regression=0.30) == []


class TestCommittedBaselines:
    """The in-repo BENCH_*.json baselines stay schema-valid."""

    @pytest.mark.parametrize("name", ["BENCH_core.json", "BENCH_e2e.json"])
    def test_baseline_valid(self, name):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "benchmarks" / "results" / name
        report = json.loads(path.read_text())
        validate_report(report)
        assert report["git_sha"] != "unknown"
