import numpy as np
import pytest

from repro.runtime.trace import COMM, COMPUTE, IDLE, OVERHEAD, TaskRecord, TraceRecorder
from repro.util import ConfigurationError, SimulationError


class TestRecording:
    def test_totals_accumulate(self):
        trace = TraceRecorder(2)
        trace.record(0, COMPUTE, 0.0, 1.0)
        trace.record(0, COMPUTE, 2.0, 2.5)
        assert trace.total(COMPUTE)[0] == pytest.approx(1.5)

    def test_categories_separate(self):
        trace = TraceRecorder(1)
        trace.record(0, COMPUTE, 0.0, 1.0)
        trace.record(0, COMM, 1.0, 1.2)
        trace.record(0, OVERHEAD, 1.2, 1.3)
        assert trace.total(COMM)[0] == pytest.approx(0.2)
        assert trace.total(OVERHEAD)[0] == pytest.approx(0.1)

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigurationError, match="category"):
            TraceRecorder(1).record(0, "naptime", 0.0, 1.0)

    def test_backwards_interval_rejected(self):
        with pytest.raises(SimulationError):
            TraceRecorder(1).record(0, COMPUTE, 2.0, 1.0)

    def test_intervals_kept_only_when_enabled(self):
        trace = TraceRecorder(1)
        trace.record(0, COMPUTE, 0.0, 1.0)
        assert trace.intervals is None
        trace.keep_intervals()
        trace.record(0, COMM, 1.0, 2.0)
        assert trace.intervals == [(0, COMM, 1.0, 2.0)]


class TestBreakdown:
    def test_idle_is_remainder(self):
        trace = TraceRecorder(2)
        trace.record(0, COMPUTE, 0.0, 3.0)
        trace.record(1, COMM, 0.0, 1.0)
        out = trace.breakdown(makespan=4.0)
        assert out[IDLE][0] == pytest.approx(1.0)
        assert out[IDLE][1] == pytest.approx(3.0)

    def test_overaccounting_detected(self):
        trace = TraceRecorder(1)
        trace.record(0, COMPUTE, 0.0, 5.0)
        with pytest.raises(SimulationError, match="accounted"):
            trace.breakdown(makespan=4.0)

    def test_categories_sum_to_makespan(self):
        trace = TraceRecorder(1)
        trace.record(0, COMPUTE, 0.0, 1.0)
        trace.record(0, OVERHEAD, 1.0, 1.5)
        out = trace.breakdown(makespan=2.0)
        total = sum(out[c][0] for c in (COMPUTE, COMM, OVERHEAD, IDLE))
        assert total == pytest.approx(2.0)

    def test_utilization(self):
        trace = TraceRecorder(2)
        trace.record(0, COMPUTE, 0.0, 2.0)
        np.testing.assert_allclose(trace.utilization(4.0), [0.5, 0.0])

    def test_utilization_zero_makespan(self):
        assert TraceRecorder(1).utilization(0.0)[0] == 0.0


class TestTaskAssignment:
    def test_exactly_once_passes(self):
        trace = TraceRecorder(2)
        trace.record_compute(1, 0, 0.0, 1.0)
        trace.record_compute(0, 1, 0.0, 1.0)
        np.testing.assert_array_equal(trace.task_assignment(2), [1, 0])

    def test_duplicate_execution_detected(self):
        trace = TraceRecorder(2)
        trace.record_compute(0, 0, 0.0, 1.0)
        trace.record_compute(1, 0, 1.0, 2.0)
        with pytest.raises(SimulationError, match="more than once"):
            trace.task_assignment(1)

    def test_missing_task_detected(self):
        trace = TraceRecorder(2)
        trace.record_compute(0, 0, 0.0, 1.0)
        with pytest.raises(SimulationError, match="never executed"):
            trace.task_assignment(2)

    def test_out_of_range_tid_detected(self):
        trace = TraceRecorder(1)
        trace.record_compute(0, 7, 0.0, 1.0)
        with pytest.raises(SimulationError, match="out of range"):
            trace.task_assignment(2)


class TestBatchAndFusedRecording:
    """record_compute equals its per-call expansion."""

    def test_record_compute_matches_record_plus_task(self):
        fused = TraceRecorder(2)
        fused.keep_intervals()
        fused.record_compute(1, 7, 2.0, 3.5)
        manual = TraceRecorder(2)
        manual.keep_intervals()
        manual.record(1, COMPUTE, 2.0, 3.5)
        manual.tasks.append(TaskRecord(7, 1, 2.0, 3.5))
        assert fused.total(COMPUTE).tolist() == manual.total(COMPUTE).tolist()
        assert fused.intervals == manual.intervals
        assert fused.tasks == manual.tasks
        assert fused.records == manual.records

    def test_record_compute_without_tid_skips_task_record(self):
        trace = TraceRecorder(1)
        trace.record_compute(0, None, 0.0, 1.0)
        assert trace.tasks == []
        assert trace.total(COMPUTE)[0] == 1.0
