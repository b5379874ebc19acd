import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.trace import COMM, COMPUTE, IDLE, OVERHEAD, TraceRecorder
from repro.util import ConfigurationError, SimulationError

#: The task record columns, in ``record_compute``'s argument order.
COLUMNS = ("task_ids", "task_ranks", "task_starts", "task_ends")


def columns(trace):
    return tuple(getattr(trace, column) for column in COLUMNS)


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


def reference_task_assignment(records, n_tasks):
    """The per-record loop :meth:`TraceRecorder.task_assignment` replaced:
    the oracle for the vectorised reader."""
    assignment = np.full(n_tasks, -1, dtype=np.int64)
    for tid, rank in records:
        if not 0 <= tid < n_tasks:
            raise SimulationError(f"task id {tid} out of range")
        if assignment[tid] != -1:
            raise SimulationError(f"task {tid} executed more than once")
        assignment[tid] = rank
    missing = np.nonzero(assignment < 0)[0]
    if missing.size:
        raise SimulationError(
            f"{missing.size} tasks never executed (first: {missing[:5].tolist()})"
        )
    return assignment


def verdict(read, *args):
    """What ``read(*args)`` returns, as a list, or the message it raises."""
    try:
        return read(*args).tolist()
    except SimulationError as exc:
        return str(exc)


@st.composite
def task_records(draw):
    """``(n_tasks, [(tid, rank), ...])``: each task once in some order,
    or ids drawn at random — repeats, gaps and ids out of range."""
    n_tasks = draw(st.integers(min_value=0, max_value=12))
    tids = draw(
        st.one_of(
            st.permutations(list(range(n_tasks))),
            st.lists(st.integers(min_value=-2, max_value=n_tasks + 2), max_size=n_tasks + 3),
        )
    )
    ranks = draw(st.lists(st.integers(0, 3), min_size=len(tids), max_size=len(tids)))
    return n_tasks, list(zip(tids, ranks))


class TestAssignmentAgainstTheRecordLoop:
    @given(case=task_records())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop(self, case):
        n_tasks, records = case
        trace = TraceRecorder(4)
        for i, (tid, rank) in enumerate(records):
            trace.record_compute(rank, tid, float(i), i + 0.5)
        assert verdict(trace.task_assignment, n_tasks) == verdict(
            reference_task_assignment, records, n_tasks
        )

    @pytest.mark.parametrize(
        "tids, n_tasks, message",
        [
            ([1, 0, 1, 9], 3, "task 1 executed more than once"),
            ([1, 9, 1, 0], 3, "task id 9 out of range"),
            ([2, -1, 2], 3, "task id -1 out of range"),
            ([5, 5], 3, "task id 5 out of range"),
            ([0, 2], 4, "2 tasks never executed (first: [1, 3])"),
            ([np.int64(1), np.int64(1)], 2, "task 1 executed more than once"),
        ],
    )
    def test_the_first_offending_record_is_named(self, tids, n_tasks, message):
        trace = TraceRecorder(1)
        for tid in tids:
            trace.record_compute(0, tid, 0.0, 1.0)
        records = [(tid, 0) for tid in tids]
        assert verdict(reference_task_assignment, records, n_tasks) == message
        assert verdict(trace.task_assignment, n_tasks) == message

    def test_repeats_allowed_on_request(self):
        trace = TraceRecorder(1)
        for tid in (2, 0, 2):
            trace.record_compute(0, tid, 0.0, 1.0)
        assert trace.checked_task_ids(3, repeats=True).tolist() == [2, 0, 2]
        with pytest.raises(SimulationError, match="task id 2 out of range"):
            trace.checked_task_ids(2, repeats=True)


class TestBatchAndFusedRecording:
    """record_compute equals its per-call expansion."""

    def test_record_compute_matches_record_plus_task(self):
        fused = TraceRecorder(2)
        fused.keep_intervals()
        fused.record_compute(1, 7, 2.0, 3.5)
        manual = TraceRecorder(2)
        manual.keep_intervals()
        manual.record(1, COMPUTE, 2.0, 3.5)
        for column, value in zip(COLUMNS, (7, 1, 2.0, 3.5)):
            getattr(manual, column).append(value)
        assert fused.total(COMPUTE).tolist() == manual.total(COMPUTE).tolist()
        assert fused.intervals == manual.intervals
        assert columns(fused) == columns(manual) == ([7], [1], [2.0], [3.5])
        assert fused.records == manual.records

    def test_record_compute_without_tid_skips_task_record(self):
        trace = TraceRecorder(1)
        trace.record_compute(0, None, 0.0, 1.0)
        assert columns(trace) == ([], [], [], [])
        assert trace.total(COMPUTE)[0] == 1.0
