"""The run harness reads task records as columns: the vectorised readers
against the per-record loops they replaced, what a chained run leaves
unbuilt, and the once-per-run count of a chained run's operations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chemistry.tasks import synthetic_task_graph
from repro.exec_models import make_model
from repro.exec_models.base import Harness
from repro.exec_models.static_ import StaticBlock
from repro.faults import FaultPlan, RankCrash
from repro.runtime.trace import TraceRecorder
from repro.simulate import commodity_cluster
from repro.simulate.sched import compiled_available
from repro.util import SimulationError

needs_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled engine core unavailable"
)

#: Two crashes ``ft_work_stealing`` recovers from by replaying two tasks
#: of the 200-task graph below.
REPLAY_PLAN = FaultPlan(crashes=(RankCrash(3, 3.0e-3), RankCrash(5, 3.9e-3)), rma_timeout=1.0e-4)


def reference_tolerant(trace, n_tasks):
    """The per-record loop ``Harness._tolerant_assignment`` and the
    last-record-wins fill of ``Harness.finish`` replaced: the oracle."""
    assignment = np.full(n_tasks, -1, dtype=np.int64)
    starts = np.zeros(n_tasks)
    durations = np.zeros(n_tasks)
    replays = 0
    records = zip(trace.task_ids, trace.task_ranks, trace.task_starts, trace.task_ends)
    for tid, rank, start, end in records:
        if not 0 <= tid < n_tasks:
            raise SimulationError(f"task id {tid} out of range")
        if assignment[tid] != -1:
            replays += 1
        assignment[tid] = rank
        starts[tid] = start
        durations[tid] = end - start
    lost = int(np.count_nonzero(assignment < 0))
    return assignment, lost, replays, starts, durations


def _run(model, graph, machine, faults=None, seed=1):
    """``model.run`` with the harness kept, finished."""
    harness = Harness(graph, machine, seed=seed, faults=faults)
    model.setup(harness)
    harness.spawn_ranks(model.rank_process)
    return harness, harness.finish(model.name)


@pytest.mark.parametrize("mode", ["python", "compiled"])
def test_replays_keep_the_last_record(mode, monkeypatch):
    if mode == "compiled" and not compiled_available():
        pytest.skip("compiled engine core unavailable")
    monkeypatch.setenv("REPRO_ENGINE", mode)
    graph = synthetic_task_graph(200, 8, seed=3)
    harness, result = _run(
        make_model("ft_work_stealing"), graph, commodity_cluster(8), REPLAY_PLAN
    )
    assignment, lost, replays, starts, durations = reference_tolerant(
        harness.trace, graph.n_tasks
    )
    assert replays == 2
    assert result.counters["tasks_replayed"] == replays
    assert result.counters["tasks_lost"] == lost
    assert result.assignment.tolist() == assignment.tolist()
    assert result.task_starts.tobytes() == starts.tobytes()
    assert result.task_durations.tobytes() == durations.tobytes()


@given(
    records=st.lists(
        st.tuples(st.integers(-1, 9), st.integers(0, 3), st.floats(0.0, 1.0)), max_size=30
    )
)
@settings(max_examples=200, deadline=None)
def test_tolerant_assignment_matches_the_loop(records):
    graph = synthetic_task_graph(8, 3, seed=0)
    harness = Harness(graph, commodity_cluster(8), faults=REPLAY_PLAN)
    trace = harness.trace = TraceRecorder(8)
    for tid, rank, start in records:
        trace.record_compute(rank, tid, start, start + 0.5)
    try:
        expected = reference_tolerant(trace, graph.n_tasks)
    except SimulationError as exc:
        with pytest.raises(SimulationError) as raised:
            harness._tolerant_assignment()
        assert str(raised.value) == str(exc)
        return
    assignment, lost, replays, last = harness._tolerant_assignment()
    assert (assignment.tolist(), lost, replays) == (expected[0].tolist(), *expected[1:3])
    ids = np.array(trace.task_ids, dtype=np.int64)[last]
    assert sorted(ids.tolist()) == sorted(set(trace.task_ids))
    assert np.array(trace.task_starts)[last].tolist() == expected[3][ids].tolist()


@needs_compiled
@pytest.mark.parametrize(
    "model_name", ["static_block", "static_cyclic", "counter_dynamic", "work_stealing"]
)
def test_a_chained_run_never_builds_the_task_view(model_name, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    monkeypatch.setenv("REPRO_ENGINE_REQUIRE", "1")
    graph = synthetic_task_graph(300, 12, seed=5)
    harness, result = _run(make_model(model_name), graph, commodity_cluster(8))
    assert harness._chain is not None
    assert result.fused_ops > 0
    assert "tasks" not in graph.__dict__


class _OneTaskWalks(StaticBlock):
    """``static_block``, except that rank 0 hands its first task over as
    a copy — not the graph's own ``TaskSpec`` — which the harness walks
    as a generator even when the rest of the run is chained."""

    def rank_process(self, harness, ctx):
        tids = list(harness.model_state["task_lists"][ctx.rank])
        if ctx.rank == 0 and tids:
            first = dataclasses.replace(harness.graph.tasks[tids.pop(0)])
            yield from harness.execute_task(ctx, first)
        yield from harness.execute_tasks(ctx, tids)


@needs_compiled
def test_walked_tasks_are_not_counted_twice(monkeypatch):
    graph = synthetic_task_graph(120, 8, seed=2)
    machine = commodity_cluster(4)
    network = {}
    for mode in ("python", "compiled"):
        monkeypatch.setenv("REPRO_ENGINE", mode)
        harness, result = _run(_OneTaskWalks(), graph, machine, seed=0)
        network[mode] = result.network
        if mode == "compiled":
            assert harness._walked == [0]
    assert network["compiled"] == network["python"]
    assert network["compiled"] == make_model("static_block").run(graph, machine).network
