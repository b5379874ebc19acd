"""Cross-model invariants: every execution model, on randomized workloads
and machines, must execute every task exactly once, keep its accounting
consistent, and remain deterministic. These are the tests that catch
scheduling-protocol bugs (double execution, lost tasks, broken termination,
trace overaccounting)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chemistry.tasks import graph_from_arrays, synthetic_task_graph
from repro.exec_models import MODEL_NAMES, make_model
from repro.exec_models.base import Harness
from repro.faults import FaultPlan, StallWindow
from repro.perf import run_counters
from repro.runtime.trace import COMM, COMPUTE, IDLE, OVERHEAD
from repro.simulate import (
    PeriodicThrottle,
    RandomStaticVariability,
    commodity_cluster,
    hierarchical_cluster,
)
from repro.simulate.sched import compiled_available
from repro.util import ConfigurationError

MODELS = (
    "static_block",
    "static_cyclic",
    "counter_dynamic",
    "counter_dynamic_chunk4",
    "work_stealing",
    "work_stealing_one",
    "work_stealing_ring",
    "work_stealing_half_cost",
    "work_stealing_hier",  # falls back to random victims on flat machines
    "inspector_lpt",
    "inspector_semi_matching",
)

workloads = st.tuples(
    st.integers(min_value=1, max_value=120),  # n_tasks
    st.integers(min_value=1, max_value=10),  # n_blocks
    st.integers(min_value=1, max_value=12),  # n_ranks
    st.integers(min_value=0, max_value=10_000),  # seed
)


@pytest.mark.parametrize("model_name", MODELS)
@given(params=workloads)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_exactly_once_and_consistent(model_name, params):
    n_tasks, n_blocks, n_ranks, seed = params
    graph = synthetic_task_graph(n_tasks, n_blocks, seed=seed, skew=1.2)
    machine = commodity_cluster(n_ranks)
    result = make_model(model_name).run(graph, machine, seed=seed)

    # Exactly-once is enforced inside the harness; re-derive it here too.
    assert result.assignment.shape == (n_tasks,)
    assert result.assignment.min() >= 0
    assert result.assignment.max() < n_ranks

    # Accounting: per-rank categories sum to the makespan.
    per_rank = sum(result.breakdown[c] for c in (COMPUTE, COMM, OVERHEAD, IDLE))
    np.testing.assert_allclose(per_rank, result.makespan, rtol=1e-9)

    # All modeled compute appears in the trace: sum of task durations
    # equals total flops at nominal speed (homogeneous machine).
    total_compute = result.breakdown[COMPUTE].sum()
    assert total_compute == pytest.approx(
        graph.total_flops / machine.flops_per_second, rel=1e-9
    )

    # Makespan bounds: at least the critical path of any single rank's
    # compute, at most the serial time plus generous overhead.
    assert result.makespan >= result.breakdown[COMPUTE].max() * 0.999
    assert 0 < result.mean_utilization <= 1.0 + 1e-12


@pytest.mark.parametrize("model_name", MODELS)
def test_deterministic_given_seed(model_name):
    graph = synthetic_task_graph(80, 6, seed=3, skew=1.0)
    machine = commodity_cluster(7)
    a = make_model(model_name).run(graph, machine, seed=42)
    b = make_model(model_name).run(graph, machine, seed=42)
    assert a.makespan == b.makespan
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.task_starts, b.task_starts)


@pytest.mark.parametrize("model_name", MODELS)
def test_variability_slows_but_preserves_invariants(model_name):
    graph = synthetic_task_graph(100, 6, seed=5, skew=1.0)
    base = commodity_cluster(8)
    noisy = commodity_cluster(
        8, variability=RandomStaticVariability(8, sigma=0.5, seed=2)
    )
    clean = make_model(model_name).run(graph, base, seed=1)
    jittery = make_model(model_name).run(graph, noisy, seed=1)
    assert jittery.assignment.shape == clean.assignment.shape
    # With conserved mean speed, noise cannot make the makespan better
    # than ~the clean run for static schedules, and for all models the
    # run must still complete with full accounting.
    per_rank = sum(jittery.breakdown[c] for c in (COMPUTE, COMM, OVERHEAD, IDLE))
    np.testing.assert_allclose(per_rank, jittery.makespan, rtol=1e-9)


def test_all_models_agree_on_what_was_executed():
    """Different schedules, same task multiset."""
    graph = synthetic_task_graph(150, 8, seed=9, skew=1.4)
    machine = commodity_cluster(6)
    for model_name in MODELS:
        result = make_model(model_name).run(graph, machine, seed=0)
        assert result.n_tasks == 150


# ----------------------------------------------------------------------
# One task protocol, two forms: a chained request or the generator
# ----------------------------------------------------------------------
#
# Under the compiled engine ``Harness.execute_task`` hands the engine a
# whole task as one ``FusedOp`` chain; the reference engine, and any run
# whose records or costs the chain could not reproduce, drives the
# ``_walk_task`` generator. Which form ran must not be readable from a
# ``RunResult``, except in the two counters that say so.

needs_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled engine core unavailable"
)

#: What the two engines report differently by design: how many delays
#: were ``Timeout`` requests and how many ops skipped the generator.
_ENGINE_COUNTERS = ("timeout_allocs", "fused_ops")


def _observable(result):
    counters = {
        key: value
        for key, value in run_counters(result).items()
        if key not in _ENGINE_COUNTERS and not key.endswith("_seconds")  # host time
    }
    return (
        result.makespan,
        {cat: values.tobytes() for cat, values in result.breakdown.items()},
        result.assignment.tobytes(),
        result.task_starts.tobytes(),
        result.task_durations.tobytes(),
        counters,
    )


def _run_in(monkeypatch, mode, model_name, graph, machine, **harness_options):
    """One run under ``REPRO_ENGINE=mode`` with the harness kept, so the
    test can see which form of the task protocol it chose."""
    monkeypatch.setenv("REPRO_ENGINE", mode)
    monkeypatch.setenv("REPRO_ENGINE_REQUIRE", "1")
    model = make_model(model_name)
    harness = Harness(graph, machine, seed=7, **harness_options)
    model.setup(harness)
    harness.spawn_ranks(model.rank_process)
    return harness, harness.finish(model.name)


@needs_compiled
@pytest.mark.parametrize("machine", [commodity_cluster(6), hierarchical_cluster(3, 2)],
                         ids=["flat", "hierarchical"])
@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_engines_agree_for_every_registered_model(model_name, machine, monkeypatch):
    graph = synthetic_task_graph(90, 7, seed=13, skew=1.2)
    results = {}
    for mode in ("python", "compiled"):
        monkeypatch.setenv("REPRO_ENGINE", mode)
        try:
            results[mode] = make_model(model_name).run(graph, machine, seed=7)
        except ConfigurationError as exc:  # counter_per_node on a flat machine
            results[mode] = str(exc)
    if isinstance(results["python"], str):
        assert model_name.startswith("counter_per_node") and machine.cores_per_node is None
        assert results["compiled"] == results["python"]
        return
    assert _observable(results["compiled"]) == _observable(results["python"])
    assert results["python"].fused_ops == 0
    # Every get and accumulate of the 90 tasks went through the chain.
    assert results["compiled"].fused_ops >= results["compiled"].network["accumulates"] > 0
    assert results["compiled"].timeout_allocs < results["python"].timeout_allocs


_GENERATOR_PATH_CASES = {
    "periodic-throttle": lambda: dict(
        machine=commodity_cluster(
            6, variability=PeriodicThrottle(6, period=1.0e-3, duty=0.4, factor=0.5, seed=1)
        )
    ),
    "interval-log": lambda: dict(trace_intervals=True),
    "fault-plan": lambda: dict(faults=FaultPlan(stalls=(StallWindow(2, 1.0e-4, 3.0e-4),))),
}


@needs_compiled
@pytest.mark.parametrize("model_name", ["static_block", "counter_dynamic_chunk4", "work_stealing"])
@pytest.mark.parametrize("case", _GENERATOR_PATH_CASES)
def test_runs_the_chain_cannot_reproduce_take_the_generator(case, model_name, monkeypatch):
    options = _GENERATOR_PATH_CASES[case]()
    graph = synthetic_task_graph(60, 6, seed=4, skew=1.0)
    machine = options.pop("machine", commodity_cluster(6))
    runs = {
        mode: _run_in(monkeypatch, mode, model_name, graph, machine, **options)
        for mode in ("python", "compiled")
    }
    harness, result = runs["compiled"]
    assert harness._chain is None
    assert _observable(result) == _observable(runs["python"][1])
    if result.intervals is not None:
        assert result.intervals == runs["python"][1].intervals
    # An armed plan takes even the single ops off the fused path; the
    # other two still issue them one fused request at a time.
    assert (result.fused_ops == 0) == (case == "fault-plan")
    # The same run without the obstacle does chain.
    plain, _ = _run_in(
        monkeypatch, "compiled", model_name, synthetic_task_graph(60, 6, seed=4, skew=1.0),
        commodity_cluster(6),
    )
    assert plain._chain is not None


@pytest.mark.parametrize("mode", ["python", "compiled"])
@pytest.mark.parametrize("model_name", ["static_block", "counter_dynamic", "work_stealing"])
def test_negative_flops_still_rejected(model_name, mode, monkeypatch):
    if mode == "compiled" and not compiled_available():
        pytest.skip("compiled engine core unavailable")
    monkeypatch.setenv("REPRO_ENGINE", mode)
    good = synthetic_task_graph(40, 5, seed=2, skew=1.0)
    flops = np.array(good.costs)
    flops[17] = -1.0
    graph = graph_from_arrays(good.quartet_array, flops, good.blocks, good.tau)
    with pytest.raises(ConfigurationError, match="flops must be >= 0"):
        make_model(model_name).run(graph, commodity_cluster(4), seed=0)
