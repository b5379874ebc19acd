"""E4 ("Fig. 3"): balancer runtime scaling with task count.

The cost side of claim C2 as a series: balancer wall time vs |T| at fixed
P, showing the widening gap between semi-matching and multilevel
hypergraph partitioning.
"""

import time

import pytest

from repro.balance import hypergraph_balancer, lpt_balancer, semi_matching_balancer
from repro.api import format_table
from repro.chemistry.tasks import synthetic_task_graph
from repro.runtime.garrays import BlockDistribution

SIZES = (500, 1000, 2000, 4000)
N_RANKS = 32


def run_series():
    rows = []
    for n_tasks in SIZES:
        graph = synthetic_task_graph(n_tasks, 24, seed=21, skew=1.2)
        dist = BlockDistribution(24, N_RANKS)
        row = {"n_tasks": n_tasks}
        for name, balancer in (
            ("lpt_ms", lpt_balancer),
            ("semi_matching_ms", semi_matching_balancer),
            ("hypergraph_ms", hypergraph_balancer),
        ):
            start = time.perf_counter()
            balancer(graph, N_RANKS, dist)
            row[name] = (time.perf_counter() - start) * 1e3
        row["hg/sm_ratio"] = row["hypergraph_ms"] / row["semi_matching_ms"]
        rows.append(row)
    return rows


@pytest.mark.benchmark(group="e4")
def test_e4_balancer_cost_scaling(benchmark, emit, no_artifact_store):
    rows = benchmark.pedantic(run_series, rounds=1, iterations=1)
    emit(
        "e4_balancer_cost",
        format_table(
            rows,
            columns=["n_tasks", "lpt_ms", "semi_matching_ms", "hypergraph_ms", "hg/sm_ratio"],
            title=f"E4: balancer cost vs task count (P={N_RANKS})",
        ),
    )
    # Hypergraph partitioning must be at least an order of magnitude more
    # expensive at every size, and the absolute gap must grow.
    for row in rows:
        assert row["hg/sm_ratio"] > 10
    gaps = [r["hypergraph_ms"] - r["semi_matching_ms"] for r in rows]
    assert gaps[-1] > gaps[0]
