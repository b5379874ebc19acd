"""E3 ("Tab. 1"): balancer quality vs computational cost.

Validates claim C2: semi-matching balances as well as multilevel
hypergraph partitioning at a tiny fraction of the partitioner's CPU cost.
Columns: balancer wall seconds, max-load / lower-bound ratio, remote
communication volume.
"""

import time

import pytest

from repro.balance import (
    communication_volume,
    hypergraph_balancer,
    lpt_balancer,
    locality_greedy,
    makespan_lower_bound,
    rank_loads,
    semi_matching_balancer,
)
from repro.api import format_table
from repro.runtime.garrays import BlockDistribution

BALANCERS = (
    ("naive_block", None),  # contiguous split, the no-balancer baseline
    ("lpt", lpt_balancer),
    ("locality_greedy", locality_greedy),
    ("semi_matching", semi_matching_balancer),
    ("hypergraph", hypergraph_balancer),
)


def run_table(graphs, rank_counts):
    rows = []
    for gname, graph in graphs:
        for n_ranks in rank_counts:
            dist = BlockDistribution(graph.blocks.n_blocks, n_ranks)
            lb = makespan_lower_bound(graph.costs, n_ranks)
            for bname, balancer in BALANCERS:
                start = time.perf_counter()
                if balancer is None:
                    from repro.exec_models.static_ import block_assignment

                    assignment = block_assignment(graph.n_tasks, n_ranks)
                else:
                    assignment = balancer(graph, n_ranks, dist)
                elapsed = time.perf_counter() - start
                loads = rank_loads(graph.costs, assignment, n_ranks)
                rows.append(
                    {
                        "workload": gname,
                        "P": n_ranks,
                        "balancer": bname,
                        "time_ms": elapsed * 1e3,
                        "max/LB": float(loads.max() / lb),
                        "comm_MB": communication_volume(graph, assignment, dist) / 1e6,
                    }
                )
    return rows


@pytest.mark.benchmark(group="e3")
def test_e3_balancer_table(
    benchmark, water6_problem, synthetic_medium, emit, no_artifact_store
):
    graphs = [("water6", water6_problem.graph), ("synthetic", synthetic_medium)]

    rows = benchmark.pedantic(run_table, args=(graphs, (32, 128)), rounds=1, iterations=1)
    emit(
        "e3_balancers",
        format_table(
            rows,
            columns=["workload", "P", "balancer", "time_ms", "max/LB", "comm_MB"],
            title="E3: load-balancer quality vs cost",
        ),
    )

    def cell(workload, p, balancer, col):
        return next(
            r[col]
            for r in rows
            if r["workload"] == workload and r["P"] == p and r["balancer"] == balancer
        )

    for workload in ("water6", "synthetic"):
        for p in (32, 128):
            sm_quality = cell(workload, p, "semi_matching", "max/LB")
            hg_quality = cell(workload, p, "hypergraph", "max/LB")
            sm_time = cell(workload, p, "semi_matching", "time_ms")
            hg_time = cell(workload, p, "hypergraph", "time_ms")
            # C2: comparable balance quality...
            assert sm_quality <= hg_quality * 1.10 + 0.02
            # ...at a small fraction of the cost.
            assert sm_time < hg_time / 5, (
                f"semi-matching not cheap enough: {sm_time:.0f}ms vs {hg_time:.0f}ms"
            )
            # And the naive baseline is clearly worse than both.
            assert cell(workload, p, "naive_block", "max/LB") > sm_quality
