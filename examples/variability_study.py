#!/usr/bin/env python
"""Energy-induced performance variability: who survives slow ranks?

Slows a growing fraction of the simulated machine and measures how each
execution model degrades — the paper's closing argument for dynamic
execution models on "emerging dynamic platforms with energy-induced
performance variability". Also shows persistence-based rebalancing
adapting over whole-SCF iterations on a statically heterogeneous machine.

Run:  python examples/variability_study.py
"""

from repro.api import (
    ScfProblem,
    ScfSimulation,
    commodity_cluster,
    format_table,
    run_model,
    water_cluster,
)
from repro.simulate import RandomStaticVariability, StaticHeterogeneity

N_RANKS = 64
MODELS = ("static_cyclic", "counter_dynamic", "work_stealing")


def main() -> None:
    problem = ScfProblem.build(water_cluster(6, seed=0), block_size=6, tau=1.0e-10)
    graph = problem.graph
    print(f"workload: {graph.n_tasks} tasks on {N_RANKS} simulated ranks\n")

    # Part 1: slow an eighth of the machine, harder and harder.
    rows = []
    baseline = {}
    for factor in (1.0, 0.67, 0.5, 0.33):
        variability = None if factor == 1.0 else StaticHeterogeneity(range(8), factor)
        machine = commodity_cluster(N_RANKS, variability=variability)
        row = {"slow_factor": factor}
        for model_name in MODELS:
            result = run_model(model_name, graph, machine, seed=7)
            if factor == 1.0:
                baseline[model_name] = result.makespan
            row[model_name + "_deg"] = result.makespan / baseline[model_name]
        rows.append(row)
    print(
        format_table(
            rows,
            title="Degradation vs slowdown of 8/64 ranks (1.0 = no slowdown)",
        )
    )

    # Part 2: persistence-based rebalancing learns the heterogeneity.
    machine = commodity_cluster(
        N_RANKS, variability=RandomStaticVariability(N_RANKS, sigma=0.35, seed=4)
    )
    sim = ScfSimulation("persistence").run(graph, machine, n_iterations=5, seed=0)
    print("\nPersistence-based rebalancing on a lognormal-heterogeneous machine:")
    for i, time in enumerate(sim.iteration_times, start=1):
        bar = "#" * int(time / sim.first_iteration_time * 40)
        print(f"  iter {i}: {time * 1e3:7.2f} ms  {bar}")
    improvement = sim.first_iteration_time / sim.steady_state_time
    print(f"  steady-state improvement: {improvement:.2f}x over iteration 1")


if __name__ == "__main__":
    main()
