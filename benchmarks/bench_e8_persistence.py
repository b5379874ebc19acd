"""E8 ("Tab. 2"): persistence-based rebalancing across SCF iterations.

SCF's iterative structure lets measured costs from iteration i schedule
iteration i+1. Starting from a naive static-block schedule on a
heterogeneous machine, per-iteration time should collapse to near the
work-stealing level after one iteration — without any runtime scheduling
overhead at all. Both disciplines run as whole SCF (``ScfSimulation``):
every iteration on one clock, with the Fock allreduce, the density
broadcast and the convergence barrier between iterations.
"""

import pytest

from repro.api import SweepCell, commodity_cluster, format_table
from repro.simulate import RandomStaticVariability

N_RANKS = 64
N_ITERATIONS = 6


def run_experiment(graph, runner):
    machine = commodity_cluster(
        N_RANKS, variability=RandomStaticVariability(N_RANKS, sigma=0.3, seed=8)
    )
    persistence, stealing = runner.run_cells(
        [
            SweepCell(
                model=mode,
                graph=graph,
                machine=machine,
                seed=2,
                kind="scf_sim",
                options=(("n_iterations", N_ITERATIONS),),
            )
            for mode in ("persistence", "work_stealing")
        ]
    )
    first = persistence.first_iteration_time
    rows = [
        {
            "iteration": i + 1,
            "persistence_ms": t * 1e3,
            "work_stealing_ms": s * 1e3,
            "vs_iter1": first / t,
        }
        for i, (t, s) in enumerate(zip(persistence.iteration_times, stealing.iteration_times))
    ]
    return rows, persistence, stealing


@pytest.mark.benchmark(group="e8")
def test_e8_persistence_iterations(benchmark, water6_problem, sweep_runner, emit):
    rows, persistence, stealing = benchmark.pedantic(
        run_experiment, args=(water6_problem.graph, sweep_runner), rounds=1, iterations=1
    )
    table = format_table(
        rows,
        columns=["iteration", "persistence_ms", "work_stealing_ms", "vs_iter1"],
        title=(
            "E8: persistence-based rebalancing per SCF iteration, whole SCF "
            f"(heterogeneous machine, P={N_RANKS}, lognormal sigma=0.3)"
        ),
    )
    emit("e8_persistence", table)

    times = persistence.iteration_times
    # Iteration 2 already recovers most of the imbalance...
    assert times[1] < 0.75 * times[0]
    # ...and steady state competes with work stealing (within 15%).
    assert persistence.steady_state_time < 1.15 * stealing.steady_state_time
    # Later iterations are stable (no oscillation).
    assert abs(times[-1] - times[-2]) / times[-2] < 0.10
