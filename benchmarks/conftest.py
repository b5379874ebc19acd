"""Shared benchmark fixtures and output plumbing.

Every experiment writes its table both to stdout and to
``benchmarks/results/<experiment>.txt`` so results survive pytest's output
capture; EXPERIMENTS.md quotes those files.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.api import SweepRunner, use_store
from repro.chemistry import ScfProblem, linear_alkane, water_cluster
from repro.chemistry.tasks import synthetic_task_graph

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def emit():
    """emit(name, text): print and persist one experiment's output."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit


@pytest.fixture(scope="session")
def sweep_runner():
    """One shared sweep orchestrator for every experiment in the session.

    ``REPRO_SWEEP_JOBS=N`` fans cache-miss cells over N forked workers
    (default serial); ``REPRO_SWEEP_CACHE=0`` disables the on-disk result
    cache at ``benchmarks/results/cache`` (also reachable via
    ``REPRO_CACHE_DIR``). Cached and fresh cells are bit-for-bit
    identical, so the experiment tables never depend on these knobs.
    """
    jobs = int(os.environ.get("REPRO_SWEEP_JOBS", "1"))
    cache: pathlib.Path | None = RESULTS_DIR / "cache"
    if os.environ.get("REPRO_SWEEP_CACHE", "1") == "0":
        cache = None
    runner = SweepRunner(jobs=jobs, cache=cache)
    yield runner
    stats = runner.stats
    if stats.cells:
        print(
            f"\n[sweep] {stats.cells} cells: {stats.cached} cached, "
            f"{stats.computed} computed (hit rate {stats.hit_rate:.0%}, "
            f"jobs={jobs})"
        )


@pytest.fixture
def no_artifact_store():
    """Run the test with the artifact store off, then restore it.

    For experiments that *time* a balancer: ``hypergraph_balancer`` and
    ``fock_hypergraph`` are content-addressed, so with
    ``REPRO_ARTIFACT_DIR`` exported a second run would time a disk read
    and report it as the partitioner's cost.
    """
    with use_store(None):
        yield


@pytest.fixture(scope="session")
def water8_graph():
    """The E1/E2/E7/E10 workload: 8 waters, 10k tasks, cv ~0.6."""
    return ScfProblem.build(water_cluster(8), block_size=6, tau=1.0e-10).graph


@pytest.fixture(scope="session")
def water6_problem():
    """Mid-size chemistry problem (2401 tasks) for balancer tables."""
    return ScfProblem.build(water_cluster(6), block_size=6, tau=1.0e-9)


@pytest.fixture(scope="session")
def alkane_graph():
    """Quasi-1-D chain: strongest screening skew."""
    return ScfProblem.build(linear_alkane(10), block_size=6, tau=1.0e-9).graph


@pytest.fixture(scope="session")
def synthetic_medium():
    return synthetic_task_graph(3000, 24, seed=11, skew=1.3)
