"""Shared fixtures: prebuilt problems reused across the suite (expensive
integral setups are session-scoped)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.chemistry import ScfProblem, water_cluster
from repro.chemistry.tasks import TaskGraph, synthetic_task_graph
from repro.simulate import commodity_cluster


@pytest.fixture(scope="session")
def tiny_problem() -> ScfProblem:
    """One water, 7 basis functions, unscreened (tau=0): exact references."""
    return ScfProblem.build(water_cluster(1), block_size=3, tau=0.0)


@pytest.fixture(scope="session")
def small_problem() -> ScfProblem:
    """Two waters, 14 basis functions, light screening."""
    return ScfProblem.build(water_cluster(2), block_size=4, tau=1.0e-12)


@pytest.fixture(scope="session")
def medium_problem() -> ScfProblem:
    """Four waters, 28 basis functions: the execution-model workhorse."""
    return ScfProblem.build(water_cluster(4), block_size=6, tau=1.0e-10)


@pytest.fixture(scope="session")
def medium_graph(medium_problem):
    return medium_problem.graph


@pytest.fixture(scope="session")
def synthetic_graph():
    """600 heavy-tailed synthetic tasks over 16 blocks."""
    return synthetic_task_graph(600, 16, seed=7, skew=1.3)


@pytest.fixture(params=[(0, 16), (-1, 0)], ids=["past-the-end", "negative"])
def stray_ref_graph(request, synthetic_graph):
    """``synthetic_graph`` with task 0 reading a block outside its 16 blocks.

    Unchecked, the first ref is an ``IndexError`` in a vectorised owner
    lookup and the second silently wraps to another rank's block.
    """
    first = replace(synthetic_graph.tasks[0], reads=(request.param,))
    return TaskGraph((first, *synthetic_graph.tasks[1:]), synthetic_graph.blocks, 0.0)


@pytest.fixture(scope="session")
def folded_graph(small_problem):
    """``small_problem``'s symmetry-folded graph: 55 canonical quartets
    whose footprints cover every image, so no quartet derives them."""
    from repro.chemistry.symmetry import build_symmetric_task_graph

    return build_symmetric_task_graph(
        small_problem.basis, small_problem.blocks, small_problem.screen
    )


@pytest.fixture(scope="session")
def footprint_twins():
    """Two graphs equal in quartets, costs, offsets and tau — one with the
    standard footprints, one whose tasks also read block (0, 0)."""
    standard = synthetic_task_graph(120, 6, seed=4)
    tasks = tuple(
        replace(t, reads=tuple(dict.fromkeys((*t.reads, (0, 0))))) for t in standard.tasks
    )
    return standard, TaskGraph(tasks, standard.blocks, standard.tau)


@pytest.fixture(scope="session")
def perturbed_graphs():
    """``perturbed_graphs(graph)``: one rebuilt graph per entry of
    ``graph.to_arrays()``, that entry alone changed."""
    from repro.chemistry.tasks import graph_from_arrays

    def perturbed(graph):
        arrays = graph.to_arrays()
        for name, value in arrays.items():
            if name in ("tau", "offsets"):
                changed = value * 2
            elif name == "fp_counts":  # task 0's last read becomes a write
                changed = value.copy()
                changed[0] += (-1, 1)
            elif name == "flops":
                changed = value.copy()
                changed[-1] += 1
            else:  # the last block index moves to its neighbour, in range
                changed = value.copy()
                changed.flat[-1] = (changed.flat[-1] + 1) % graph.blocks.n_blocks
            yield graph_from_arrays(**{**arrays, name: changed})

    return perturbed


@pytest.fixture
def racing_reads():
    """``racing_reads(read)``: eight threads released by one barrier into
    ``read()`` under a shortened switch interval; the eight results."""
    import sys
    import threading

    def race(read, n_threads=8):
        barrier = threading.Barrier(n_threads)
        seen = []

        def body():
            barrier.wait(timeout=30)
            seen.append(read())

        threads = [threading.Thread(target=body) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == n_threads
        return seen

    return race


@pytest.fixture
def machine16():
    return commodity_cluster(16)


@pytest.fixture
def machine4():
    return commodity_cluster(4)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
