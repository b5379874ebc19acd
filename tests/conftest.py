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


@pytest.fixture
def machine16():
    return commodity_cluster(16)


@pytest.fixture
def machine4():
    return commodity_cluster(4)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
