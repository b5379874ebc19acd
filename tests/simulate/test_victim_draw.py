"""The compiled core draws a stealing rank's victims as NumPy does.

An idle pass (``Harness.idle_pass``) draws each victim in C on the rank
Generator's own ``bitgen_t``, transcribing the one NumPy routine
``Generator.integers(0, hi)`` runs for every range below 2**32 (Lemire's
bounded draw). The core's ``victims`` entry runs the same draw, so these
tests hold it to ``Generator.integers`` and ``WorkStealing._choose_victim``
value for value and leave the bit generator's state where NumPy's own
draws leave it. CI runs this file on the oldest supported NumPy as well.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.exec_models.work_stealing import WorkStealing
from repro.simulate import sched

#: ``hi - 1`` of ``integers(0, hi)``: 0 (two ranks) draws nothing; then
#: small and power-of-two-adjacent ranges, 2**31 - 1, and the largest
#: range Lemire's draw serves. 3 * 2**30 - 1 rejects a quarter of its
#: first draws, so the rejection loop runs; 2**32 - 1 takes the plain
#: 32-bit draw.
RANGES = (0, 1, 2, 14, 62, 254, 4094, 2**31 - 1, 2**32 - 2, 3 * 2**30 - 1, 2**32 - 1)
SEEDS = range(20)
DRAWS = 500


@pytest.fixture(scope="module")
def core():
    core = sched._load_engine_core()
    if core is None:
        if os.environ.get("REPRO_ENGINE_REQUIRE", "").strip() == "1":
            pytest.fail(f"the compiled engine core is unavailable: {sched._last_build_error}")
        pytest.skip("compiled engine core unavailable")
    return core


@pytest.mark.parametrize("span", RANGES)
def test_uniform_draw_is_generator_integers(core, span):
    """A rank ``hi`` of ``hi + 1`` draws ``integers(0, hi)`` itself: every
    draw is below its own rank, so none is shifted past it."""
    hi = span + 1
    for seed in SEEDS:
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = core.victims(ours.bit_generator, "random", hi, hi + 1, (), 0, DRAWS)
        assert drawn == [int(numpys.integers(0, hi)) for _ in range(DRAWS)], seed
        assert ours.bit_generator.state == numpys.bit_generator.state, seed


@pytest.mark.parametrize(
    "victim, rank, n_ranks, peers",
    [
        ("random", 5, 64, ()),
        ("random", 0, 2, ()),
        ("ring", 5, 64, ()),
        ("hierarchical", 5, 64, (4, 6, 7)),
        ("hierarchical", 1, 32, (0,)),
        ("hierarchical", 3, 16, ()),  # a node of one: every draw is remote
    ],
)
def test_victims_are_choose_victims(core, victim, rank, n_ranks, peers):
    """The victim sequence of an idle pass is ``_choose_victim``'s, scan
    by scan, from any starting scan, with the Generator left in step:
    the ring draws nothing, a hierarchical rank draws a node peer on two
    scans of three and any other rank on the third."""
    model = WorkStealing(victim=victim)
    ctx = SimpleNamespace(rank=rank, machine=SimpleNamespace(n_ranks=n_ranks))
    for seed in SEEDS:
        for start in (0, 2):
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = core.victims(ours.bit_generator, victim, rank, n_ranks, peers, start, DRAWS)
            expected = [
                model._choose_victim(ctx, numpys, list(peers), scan)
                for scan in range(start, start + DRAWS)
            ]
            assert drawn == expected, (seed, start)
            assert ours.bit_generator.state == numpys.bit_generator.state


@pytest.mark.parametrize(
    "args",
    [
        ("random", 0, 1, ()),  # one rank: no other rank to draw
        ("random", 0, 2**32 + 2, ()),  # past the 32-bit draw
        ("sideways", 0, 8, ()),
        ("random", 8, 8, ()),
        ("hierarchical", 0, 8, (9,)),
    ],
)
def test_malformed_draws_are_refused(core, args):
    victim, rank, n_ranks, peers = args
    bit_generator = np.random.default_rng(0).bit_generator
    with pytest.raises(ValueError):
        core.victims(bit_generator, victim, rank, n_ranks, peers, 0, 3)


@pytest.mark.parametrize(
    "model, machine",
    [
        ("work_stealing", "flat"),
        ("work_stealing_ring", "flat"),
        ("work_stealing_hier", "two-tier"),
        ("scf", "two-tier"),
    ],
)
def test_every_rank_generator_ends_where_the_generators_leave_it(
    core, model, machine, monkeypatch
):
    """After a run every rank's victim Generator is in the state the
    reference engine's generator loop leaves it in: the core drew exactly
    the victims the loop would have, no more and no fewer."""
    import repro.exec_models.scf_simulation as scf_simulation
    import repro.exec_models.work_stealing as work_stealing
    from repro.chemistry.tasks import synthetic_task_graph
    from repro.exec_models import ScfSimulation, make_model
    from repro.simulate import commodity_cluster, hierarchical_cluster
    from repro.util import spawn_rng

    graph = synthetic_task_graph(400, 12, seed=3, skew=1.4)
    cluster = commodity_cluster(16) if machine == "flat" else hierarchical_cluster(4, 4)
    spawned = []

    def recorded(*args):
        rng = spawn_rng(*args)
        spawned.append(rng)
        return rng

    module = scf_simulation if model == "scf" else work_stealing
    monkeypatch.setattr(module, "spawn_rng", recorded)
    states = {}
    for mode in ("python", "compiled"):
        monkeypatch.setenv("REPRO_ENGINE", mode)
        spawned.clear()
        if model == "scf":
            ScfSimulation("work_stealing").run(graph, cluster, n_iterations=2, seed=4)
        else:
            make_model(model).run(graph, cluster, seed=4)
        states[mode] = [rng.bit_generator.state for rng in spawned]
    assert len(states["python"]) == cluster.n_ranks * (2 if model == "scf" else 1)
    assert states["compiled"] == states["python"]
