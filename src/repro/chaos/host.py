"""The ``host`` suite: the forked sweep backend, its cache and artifact
store under crashes, hangs, interrupts and rewritten disk bytes.

Disturbed sweeps run on :attr:`ChaosContext.jobs` supervised workers and
are compared with :attr:`ChaosContext.reference` field by field.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.chaos.harness import (
    ChaosContext,
    ChaosPlan,
    _compare_rows,
    _interrupt_after,
    _verdict,
    chaos_execute_cell,
    scenario,
)
from repro.core.cache import ResultCache
from repro.core.sweep import SweepRunner
from repro.parallel.supervisor import CellFailure


# ----------------------------------------------------------------------
# Disk corruption helpers (run in the parent, between sweep phases)
# ----------------------------------------------------------------------

def _truncate_file(path: Path, keep_fraction: float = 0.5) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: max(1, int(len(data) * keep_fraction))])


def _corrupt_files(paths: Sequence[Path], garbage: bytes) -> None:
    """Truncate / zero / garbage the files, cycling through the three."""
    for index, path in enumerate(paths):
        if index % 3 == 0:
            _truncate_file(path)
        elif index % 3 == 1:
            path.write_bytes(b"")
        else:
            path.write_bytes(garbage)


def _corrupt_cache_entries(cache: ResultCache, keys: Sequence[str]) -> int:
    """Corrupt the on-disk entries for ``keys``; returns how many it found."""
    wanted = set(keys)
    paths = [path for path in cache.entries() if path.stem in wanted]
    _corrupt_files(paths, b'{"not": "a cache entry"}')
    return len(paths)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

@scenario("host", "worker SIGKILL + hung cell + corrupted cache, bit-for-bit")
def crash_hang_corrupt(ctx: ChaosContext) -> str:
    """Pre-warmed cache entries are truncated/zeroed/garbage'd, one worker
    is SIGKILLed mid-cell, one cell hangs past the timeout; the sweep
    must self-heal and match."""
    cells, labels = ctx.cells, ctx.labels
    warm = SweepRunner(cache=ctx.workdir / "cache")
    warm.run_cells(cells[:3])
    corrupted = _corrupt_cache_entries(
        warm.cache, [warm.cell_key(c) for c in cells[:3]]
    )
    plan = ChaosPlan(
        marker_dir=ctx.markers(),
        kill=(labels[1],),
        hang=(labels[2],),
        hang_seconds=max(10.0, ctx.timeout * 5),
    )
    runner = SweepRunner(
        jobs=ctx.jobs,
        cache=ctx.workdir / "cache",
        timeout=ctx.timeout,
        retry=ctx.retry,
        on_error="quarantine",
        cell_fn=functools.partial(chaos_execute_cell, plan),
    )
    problems = _compare_rows(ctx.reference, runner.run_cells(cells))
    stats = runner.supervisor_stats
    if corrupted < 3:
        problems.append(f"only corrupted {corrupted}/3 cache entries")
    if runner.cache.stats.errors < corrupted:
        problems.append(
            f"cache detected {runner.cache.stats.errors} corruptions, "
            f"expected >= {corrupted}"
        )
    if stats.crashes < 1:
        problems.append("no worker crash observed (SIGKILL not injected?)")
    if stats.timeouts < 1:
        problems.append("no cell timeout observed (hang not injected?)")
    if runner.last_failures:
        problems.append(f"unexpected quarantines: {runner.last_failures}")
    return _verdict(
        problems,
        f"{corrupted} corrupt entries healed, {stats.crashes} crash(es), "
        f"{stats.timeouts} timeout(s), {stats.retries} retries; rows identical",
    )


@scenario("host", "SIGINT interrupt + corrupted entry + cached rerun, bit-for-bit")
def interrupt_resume(ctx: ChaosContext) -> str:
    """A sweep is interrupted partway (KeyboardInterrupt) and one entry it
    settled is corrupted; a rerun over the same cache must serve every
    other settled cell as ``cached``, recompute the corrupt one and the
    unfinished ones, and match."""
    cells = ctx.cells
    cache_dir = ctx.workdir / "cache"
    stop_after = max(2, len(cells) // 2)
    first = SweepRunner(cache=cache_dir, progress=_interrupt_after(stop_after))
    interrupted = False
    try:
        first.run_cells(cells)
    except KeyboardInterrupt:
        interrupted = True
    if not interrupted:
        raise AssertionError("sweep was not interrupted")
    done_before = first.stats.computed
    if done_before < stop_after:
        raise AssertionError(f"only {done_before} cells cached before interrupt")
    if first.last_provenance.count("pending") == 0:
        raise AssertionError("interrupt left nothing pending")
    settled = [c for c, how in zip(cells, first.last_provenance) if how == "fresh"]
    if _corrupt_cache_entries(first.cache, [first.cell_key(settled[-1])]) != 1:
        raise AssertionError("the last settled cell has no cache entry")

    second = SweepRunner(
        jobs=ctx.jobs, cache=cache_dir, timeout=ctx.timeout, retry=ctx.retry
    )
    problems = _compare_rows(ctx.reference, second.run_cells(cells))
    # The corrupt entry is a counted miss that recomputes; every other
    # settled cell comes back from the cache.
    if second.stats.cached != done_before - 1:
        problems.append(f"cache hits {second.stats.cached}, expected {done_before - 1}")
    if second.cache.stats.errors != 1:
        problems.append(
            f"cache detected {second.cache.stats.errors} corruptions, expected 1"
        )
    if second.stats.computed != len(cells) - done_before + 1:
        problems.append(
            f"recomputed {second.stats.computed}, expected "
            f"{len(cells) - done_before + 1} (unfinished + corrupt)"
        )
    return _verdict(
        problems,
        f"interrupted after {done_before}, {second.stats.cached} cached, "
        f"1 corrupt entry healed, recomputed {second.stats.computed}; "
        f"rows identical",
    )


@scenario("host", "poison cell quarantined, sweep completes")
def poison_quarantine(ctx: ChaosContext) -> str:
    """A cell failing every attempt must end up quarantined as a
    :class:`CellFailure` while every other cell still matches."""
    retry = ctx.retry
    poison_label = ctx.labels[-1]
    plan = ChaosPlan(marker_dir=ctx.markers(), fail=(poison_label,))
    runner = SweepRunner(
        jobs=ctx.jobs,
        cache=None,
        timeout=ctx.timeout,
        retry=retry,
        on_error="quarantine",
        cell_fn=functools.partial(chaos_execute_cell, plan),
    )
    disturbed = runner.run_cells(ctx.cells)
    poison_index = ctx.labels.index(poison_label)
    problems = _compare_rows(ctx.reference, disturbed, skip={poison_index})
    failure = disturbed[poison_index]
    if not isinstance(failure, CellFailure):
        problems.append(f"poison cell not quarantined: {failure!r}")
    else:
        if failure.attempts != retry.max_attempts:
            problems.append(
                f"poison retried {failure.attempts} times, expected "
                f"{retry.max_attempts}"
            )
        if failure.label != poison_label:
            problems.append(f"failure label {failure.label!r}")
    if runner.stats.failed != 1:
        problems.append(f"stats.failed == {runner.stats.failed}")
    return _verdict(
        problems,
        f"poison cell {poison_label} quarantined after "
        f"{retry.max_attempts} attempts; other rows identical",
    )


@scenario("host", "corrupted artifact store heals to bit-identical rebuilds")
def corrupted_artifacts(ctx: ChaosContext) -> str:
    """Every on-disk artifact entry (hypergraph, semi-matching assignment)
    is truncated/zeroed/garbage'd; rebuilds must detect each corruption,
    reproduce the uncached reference bit for bit, and re-store servable
    entries."""
    from repro.balance.hypergraph import fock_hypergraph
    from repro.balance.semi_matching import semi_matching_balancer
    from repro.core.artifacts import ArtifactStore, use_store

    graph, seed = ctx.graph, ctx.seed
    n_ranks = ctx.config.n_ranks[-1]
    root = ctx.workdir / "artifacts"

    def build(store: ArtifactStore | None) -> tuple:
        with use_store(store):
            return (
                fock_hypergraph(graph),
                semi_matching_balancer(graph, n_ranks, seed=seed),
            )

    ref_hg, ref_assign = build(None)  # ground truth: no memoization at all
    build(ArtifactStore(root))
    entries = ArtifactStore(root).entries()
    if len(entries) < 2:
        raise AssertionError(f"expected >= 2 artifact entries, got {len(entries)}")
    _corrupt_files(entries, b"PK\x03\x04 chaos garbage, not an entry")
    healed = ArtifactStore(root)  # fresh memo: must consult the disk
    hg, assign = build(healed)
    problems: list[str] = []
    if healed.stats.errors < len(entries):
        problems.append(
            f"detected {healed.stats.errors} corruptions, "
            f"expected >= {len(entries)}"
        )
    if healed.stats.disk_hits:
        problems.append(
            f"{healed.stats.disk_hits} disk hit(s) served from corrupt entries"
        )
    if not (
        np.array_equal(hg.pins, ref_hg.pins)
        and np.array_equal(hg.xpins, ref_hg.xpins)
        and np.array_equal(hg.net_weights, ref_hg.net_weights)
        and np.array_equal(assign, ref_assign)
    ):
        problems.append("rebuilt artifacts differ from uncached reference")
    warm = ArtifactStore(root)  # the rebuild must have re-stored cleanly
    build(warm)
    if warm.stats.disk_hits < 2:
        problems.append(
            f"re-stored entries not servable ({warm.stats.disk_hits} disk hits)"
        )
    return _verdict(
        problems,
        f"{len(entries)} corrupt artifact entries healed, rebuilds "
        f"bit-identical, re-stored entries warm-servable",
    )


@scenario("host", "artifact store: warm source build >= 90% disk hits, rows identical")
def artifact_warm_rebuild(ctx: ChaosContext) -> str:
    """No fault, the baseline the corruption row heals back to: a study whose
    models run the whole build pipeline (screening -> task graph ->
    hypergraph partition / semi-matching) is built twice over one store
    directory, the second time by a new :class:`ArtifactStore` (an empty
    memo, as a new process would see). The result cache is off throughout,
    so every warm lookup is answered by the artifact layer alone."""
    from repro.chemistry import ScfProblem, water_cluster
    from repro.core.artifacts import ArtifactStore, use_store
    from repro.core.config import StudyConfig

    config = StudyConfig(
        models=("inspector_semi_matching", "inspector_hypergraph"),
        n_ranks=(16,),
        seed=ctx.seed,
    )

    def study(store: ArtifactStore) -> list[dict]:
        with use_store(store):
            problem = ScfProblem.build(
                water_cluster(3, seed=0), block_size=6, tau=1.0e-10
            )
            return SweepRunner(jobs=1, cache=None).run_study(config, problem).rows()

    cold = ArtifactStore(ctx.workdir / "artifacts")
    cold_rows = study(cold)
    warm = ArtifactStore(ctx.workdir / "artifacts")
    warm_rows = study(warm)
    served = warm.stats.disk_hits / max(warm.stats.disk_hits + warm.stats.misses, 1)
    problems: list[str] = []
    if cold.stats.disk_hits:
        problems.append("cold pass hit a supposedly fresh store")
    if not cold.stats.stores:
        problems.append("cold pass persisted nothing")
    if served < 0.90:
        problems.append(f"warm disk-hit rate {served:.0%} < 90%")
    if warm_rows != cold_rows:
        problems.append("warm-pass rows differ from cold-pass rows")
    return _verdict(
        problems,
        f"{cold.stats.stores} entries persisted cold, warm pass "
        f"{warm.stats.disk_hits}/{warm.stats.disk_hits + warm.stats.misses} "
        f"from disk; rows identical",
    )
