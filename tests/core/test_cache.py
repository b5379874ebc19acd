"""Content-addressed result cache: round-trips, keys, invalidation."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import ResultCache, SweepCell, SweepRunner, cache_key, fingerprint
from repro.simulate import commodity_cluster


def assert_results_identical(a, b):
    """Bit-for-bit equality over every RunResult field."""
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and (va == vb).all(), f.name
        elif isinstance(va, dict) and any(
            isinstance(v, np.ndarray) for v in va.values()
        ):
            assert va.keys() == vb.keys(), f.name
            for k in va:
                assert (va[k] == vb[k]).all(), f"{f.name}[{k}]"
        else:
            assert va == vb, f.name


class TestFingerprint:
    def test_stable_across_calls(self, synthetic_graph):
        assert fingerprint(synthetic_graph) == fingerprint(synthetic_graph)

    def test_distinguishes_graphs(self, synthetic_graph, medium_graph):
        assert fingerprint(synthetic_graph) != fingerprint(medium_graph)

    def test_float_precision_matters(self):
        assert fingerprint(0.1) != fingerprint(0.1 + 1e-16)
        assert fingerprint(1.0) != fingerprint(1)

    def test_machine_variability_included(self):
        from repro.simulate import StaticHeterogeneity

        plain = commodity_cluster(4)
        noisy = commodity_cluster(4, variability=StaticHeterogeneity(range(2), 0.5))
        assert fingerprint(plain) != fingerprint(noisy)


    def test_plain_objects_are_not_encodable(self):
        class Plain:
            def __init__(self):
                self.factor = 0.5

        with pytest.raises(TypeError, match=r"cannot fingerprint '.*Plain'"):
            fingerprint(Plain())
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(commodity_cluster(4, variability=Plain()))

    def test_noise_models_are_keyed_by_their_parameters(self):
        from repro.simulate import (
            NoVariability,
            PeriodicThrottle,
            RandomStaticVariability,
            StaticHeterogeneity,
            TransientSlowdown,
        )

        families = [
            [lambda: NoVariability()],
            [
                lambda: StaticHeterogeneity([1, 0], 0.5),
                lambda: StaticHeterogeneity(range(3), 0.5),
                lambda: StaticHeterogeneity(range(2), 0.25),
            ],
            [
                lambda: RandomStaticVariability(8, 0.3, seed=1),
                lambda: RandomStaticVariability(9, 0.3, seed=1),
                lambda: RandomStaticVariability(8, 0.2, seed=1),
                lambda: RandomStaticVariability(8, 0.3, seed=2),
            ],
            [
                lambda: PeriodicThrottle(8, 1.0e-3, 0.25, 0.5, seed=1),
                lambda: PeriodicThrottle(8, 2.0e-3, 0.25, 0.5, seed=1),
                lambda: PeriodicThrottle(8, 1.0e-3, 0.5, 0.5, seed=1),
                lambda: PeriodicThrottle(8, 1.0e-3, 0.25, 0.75, seed=1),
                lambda: PeriodicThrottle(8, 1.0e-3, 0.25, 0.5, seed=2),
                lambda: PeriodicThrottle(8, 1.0e-3, 0.25, 0.5, seed=1, affected=[0, 1]),
            ],
            [
                lambda: TransientSlowdown([(0, 0.0, 1.0, 0.5)]),
                lambda: TransientSlowdown([(1, 0.0, 1.0, 0.5)]),
                lambda: TransientSlowdown([(0, 0.0, 2.0, 0.5)]),
            ],
        ]
        prints = [fingerprint(make()) for family in families for make in family]
        assert len(set(prints)) == len(prints)  # every parameter matters
        again = [fingerprint(make()) for family in families for make in family]
        assert again == prints  # equal parameters, separately built: equal key
        # Spelling does not matter, nor does the default spelled out.
        assert fingerprint(StaticHeterogeneity(range(2), 0.5)) == prints[1]
        assert fingerprint(
            PeriodicThrottle(8, 1.0e-3, 0.25, 0.5, seed=1, affected=range(8))
        ) == fingerprint(PeriodicThrottle(8, 1.0e-3, 0.25, 0.5, seed=1))


class TestCellKey:
    """A cell names its graph by ``content_key`` and nothing else."""

    @staticmethod
    def key_of(graph):
        cell = SweepCell("work_stealing", graph, commodity_cluster(4), seed=3)
        return SweepRunner().cell_key(cell)

    def test_graph_part_is_the_content_key(self, synthetic_graph):
        machine = commodity_cluster(4)
        cell = SweepCell("work_stealing", synthetic_graph, machine, seed=3)
        assert SweepRunner().cell_key(cell) == cache_key(
            graph_fp=synthetic_graph.content_key,
            machine_fp=fingerprint(machine),
            model="work_stealing",
            seed=3,
            faults_fp=fingerprint(None),
            options_fp=fingerprint(()),
        )

    def test_equal_graphs_built_apart_share_a_key(self, folded_graph):
        from repro.chemistry.tasks import graph_from_arrays, synthetic_task_graph

        a, b = (synthetic_task_graph(80, 5, seed=6) for _ in range(2))
        assert a is not b and self.key_of(a) == self.key_of(b)
        for graph in (a, folded_graph):
            assert self.key_of(pickle.loads(pickle.dumps(graph))) == self.key_of(graph)
            assert self.key_of(graph_from_arrays(**graph.to_arrays())) == self.key_of(graph)

    def test_every_array_of_the_graph_moves_the_key(
        self, folded_graph, footprint_twins, perturbed_graphs
    ):
        keys = {self.key_of(graph) for graph in perturbed_graphs(folded_graph)}
        assert len(keys) == 7 and self.key_of(folded_graph) not in keys
        standard, twin = footprint_twins
        assert self.key_of(standard) != self.key_of(twin)

    def test_shared_parts_are_fingerprinted_once_per_sweep(self, synthetic_graph, monkeypatch):
        from repro.core import StudyConfig, study_cells, sweep as sweep_module

        seen = []
        real = sweep_module.fingerprint
        monkeypatch.setattr(
            sweep_module, "fingerprint", lambda obj: seen.append(obj) or real(obj)
        )
        config = StudyConfig(models=("static_block", "work_stealing"), n_ranks=(4, 8, 16))
        cells = study_cells(config, synthetic_graph)
        runner = SweepRunner()
        keys = runner._cell_keys(cells)
        # Three machines, one fault plan (None), one options tuple: not 3 x 6.
        assert len(seen) == 5
        assert keys == [runner.cell_key(cell) for cell in cells]
        assert len(set(keys)) == len(cells)


class TestCacheKey:
    def test_each_component_changes_key(self):
        base = dict(
            graph_fp="g", machine_fp="m", model="work_stealing", seed=0, faults_fp="f"
        )
        reference = cache_key(**base)
        assert cache_key(**base) == reference
        for change in (
            {"graph_fp": "g2"},
            {"machine_fp": "m2"},
            {"model": "static_block"},
            {"seed": 1},
            {"faults_fp": "f2"},
            {"kind": "scf_sim"},
            {"options_fp": "o"},
            {"trace_intervals": True},
            {"salt": "other"},
        ):
            assert cache_key(**{**base, **change}) != reference, change


@pytest.fixture(scope="module")
def outcome(synthetic_graph):
    """A real cell outcome: what the cache stores."""
    from repro.core.sweep import execute_cell

    return execute_cell(
        SweepCell(model="work_stealing", graph=synthetic_graph, machine=commodity_cluster(4))
    )


class TestResultCache:
    def test_roundtrip_identical_row(self, synthetic_graph, tmp_path):
        cell = SweepCell(
            model="work_stealing",
            graph=synthetic_graph,
            machine=commodity_cluster(4),
            seed=3,
        )
        cold = SweepRunner(cache=tmp_path)
        fresh = cold.run_cell(cell)
        assert cold.last_provenance == ["fresh"]

        warm = SweepRunner(cache=tmp_path)
        cached = warm.run_cell(cell)
        assert warm.last_provenance == ["cached"]
        assert warm.stats.hit_rate == 1.0
        assert_results_identical(fresh, cached)

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 4},
            {"model": "static_block"},
            {"machine": None},  # replaced with a larger machine below
        ],
    )
    def test_changed_input_misses(self, synthetic_graph, tmp_path, change):
        runner = SweepRunner(cache=tmp_path)
        cell = SweepCell(
            model="work_stealing",
            graph=synthetic_graph,
            machine=commodity_cluster(4),
            seed=3,
        )
        runner.run_cell(cell)
        if change.get("machine", "") is None:
            change = {"machine": commodity_cluster(8)}
        runner.run_cell(dataclasses.replace(cell, **change))
        assert runner.stats.cached == 0
        assert runner.stats.computed == 2

    def test_no_cache_bypasses(self, synthetic_graph, tmp_path):
        seeded = SweepRunner(cache=tmp_path)
        cell = SweepCell(
            model="static_block",
            graph=synthetic_graph,
            machine=commodity_cluster(4),
        )
        seeded.run_cell(cell)
        assert len(seeded.cache) == 1

        uncached = SweepRunner(cache=None)
        uncached.run_cell(cell)
        assert uncached.stats.cached == 0
        assert uncached.last_provenance == ["fresh"]
        assert len(seeded.cache) == 1  # nothing new written either

    def test_salt_invalidates(self, synthetic_graph, tmp_path):
        cell = SweepCell(
            model="static_block",
            graph=synthetic_graph,
            machine=commodity_cluster(4),
        )
        SweepRunner(cache=tmp_path).run_cell(cell)
        bumped = SweepRunner(cache=tmp_path, salt="repro-sweep-v2-test")
        bumped.run_cell(cell)
        assert bumped.stats.cached == 0 and bumped.stats.computed == 1

    def test_entries_of_the_previous_salt_only_ever_miss(self, synthetic_graph, tmp_path):
        from repro.core import CACHE_SALT, StudyConfig

        assert CACHE_SALT == "repro-sweep-v2"
        config = StudyConfig(models=("static_block", "work_stealing"), n_ranks=(4, 8))
        old = SweepRunner(cache=tmp_path, salt="repro-sweep-v1")
        old_rows = old.run_study(config, synthetic_graph).rows()
        assert len(old.cache) == 4

        first = SweepRunner(cache=tmp_path)
        assert first.run_study(config, synthetic_graph).rows() == old_rows
        assert (first.stats.cached, first.stats.computed) == (0, 4)  # never a hit
        assert len(first.cache) == 8  # refilled next to the stale entries

        second = SweepRunner(cache=tmp_path)
        assert second.run_study(config, synthetic_graph).rows() == old_rows
        assert (second.stats.cached, second.stats.computed) == (4, 0)

    def test_corrupt_entry_is_miss_and_removed(self, synthetic_graph, tmp_path):
        runner = SweepRunner(cache=tmp_path)
        cell = SweepCell(
            model="static_block",
            graph=synthetic_graph,
            machine=commodity_cluster(4),
        )
        runner.run_cell(cell)
        key = runner.cell_key(cell)
        path = runner.cache.path_for(key)
        path.write_bytes(b"not a cache entry")
        assert runner.cache.get(key) is None
        assert not path.exists()
        # And the runner recomputes + re-stores transparently.
        runner.run_cell(cell)
        assert runner.stats.computed == 2
        assert ResultCache(tmp_path).get(key) is not None

    def test_truncated_entry_is_miss_and_removed(self, synthetic_graph, tmp_path):
        runner = SweepRunner(cache=tmp_path)
        cell = SweepCell(
            model="static_block",
            graph=synthetic_graph,
            machine=commodity_cluster(4),
        )
        fresh = runner.run_cell(cell)
        key = runner.cell_key(cell)
        path = runner.cache.path_for(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        assert runner.cache.get(key) is None
        assert not path.exists()
        # Self-heals: the next run recomputes and re-stores a valid entry.
        healed = runner.run_cell(cell)
        assert_results_identical(fresh, healed)
        assert runner.cache.get(key) is not None

    def test_zero_byte_entry_is_miss(self, synthetic_graph, tmp_path):
        runner = SweepRunner(cache=tmp_path)
        cell = SweepCell(
            model="static_block",
            graph=synthetic_graph,
            machine=commodity_cluster(4),
        )
        runner.run_cell(cell)
        key = runner.cell_key(cell)
        path = runner.cache.path_for(key)
        path.write_bytes(b"")
        errors_before = runner.cache.stats.errors
        assert runner.cache.get(key) is None
        assert runner.cache.stats.errors == errors_before + 1
        assert not path.exists()

    def test_json_text_entry_is_miss(self, outcome, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, outcome)
        path = cache.path_for("k" * 64)
        path.write_bytes(b'{"looks": "like json, not a cache entry"}')
        assert cache.get("k" * 64) is None
        assert not path.exists()

    def test_wrong_schema_pickle_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "a" * 64
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A perfectly valid pickle that is not the cache's envelope:
        # unpickles fine but must be rejected, not returned as a result.
        path.write_bytes(pickle.dumps({"makespan": 1.0}))
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.stats.errors == 1

    def test_wrong_key_envelope_is_miss(self, outcome, tmp_path):
        # An entry copied/renamed to another key's path: the header's
        # recorded key disagrees with the address, so it must not be
        # served (it would be the wrong cell's result).
        cache = ResultCache(tmp_path)
        cache.put("b" * 64, outcome)
        wrong = cache.path_for("c" * 64)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(cache.path_for("b" * 64).read_bytes())
        assert cache.get("c" * 64) is None
        assert_results_identical(cache.get("b" * 64), outcome)

    def test_get_never_raises_on_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "d" * 64
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        for garbage in (b"", b"\x80", b"\x80\x05garbage", b"x" * 1000):
            path.write_bytes(garbage)
            assert cache.get(key) is None  # must not raise

    def test_concurrent_writers_same_key(self, outcome, tmp_path):
        # Many threads racing put() on one key: every temp file is
        # unique (pid + counter), the final rename is atomic, and get()
        # always observes a complete, valid entry.
        import threading

        cache = ResultCache(tmp_path)
        key = "e" * 64
        value = outcome
        errors = []

        def writer():
            try:
                for _ in range(20):
                    cache.put(key, value)
                    got = cache.get(key)
                    if got is None or got.makespan != value.makespan:
                        errors.append("partial read")
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert_results_identical(cache.get(key), value)
        assert cache.stats.errors == 0
        # No temp-file litter left behind.
        assert not list(tmp_path.glob("**/*.tmp.*"))

    def test_clear(self, synthetic_graph, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        runner.run_cell(
            SweepCell(
                model="static_block",
                graph=synthetic_graph,
                machine=commodity_cluster(4),
            )
        )
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestAtomicTmpPath:
    """The shared temp-name scheme behind every atomic cache write."""

    def test_scheme_and_uniqueness(self, tmp_path):
        import os
        import re

        from repro.core.cache import atomic_tmp_path

        target = tmp_path / "ab" / "abcdef.entry"
        names = {atomic_tmp_path(target).name for _ in range(10)}
        assert len(names) == 10  # counter makes every call distinct
        pattern = re.compile(
            rf"^abcdef\.entry\.tmp\.{os.getpid()}-[0-9a-f]{{8}}\.\d+$"
        )
        for name in names:
            assert pattern.match(name), name

    def test_parent_preserved_and_never_an_entry_name(self, tmp_path):
        from repro.core.cache import ENTRY_SUFFIX, atomic_tmp_path

        target = tmp_path / "cd" / f"key{ENTRY_SUFFIX}"
        tmp = atomic_tmp_path(target)
        assert tmp.parent == target.parent
        assert tmp.name.startswith(f"key{ENTRY_SUFFIX}.tmp.")
        assert not tmp.name.endswith(ENTRY_SUFFIX)

    def test_artifact_store_shares_the_scheme(self):
        # ResultCache.put and ArtifactStore.put_arrays must never drift
        # apart: both stores write through the one disk layer, and it and
        # the service's job records use the same atomic-write helper.
        from repro.core import artifacts, cache
        from repro.service import jobs

        assert artifacts.ArtifactStore.put_arrays is cache.ResultCache.put_arrays
        assert artifacts.ArtifactStore.get_arrays is cache.ResultCache.get_arrays
        assert cache.atomic_write is jobs.atomic_write

    def test_atomic_write_replaces_or_leaves_nothing(self, tmp_path):
        from repro.core.cache import atomic_write

        target = tmp_path / "entry.json"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as tmp:
                tmp.write_text("half")
                raise RuntimeError("writer died")
        assert target.read_text() == "old"
        with atomic_write(target) as tmp:
            tmp.write_text("new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]
