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
        runner.run_cell(runner.variant(cell, **change))
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
        path.write_bytes(b"not a pickle")
        assert runner.cache.get(key) is None
        assert not path.exists()
        # And the runner recomputes + re-stores transparently.
        runner.run_cell(cell)
        assert runner.stats.computed == 2
        assert pickle.loads(path.read_bytes()) is not None

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

    def test_json_text_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, {"x": 1})
        path = cache.path_for("k" * 64)
        path.write_bytes(b'{"looks": "like json, not pickle"}')
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

    def test_wrong_key_envelope_is_miss(self, tmp_path):
        # An entry copied/renamed to another key's path: the envelope's
        # recorded key disagrees with the address, so it must not be
        # served (it would be the wrong cell's result).
        cache = ResultCache(tmp_path)
        cache.put("b" * 64, "value-for-b")
        wrong = cache.path_for("c" * 64)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(cache.path_for("b" * 64).read_bytes())
        assert cache.get("c" * 64) is None
        assert cache.get("b" * 64) == "value-for-b"

    def test_get_never_raises_on_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "d" * 64
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        for garbage in (b"", b"\x80", b"\x80\x05garbage", b"x" * 1000):
            path.write_bytes(garbage)
            assert cache.get(key) is None  # must not raise

    def test_concurrent_writers_same_key(self, tmp_path):
        # Many threads racing put() on one key: every temp file is
        # unique (pid + counter), the final rename is atomic, and get()
        # always observes a complete, valid entry.
        import threading

        cache = ResultCache(tmp_path)
        key = "e" * 64
        value = {"arr": np.arange(512), "tag": "race"}
        errors = []

        def writer():
            try:
                for _ in range(20):
                    cache.put(key, value)
                    got = cache.get(key)
                    if got is not None and got["tag"] != "race":
                        errors.append("partial read")
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        got = cache.get(key)
        assert got is not None and (got["arr"] == value["arr"]).all()
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

        target = tmp_path / "ab" / "abcdef.pkl"
        names = {atomic_tmp_path(target).name for _ in range(10)}
        assert len(names) == 10  # counter makes every call distinct
        pattern = re.compile(
            rf"^abcdef\.pkl\.tmp\.{os.getpid()}-[0-9a-f]{{8}}\.\d+$"
        )
        for name in names:
            assert pattern.match(name), name

    def test_suffix_and_parent_preserved(self, tmp_path):
        from repro.core.cache import atomic_tmp_path

        target = tmp_path / "cd" / "entry.npz"
        tmp = atomic_tmp_path(target, suffix=".npz")
        assert tmp.parent == target.parent
        assert tmp.name.endswith(".npz")
        assert tmp.name.startswith("entry.npz.tmp.")

    def test_artifact_store_shares_the_scheme(self):
        # ResultCache.put and ArtifactStore.put_arrays must never drift
        # apart: both atomic writers go through the same helper.
        from repro.core import artifacts, cache
        from repro.service import jobs

        assert artifacts.atomic_write is cache.atomic_write is jobs.atomic_write

    def test_atomic_write_replaces_or_leaves_nothing(self, tmp_path):
        from repro.core.cache import atomic_write

        target = tmp_path / "entry.json"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as tmp:
                tmp.write_text("half")
                raise RuntimeError("writer died")
        assert target.read_text() == "old"
        with atomic_write(target, suffix=".npz") as tmp:
            assert tmp.name.endswith(".npz")
            tmp.write_text("new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]
