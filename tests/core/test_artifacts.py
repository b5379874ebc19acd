"""Artifact store: keys, fetch protocol, corruption, memo, invalidation."""

import gc
import warnings

import numpy as np
import pytest

from repro.core.artifacts import (
    ArtifactStore,
    artifact_key,
    configure_artifacts,
    default_store,
    use_store,
)


def _key(store, n=0):
    return store.key("test_kind", f"part{n}")


def _arrays(n=0):
    return {"a": np.arange(10, dtype=np.int64) + n, "b": np.eye(3) * (n + 1)}


class TestArtifactKey:
    def test_stable(self):
        assert artifact_key("k", "x", 1) == artifact_key("k", "x", 1)

    def test_each_component_changes_key(self):
        ref = artifact_key("k", "x", 1)
        assert artifact_key("k2", "x", 1) != ref
        assert artifact_key("k", "y", 1) != ref
        assert artifact_key("k", "x", 2) != ref
        assert artifact_key("k", "x", 1, salt="other") != ref

    def test_non_string_parts_fingerprinted(self):
        # ints, floats, tuples, arrays all key deterministically — and
        # precision matters, matching the result cache's fingerprinting.
        assert artifact_key("k", 1.0) != artifact_key("k", 1)
        a = artifact_key("k", np.arange(4))
        assert a == artifact_key("k", np.arange(4))
        assert a != artifact_key("k", np.arange(5))


class TestRoundtrip:
    def test_arrays_roundtrip_bitwise(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = _key(store)
        store.put_arrays(key, _arrays(), {"tau": 0.5})
        arrays, meta = store.get_arrays(key)
        ref = _arrays()
        assert meta == {"tau": 0.5}
        for name in ref:
            assert arrays[name].dtype == ref[name].dtype
            assert np.array_equal(arrays[name], ref[name])

    def test_fetch_builds_once_then_memo_hits(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []

        def build():
            calls.append(1)
            return _arrays()["a"]

        key = _key(store)
        enc = lambda v: ({"a": v}, {})
        dec = lambda arrays, _meta: arrays["a"]
        first = store.fetch(key, build, encode=enc, decode=dec)
        second = store.fetch(key, build, encode=enc, decode=dec)
        assert len(calls) == 1
        assert first is second  # memo layer shares the instance
        assert store.stats.misses == 1 and store.stats.memo_hits == 1

    def test_threads_sharing_an_evicting_memo(self):
        """Jobs on the service's run-loop threads share one store: more
        threads than cores hammering a two-entry memo with switches forced
        every microsecond lose no value and never overfill the memo."""
        import sys
        import threading

        store = ArtifactStore(None, memo_limit=2)
        errors = []

        def worker(offset):
            try:
                for i in range(3000):
                    key = f"k{(i + offset) % 5}"
                    if store.fetch(key, lambda: key) != key:
                        errors.append(f"{key} served another key's value")
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(store._memo) <= 2
        assert all(key == value for key, value in store._memo.items())

    def test_fetch_disk_hit_across_stores(self, tmp_path):
        enc = lambda v: ({"a": v}, {})
        dec = lambda arrays, _meta: arrays["a"]
        cold = ArtifactStore(tmp_path)
        key = _key(cold)
        built = cold.fetch(key, lambda: np.arange(7), encode=enc, decode=dec)
        warm = ArtifactStore(tmp_path)  # fresh process-alike: empty memo
        hit = warm.fetch(
            key, lambda: pytest.fail("must not rebuild"), encode=enc, decode=dec
        )
        assert warm.stats.disk_hits == 1 and warm.stats.misses == 0
        assert np.array_equal(hit, built)

    def test_copy_on_hit_isolates_mutation(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = _key(store)
        first = store.fetch(key, lambda: np.arange(5), copy_on_hit=np.copy)
        first[0] = 99  # caller mutates its copy...
        second = store.fetch(
            key, lambda: pytest.fail("must not rebuild"), copy_on_hit=np.copy
        )
        assert second[0] == 0  # ...without poisoning the memo

    def test_memo_only_store_has_no_disk(self):
        store = ArtifactStore(None)
        key = _key(store)
        store.put_arrays(key, _arrays())  # no-op, must not raise
        assert store.get_arrays(key) is None
        built = store.fetch(key, lambda: "value")
        assert store.fetch(key, lambda: pytest.fail("memo miss")) == built

    def test_memo_fifo_bound(self):
        store = ArtifactStore(None, memo_limit=2)
        for n in range(3):
            store.fetch(_key(store, n), lambda n=n: n)
        # Oldest entry evicted: fetch(part0) rebuilds.
        rebuilt = []
        store.fetch(_key(store, 0), lambda: rebuilt.append(1) or 0)
        assert rebuilt == [1]


class TestCorruption:
    """Every corruption shape degrades to a rebuild; get never raises."""

    def _seeded(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = _key(store)
        store.put_arrays(key, _arrays(), {"n": 1})
        return store, key, store.path_for(key)

    def test_zero_byte_entry_is_miss_and_removed(self, tmp_path):
        store, key, path = self._seeded(tmp_path)
        path.write_bytes(b"")
        assert store.get_arrays(key) is None
        assert store.stats.errors == 1
        assert not path.exists()

    def test_truncated_entry_is_miss_and_removed(self, tmp_path):
        store, key, path = self._seeded(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert store.get_arrays(key) is None
            gc.collect()
        assert not path.exists()
        # The corrupt->miss path must not strand the file descriptor.
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_json_text_entry_is_miss(self, tmp_path):
        store, key, path = self._seeded(tmp_path)
        path.write_bytes(b'{"looks": "like json, not an entry"}')
        assert store.get_arrays(key) is None
        assert not path.exists()

    def test_foreign_npz_without_envelope_is_miss(self, tmp_path):
        # A perfectly valid .npz that was not written by the store: loads
        # fine but has no envelope, so it must be rejected, not served.
        store, key, path = self._seeded(tmp_path)
        with open(path, "wb") as fh:  # given a name, savez would add ".npz"
            np.savez(fh, a=np.arange(3))
        assert store.get_arrays(key) is None
        assert not path.exists()
        assert store.stats.errors == 1

    def test_wrong_key_envelope_is_miss(self, tmp_path):
        # An entry copied/renamed to another key's path: the recorded key
        # disagrees with the address — serving it would hand one build's
        # output to a different input.
        store = ArtifactStore(tmp_path)
        k1, k2 = _key(store, 1), _key(store, 2)
        store.put_arrays(k1, _arrays(1))
        wrong = store.path_for(k2)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(store.path_for(k1).read_bytes())
        assert store.get_arrays(k2) is None
        assert store.get_arrays(k1) is not None  # original untouched

    def test_get_never_raises_on_garbage(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = _key(store)
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        for garbage in (b"", b"PK", b"PK\x03\x04half a zip", b"x" * 1000):
            path.write_bytes(garbage)
            assert store.get_arrays(key) is None  # must not raise

    def test_fetch_rebuilds_after_corruption(self, tmp_path):
        enc = lambda v: ({"a": v}, {})
        dec = lambda arrays, _meta: arrays["a"]
        cold = ArtifactStore(tmp_path)
        key = _key(cold)
        built = cold.fetch(key, lambda: np.arange(9), encode=enc, decode=dec)
        cold.path_for(key).write_bytes(b"garbage")
        healed_store = ArtifactStore(tmp_path)  # empty memo: must hit disk
        healed = healed_store.fetch(
            key, lambda: np.arange(9), encode=enc, decode=dec
        )
        assert np.array_equal(healed, built)
        assert healed_store.stats.misses == 1  # corrupt -> rebuilt
        # ...and the rebuild re-stored a valid entry.
        assert ArtifactStore(tmp_path).get_arrays(key) is not None


    def test_fetch_rebuilds_an_entry_its_decoder_refuses(self, tmp_path):
        """A sound archive with the wrong arrays is a corrupt miss too."""
        store, key, path = self._seeded(tmp_path)  # holds "a" and "b", not "q"
        enc = lambda v: ({"q": v}, {})
        dec = lambda arrays, _meta: arrays["q"]
        healed = store.fetch(key, lambda: np.arange(4), encode=enc, decode=dec)
        assert np.array_equal(healed, np.arange(4))
        assert (store.stats.errors, store.stats.disk_hits, store.stats.misses) == (1, 0, 1)
        reread = ArtifactStore(tmp_path).fetch(key, lambda: 1 / 0, encode=enc, decode=dec)
        assert np.array_equal(reread, healed)


class TestInvalidation:
    def test_salt_changes_address(self, tmp_path):
        v1 = ArtifactStore(tmp_path, salt="art-v1")
        v2 = ArtifactStore(tmp_path, salt="art-v2")
        assert v1.key("k", "x") != v2.key("k", "x")
        v1.put_arrays(v1.key("k", "x"), _arrays())
        assert v2.get_arrays(v2.key("k", "x")) is None

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_arrays(_key(store, 0), _arrays(0))
        store.put_arrays(_key(store, 1), _arrays(1))
        assert len(store) == 2
        store.clear()
        assert len(store) == 0


class TestGlobalStore:
    def test_use_store_swaps_and_restores(self, tmp_path):
        outer = default_store()
        inner = ArtifactStore(tmp_path)
        with use_store(inner):
            assert default_store() is inner
        assert default_store() is outer

    def test_configure_disable_and_reenable(self):
        before = default_store()
        try:
            assert configure_artifacts(enabled=False) is None
            assert default_store() is None
            fresh = configure_artifacts()
            assert default_store() is fresh is not None
        finally:
            configure_artifacts(before if before is not None else None,
                                enabled=before is not None)

    def test_producers_share_one_build(self, tmp_path):
        # End to end: with a store installed, the same workload builds its
        # hypergraph once and every later call is a memo hit.
        from repro.balance.hypergraph import fock_hypergraph
        from repro.chemistry.tasks import synthetic_task_graph

        graph = synthetic_task_graph(300, 10, seed=5)
        store = ArtifactStore(tmp_path)
        with use_store(store):
            first = fock_hypergraph(graph)
            second = fock_hypergraph(graph)
        assert first is second
        assert store.stats.memo_hits >= 1
        # The entry also landed on disk; a fresh store round-trips it.
        cold = ArtifactStore(tmp_path)
        with use_store(cold):
            third = fock_hypergraph(graph)
        assert cold.stats.disk_hits == 1
        assert np.array_equal(third.pins, first.pins)
        assert np.array_equal(third.xpins, first.xpins)
        assert np.array_equal(third.net_weights, first.net_weights)
