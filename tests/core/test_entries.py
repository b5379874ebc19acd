"""The one on-disk entry format both content-addressed stores share.

A hostile-input corpus run against the result cache and the artifact
store by one parametrized test: every case is a counted miss that
unlinks the file, never an exception and never a value. Then the result
codec: every cell outcome round-trips exactly, and the store listing
ignores temp files.
"""

import io
import json
import pickle
import random
import struct
import zlib
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chemistry.tasks import _decode_graph, _encode_graph, synthetic_task_graph
from repro.core.artifacts import ArtifactStore
from repro.core.cache import ResultCache, atomic_tmp_path, encode_entry
from repro.core.sweep import SweepCell, execute_cell
from repro.exec_models.registry import MODEL_NAMES
from repro.faults import FaultPlan, RankCrash, StallWindow
from repro.simulate import hierarchical_cluster
from repro.util import ConfigurationError

GRAPH = synthetic_task_graph(40, 4, seed=2)
MACHINE = hierarchical_cluster(2, 2)
KEY = "5e" * 32


def assert_same(a, b, path="value"):
    """``b`` is ``a`` exactly: types, dtypes, flags that matter, bytes."""
    assert type(a) is type(b), (path, type(a), type(b))
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert a.tobytes() == b.tobytes(), path
        assert b.flags.c_contiguous and b.flags.aligned and b.flags.writeable, path
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            assert_same(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif is_dataclass(a):
        for f in fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    else:
        assert a == b or (a != a and b != b), (path, a, b)


def cell(model, kind="model", **kwargs):
    return SweepCell(model=model, graph=GRAPH, machine=MACHINE, kind=kind, **kwargs)


# ----------------------------------------------------------------------
# One side per store: how to seed a real entry, read it, and mistype it
# ----------------------------------------------------------------------

class CacheSide:
    """The result cache with a real cell outcome."""

    def __init__(self, root):
        self.store = ResultCache(root)
        self.value = execute_cell(cell("work_stealing", trace_intervals=True))
        self.put()

    def put(self):
        self.store.put(KEY, self.value)

    def read(self):
        return self.store.get(KEY)

    @staticmethod
    def mistype(arrays, meta):
        return arrays, {**meta, "makespan": int(meta["makespan"])}


class ArtifactSide:
    """The artifact store with the task-graph codec."""

    def __init__(self, root):
        self.store = ArtifactStore(root)
        self.put()

    def put(self):
        self.store.put_arrays(KEY, *_encode_graph(GRAPH))

    def read(self):
        return self.store.get_arrays(KEY, _decode_graph)

    @staticmethod
    def mistype(arrays, meta):
        return arrays, {"tau": float.fromhex(meta["tau"])}


@pytest.fixture(params=[CacheSide, ArtifactSide], ids=["result_cache", "artifact_store"])
def side(request, tmp_path):
    return request.param(tmp_path)


def split(blob):
    """``(header dict, array bytes)`` of one entry, per the documented layout."""
    magic, length, crc = struct.unpack_from("<8sII", blob)
    return json.loads(blob[16 : 16 + length]), blob[16 + length :]


def forge(header, payload):
    """An entry with a valid CRC around an arbitrary header."""
    text = json.dumps(header).encode()
    text += b" " * (-len(text) % 8)
    length = len(text).to_bytes(4, "little")
    crc = zlib.crc32(text + payload, zlib.crc32(length))
    return b"REPROEN1" + length + crc.to_bytes(4, "little") + text + payload


def retable(column, value):
    """Set one column of the first row of the header's array table."""

    def edit(blob, side):
        header, payload = split(blob)
        header["arrays"][0][column] = value if value != "EOF" else len(payload)
        return forge(header, payload)

    return edit


def refield(edit_fields):
    """Re-encode the entry's arrays and meta through ``edit_fields``."""

    def edit(blob, side):
        arrays, meta = side.store.get_arrays(KEY)
        return encode_entry(KEY, *edit_fields(side, dict(arrays), dict(meta)))

    return edit


def without_first_array(side, arrays, meta):
    arrays.pop(next(iter(arrays)))
    return arrays, meta


def foreign_npz(blob, side):
    buf = io.BytesIO()
    np.savez(buf, **side.store.get_arrays(KEY)[0])
    return buf.getvalue()


HOSTILE = {
    "array_past_eof": retable(3, "EOF"),
    "shape_past_eof": retable(2, [10**6]),
    "negative_offset": retable(3, -8),
    "unaligned_offset": retable(3, 4),
    "negative_dimension": retable(2, [-1]),
    "object_dtype": retable(1, "|O"),
    "int32_dtype": retable(1, "<i4"),
    "big_endian_dtype": retable(1, ">f8"),
    "ndim_3": retable(2, [1, 1, 1]),
    "wrong_key": lambda blob, side: forge({**split(blob)[0], "key": "ab" * 32}, split(blob)[1]),
    "foreign_npz": foreign_npz,
    "foreign_pickle": lambda blob, side: pickle.dumps(split(blob)[0]),
    "foreign_json": lambda blob, side: json.dumps(split(blob)[0]).encode(),
    "unknown_array_field": refield(
        lambda side, arrays, meta: ({**arrays, "bogus": np.zeros(2)}, meta)
    ),
    "missing_array_field": refield(without_first_array),
    "wrong_scalar_type": refield(lambda side, arrays, meta: side.mistype(arrays, meta)),
}


def assert_corrupt_miss(side, path, blob):
    path.write_bytes(blob)
    errors = side.store.stats.errors
    assert side.read() is None
    assert side.store.stats.errors == errors + 1
    assert not path.exists()


class TestHostileEntries:
    """Every defect is a counted miss and an unlink on both stores."""

    def test_intact_entry_is_served(self, side):
        assert side.read() is not None
        assert side.store.stats.errors == 0

    def test_truncation_at_every_byte(self, side):
        path = side.store.path_for(KEY)
        blob = path.read_bytes()
        for size in range(len(blob)):
            assert_corrupt_miss(side, path, blob[:size])

    def test_sampled_bit_flips(self, side):
        path = side.store.path_for(KEY)
        blob = path.read_bytes()
        length = struct.unpack_from("<I", blob, 8)[0]
        rng = random.Random(5)
        header_bits = rng.sample(range(8 * (16 + length)), 96)
        payload_bits = rng.sample(range(8 * (16 + length), 8 * len(blob)), 96)
        for bit in header_bits + payload_bits:
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert_corrupt_miss(side, path, bytes(flipped))

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_case(self, side, case):
        path = side.store.path_for(KEY)
        assert_corrupt_miss(side, path, HOSTILE[case](path.read_bytes(), side))
        side.put()  # the next put heals the entry
        assert side.read() is not None

    def test_forged_intact_entry_is_served(self, side):
        # The corpus's forger writes the documented layout: an unchanged
        # header it forges is served, so each case above fails for its
        # own defect, not for the forging.
        path = side.store.path_for(KEY)
        path.write_bytes(forge(*split(path.read_bytes())))
        assert side.read() is not None


# ----------------------------------------------------------------------
# The result codec
# ----------------------------------------------------------------------

def _plan(model, faulty):
    if not faulty:
        return None
    if model.startswith("ft_"):
        return FaultPlan(crashes=(RankCrash(rank=1, time=1e-5),))
    return FaultPlan(stalls=(StallWindow(rank=1, start=1e-5, end=3e-4),))


class TestResultCodec:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        model=st.sampled_from(MODEL_NAMES),
        trace=st.booleans(),
        faulty=st.booleans(),
        seed=st.integers(0, 3),
    )
    def test_every_model_round_trips(self, tmp_path, model, trace, faulty, seed):
        value = execute_cell(
            cell(model, seed=seed, trace_intervals=trace, faults=_plan(model, faulty))
        )
        cache = ResultCache(tmp_path)
        cache.put(KEY, value)
        assert_same(value, cache.get(KEY))

    @pytest.mark.parametrize(
        "kind, model, options",
        [
            ("scf_sim", mode, (("n_iterations", 3),))
            for mode in ("static_block", "persistence", "counter", "work_stealing")
        ],
    )
    def test_scf_and_persistence_outcomes_round_trip(self, tmp_path, kind, model, options):
        value = execute_cell(cell(model, kind=kind, options=options))
        cache = ResultCache(tmp_path)
        cache.put(KEY, value)
        assert_same(value, cache.get(KEY))

    @pytest.mark.parametrize("value", [1, "row", {"makespan": 1.0}, None, [1.0]])
    def test_put_refuses_anything_but_an_outcome(self, tmp_path, value):
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path).put(KEY, value)
        assert len(ResultCache(tmp_path)) == 0

    def test_untraced_and_empty_traces_stay_apart(self):
        value = execute_cell(cell("static_block"))
        assert value.intervals is None
        value.intervals = []
        arrays, meta = value.to_arrays()
        assert type(value).from_arrays(arrays, meta).intervals == []


# ----------------------------------------------------------------------
# The listing
# ----------------------------------------------------------------------

class TestListing:
    """``__len__``, ``clear`` and the chaos helpers list entries one way,
    and a temp file of an unfinished write is never an entry."""

    def test_an_orphaned_temp_file_is_not_an_entry(self, side):
        path = side.store.path_for(KEY)
        orphan = atomic_tmp_path(path)  # what a writer killed mid-write leaves
        orphan.write_bytes(path.read_bytes())
        assert side.store.entries() == [path]
        assert len(side.store) == 1
        assert side.store.clear() >= 1
        assert orphan.exists() and len(side.store) == 0

    def test_clear_between_write_and_replace(self, side, monkeypatch):
        import os

        from repro.core import cache

        replace = os.replace

        def clear_then_replace(src, dst):
            side.store.clear()  # lands after the write, before the rename
            replace(src, dst)

        monkeypatch.setattr(cache.os, "replace", clear_then_replace)
        side.put()
        monkeypatch.setattr(cache.os, "replace", replace)
        assert side.read() is not None
        assert len(side.store) == 1
