"""Content-addressed on-disk cache for sweep cell results.

A sweep cell is a pure function of its inputs: the task graph, the
machine, the model configuration, the seed, and the fault plan — the
simulator has no hidden state and never reads the wall clock. That makes
every cell result cacheable under a *content address*: a stable hash of
the canonical form of all inputs plus a code-version salt. Re-running a
benchmark with unchanged inputs loads the stored result instead of
re-simulating, and the loaded result is bit-for-bit identical to a fresh
computation: an entry holds the result's arrays as raw bytes and its
scalars as JSON, which round-trips Python floats exactly.

Key scheme (see ``docs/sweep.md``):

    sha256(salt | graph key | machine fp | model + options | seed |
           faults fp | cell kind | trace flag)

where the graph key is ``TaskGraph.content_key`` (a sha256 over the
graph's dense arrays) and each fingerprint is itself a sha256 over a
canonical encoding that is stable across processes and Python versions:
floats are hex-encoded, sets are sorted, arrays hash their raw bytes, and
dataclasses fold in their class name and field values. Nothing else is
encodable: an object that is not a dataclass raises ``TypeError`` rather
than being keyed by whatever its instance dict holds. ``hash()`` is never
used (it is salted per process).

Invalidation is by *salt*: :data:`CACHE_SALT` must be bumped whenever a
change alters simulation semantics (engine, network, models, seeding).
Stale entries are then simply never addressed again; the directory can be
deleted at any time with no effect other than recomputation.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import pathlib
import secrets
import struct
import zlib
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.util import ConfigurationError

#: Code-version salt folded into every cache key. Bump when simulator or
#: execution-model semantics change (anything that would alter a cell's
#: result for identical inputs) or the key encoding does, so stale entries
#: can never be served. v2: graphs keyed by ``content_key``, objects that
#: are not dataclasses no longer encodable.
CACHE_SALT = "repro-sweep-v2"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> pathlib.Path:
    """The default on-disk cache location.

    ``$REPRO_CACHE_DIR`` when set, otherwise ``benchmarks/results/cache``
    relative to the current working directory (the layout the benchmark
    suite uses; the directory is git-ignored).
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path("benchmarks") / "results" / "cache"


# ----------------------------------------------------------------------
# Canonical encoding + fingerprints
# ----------------------------------------------------------------------

#: Per dataclass type: the ``dc:`` header and field names ``_canonical``
#: writes, so a walk over many instances of one type reads ``fields()``
#: once.
_DATACLASS_LAYOUT: dict[type, tuple[str, tuple[str, ...]]] = {}


def _canonical(obj: Any, out: list[str], depth: int = 0) -> None:
    """Append a canonical, process-stable encoding of ``obj`` to ``out``.

    The tests are ordered by how often a key walk meets each type: exact
    ``float``, ``int``, ``str``, ``bool`` and ``None`` first, then arrays
    and sequences, then dataclasses already seen. Subclasses (an
    ``IntEnum``, a NumPy scalar) fall through to the ``isinstance``
    tests, which write the same bytes their base type would.
    """
    if depth > 32:
        raise ValueError("fingerprint recursion too deep (cyclic object?)")
    cls = type(obj)
    if cls is float:
        out.append(obj.hex())
    elif cls is int or cls is str or cls is bool or obj is None:
        out.append(repr(obj))
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        out.append(f"nd{arr.dtype.str}{arr.shape}")
        out.append(hashlib.sha256(arr.tobytes()).hexdigest())
    elif isinstance(obj, (tuple, list)):
        out.append("[")
        for item in obj:
            _canonical(item, out, depth + 1)
        out.append("]")
    elif cls in _DATACLASS_LAYOUT:
        header, names = _DATACLASS_LAYOUT[cls]
        out.append(header)
        for name in names:
            out.append(name + "=")
            _canonical(getattr(obj, name), out, depth + 1)
        out.append(")")
    elif isinstance(obj, (bool, str)):
        out.append(repr(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(float(obj).hex())
    elif isinstance(obj, bytes):
        out.append("b" + hashlib.sha256(obj).hexdigest())
    elif isinstance(obj, (set, frozenset)):
        out.append("{")
        for item in sorted(obj, key=repr):
            _canonical(item, out, depth + 1)
        out.append("}")
    elif isinstance(obj, dict):
        out.append("<")
        for key in sorted(obj, key=repr):
            _canonical(key, out, depth + 1)
            _canonical(obj[key], out, depth + 1)
        out.append(">")
    elif is_dataclass(obj) and not isinstance(obj, type):
        _DATACLASS_LAYOUT[cls] = (
            f"dc:{cls.__module__}.{cls.__qualname__}(",
            tuple(f.name for f in fields(obj)),
        )
        _canonical(obj, out, depth)
    elif isinstance(getattr(obj, "content_key", None), str):
        # A TaskGraph is named by the content address of its arrays.
        out.append(f"key:{type(obj).__qualname__}:{obj.content_key}")
    elif callable(obj) and hasattr(obj, "__qualname__"):
        out.append(f"fn:{obj.__module__}.{obj.__qualname__}")
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__qualname__!r} deterministically"
        )


def fingerprint(obj: Any) -> str:
    """A sha256 hex digest of ``obj``'s canonical encoding.

    Stable across processes, machines, and Python versions for the
    library's value types (dataclasses — variability and fault models
    among them — NumPy arrays, plain containers); anything else raises
    ``TypeError``. Two objects with equal canonical content share a
    fingerprint; any semantic difference changes it.
    """
    out: list[str] = []
    _canonical(obj, out)
    return hashlib.sha256("\x1f".join(out).encode("utf-8")).hexdigest()


def cache_key(
    *,
    graph_fp: str,
    machine_fp: str,
    model: str,
    seed: int,
    faults_fp: str,
    kind: str = "model",
    options_fp: str = "",
    trace_intervals: bool = False,
    salt: str = CACHE_SALT,
) -> str:
    """Assemble the content address of one sweep cell."""
    parts = (
        f"salt={salt}",
        f"graph={graph_fp}",
        f"machine={machine_fp}",
        f"model={model}",
        f"seed={int(seed)}",
        f"faults={faults_fp}",
        f"kind={kind}",
        f"options={options_fp}",
        f"trace={bool(trace_intervals)}",
    )
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The on-disk entry format and disk layer of both stores
# ----------------------------------------------------------------------

#: Suffix of every entry of both content-addressed stores: this cache
#: and :class:`~repro.core.artifacts.ArtifactStore`.
ENTRY_SUFFIX = ".entry"

#: An entry opens with this magic, the header length and a CRC-32 over
#: the length and every byte after the CRC (``docs/sweep.md``, "On-disk
#: layout").
_MAGIC = b"REPROEN1"
_PREFIX = struct.Struct("<8sII")

#: The only array dtypes an entry may hold. Both are 8 bytes wide, so
#: arrays packed back to back from an aligned start stay aligned.
_DTYPES = ("<f8", "<i8")

#: Per-process counter distinguishing temp files of concurrent writers in
#: the same process (threads) — pid alone is not unique there.
_tmp_counter = itertools.count()

#: Per-process random token folded into temp names: pids recur across
#: *hosts*, so on a shared filesystem (the distributed sweep fabric)
#: pid+counter alone can collide between writers on different machines.
_writer_token = secrets.token_hex(4)


def atomic_tmp_path(path: pathlib.Path) -> pathlib.Path:
    """A collision-free temp path next to ``path`` for atomic replace.

    The single temp-naming scheme for every file the repo replaces
    atomically: ``<name>.tmp.<pid>-<token>.<n>``, unique across threads
    (counter), processes (pid), and hosts sharing a filesystem (random
    per-process token). It never ends in :data:`ENTRY_SUFFIX`, so a
    store's listing never counts a temp file. :func:`atomic_write` is
    the write protocol.
    """
    return path.parent / (
        f"{path.name}.tmp.{os.getpid()}-{_writer_token}.{next(_tmp_counter)}"
    )


@contextlib.contextmanager
def atomic_write(path: pathlib.Path) -> Iterator[pathlib.Path]:
    """Yield a temp path; ``os.replace`` it onto ``path`` if the body succeeds.

    Readers only ever see a complete file, and the temp file never
    outlives the block, whether the body raised or the replace did.
    """
    tmp = atomic_tmp_path(path)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def encode_entry(key: str, arrays: dict[str, Any], meta: Any) -> bytes:
    """One entry's bytes: prefix, JSON header padded to 8 bytes, arrays.

    The header is ``{"key", "meta", "arrays": [[name, dtype, shape,
    offset], ...]}``; each offset counts from the end of the header.
    """
    table, chunks, offset = [], [], 0
    for name, value in arrays.items():
        array = np.ascontiguousarray(value)
        table.append([name, array.dtype.str, list(array.shape), offset])
        chunks.append(array)
        offset += array.nbytes
    header = json.dumps({"key": key, "meta": meta, "arrays": table}, separators=(",", ":")).encode()
    header += b" " * (-len(header) % 8)
    crc = zlib.crc32(header, zlib.crc32(len(header).to_bytes(4, "little")))
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return b"".join([_PREFIX.pack(_MAGIC, len(header), crc), header, *chunks])


def decode_entry(buf: bytearray, key: str) -> tuple[dict[str, np.ndarray], Any]:
    """``(arrays, meta)`` of the entry bytes ``buf`` stored under ``key``.

    The arrays are aligned, writable views into ``buf``. A wrong magic or
    key, a CRC mismatch, a dtype outside :data:`_DTYPES`, more than two
    dimensions, or an offset or shape that is negative, unaligned or runs
    past the end raises.
    """
    magic, length, crc = _PREFIX.unpack_from(buf)
    view = memoryview(buf)
    start = _PREFIX.size + length
    if (
        magic != _MAGIC
        or start % 8
        or start > len(buf)
        or zlib.crc32(view[_PREFIX.size :], zlib.crc32(view[8:12])) != crc
    ):
        raise ValueError("not an intact entry")
    header = json.loads(buf[_PREFIX.size : start])
    if header["key"] != key:
        raise ValueError("entry stored under another key")
    arrays = {}
    for name, dtype, shape, offset in header["arrays"]:
        # ndarray refuses every other negative or non-integer dimension
        # and a view that runs past the end of ``buf``; a lone -1 it
        # would read as "the rest".
        if dtype not in _DTYPES or len(shape) > 2 or -1 in shape:
            raise ValueError(f"entry array {name!r}: dtype {dtype!r}, shape {shape!r}")
        if type(offset) is not int or offset < 0 or offset % 8:
            raise ValueError(f"entry array {name!r}: offset {offset!r}")
        arrays[name] = np.ndarray(shape, dtype, buf, start + offset)
    return arrays, header["meta"]


class EntryStore:
    """The disk layer both content-addressed stores share.

    One file per key at ``<root>/<key[:2]>/<key>.entry`` (the two-level
    fan-out keeps directory listings manageable), written atomically
    (:func:`atomic_write`), so concurrent writers — threads, processes,
    or hosts sharing the filesystem — never expose a partial entry. A
    subclass sets ``root`` (None: no disk, every read a miss and every
    write a no-op) and ``stats`` (counting ``errors`` and ``stores``).
    """

    def path_for(self, key: str) -> pathlib.Path:
        if self.root is None:
            raise ValueError("store has no on-disk root")
        return pathlib.Path(self._path(key))

    def _path(self, key: str) -> str:
        return f"{self.root}/{key[:2]}/{key}{ENTRY_SUFFIX}"

    def get_arrays(self, key: str, decode: Callable[[dict, Any], Any] | None = None) -> Any:
        """The entry at ``key`` as ``(arrays, meta)``, or as ``decode(arrays,
        meta)`` when given; None on a miss.

        A missing file is a plain miss. Anything :func:`decode_entry` or
        ``decode`` refuses — a zero-byte, truncated or bit-flipped entry,
        a foreign file, an entry under the wrong key, a field the decoder
        does not know — is a corrupt miss: counted in ``stats.errors``,
        the file unlinked so the next put heals it. Never raises.
        """
        if self.root is None:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                buf = bytearray(os.fstat(fh.fileno()).st_size)
                fh.readinto(buf)
            entry = decode_entry(buf, key)
            return entry if decode is None else decode(*entry)
        except FileNotFoundError:
            return None
        except Exception:
            self.stats.errors += 1
            with contextlib.suppress(OSError):
                os.unlink(path)
            return None

    def put_arrays(
        self, key: str, arrays: dict[str, np.ndarray], meta: Any = None
    ) -> None:
        """Store ``arrays`` and JSON-able ``meta`` under ``key`` atomically;
        for equal inputs the last rename wins with identical bytes."""
        if self.root is None:
            return
        path = pathlib.Path(self._path(key))
        blob = encode_entry(key, arrays, {} if meta is None else meta)
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as tmp:
            tmp.write_bytes(blob)
        self.stats.stores += 1

    def entries(self) -> list[pathlib.Path]:
        """Every entry file, sorted; temp files of unfinished writes excluded."""
        if self.root is None:
            return []
        return sorted(self.root.glob(f"??/*{ENTRY_SUFFIX}"))

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for entry in self.entries():
            with contextlib.suppress(OSError):
                entry.unlink()
                removed += 1
        return removed


@functools.cache
def _outcome_types() -> dict[str, type]:
    """The cell outcomes :func:`~repro.core.sweep.execute_cell` returns."""
    from repro.exec_models.base import RunResult
    from repro.exec_models.scf_simulation import ScfSimResult

    return {cls.__name__: cls for cls in (RunResult, ScfSimResult)}


def decode_outcome(arrays: dict[str, np.ndarray], meta: dict[str, Any]) -> Any:
    """The cell outcome a :class:`ResultCache` entry holds; the ``type``
    tag in ``meta`` picks its ``from_arrays``, which raises on any field
    it does not expect."""
    meta = dict(meta)
    return _outcome_types()[meta.pop("type")].from_arrays(arrays, meta)


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0


@dataclass
class ResultCache(EntryStore):
    """Content-addressed store of cell outcomes under one directory.

    An outcome — a ``RunResult`` or an ``ScfSimResult`` — is stored as
    its ``to_arrays()`` form in the shared entry format, so a hit is
    bit-for-bit identical to the fresh computation it replaced. A torn or
    corrupt entry reads as a miss and is removed
    (:meth:`EntryStore.get_arrays`).
    """

    root: pathlib.Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root)

    def get(self, key: str) -> Any | None:
        """The stored outcome for ``key``, or None on a miss; never raises."""
        value = self.get_arrays(key, decode_outcome)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store one cell outcome under ``key`` atomically; any other value
        raises :class:`~repro.util.ConfigurationError`."""
        kind = type(value).__name__
        if _outcome_types().get(kind) is not type(value):
            raise ConfigurationError(
                f"the result cache stores {', '.join(_outcome_types())}, not {kind}"
            )
        arrays, meta = value.to_arrays()
        self.put_arrays(key, arrays, {"type": kind, **meta})
