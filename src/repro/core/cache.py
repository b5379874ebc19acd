"""Content-addressed on-disk cache for sweep cell results.

A sweep cell is a pure function of its inputs: the task graph, the
machine, the model configuration, the seed, and the fault plan — the
simulator has no hidden state and never reads the wall clock. That makes
every cell result cacheable under a *content address*: a stable hash of
the canonical form of all inputs plus a code-version salt. Re-running a
benchmark with unchanged inputs loads the stored result instead of
re-simulating, and the loaded result is bit-for-bit identical to a fresh
computation (pickle round-trips NumPy arrays and Python floats exactly).

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
import hashlib
import itertools
import os
import pathlib
import pickle
import secrets
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Iterator

import numpy as np

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
# The on-disk store
# ----------------------------------------------------------------------

#: Envelope magic written with every entry. ``get`` rejects any payload
#: that is not ``(_ENTRY_MAGIC, key, value)`` with a matching key, so a
#: wrong-schema file (hand-edited, renamed, foreign pickle, JSON text)
#: degrades to a miss instead of returning garbage as a result.
_ENTRY_MAGIC = "repro-cache-entry-v1"

#: Per-process counter distinguishing temp files of concurrent writers in
#: the same process (threads) — pid alone is not unique there.
_tmp_counter = itertools.count()

#: Per-process random token folded into temp names: pids recur across
#: *hosts*, so on a shared filesystem (the distributed sweep fabric)
#: pid+counter alone can collide between writers on different machines.
_writer_token = secrets.token_hex(4)


def atomic_tmp_path(path: pathlib.Path, suffix: str = "") -> pathlib.Path:
    """A collision-free temp path next to ``path`` for atomic replace.

    The single temp-naming scheme for every store in the repo
    (:class:`ResultCache`, :class:`~repro.core.artifacts.ArtifactStore`):
    ``<name>.tmp.<pid>-<token>.<n><suffix>``, unique across threads
    (counter), processes (pid), and hosts sharing a filesystem (random
    per-process token). :func:`atomic_write` is the write protocol.
    """
    return path.parent / (
        f"{path.name}.tmp.{os.getpid()}-{_writer_token}"
        f".{next(_tmp_counter)}{suffix}"
    )


@contextlib.contextmanager
def atomic_write(path: pathlib.Path, suffix: str = "") -> Iterator[pathlib.Path]:
    """Yield a temp path; ``os.replace`` it onto ``path`` if the body succeeds.

    Readers only ever see a complete file, and the temp file never
    outlives the block, whether the body raised or the replace did.
    """
    tmp = atomic_tmp_path(path, suffix)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0


@dataclass
class ResultCache:
    """Content-addressed pickle store under one directory.

    Entries are written atomically (temp file + rename), so concurrent
    sweep workers and even concurrent benchmark processes can share one
    cache directory; a torn or corrupt entry reads as a miss and is
    removed. Values round-trip through pickle, which preserves NumPy
    arrays and floats exactly — a cache hit is bit-for-bit identical to
    the fresh computation it replaced.
    """

    root: pathlib.Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root)

    def path_for(self, key: str) -> pathlib.Path:
        # Two-level fan-out keeps directory listings manageable.
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any | None:
        """The stored value for ``key``, or None on miss/corruption.

        "Corruption" covers every observed failure shape: a zero-byte or
        truncated entry, non-pickle bytes (e.g. JSON text), a valid
        pickle that is not this cache's ``(magic, key, value)`` envelope,
        and an envelope recorded under the wrong key. All degrade to a
        miss, the offending file is unlinked so it cannot keep failing,
        and the next ``put`` self-heals the entry. ``get`` never raises.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # Torn write, truncation, or an entry from an incompatible
            # code state: treat as a miss and clear it.
            return self._corrupt_miss(path)
        if (
            not isinstance(payload, tuple)
            or len(payload) != 3
            or payload[0] != _ENTRY_MAGIC
            or payload[1] != key
        ):
            return self._corrupt_miss(path)
        self.stats.hits += 1
        return payload[2]

    def _corrupt_miss(self, path: pathlib.Path) -> None:
        self.stats.misses += 1
        self.stats.errors += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically.

        Concurrent writers of the same key are safe — including writers
        on *different hosts* sharing the filesystem: each writes its own
        temp file (:func:`atomic_write`) and the final ``rename`` is
        atomic, so readers only ever observe a complete entry — the last
        rename wins, with identical bytes for identical inputs.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as tmp, open(tmp, "wb") as fh:
            pickle.dump(
                (_ENTRY_MAGIC, key, value),
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        self.stats.stores += 1

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*/*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
