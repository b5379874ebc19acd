"""Content-addressed artifact store for expensive pipeline intermediates.

The result cache (:mod:`repro.core.cache`) memoizes *cell results* — the
output of a whole simulation. This module memoizes the expensive
*intermediates* that feed those cells: Schwarz screening matrices,
task-graph enumerations, Fock hypergraphs, and balancer assignments.
Every one of them is a pure function of content-addressable inputs
(basis, block structure, tolerance, graph, seed), so a serial E1–E16 run
only ever needs to build each distinct workload once — and a warm rerun
not at all.

Two layers, same key:

- an **in-process memo** (always on unless disabled): decoded values
  keyed by sha256 content address, FIFO-bounded. This is what
  deduplicates rebuilds *within* one run.
- an optional **on-disk store** (``root`` directory): NumPy arrays
  and a JSON meta record per entry, in the entry format the result
  cache writes too (:class:`~repro.core.cache.EntryStore`: raw
  little-endian ``float64``/``int64`` bytes behind a JSON header, no
  object-graph pickling). This is what makes *reruns* warm, including
  sweep workers in other processes.

Keying composes the same canonical-fingerprint machinery as the result
cache: ``key = sha256(salt | kind | input fingerprints...)``. Corruption
semantics are the result cache's, since the disk layer is one: a
zero-byte, truncated, bit-flipped, foreign, or wrong-key entry — or one
whose arrays its decoder refuses — degrades to a miss, the file is
unlinked, and the artifact is rebuilt; ``get_arrays`` never raises.

Invalidation is by salt (:data:`ARTIFACT_SALT`): bump it whenever a
build's semantics change (screening math, cost model, partitioner
heuristics, RNG consumption), so stale artifacts can never be served.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.cache import EntryStore, fingerprint

__all__ = [
    "ARTIFACT_SALT",
    "ARTIFACT_DIR_ENV",
    "ARTIFACT_DISABLE_ENV",
    "ArtifactStats",
    "ArtifactStore",
    "artifact_key",
    "configure_artifacts",
    "configure_job_artifacts",
    "default_store",
    "use_store",
]

#: Code-version salt folded into every artifact key. Bump when any
#: producer's semantics change (screening, cost model, partitioner,
#: eligibility RNG), so stale intermediates can never be served.
ARTIFACT_SALT = "repro-artifacts-v1"

#: Environment variable pointing the default store at a directory
#: (enables the on-disk layer).
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Set to ``0`` to disable artifact memoization entirely.
ARTIFACT_DISABLE_ENV = "REPRO_ARTIFACTS"

#: FIFO bound on in-process memo entries (a workload's decoded graph and
#: hypergraph are a few MB; this keeps worst-case residency modest).
_MEMO_LIMIT = 128



@dataclass
class ArtifactStats:
    """Hit/miss accounting for one :class:`ArtifactStore`."""

    memo_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    @property
    def hits(self) -> int:
        return self.memo_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def artifact_key(kind: str, *parts: Any, salt: str = ARTIFACT_SALT) -> str:
    """Content address of one artifact: sha256(salt | kind | inputs).

    Each part is folded in as-is when it is already a string (callers
    pass precomputed fingerprints for big inputs) and through
    :func:`~repro.core.cache.fingerprint` otherwise.
    """
    folded = [f"salt={salt}", f"kind={kind}"]
    for part in parts:
        folded.append(part if isinstance(part, str) else fingerprint(part))
    return hashlib.sha256("|".join(folded).encode("utf-8")).hexdigest()


class ArtifactStore(EntryStore):
    """Two-layer (memo + optional disk) content-addressed artifact store.

    The disk layer is :class:`~repro.core.cache.EntryStore`, the one the
    result cache uses too.

    Args:
        root: directory for the on-disk layer; None = in-process only.
        salt: key salt (tests override to model invalidation).
        memo_limit: FIFO bound on decoded in-process entries.
    """

    def __init__(
        self,
        root: pathlib.Path | str | None = None,
        *,
        salt: str = ARTIFACT_SALT,
        memo_limit: int = _MEMO_LIMIT,
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else None
        self.salt = salt
        self.memo_limit = int(memo_limit)
        self.stats = ArtifactStats()
        self._memo: OrderedDict[str, Any] = OrderedDict()
        # Jobs on the service's run-loop threads share one store; the
        # FIFO eviction is the one read-modify-write on the memo.
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def key(self, kind: str, *parts: Any) -> str:
        return artifact_key(kind, *parts, salt=self.salt)

    # ------------------------------------------------------------------
    # In-process memo layer
    # ------------------------------------------------------------------
    def _memo_put(self, key: str, value: Any) -> None:
        with self._memo_lock:
            self._memo[key] = value
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_limit:
                self._memo.popitem(last=False)

    # ------------------------------------------------------------------
    # The full protocol
    # ------------------------------------------------------------------
    def fetch(
        self,
        key: str,
        build: Callable[[], Any],
        *,
        encode: Callable[[Any], tuple[dict[str, np.ndarray], dict[str, Any]]] | None = None,
        decode: Callable[[dict[str, np.ndarray], dict[str, Any]], Any] | None = None,
        copy_on_hit: Callable[[Any], Any] | None = None,
    ) -> Any:
        """Return the artifact at ``key``, building it at most once.

        Lookup order: in-process memo, then disk (when ``decode`` is
        given and the store has a root), then ``build()`` — storing the
        result in both layers (disk needs ``encode``). ``copy_on_hit``
        post-processes memoized values for callers that may mutate them
        (e.g. assignments return a fresh copy per call).
        """
        hit = self._memo.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return copy_on_hit(hit) if copy_on_hit is not None else hit
        if decode is not None:
            # An entry whose arrays do not make the value (a name missing,
            # a shape the decoder refuses) is a corrupt miss: drop, rebuild.
            value = self.get_arrays(key, decode)
            if value is not None:
                self.stats.disk_hits += 1
                self._memo_put(key, value)
                return copy_on_hit(value) if copy_on_hit is not None else value
        self.stats.misses += 1
        value = build()
        self._memo_put(key, value)
        if encode is not None and self.root is not None:
            arrays, meta = encode(value)
            self.put_arrays(key, arrays, meta)
        return copy_on_hit(value) if copy_on_hit is not None else value

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Drop the memo and delete every on-disk entry."""
        removed = len(self._memo)
        self._memo.clear()
        return removed + super().clear()


# ----------------------------------------------------------------------
# The process-global default store
# ----------------------------------------------------------------------
_default: ArtifactStore | None = None
_configured = False


def default_store() -> ArtifactStore | None:
    """The process-global store, or None when memoization is disabled.

    Unconfigured processes get a store honoring the environment:
    ``REPRO_ARTIFACTS=0`` disables, ``REPRO_ARTIFACT_DIR`` adds the
    on-disk layer, otherwise in-process memo only.
    """
    global _default, _configured
    if not _configured:
        if os.environ.get(ARTIFACT_DISABLE_ENV, "1") == "0":
            _default = None
        else:
            _default = ArtifactStore(os.environ.get(ARTIFACT_DIR_ENV) or None)
        _configured = True
    return _default


def configure_artifacts(
    store: ArtifactStore | pathlib.Path | str | None = None, *, enabled: bool = True
) -> ArtifactStore | None:
    """Install the process-global artifact store.

    Args:
        store: an :class:`ArtifactStore`, a directory for one, or None
            for a fresh in-process-only store.
        enabled: False disables artifact memoization entirely
            (``--no-artifact-cache``).

    Returns the installed store (None when disabled).
    """
    global _default, _configured
    if not enabled:
        _default = None
    elif isinstance(store, ArtifactStore):
        _default = store
    else:
        _default = ArtifactStore(store)
    _configured = True
    return _default


def configure_job_artifacts(
    cache_root: pathlib.Path | str | None, *, enabled: bool = True
) -> ArtifactStore | None:
    """Install the store a job builds and runs against: the one rule for
    ``repro study`` and :func:`repro.api.run_job`.

    ``enabled=False`` disables the store. With a result-cache root the
    store lives at ``<cache_root>/artifacts``: the current default is kept
    when it is already rooted there — its memo of decoded values outlives
    the job, so the next job on that root reads no entry — and a fresh
    one is installed otherwise. ``cache_root=None`` leaves the default.
    """
    if not enabled:
        return configure_artifacts(enabled=False)
    current = default_store()
    if cache_root is None:
        return current
    root = pathlib.Path(cache_root) / "artifacts"
    if current is not None and current.root == root:
        return current
    return configure_artifacts(root)


@contextlib.contextmanager
def use_store(store: ArtifactStore | None) -> Iterator[ArtifactStore | None]:
    """Temporarily swap the process-global store (tests, benchmarks)."""
    global _default, _configured
    prev, prev_cfg = _default, _configured
    _default, _configured = store, True
    try:
        yield store
    finally:
        _default, _configured = prev, prev_cfg
