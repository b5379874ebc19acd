"""Fock-build kernels: the per-task kernel and serial references.

:class:`TaskKernel` is the single implementation of the numerical work a
task performs; every execution path — the serial reference, the simulated
distributed runs, and the real shared-memory backend — calls the same code,
so any divergence between execution models is a scheduling bug, not a
numerics difference.

The contracted ERI matrix of a block quartet does not depend on the
density, so a kernel computes it once and keeps it (up to
:data:`_ERI_MEMO_BYTES`): SCF iterations after the first, the symmetric
kernel and repeated thread-pool builds only scatter the stored matrix and
contract it with the density. A quartet that does not fit the budget is
recomputed by the same call on every use.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.chemistry.basis import BasisSet, BlockStructure
from repro.chemistry.integrals import IntegralEngine, eri_tensor
from repro.chemistry.screening import SchwarzScreen
from repro.chemistry.tasks import BlockRef, TaskGraph, TaskSpec
from repro.util import ConfigurationError

#: Bytes of contracted ERI matrices one kernel retains. All ``n^4``
#: integrals of an ``n``-function problem take ``8 n^4`` bytes, so this
#: holds every quartet up to n = 64 (9 s-only waters) and a fixed share
#: beyond. A constant, not an option: no caller needs a second value, and
#: a kernel over budget only recomputes.
_ERI_MEMO_BYTES = 128 * 2**20

Quartet = tuple[int, int, int, int]


class _EriMemo:
    """Byte-bounded store of one kernel's contracted ERI matrices.

    Worker threads share a kernel, so lookups, insertions and the counters
    go through one lock; the integrals themselves are computed outside it,
    and two threads missing the same quartet both compute it (one copy is
    kept).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blocks: dict[Quartet, np.ndarray] = {}
        self.bytes = 0
        self.evaluated = 0
        self.reused = 0

    def __reduce__(self):
        # A copy starts cold: the lock cannot travel and the blocks are
        # cheaper to recompute than to ship.
        return (_EriMemo, ())

    def get(self, quartet: Quartet) -> np.ndarray | None:
        with self._lock:
            mat = self._blocks.get(quartet)
            if mat is not None:
                self.reused += 1
            return mat

    def put(self, quartet: Quartet, mat: np.ndarray) -> None:
        """Count one evaluation; keep ``mat`` if the budget allows."""
        with self._lock:
            self.evaluated += 1
            if (
                quartet not in self._blocks
                and self.bytes + mat.nbytes <= _ERI_MEMO_BYTES
            ):
                self._blocks[quartet] = mat
                self.bytes += mat.nbytes


class TaskKernel:
    """Executes block-quartet Fock tasks numerically.

    Pair batches (flattened primitive-product tables of the *alive* shell
    pairs of a block pair) are cached, mirroring integral-prescreening data
    a production code would hold per process; so are the contracted ERI
    matrices built from them (see the module docstring).

    Args:
        basis: basis set.
        blocks: block tiling (must match the task graph's).
        screen: Schwarz bounds.
        tau: screening tolerance; a shell pair is alive iff
            ``Q_ij * Q_max >= tau``, matching the task-cost model exactly.
        engine: optional shared :class:`IntegralEngine`.
    """

    def __init__(
        self,
        basis: BasisSet,
        blocks: BlockStructure,
        screen: SchwarzScreen,
        tau: float,
        engine: IntegralEngine | None = None,
    ) -> None:
        self.basis = basis
        self.blocks = blocks
        self.screen = screen
        self.tau = float(tau)
        self.engine = engine if engine is not None else screen.engine
        self._alive_cache: dict[BlockRef, list[tuple[int, int]]] = {}
        self._batch_cache: dict[BlockRef, object] = {}
        self._index_cache: dict[BlockRef, tuple[np.ndarray, np.ndarray]] = {}
        self._eri_memo = _EriMemo()

    @property
    def eri_evaluated(self) -> int:
        """Block-quartet ERI matrices computed by the integral engine."""
        return self._eri_memo.evaluated

    @property
    def eri_reused(self) -> int:
        """Block-quartet ERI matrices served from this kernel's memo."""
        return self._eri_memo.reused

    @property
    def eri_bytes(self) -> int:
        """Bytes of ERI matrices retained (at most ``_ERI_MEMO_BYTES``)."""
        return self._eri_memo.bytes

    # ------------------------------------------------------------------
    def alive_pairs(self, a: int, b: int) -> list[tuple[int, int]]:
        """Surviving shell pairs of block pair ``(a, b)``, cached."""
        key = (a, b)
        cached = self._alive_cache.get(key)
        if cached is not None:
            return cached
        q_max = self.screen.q_max
        bound = self.tau / q_max if q_max > 0 else 0.0
        pairs = self.screen.surviving_pairs(
            self.blocks.block_range(a), self.blocks.block_range(b), bound
        )
        self._alive_cache[key] = pairs
        return pairs

    def _batch(self, a: int, b: int):
        key = (a, b)
        cached = self._batch_cache.get(key)
        if cached is None:
            cached = self.engine.pair_batch(self.alive_pairs(a, b))
            self._batch_cache[key] = cached
        return cached

    def _local_index(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Row and column of each alive pair inside block pair ``(a, b)``."""
        key = (a, b)
        cached = self._index_cache.get(key)
        if cached is None:
            origin = (self.blocks.block_range(a)[0], self.blocks.block_range(b)[0])
            local = np.array(self.alive_pairs(a, b), dtype=np.intp).reshape(-1, 2) - origin
            cached = (local[:, 0], local[:, 1])
            self._index_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def eri_block_tensor(self, a: int, b: int, c: int, d: int) -> np.ndarray:
        """Screened ERI tensor ``G[i,j,k,l]`` for one block quartet.

        Screened-away entries are exactly zero.
        """
        g = np.zeros([self.blocks.block_size(x) for x in (a, b, c, d)])
        if not self.alive_pairs(a, b) or not self.alive_pairs(c, d):
            return g
        quartet = (a, b, c, d)
        mat = self._eri_memo.get(quartet)
        if mat is None:
            mat = self.engine.eri_batch_matrix(self._batch(a, b), self._batch(c, d))
            self._eri_memo.put(quartet, mat)
        bra_i, bra_j = self._local_index(a, b)
        ket_k, ket_l = self._local_index(c, d)
        g[bra_i[:, None], bra_j[:, None], ket_k[None, :], ket_l[None, :]] = mat
        return g

    def contributions(
        self,
        task: TaskSpec,
        d_cd: np.ndarray,
        d_bd: np.ndarray,
    ) -> dict[BlockRef, np.ndarray]:
        """Execute one task given its density inputs.

        Args:
            task: the task spec.
            d_cd: density block ``D[C, D]``.
            d_bd: density block ``D[B, D]``.

        Returns:
            Fock contributions keyed by the write refs ``(A, B)`` and
            ``(A, C)`` (merged by summation when ``B == C``).
        """
        a, b, c, d = task.quartet
        g = self.eri_block_tensor(a, b, c, d)
        coul = 2.0 * np.einsum("ijkl,kl->ij", g, d_cd)
        exch = -np.einsum("ijkl,jl->ik", g, d_bd)
        out: dict[BlockRef, np.ndarray] = {}
        for ref, mat in (((a, b), coul), ((a, c), exch)):
            if ref in out:
                out[ref] = out[ref] + mat
            else:
                out[ref] = mat
        return out

    def execute_dense(self, task: TaskSpec, density: np.ndarray, fock: np.ndarray) -> None:
        """Execute one task against full dense D, accumulating into F."""
        a, b, c, d = task.quartet
        lo_c, hi_c = self.blocks.block_range(c)
        lo_d, hi_d = self.blocks.block_range(d)
        lo_b, hi_b = self.blocks.block_range(b)
        contrib = self.contributions(
            task, density[lo_c:hi_c, lo_d:hi_d], density[lo_b:hi_b, lo_d:hi_d]
        )
        for (ra, rb), mat in contrib.items():
            lo_i, hi_i = self.blocks.block_range(ra)
            lo_j, hi_j = self.blocks.block_range(rb)
            fock[lo_i:hi_i, lo_j:hi_j] += mat


def fock_reference_tasks(
    kernel: TaskKernel, graph: TaskGraph, density: np.ndarray
) -> np.ndarray:
    """Serial task-loop two-electron Fock matrix (the scheduling oracle).

    Every execution model must reproduce this matrix to floating-point
    reduction-order tolerance.
    """
    n = kernel.blocks.n_basis
    if density.shape != (n, n):
        raise ConfigurationError(f"density must be ({n}, {n}), got {density.shape}")
    fock = np.zeros((n, n))
    for task in graph.tasks:
        kernel.execute_dense(task, density, fock)
    return fock


def fock_reference_dense(
    basis: BasisSet, density: np.ndarray, engine: IntegralEngine | None = None
) -> np.ndarray:
    """Unscreened dense-tensor two-electron Fock matrix.

    Independent of the task machinery entirely — built from the full
    ``(ij|kl)`` tensor — so it cross-checks both the task decomposition and
    the screening logic on small systems.
    """
    g = eri_tensor(basis, engine)
    coul = 2.0 * np.einsum("ijkl,kl->ij", g, density)
    exch = np.einsum("ijkl,jl->ik", g, density)
    return coul - exch
