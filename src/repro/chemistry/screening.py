"""Cauchy-Schwarz integral screening.

The magnitude of any ERI is bounded by the product of bra and ket Schwarz
factors:

    |(ij|kl)| <= Q_ij Q_kl,    Q_ij = sqrt((ij|ij)).

Screening is the physical source of the task-cost skew this whole study
rests on: block quartets of spatially distant shells have tiny bounds, get
dropped (or keep only a few surviving pairs), and leave behind a
heavy-tailed distribution of task costs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.chemistry.basis import BasisSet, BlockStructure
from repro.chemistry.integrals import IntegralEngine, unfold_upper, upper_pairs
from repro.util import check_non_negative


def _store():
    # Call-time import: repro.core pulls in exec_models -> tasks ->
    # screening, so a module-level import would be circular.
    from repro.core.artifacts import default_store

    return default_store()


def _frozen(array: np.ndarray) -> np.ndarray:
    # Q and its aggregates live on in the artifact memo across jobs and
    # threads: nobody may write into them.
    array.setflags(write=False)
    return array


class SchwarzScreen:
    """Schwarz bounds for a basis, with block-level aggregates.

    The Q matrix and its block aggregates are pure functions of the basis
    and the engine (its family and primitive cutoff), so they route
    through the artifact store (:mod:`repro.core.artifacts`): within a
    process each distinct basis is screened once, and with an on-disk
    store configured, warm reruns skip the pair integrals entirely.

    Args:
        basis: the basis set.
        engine: integral engine to reuse (pair tables are shared with the
            Fock kernels); a private one is created if omitted.
    """

    def __init__(self, basis: BasisSet, engine: IntegralEngine | None = None) -> None:
        self.basis = basis
        self.engine = engine if engine is not None else IntegralEngine(basis)
        store = _store()
        if store is None:
            self.q = self._build_q()
        else:
            self.q = store.fetch(
                store.key("schwarz_q", self.content_key),
                self._build_q,
                encode=lambda q: ({"q": q}, {}),
                decode=lambda arrays, _meta: _frozen(arrays["q"]),
            )

    @cached_property
    def content_key(self) -> str:
        """Fingerprint of the screening inputs: basis, engine family, cutoff.

        An engine that drops primitive products has other tables and
        another Q; the exact engine (cutoff 0) keeps the two-part key it
        always had, so entries stored under it stay reachable.
        """
        from repro.core.cache import fingerprint

        parts = (type(self.engine).__name__, self.basis)
        if self.engine.prim_cutoff != 0.0:
            parts += (("prim_cutoff", self.engine.prim_cutoff),)
        return fingerprint(parts)

    def _build_q(self) -> np.ndarray:
        n = self.basis.n_basis
        diagonal = self.engine.eri_diagonal(upper_pairs(n))
        # (ij|ij) is non-negative analytically; clamp fp noise.
        return _frozen(unfold_upper(np.sqrt(np.maximum(diagonal, 0.0)), n))

    @property
    def q_max(self) -> float:
        """Largest Schwarz factor in the system."""
        return float(self.q.max())

    def block_qmax(self, blocks: BlockStructure) -> np.ndarray:
        """``(n_blocks, n_blocks)`` per-block-pair maximum Schwarz factor."""
        store = _store()
        if store is None:
            return self._block_qmax(blocks)
        return store.fetch(
            store.key("block_qmax", self.content_key, blocks.offsets),
            lambda: self._block_qmax(blocks),
            encode=lambda out: ({"out": out}, {}),
            decode=lambda arrays, _meta: _frozen(arrays["out"]),
        )

    def _block_qmax(self, blocks: BlockStructure) -> np.ndarray:
        return _frozen(_block_reduce(np.maximum, self.q, blocks))

    def surviving_pairs(
        self,
        block_i: tuple[int, int],
        block_j: tuple[int, int],
        bound: float,
    ) -> list[tuple[int, int]]:
        """Shell pairs ``(i, j)`` in a block pair with ``Q_ij >= bound``.

        ``block_i``/``block_j`` are half-open index ranges. ``bound`` is an
        absolute threshold (callers divide the quartet tolerance by the
        partner side's Q_max).
        """
        check_non_negative("bound", bound)
        lo_i, hi_i = block_i
        lo_j, hi_j = block_j
        sub = self.q[lo_i:hi_i, lo_j:hi_j]
        ii, jj = np.nonzero(sub >= bound)
        return [(int(lo_i + a), int(lo_j + b)) for a, b in zip(ii, jj)]

    def pair_weights(self, blocks: BlockStructure, tau: float) -> np.ndarray:
        """Per-block-pair surviving primitive work ``W[a, b]``.

        ``W[a, b]`` is the total number of primitive products over shell
        pairs in block pair ``(a, b)`` whose Schwarz factor could survive a
        quartet tolerance ``tau`` against the system's strongest partner
        pair (i.e. ``Q_ij * q_max >= tau``). This is the quantity the
        analytic task-cost model multiplies: the kernel's inner loop is one
        primitive-interaction evaluation per (bra product, ket product).
        """
        check_non_negative("tau", tau)
        store = _store()
        if store is None:
            return self._pair_weights(blocks, tau)
        return store.fetch(
            store.key(
                "pair_weights", self.content_key, blocks.offsets, float(tau)
            ),
            lambda: self._pair_weights(blocks, tau),
            encode=lambda out: ({"out": out}, {}),
            decode=lambda arrays, _meta: _frozen(arrays["out"]),
        )

    def _pair_weights(self, blocks: BlockStructure, tau: float) -> np.ndarray:
        n = self.basis.n_basis
        bound = tau / self.q_max if self.q_max > 0 else 0.0
        alive = self.q >= bound
        # Per-shell-pair table size: primitive products for s pairs,
        # Hermite entries for pairs with angular momentum — exactly the
        # inner-loop length of the vectorized kernel either way. The
        # engine holds the tables since the Schwarz diagonal (and builds
        # them here if Q came from the artifact store).
        batch = self.engine.pair_batch(upper_pairs(n))
        sizes = unfold_upper(np.bincount(batch.seg, minlength=batch.n_pairs), n)
        # Whole numbers: the block sums are exact in any order.
        return _frozen(_block_reduce(np.add, sizes * alive, blocks))


def _block_reduce(ufunc: np.ufunc, matrix: np.ndarray, blocks: BlockStructure) -> np.ndarray:
    """``(n_blocks, n_blocks)`` reduction of ``matrix`` over every block pair."""
    starts = blocks.offsets[:-1]
    return ufunc.reduceat(ufunc.reduceat(matrix, starts, axis=0), starts, axis=1)
