"""General (any angular momentum) integral engine via McMurchie-Davidson.

Drop-in replacement for the s-only :class:`~repro.chemistry.integrals.
IntegralEngine`, with the same interface contract (``pair_data`` /
``pair_batch`` / ``eri_pair_pair`` / ``eri_batch_matrix``), so screening,
task kernels, Fock builds, and every execution model work unchanged on
bases with p shells (STO-3G and friends).

Representation: a shell pair expands into a flat table of **Hermite
primitives** — entries ``(p, P, coefficient, (t, u, v))`` where the
coefficient folds contraction weights and the 3-D Hermite expansion
coefficient ``E_{tuv}`` (exponential prefactor included). The ERI between
two tables is then a pure double sum of Hermite Coulomb integrals:

    (ij|kl) = 2 pi^{5/2} sum_{m in bra} sum_{n in ket}
              c_m c_n (-1)^{|tuv_n|} R_{tuv_m + tuv_n}(alpha, P_m - Q_n)
              / (p_m q_n sqrt(p_m + q_n))

evaluated in vectorized chunks and contracted by sorted-segment sums
(``np.add.reduceat`` over the starts of the batch's ``seg`` runs). For an
s-only basis every table entry has ``tuv = (0,0,0)`` and this reduces
exactly to the fast engine's formula (tested). ``eri_diagonal`` evaluates
the Schwarz diagonal ``(ij|ij)`` of many pairs as stacks of equal-size
tables, summed in ``eri_pair_pair``'s own left-to-right order.

Nuclear attraction is the same table against point charges: one
:func:`~repro.chemistry.mcmurchie.hermite_coulomb` call per chunk of
(Hermite entry x nucleus) over the flat batch of all ``i <= j`` pairs.
Overlap and kinetic run over the flat table of primitive pairs instead,
one vectorised 1-D Hermite recursion per angular-momentum class. The
scalar ``mcmurchie.*_prim`` contraction loops are the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chemistry.basis import BasisSet
from repro.chemistry.integrals import (
    contract_shells,
    equal_size_groups,
    primitive_pairs,
    segment_starts,
    unfold_upper,
    upper_pairs,
)
from repro.chemistry.mcmurchie import _hermite_1d, hermite_coulomb, hermite_expansion
from repro.chemistry.molecules import Molecule

_TWO_PI_POW = 2.0 * np.pi**2.5
#: Row-chunk size for the Hermite interaction product (memory bound:
#: ~n_R_arrays * chunk * n_cols * 8 bytes transient).
_CHUNK = 32
#: (Hermite entry x nucleus) elements per nuclear-attraction chunk; the
#: Coulomb recursion holds a dozen arrays of this size for p shells.
_NUCLEAR_CHUNK = 1 << 14
#: Interaction elements (pairs x table size squared) per chunk of the
#: batched diagonal. The Coulomb recursion of a (pp|pp) stack holds ~80
#: arrays of this size; below 2^12 the diagonal gets slower, above not
#: faster.
_DIAGONAL_CHUNK = 1 << 12


@dataclass(frozen=True)
class HermitePairData:
    """Hermite-primitive table of one shell pair."""

    p: np.ndarray
    center: np.ndarray
    coef: np.ndarray
    tuv: np.ndarray  # (n, 3) int

    @property
    def nprim(self) -> int:
        return int(self.p.size)


@dataclass(frozen=True)
class HermiteBatch:
    """Concatenated Hermite tables for a list of shell pairs."""

    p: np.ndarray
    center: np.ndarray
    coef: np.ndarray
    tuv: np.ndarray
    seg: np.ndarray
    n_pairs: int

    @property
    def nprim(self) -> int:
        return int(self.p.size)


class GeneralIntegralEngine:
    """Caching MD integral evaluator (any Cartesian angular momentum).

    Args:
        basis: the basis set.
        prim_cutoff: Hermite-primitive entries with ``|coef|`` below this
            are dropped (0.0 keeps everything).
    """

    def __init__(self, basis: BasisSet, prim_cutoff: float = 0.0) -> None:
        self.basis = basis
        self.prim_cutoff = float(prim_cutoff)
        self._pair_cache: dict[tuple[int, int], HermitePairData] = {}

    # ------------------------------------------------------------------
    def pair_data(self, i: int, j: int) -> HermitePairData:
        """Hermite table for shell pair ``(i, j)`` (symmetric, cached)."""
        key = (i, j) if i <= j else (j, i)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        sh_i = self.basis.shells[key[0]]
        sh_j = self.basis.shells[key[1]]
        ps: list[float] = []
        centers: list[np.ndarray] = []
        coefs: list[float] = []
        tuvs: list[tuple[int, int, int]] = []
        for a, ca in zip(sh_i.exponents, sh_i.coefficients):
            for b, cb in zip(sh_j.exponents, sh_j.coefficients):
                p = a + b
                center = (a * sh_i.center + b * sh_j.center) / p
                expansion = hermite_expansion(
                    sh_i.powers, sh_j.powers, float(a), float(b), sh_i.center, sh_j.center
                )
                for tuv, e_val in expansion.items():
                    coef = ca * cb * e_val
                    if self.prim_cutoff > 0.0 and abs(coef) < self.prim_cutoff:
                        continue
                    ps.append(p)
                    centers.append(center)
                    coefs.append(coef)
                    tuvs.append(tuv)
        if not ps:
            # Keep at least a null entry so shapes stay sane.
            data = HermitePairData(
                np.ones(1), np.zeros((1, 3)), np.zeros(1), np.zeros((1, 3), dtype=np.int64)
            )
        else:
            data = HermitePairData(
                np.array(ps),
                np.vstack(centers),
                np.array(coefs),
                np.array(tuvs, dtype=np.int64),
            )
        self._pair_cache[key] = data
        return data

    def pair_batch(self, pairs: list[tuple[int, int]]) -> HermiteBatch:
        if not pairs:
            return HermiteBatch(
                np.empty(0),
                np.empty((0, 3)),
                np.empty(0),
                np.empty((0, 3), dtype=np.int64),
                np.empty(0, dtype=np.int64),
                0,
            )
        tables = [self.pair_data(i, j) for i, j in pairs]
        return HermiteBatch(
            np.concatenate([t.p for t in tables]),
            np.vstack([t.center for t in tables]),
            np.concatenate([t.coef for t in tables]),
            np.vstack([t.tuv for t in tables]),
            np.repeat(np.arange(len(tables), dtype=np.int64), [t.nprim for t in tables]),
            len(pairs),
        )

    # ------------------------------------------------------------------
    def _interaction(
        self,
        bra: HermiteBatch | HermitePairData,
        ket: HermiteBatch | HermitePairData,
        rows: slice = slice(None),
    ) -> np.ndarray:
        """``(..., rows, ket entries)`` weighted Hermite Coulomb interactions.

        Entry ``(m, n)`` is bra entry ``rows[m]`` against ket entry ``n``;
        summing a segment of it gives that pair quartet's contracted ERI.
        The tables' arrays may carry equal leading axes (a stack of equal-
        size tables); each stacked bra then meets only its own ket.
        """
        bra_tuv = bra.tuv[..., rows, :]
        ket_l = ket.tuv.sum(axis=-1)
        order = int(bra_tuv.sum(axis=-1).max() + ket_l.max())
        p = bra.p[..., rows, None]
        q = ket.p[..., None, :]
        pq = p * q
        sep = bra.center[..., rows, None, :] - ket.center[..., None, :, :]
        r_table = hermite_coulomb(order, pq / (p + q), sep)
        t_idx, u_idx, v_idx = (
            bra_tuv[..., :, None, d] + ket.tuv[..., None, :, d] for d in range(3)
        )
        vals = np.zeros_like(pq)
        for (t, u, v), r_vals in r_table.items():
            mask = (t_idx == t) & (u_idx == u) & (v_idx == v)
            if mask.any():
                vals[mask] = r_vals[mask]
        ket_sign = np.where(ket_l % 2 == 1, -1.0, 1.0)
        vals *= (
            _TWO_PI_POW
            / (pq * np.sqrt(p + q))
            * bra.coef[..., rows, None]
            * (ket.coef * ket_sign)[..., None, :]
        )
        return vals

    def eri_diagonal(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        """``(ij|ij)`` of every shell pair in ``pairs``: the Schwarz diagonal.

        Hermite tables of equal size *n* and equal highest Hermite order
        (it sets the depth of the Coulomb recursion, and a stack of s-s
        tables should not pay for the p-p table of the same size) are
        stacked and their ``(g, n, n)`` self-interactions evaluated at
        once, :data:`_DIAGONAL_CHUNK` elements at a time, then summed in
        the order of :meth:`eri_pair_pair` (ket entries left to right,
        then bra entries left to right), so the values equal
        ``eri_pair_pair(t, t)`` bit for bit.
        """
        if not pairs:
            return np.empty(0)
        batch = self.pair_batch(pairs)
        out = np.empty(batch.n_pairs)
        starts = segment_starts(batch.seg)
        sizes = np.diff(starts, append=batch.nprim)
        orders = np.maximum.reduceat(batch.tuv.sum(axis=1), starts)
        for members, index in equal_size_groups(starts, sizes, _DIAGONAL_CHUNK, orders):
            stack = HermitePairData(
                batch.p[index], batch.center[index], batch.coef[index], batch.tuv[index]
            )
            vals = self._interaction(stack, stack)
            entries = np.zeros(index.shape)
            for column in range(index.shape[1]):
                entries += vals[:, :, column]
            total = np.zeros(members.size)
            for row in range(index.shape[1]):
                total += entries[:, row]
            out[members] = total
        return out

    def eri_batch_matrix(self, bra: HermiteBatch, ket: HermiteBatch) -> np.ndarray:
        """``(bra.n_pairs, ket.n_pairs)`` contracted ERIs."""
        out = np.zeros((bra.n_pairs, ket.n_pairs))
        if bra.nprim == 0 or ket.nprim == 0:
            return out
        ket_starts = segment_starts(ket.seg)
        for lo in range(0, bra.nprim, _CHUNK):
            hi = min(lo + _CHUNK, bra.nprim)
            # Ket entries into ket pairs, then this chunk's bra entries into
            # bra pairs; a pair cut by the chunk boundary accumulates twice.
            vals = self._interaction(bra, ket, slice(lo, hi))
            cols = np.add.reduceat(vals, ket_starts, axis=1)
            seg = bra.seg[lo:hi]
            bra_starts = segment_starts(seg)
            out[seg[bra_starts]] += np.add.reduceat(cols, bra_starts, axis=0)
        return out

    def eri_pair_pair(self, bra: HermitePairData, ket: HermitePairData) -> float:
        """Single contracted ERI from two Hermite tables.

        Summed strictly left to right (ket entries, then bra entries): the
        Schwarz bounds, and through them every pinned task graph, carry
        this order's rounding.
        """
        total = 0.0
        for lo in range(0, bra.nprim, _CHUNK):
            vals = self._interaction(bra, ket, slice(lo, lo + _CHUNK))
            rows = np.zeros(vals.shape[0])
            for column in vals.T:
                rows += column
            for row in rows.tolist():
                total += row
        return total

    def eri_block(
        self, bra_pairs: list[tuple[int, int]], ket_pairs: list[tuple[int, int]]
    ) -> np.ndarray:
        return self.eri_batch_matrix(self.pair_batch(bra_pairs), self.pair_batch(ket_pairs))


# ----------------------------------------------------------------------
# General one-electron builders: array evaluations over the flat table of
# primitive pairs (overlap, kinetic) and of Hermite entries (nuclear).
# ----------------------------------------------------------------------
def _overlap_kinetic_products(basis: BasisSet) -> tuple[np.ndarray, np.ndarray]:
    """``<a|b>`` and ``<a|-nabla^2/2|b>`` of every primitive pair ``m <= n``.

    A Cartesian Gaussian overlap factorises per dimension into
    ``E_0^{ij} sqrt(pi/p)``, and the kinetic integral is a combination of
    overlaps with the ket power shifted by two (see
    :func:`~repro.chemistry.mcmurchie.kinetic_prim`, the scalar oracle).
    Pairs are grouped by their ``(bra powers, ket powers)`` so each group
    is one vectorised Hermite recursion per dimension and shift.
    """
    exps, coefs, centers, m, n = primitive_pairs(basis)
    powers = np.repeat(
        np.array([sh.powers for sh in basis.shells]), basis.primitive_counts, axis=0
    )
    a, b = exps[m], exps[n]
    p = a + b
    ab = centers[m] - centers[n]
    pa = -(b / p)[:, None] * ab
    pb = (a / p)[:, None] * ab
    scale = (
        coefs[m] * coefs[n] * np.exp(-a * b / p * (ab**2).sum(axis=-1)) * (np.pi / p) ** 1.5
    )
    overlap = np.empty(p.size)
    kinetic = np.empty(p.size)
    kinds, kind_of = np.unique(
        np.hstack([powers[m], powers[n]]), axis=0, return_inverse=True
    )
    kind_of = kind_of.reshape(-1)
    for index, kind in enumerate(kinds.tolist()):
        rows = np.flatnonzero(kind_of == index)
        la, lb = kind[:3], kind[3:]

        def e0(d: int, j: int):
            return _hermite_1d(la[d], j, p[rows], pa[rows, d], pb[rows, d])[0]

        base = [e0(d, lb[d]) for d in range(3)]
        s = base[0] * base[1] * base[2]
        t = b[rows] * (2 * sum(lb) + 3) * s
        for d in range(3):
            others = base[(d + 1) % 3] * base[(d + 2) % 3]
            t = t - 2.0 * b[rows] ** 2 * e0(d, lb[d] + 2) * others
            if lb[d] >= 2:
                t = t - 0.5 * lb[d] * (lb[d] - 1) * e0(d, lb[d] - 2) * others
        overlap[rows] = scale[rows] * s
        kinetic[rows] = scale[rows] * t
    return overlap, kinetic


def overlap_matrix_general(basis: BasisSet) -> np.ndarray:
    return contract_shells(basis, _overlap_kinetic_products(basis)[0])


def kinetic_matrix_general(basis: BasisSet) -> np.ndarray:
    return contract_shells(basis, _overlap_kinetic_products(basis)[1])


def nuclear_attraction_matrix_general(
    basis: BasisSet,
    molecule: Molecule | None = None,
    engine: GeneralIntegralEngine | None = None,
) -> np.ndarray:
    """Nuclear-attraction matrix from the engine's Hermite tables.

    ``V_ij = -sum_C Z_C sum_m (2 pi / p_m) c_m R_{tuv_m}(p_m, P_m - C)``
    over the Hermite entries *m* of pair ``(i, j)``.
    """
    mol = molecule if molecule is not None else basis.molecule
    charges = mol.atomic_numbers.astype(np.float64)
    eng = engine if engine is not None else GeneralIntegralEngine(basis)
    batch = eng.pair_batch(upper_pairs(basis.n_basis))
    # Per Hermite entry: sum_C Z_C R_tuv(p, P - C), chunked over rows.
    attraction = np.empty(batch.nprim)
    rows = max(1, _NUCLEAR_CHUNK // mol.n_atoms)
    for lo in range(0, batch.nprim, rows):
        hi = min(lo + rows, batch.nprim)
        tuv = batch.tuv[lo:hi]
        r_table = hermite_coulomb(
            int(tuv.sum(axis=1).max()),
            batch.p[lo:hi, None],
            batch.center[lo:hi, None, :] - mol.coords[None, :, :],
        )
        for key, r_vals in r_table.items():
            mine = np.flatnonzero((tuv == key).all(axis=1))
            attraction[lo + mine] = r_vals[mine] @ charges
    attraction *= -2.0 * np.pi * batch.coef / batch.p
    return unfold_upper(
        np.add.reduceat(attraction, segment_starts(batch.seg)), basis.n_basis
    )


def make_engine(basis: BasisSet, prim_cutoff: float = 0.0):
    """The right engine for a basis: fast s-only path when possible."""
    from repro.chemistry.integrals import IntegralEngine

    if basis.max_angular_momentum == 0:
        return IntegralEngine(basis, prim_cutoff)
    return GeneralIntegralEngine(basis, prim_cutoff)
