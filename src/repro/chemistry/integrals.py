"""Closed-form Gaussian integrals over contracted s-type shells.

For s-type primitives every molecular integral reduces to a closed form in
the Gaussian-product-theorem quantities, with the Boys function

    F0(t) = (1/2) sqrt(pi/t) erf(sqrt(t))

as the only special function. Given primitives ``a`` at A and ``b`` at B:

    p   = a + b                  (total exponent)
    P   = (a A + b B) / p        (product center)
    mu  = a b / p
    K   = c_a c_b exp(-mu |A-B|^2)   (contraction prefactor)

then

    overlap   (a|b)       = K (pi/p)^{3/2}
    kinetic   (a|T|b)     = K mu (3 - 2 mu |A-B|^2) (pi/p)^{3/2}
    nuclear   (a|Z_C/r|b) = -Z_C K (2 pi / p) F0(p |P-C|^2)
    ERI       (ab|cd)     = K_ab K_cd (2 pi^{5/2}) /
                            (p q sqrt(p+q)) F0(rho |P-Q|^2),
                            rho = p q / (p + q)

The :class:`IntegralEngine` caches per-shell-pair primitive-product data
(built a contraction class at a time: all pairs of an *m*-primitive with an
*n*-primitive shell are one array evaluation) and evaluates block ERIs as
one vectorized outer interaction between two *pair batches* (flattened
primitive-product tables with segment indices), chunked to bound peak
memory. A batch lists its pairs in order, so ``seg`` is sorted and
contraction is a sorted-segment sum (``np.add.reduceat`` over the segment
starts), first over ket primitives, then over bra primitives. That same
engine backs both the dense reference builders used in tests and the
per-task kernels every execution model runs, so correctness comparisons
are exact up to floating-point reduction order.

The Schwarz diagonal ``(ij|ij)`` is the one place a *single* pair's
reduction order is pinned: every task graph descends from it. It is
evaluated for all pairs at once (:meth:`IntegralEngine.eri_diagonal`,
equal-size tables stacked) but reduces each pair exactly as the scalar
:meth:`IntegralEngine.eri_pair_pair` does, which the tests hold it to.

The one-electron matrices are array evaluations too, over the flat table
of all primitive pairs ``m <= n`` of the basis; nuclear attraction takes
that table against every nucleus, one Boys evaluation per chunk of
(primitive pair x nucleus) entries. The scalar per-shell-pair loops they
replace live on in the tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from repro.chemistry.basis import BasisSet
from repro.chemistry.molecules import Molecule

_TWO_PI_POW = 2.0 * np.pi**2.5

#: Row-chunk size for the outer primitive-interaction product; bounds peak
#: memory of a block ERI at roughly ``chunk * n_cols * 8`` bytes.
_ERI_CHUNK = 4096

#: (Primitive pair x nucleus) elements per nuclear-attraction chunk; bounds
#: the transient at a few arrays of this size.
_NUCLEAR_CHUNK = 1 << 16

#: Interaction elements (pairs x table size squared) per chunk of the
#: batched diagonal; its transient is about ten arrays of this size. The
#: diagonal is no faster with more (measured 2^12 to 2^18).
_DIAGONAL_CHUNK = 1 << 14

#: Primitive products per chunk of pair-table construction (the transient
#: is about as many arrays again as the tables it leaves in the cache).
_TABLE_CHUNK = 1 << 14


def segment_starts(seg: np.ndarray) -> np.ndarray:
    """First position of every run of equal values in a sorted ``seg``."""
    return np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))


def equal_size_groups(
    starts: np.ndarray, sizes: np.ndarray, limit: int, kinds: np.ndarray | None = None
):
    """Stack the equal-length runs of a flat table, ``limit`` elements at a time.

    Run *r* is ``starts[r] : starts[r] + sizes[r]``. Yields ``(members,
    index)`` with ``members`` the positions of up to ``limit // n**2`` runs
    of one length *n* (and one value of ``kinds``, when given) and
    ``index`` the ``(len(members), n)`` gather of their entries: what a
    batched diagonal needs to treat the runs as one ``(g, n, n)``
    interaction without exceeding ``limit`` elements.
    """
    keys = sizes if kinds is None else sizes * (kinds.max() + 1) + kinds
    for key in np.unique(keys).tolist():
        same = np.flatnonzero(keys == key)
        n = int(sizes[same[0]])
        step = max(1, limit // (n * n))
        within = np.arange(n)
        for lo in range(0, same.size, step):
            members = same[lo : lo + step]
            yield members, starts[members, None] + within


def boys_f0(t: np.ndarray | float) -> np.ndarray:
    """Vectorized Boys function of order zero.

    Uses the Taylor expansion ``1 - t/3 + t^2/10`` below 1e-12 where the
    closed form is 0/0.
    """
    out = np.array(t, dtype=np.float64, order="C")
    _boys_f0_inplace(out.reshape(-1))
    return out


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a_m - b_n|^2`` for point sets ``(m, 3)`` and ``(n, 3)``.

    Accumulated axis by axis, so no ``(m, n, 3)`` temporary is formed.
    """
    out = a[:, None, 0] - b[None, :, 0]
    out *= out
    for axis in (1, 2):
        d = a[:, None, axis] - b[None, :, axis]
        d *= d
        out += d
    return out


def _boys_f0_inplace(t: np.ndarray) -> None:
    """Overwrite ``t`` (at least 1-D) with ``F0(t)``.

    The closed form runs over the whole array and the few small-``t``
    entries are patched afterwards: no gather/scatter of the large side,
    one temporary.
    """
    small = t < 1.0e-12
    ts = t[small]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = np.sqrt(t)
        np.divide(np.pi, t, out=t)
        np.sqrt(t, out=t)
        t *= 0.5
        t *= erf(root, out=root)
    t[small] = 1.0 - ts / 3.0 + ts * ts / 10.0


@dataclass(frozen=True)
class PairData:
    """Primitive-product table for one unordered shell pair.

    Attributes:
        p: ``(n,)`` total exponents of the primitive products.
        center: ``(n, 3)`` product centers P.
        k: ``(n,)`` contraction prefactors K (includes exp damping).
    """

    p: np.ndarray
    center: np.ndarray
    k: np.ndarray

    @property
    def nprim(self) -> int:
        return int(self.p.size)


@dataclass(frozen=True)
class PairBatch:
    """Flattened primitive-product table for a *list* of shell pairs.

    ``seg[m]`` maps primitive product ``m`` back to the position of its
    shell pair in the originating pair list, enabling one vectorized
    interaction computation followed by a segment-sum.
    """

    p: np.ndarray
    center: np.ndarray
    k: np.ndarray
    seg: np.ndarray
    n_pairs: int

    @property
    def nprim(self) -> int:
        return int(self.p.size)


class IntegralEngine:
    """Caching integral evaluator for one basis set.

    Args:
        basis: the basis set.
        prim_cutoff: primitive products with ``|K|`` below this bound are
            dropped from pair tables. The default 0.0 keeps everything so
            all computation paths agree to reduction-order rounding.
    """

    def __init__(self, basis: BasisSet, prim_cutoff: float = 0.0) -> None:
        if basis.max_angular_momentum > 0:
            from repro.util import ConfigurationError

            raise ConfigurationError(
                "IntegralEngine handles s functions only; use "
                "repro.chemistry.integrals_general.GeneralIntegralEngine "
                "(or make_engine) for bases with p shells"
            )
        self.basis = basis
        self.prim_cutoff = float(prim_cutoff)
        self._pair_cache: dict[tuple[int, int], PairData] = {}
        # Per-shell exponents and coefficients as zero-padded rows, so the
        # shells of one contraction depth gather as one array.
        self._counts = basis.primitive_counts
        self._centers = np.array([sh.center for sh in basis.shells]).reshape(-1, 3)
        self._exps = np.zeros((basis.n_basis, self._counts.max(initial=0)))
        self._coefs = np.zeros_like(self._exps)
        for row, shell in enumerate(basis.shells):
            self._exps[row, : shell.nprim] = shell.exponents
            self._coefs[row, : shell.nprim] = shell.coefficients

    # ------------------------------------------------------------------
    # Pair data
    # ------------------------------------------------------------------
    def pair_data(self, i: int, j: int) -> PairData:
        """Primitive-product table for shell pair ``(i, j)`` (symmetric)."""
        key = (i, j) if i <= j else (j, i)
        if key not in self._pair_cache:
            self._build_tables([key])
        return self._pair_cache[key]

    def _build_tables(self, keys: list[tuple[int, int]]) -> None:
        """Compute and cache the tables of shell pairs ``keys`` (``i <= j``).

        All pairs of one contraction class ``(nprim_i, nprim_j)`` are one
        ``(g, nprim_i * nprim_j)`` array evaluation, :data:`_TABLE_CHUNK`
        entries at a time; a cached table is a row of it.
        """
        if not keys:
            return
        counts, centers = self._counts, self._centers
        ij = np.array(keys, dtype=np.intp)
        radix = int(counts.max()) + 1
        classes = counts[ij[:, 0]] * radix + counts[ij[:, 1]]
        for cls in np.unique(classes).tolist():
            same = np.flatnonzero(classes == cls)
            ni, nj = divmod(cls, radix)
            step = max(1, _TABLE_CHUNK // (ni * nj))
            for lo in range(0, same.size, step):
                i, j = ij[same[lo : lo + step]].T
                a = self._exps[i, :ni, None]
                b = self._exps[j, None, :nj]
                p = (a + b).reshape(i.size, -1)
                mu = (a * b / (a + b)).reshape(i.size, -1)
                ab2 = ((centers[i] - centers[j]) ** 2).sum(axis=-1)
                k = (self._coefs[i, :ni, None] * self._coefs[j, None, :nj]).reshape(i.size, -1)
                k = k * np.exp(-mu * ab2[:, None])
                center = (
                    a[..., None] * centers[i, None, None, :]
                    + b[..., None] * centers[j, None, None, :]
                ).reshape(i.size, -1, 3) / p[:, :, None]
                tables = zip(p, center, k)
                if self.prim_cutoff > 0.0:
                    keep = np.abs(k) >= self.prim_cutoff
                    # Always keep at least the dominant product so no pair
                    # table is empty (a fully-empty table would silently
                    # zero an integral).
                    empty = np.flatnonzero(~keep.any(axis=1))
                    keep[empty, np.abs(k[empty]).argmax(axis=1)] = True
                    tables = (
                        (p_r[kept], center_r[kept], k_r[kept])
                        for (p_r, center_r, k_r), kept in zip(tables, keep)
                    )
                for key, table in zip(zip(i.tolist(), j.tolist()), tables):
                    self._pair_cache[key] = PairData(*table)

    def pair_batch(self, pairs: list[tuple[int, int]]) -> PairBatch:
        """Concatenate pair tables for ``pairs`` into one flat batch."""
        if not pairs:
            return PairBatch(
                np.empty(0), np.empty((0, 3)), np.empty(0), np.empty(0, dtype=np.int64), 0
            )
        keys = [(i, j) if i <= j else (j, i) for i, j in pairs]
        self._build_tables([key for key in set(keys) if key not in self._pair_cache])
        tables = [self._pair_cache[key] for key in keys]
        p = np.concatenate([t.p for t in tables])
        center = np.vstack([t.center for t in tables])
        k = np.concatenate([t.k for t in tables])
        seg = np.repeat(np.arange(len(tables), dtype=np.int64), [t.nprim for t in tables])
        return PairBatch(p, center, k, seg, len(pairs))

    # ------------------------------------------------------------------
    # Two-electron integrals
    # ------------------------------------------------------------------
    @staticmethod
    def _interactions(bra: PairData, ket: PairData) -> np.ndarray:
        """``(..., bra products, ket products)`` primitive ERIs of two tables.

        The tables' arrays may carry equal leading axes (a stack of
        equal-size tables); each stacked bra then meets only its own ket.
        """
        p = bra.p[..., :, None]
        q = ket.p[..., None, :]
        pq = p * q
        rho = pq / (p + q)
        sep = bra.center[..., :, None, :] - ket.center[..., None, :, :]
        r2 = (sep**2).sum(axis=-1)
        return (
            _TWO_PI_POW
            / (pq * np.sqrt(p + q))
            * bra.k[..., :, None]
            * ket.k[..., None, :]
            * boys_f0(rho * r2)
        )

    def eri_pair_pair(self, bra: PairData, ket: PairData) -> float:
        """Single contracted ERI ``(ij|kl)`` from two pair tables."""
        return float(self._interactions(bra, ket).sum())

    def eri_diagonal(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        """``(ij|ij)`` of every shell pair in ``pairs``: the Schwarz diagonal.

        Pair tables of equal size *n* are stacked and their ``(g, n, n)``
        self-interactions evaluated at once, :data:`_DIAGONAL_CHUNK`
        elements at a time. Each pair's ``n * n`` of them are summed as
        ``ndarray.sum`` sums them in :meth:`eri_pair_pair` (NumPy's
        pairwise reduction over one contiguous run), so the values equal
        ``eri_pair_pair(t, t)`` bit for bit.
        """
        if not pairs:
            return np.empty(0)
        batch = self.pair_batch(pairs)
        out = np.empty(batch.n_pairs)
        starts = segment_starts(batch.seg)
        sizes = np.diff(starts, append=batch.nprim)
        for members, index in equal_size_groups(starts, sizes, _DIAGONAL_CHUNK):
            stack = PairData(batch.p[index], batch.center[index], batch.k[index])
            vals = self._interactions(stack, stack)
            out[members] = vals.reshape(members.size, -1).sum(axis=1)
        return out

    def eri_batch_matrix(self, bra: PairBatch, ket: PairBatch) -> np.ndarray:
        """``(bra.n_pairs, ket.n_pairs)`` matrix of contracted ERIs.

        Entry ``(m, n)`` is the ERI between bra pair *m* and ket pair *n*.
        The primitive interaction product is evaluated in row chunks and
        segment-summed into the output, bounding peak memory.
        """
        out = np.zeros((bra.n_pairs, ket.n_pairs))
        if bra.nprim == 0 or ket.nprim == 0:
            return out
        q = ket.p[None, :]
        ket_starts = segment_starts(ket.seg)
        for lo in range(0, bra.nprim, _ERI_CHUNK):
            hi = min(lo + _ERI_CHUNK, bra.nprim)
            p = bra.p[lo:hi, None]
            vals = p + q
            pq = p * q
            t = pq / vals
            t *= _squared_distances(bra.center[lo:hi], ket.center)
            _boys_f0_inplace(t)
            # vals = 2 pi^{5/2} / (pq sqrt(p + q)) K_bra K_ket F0(rho r^2)
            np.sqrt(vals, out=vals)
            vals *= pq
            np.divide(_TWO_PI_POW, vals, out=vals)
            vals *= bra.k[lo:hi, None]
            vals *= ket.k[None, :]
            vals *= t
            # Contract ket primitives into ket pairs, then this chunk's bra
            # primitives into bra pairs. A pair cut by the chunk boundary
            # has a run on both sides, hence the accumulation into ``out``.
            cols = np.add.reduceat(vals, ket_starts, axis=1)
            seg = bra.seg[lo:hi]
            bra_starts = segment_starts(seg)
            out[seg[bra_starts]] += np.add.reduceat(cols, bra_starts, axis=0)
        return out

    def eri_block(
        self,
        bra_pairs: list[tuple[int, int]],
        ket_pairs: list[tuple[int, int]],
    ) -> np.ndarray:
        """ERI matrix between explicit bra and ket shell-pair lists."""
        return self.eri_batch_matrix(self.pair_batch(bra_pairs), self.pair_batch(ket_pairs))


# ----------------------------------------------------------------------
# One-electron dense builders
# ----------------------------------------------------------------------
def upper_pairs(n: int) -> list[tuple[int, int]]:
    """All ``i <= j`` index pairs, row-major (the order of ``np.triu_indices``)."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def unfold_upper(values: np.ndarray, n: int) -> np.ndarray:
    """Symmetric ``(n, n)`` matrix from one value per :func:`upper_pairs` entry."""
    out = np.empty((n, n))
    upper = np.triu_indices(n)
    out[upper] = values
    out.T[upper] = values
    return out


def primitive_pairs(basis: BasisSet) -> tuple[np.ndarray, ...]:
    """The basis's primitives, numbered shell by shell, and all pairs of them.

    Returns ``(exps, coefs, centers, m, n)``: per-primitive exponents,
    coefficients and ``(n_prim, 3)`` centers, then the index arrays of
    every pair ``m <= n`` in :func:`upper_pairs` order.
    """
    exps = np.concatenate([sh.exponents for sh in basis.shells])
    coefs = np.concatenate([sh.coefficients for sh in basis.shells])
    centers = np.repeat(basis.centers, basis.primitive_counts, axis=0)
    m, n = np.triu_indices(exps.size)
    return exps, coefs, centers, m, n


def _primitive_products(basis: BasisSet) -> tuple[np.ndarray, ...]:
    """Gaussian product of every primitive pair ``m <= n`` of an s-only basis.

    Returns flat arrays ``(p, mu, ab2, k, center)``, one entry per pair;
    ``k`` includes the exponential damping, ``center`` is ``(n_pairs, 3)``.
    """
    exps, coefs, centers, m, n = primitive_pairs(basis)
    p = exps[m] + exps[n]
    mu = exps[m] * exps[n] / p
    ab2 = ((centers[m] - centers[n]) ** 2).sum(axis=-1)
    k = coefs[m] * coefs[n] * np.exp(-mu * ab2)
    center = (exps[m, None] * centers[m] + exps[n, None] * centers[n]) / p[:, None]
    return p, mu, ab2, k, center


def contract_shells(basis: BasisSet, products: np.ndarray) -> np.ndarray:
    """Shell x shell matrix from one value per primitive pair ``m <= n``.

    The two triangles of the result sum the same numbers in different
    orders, so the upper one is mirrored: exactly symmetric.
    """
    counts = basis.primitive_counts
    starts = np.cumsum(counts) - counts
    prim = unfold_upper(products, int(counts.sum()))
    full = np.add.reduceat(np.add.reduceat(prim, starts, axis=0), starts, axis=1)
    return unfold_upper(full[np.triu_indices(basis.n_basis)], basis.n_basis)


def overlap_matrix(basis: BasisSet) -> np.ndarray:
    """Dense overlap matrix S (n_basis x n_basis)."""
    if basis.max_angular_momentum > 0:
        from repro.chemistry.integrals_general import overlap_matrix_general

        return overlap_matrix_general(basis)
    p, _, _, k, _ = _primitive_products(basis)
    return contract_shells(basis, k * (np.pi / p) ** 1.5)


def kinetic_matrix(basis: BasisSet) -> np.ndarray:
    """Dense kinetic-energy matrix T."""
    if basis.max_angular_momentum > 0:
        from repro.chemistry.integrals_general import kinetic_matrix_general

        return kinetic_matrix_general(basis)
    p, mu, ab2, k, _ = _primitive_products(basis)
    return contract_shells(
        basis, k * mu * (3.0 - 2.0 * mu * ab2) * (np.pi / p) ** 1.5
    )


def nuclear_attraction_matrix(
    basis: BasisSet, molecule: Molecule | None = None, engine=None
) -> np.ndarray:
    """Dense nuclear-attraction matrix V (negative definite contribution).

    Args:
        basis: the basis set.
        molecule: nuclei to attract to; defaults to the basis's own.
        engine: for a basis with p shells, the
            :class:`~repro.chemistry.integrals_general.GeneralIntegralEngine`
            whose Hermite tables to reuse (the s-only closed form below
            needs no tables).
    """
    if basis.max_angular_momentum > 0:
        from repro.chemistry.integrals_general import nuclear_attraction_matrix_general

        return nuclear_attraction_matrix_general(basis, molecule, engine)
    mol = molecule if molecule is not None else basis.molecule
    charges = mol.atomic_numbers.astype(np.float64)
    p, _, _, k, center = _primitive_products(basis)
    # Per primitive pair: sum_C Z_C F0(p |P - C|^2), chunked over pairs.
    attraction = np.empty(p.size)
    rows = max(1, _NUCLEAR_CHUNK // mol.n_atoms)
    for lo in range(0, p.size, rows):
        hi = min(lo + rows, p.size)
        t = _squared_distances(center[lo:hi], mol.coords)
        t *= p[lo:hi, None]
        _boys_f0_inplace(t)
        attraction[lo:hi] = t @ charges
    return contract_shells(basis, -2.0 * np.pi * k / p * attraction)


def eri_tensor(basis: BasisSet, engine: IntegralEngine | None = None) -> np.ndarray:
    """Dense two-electron tensor ``(ij|kl)``, shape ``(n, n, n, n)``.

    Intended for reference checks on small systems: memory is ``n^4 * 8``
    bytes. Built from one vectorized batch over the unique ``i <= j`` pair
    list, then unfolded through the 8-fold permutational symmetry.
    """
    if engine is not None:
        eng = engine
    else:
        from repro.chemistry.integrals_general import make_engine

        eng = make_engine(basis)
    n = basis.n_basis
    pairs = upper_pairs(n)
    batch = eng.pair_batch(pairs)
    mat = eng.eri_batch_matrix(batch, batch)
    out = np.empty((n, n, n, n))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            val = mat[a, b]
            out[i, j, k, l] = out[j, i, k, l] = out[i, j, l, k] = out[j, i, l, k] = val
            out[k, l, i, j] = out[l, k, i, j] = out[k, l, j, i] = out[l, k, j, i] = val
    return out
