"""Contracted Gaussian shells, the built-in basis, and shell-block tilings.

The library restricts itself to **s-type** shells so that every integral has
a closed form (see :mod:`repro.chemistry.integrals`); variety in contraction
depth (1-6 primitives per shell) supplies the per-task cost heterogeneity
the scheduling study needs. Each contracted shell carries exactly one basis
function, so ``n_basis == n_shells`` and block indexing is uniform.

The built-in basis is an s-only analogue of a split-valence set: heavier
atoms get deeply contracted core shells (expensive in integral kernels) plus
diffuse valence shells; hydrogen gets a light two-shell description.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.chemistry.molecules import Molecule
from repro.util import ConfigurationError, check_positive

#: Built-in s-only basis: element -> list of shells, each shell a list of
#: (exponent, contraction-coefficient) primitive pairs. Exponents follow the
#: even-tempered progressions of standard minimal/split-valence sets.
DEFAULT_BASIS: dict[str, list[list[tuple[float, float]]]] = {
    "H": [
        [(18.731137, 0.0334946), (2.8253937, 0.2347269), (0.6401217, 0.8137573)],
        [(0.1612778, 1.0)],
    ],
    "C": [
        [
            (3047.5249, 0.0018347),
            (457.36951, 0.0140373),
            (103.94869, 0.0688426),
            (29.210155, 0.2321844),
            (9.2866630, 0.4679413),
            (3.1639270, 0.3623120),
        ],
        [(7.8682724, -0.1193324), (1.8812885, -0.1608542), (0.5442493, 1.1434564)],
        [(0.1687144, 1.0)],
    ],
    "N": [
        [
            (4173.5110, 0.0018348),
            (627.45790, 0.0139950),
            (142.90210, 0.0685870),
            (40.234330, 0.2322410),
            (12.820210, 0.4690700),
            (4.3904370, 0.3604550),
        ],
        [(11.626358, -0.1149610), (2.7162800, -0.1691180), (0.7722180, 1.1458520)],
        [(0.2120313, 1.0)],
    ],
    "O": [
        [
            (5484.6717, 0.0018311),
            (825.23495, 0.0139501),
            (188.04696, 0.0684451),
            (52.964500, 0.2327143),
            (16.897570, 0.4701930),
            (5.7996353, 0.3585209),
        ],
        [(15.539616, -0.1107775), (3.5999336, -0.1480263), (1.0137618, 1.1307670)],
        [(0.2700058, 1.0)],
    ],
}


@dataclass(frozen=True)
class Shell:
    """A contracted Cartesian Gaussian shell: one basis function.

    Attributes:
        center: ``(3,)`` position in Bohr.
        exponents: ``(nprim,)`` primitive exponents.
        coefficients: ``(nprim,)`` contraction coefficients with the
            per-primitive normalization already folded in, then rescaled
            so the contracted function has unit self-overlap.
        atom_index: index of the owning atom in the molecule.
        powers: Cartesian angular momentum ``(i, j, k)`` — ``(0, 0, 0)``
            for s, ``(1, 0, 0)`` for p_x, etc. Each Cartesian component is
            its own shell, so ``n_basis == n_shells`` always holds.
    """

    center: np.ndarray
    exponents: np.ndarray
    coefficients: np.ndarray
    atom_index: int
    powers: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self) -> None:
        if len(self.powers) != 3 or any(p < 0 for p in self.powers):
            raise ConfigurationError(f"invalid Cartesian powers {self.powers!r}")
        object.__setattr__(self, "powers", tuple(int(p) for p in self.powers))
        center = np.asarray(self.center, dtype=np.float64)
        exps = np.asarray(self.exponents, dtype=np.float64)
        coefs = np.asarray(self.coefficients, dtype=np.float64)
        if center.shape != (3,):
            raise ConfigurationError(f"shell center must be (3,), got {center.shape}")
        if exps.shape != coefs.shape or exps.ndim != 1 or exps.size == 0:
            raise ConfigurationError("exponents/coefficients must be equal-length 1-D")
        if np.any(exps <= 0):
            raise ConfigurationError("all primitive exponents must be positive")
        for arr in (center, exps, coefs):
            arr.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coefficients", coefs)

    @property
    def nprim(self) -> int:
        return int(self.exponents.size)

    @property
    def angular_momentum(self) -> int:
        return sum(self.powers)


def _normalize_shell(
    center: np.ndarray,
    prims: list[tuple[float, float]],
    atom: int,
    powers: tuple[int, int, int] = (0, 0, 0),
) -> Shell:
    """Build a :class:`Shell` with normalized contraction coefficients."""
    key = tuple((float(e), float(c)) for e, c in prims)
    exps, coefs = _contraction(key, tuple(powers))
    return Shell(center, exps, coefs, atom, powers)


@functools.lru_cache(maxsize=1024)
def _contraction(
    prims: tuple[tuple[float, float], ...], powers: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(exponents, normalized coefficients)`` of one shell
    definition: independent of the centre, so every atom of an element
    shares the arrays of its first."""
    exps = np.array([p[0] for p in prims], dtype=np.float64)
    raw = np.array([p[1] for p in prims], dtype=np.float64)
    if np.any(exps <= 0):
        raise ConfigurationError("all primitive exponents must be positive")
    if powers == (0, 0, 0):
        # s functions: closed forms (fast path, no Hermite machinery).
        coefs = raw * (2.0 * exps / np.pi) ** 0.75
        p_sum = exps[:, None] + exps[None, :]
        s_self = (coefs[:, None] * coefs[None, :] * (np.pi / p_sum) ** 1.5).sum()
    else:
        from repro.chemistry.mcmurchie import overlap_prim, primitive_norm

        coefs = raw * np.array([primitive_norm(powers, a) for a in exps])
        origin = np.zeros(3)
        s_self = 0.0
        for ca, a in zip(coefs, exps):
            for cb, b in zip(coefs, exps):
                s_self += ca * cb * overlap_prim(powers, powers, a, b, origin, origin)
    coefs = coefs / np.sqrt(s_self)
    exps.setflags(write=False)
    coefs.setflags(write=False)
    return exps, coefs


@dataclass(frozen=True)
class BasisSet:
    """All shells of a molecule, in atom order.

    ``shells[i]`` is basis function *i*; ``n_basis == len(shells)``.
    """

    shells: tuple[Shell, ...]
    molecule: Molecule

    @property
    def n_basis(self) -> int:
        return len(self.shells)

    @property
    def centers(self) -> np.ndarray:
        """``(n_basis, 3)`` array of shell centers."""
        return np.vstack([sh.center for sh in self.shells])

    @property
    def primitive_counts(self) -> np.ndarray:
        """``(n_basis,)`` number of primitives per shell."""
        return np.array([sh.nprim for sh in self.shells], dtype=np.int64)

    @property
    def max_angular_momentum(self) -> int:
        """Largest total Cartesian power (0 for an s-only basis)."""
        return max((sh.angular_momentum for sh in self.shells), default=0)


def build_basis(molecule: Molecule, basis: dict[str, list[list[tuple[float, float]]]] | None = None) -> BasisSet:
    """Construct the basis set for a molecule.

    Args:
        molecule: the geometry.
        basis: element -> shell definitions; defaults to
            :data:`DEFAULT_BASIS`.
    """
    table = DEFAULT_BASIS if basis is None else basis
    shells: list[Shell] = []
    for atom_idx, symbol in enumerate(molecule.symbols):
        if symbol not in table:
            raise ConfigurationError(f"no basis for element {symbol!r}")
        for prims in table[symbol]:
            shells.append(_normalize_shell(molecule.coords[atom_idx], prims, atom_idx))
    return BasisSet(tuple(shells), molecule)


@dataclass(frozen=True)
class BlockStructure:
    """A tiling of the basis-function index range into contiguous blocks.

    Blocks are the granularity unit of the whole study: distributed arrays
    are blocked by them, tasks are quartets of them, and sweeping the block
    size is how experiment E5 trades task count against per-task overhead.

    Attributes:
        offsets: ``(n_blocks + 1,)`` block boundary indices;
            block *b* covers ``[offsets[b], offsets[b+1])``.
    """

    offsets: np.ndarray

    def __post_init__(self) -> None:
        off = np.asarray(self.offsets, dtype=np.int64)
        if off.ndim != 1 or off.size < 2:
            raise ConfigurationError("offsets must be 1-D with >= 2 entries")
        if off[0] != 0 or np.any(np.diff(off) <= 0):
            raise ConfigurationError("offsets must start at 0 and strictly increase")
        off.setflags(write=False)
        object.__setattr__(self, "offsets", off)

    @classmethod
    def uniform(cls, n_basis: int, block_size: int) -> "BlockStructure":
        """Tile ``n_basis`` functions into blocks of ``block_size`` (last may be short)."""
        check_positive("n_basis", n_basis)
        check_positive("block_size", block_size)
        bounds = list(range(0, n_basis, block_size)) + [n_basis]
        return cls(np.array(sorted(set(bounds)), dtype=np.int64))

    @classmethod
    def by_atom(cls, basis: BasisSet) -> "BlockStructure":
        """One block per atom (shells are stored in atom order)."""
        bounds = [0]
        for i in range(1, basis.n_basis):
            if basis.shells[i].atom_index != basis.shells[i - 1].atom_index:
                bounds.append(i)
        bounds.append(basis.n_basis)
        return cls(np.array(bounds, dtype=np.int64))

    @property
    def n_blocks(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def n_basis(self) -> int:
        return int(self.offsets[-1])

    def block_range(self, b: int) -> tuple[int, int]:
        """Half-open index range ``(lo, hi)`` of block ``b``."""
        return int(self.offsets[b]), int(self.offsets[b + 1])

    def block_size(self, b: int) -> int:
        lo, hi = self.block_range(b)
        return hi - lo

    def block_of(self, index: int) -> int:
        """The block containing basis-function ``index``."""
        if not 0 <= index < self.n_basis:
            raise ConfigurationError(f"index {index} out of range [0, {self.n_basis})")
        return int(np.searchsorted(self.offsets, index, side="right") - 1)

    def sizes(self) -> np.ndarray:
        """``(n_blocks,)`` array of block sizes."""
        return np.diff(self.offsets)
