"""Molecular geometries for the case-study workloads.

The paper's kernel operates on medium-sized molecular systems whose spatial
extent creates screening-induced sparsity (and hence task-cost skew). Two
generators cover the regimes used throughout the benchmarks:

- :func:`water_cluster` -- compact 3-D clusters (the classic SCF-benchmark
  input family at PNNL);
- :func:`linear_alkane` -- quasi-1-D chains, maximal screening sparsity.

Coordinates are in Bohr (atomic units) throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import ConfigurationError, check_positive, spawn_rng

#: Nuclear charges for the elements the built-in basis supports.
ATOMIC_NUMBERS: dict[str, int] = {"H": 1, "C": 6, "N": 7, "O": 8}

#: Angstrom -> Bohr conversion.
ANGSTROM = 1.8897259886


@dataclass(frozen=True)
class Molecule:
    """An immutable molecular geometry.

    Attributes:
        symbols: element symbol per atom, e.g. ``("O", "H", "H")``.
        coords: ``(n_atoms, 3)`` array of positions in Bohr.
        charge: total molecular charge (affects electron count).
    """

    symbols: tuple[str, ...]
    coords: np.ndarray
    charge: int = 0

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ConfigurationError(
                f"coords must have shape (n_atoms, 3), got {coords.shape}"
            )
        if len(self.symbols) != coords.shape[0]:
            raise ConfigurationError(
                f"{len(self.symbols)} symbols but {coords.shape[0]} coordinates"
            )
        unknown = sorted(set(self.symbols) - set(ATOMIC_NUMBERS))
        if unknown:
            raise ConfigurationError(f"unsupported elements: {unknown}")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "symbols", tuple(self.symbols))

    @property
    def n_atoms(self) -> int:
        return len(self.symbols)

    @property
    def atomic_numbers(self) -> np.ndarray:
        """``(n_atoms,)`` integer array of nuclear charges."""
        return np.array([ATOMIC_NUMBERS[s] for s in self.symbols], dtype=np.int64)

    @property
    def n_electrons(self) -> int:
        return int(self.atomic_numbers.sum()) - self.charge

    @property
    def formula(self) -> str:
        """Hill-convention molecular formula, e.g. ``"C4H10"``, ``"H16O8"``."""
        counts: dict[str, int] = {}
        for symbol in self.symbols:
            counts[symbol] = counts.get(symbol, 0) + 1
        ordered = [s for s in ("C", "H") if s in counts]
        ordered += sorted(s for s in counts if s not in ("C", "H"))
        return "".join(
            f"{s}{counts[s]}" if counts[s] > 1 else s for s in ordered
        )

    def translated(self, shift: np.ndarray) -> "Molecule":
        """Return a copy translated by ``shift`` (Bohr)."""
        return Molecule(self.symbols, self.coords + np.asarray(shift), self.charge)

    def __add__(self, other: "Molecule") -> "Molecule":
        """Concatenate two geometries into one system."""
        return Molecule(
            self.symbols + other.symbols,
            np.vstack([self.coords, other.coords]),
            self.charge + other.charge,
        )


def nuclear_repulsion(molecule: Molecule) -> float:
    """Classical nuclear-nuclear repulsion energy in Hartree."""
    z = molecule.atomic_numbers.astype(np.float64)
    diff = molecule.coords[:, None, :] - molecule.coords[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    zz = np.outer(z, z)
    iu = np.triu_indices(molecule.n_atoms, k=1)
    return float((zz[iu] / dist[iu]).sum())


def to_xyz(molecule: Molecule, comment: str = "") -> str:
    """Serialize a molecule in XYZ format (coordinates in Angstrom)."""
    if "\n" in comment:
        raise ConfigurationError("XYZ comment must be a single line")
    lines = [str(molecule.n_atoms), comment]
    for symbol, xyz in zip(molecule.symbols, molecule.coords / ANGSTROM):
        lines.append(f"{symbol:2s} {xyz[0]: .10f} {xyz[1]: .10f} {xyz[2]: .10f}")
    return "\n".join(lines) + "\n"


def from_xyz(text: str, charge: int = 0) -> Molecule:
    """Parse XYZ-format text (coordinates in Angstrom) into a molecule."""
    lines = [line for line in text.splitlines()]
    if len(lines) < 2:
        raise ConfigurationError("XYZ input needs a count line and a comment line")
    try:
        n_atoms = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise ConfigurationError(f"bad XYZ atom count line: {lines[0]!r}") from None
    body = [line for line in lines[2:] if line.strip()]
    if len(body) < n_atoms:
        raise ConfigurationError(
            f"XYZ declares {n_atoms} atoms but provides {len(body)} coordinate lines"
        )
    symbols: list[str] = []
    coords: list[list[float]] = []
    for line in body[:n_atoms]:
        parts = line.split()
        if len(parts) < 4:
            raise ConfigurationError(f"bad XYZ coordinate line: {line!r}")
        symbols.append(parts[0])
        try:
            coords.append([float(parts[1]), float(parts[2]), float(parts[3])])
        except ValueError:
            raise ConfigurationError(f"bad XYZ coordinate line: {line!r}") from None
    return Molecule(tuple(symbols), np.asarray(coords) * ANGSTROM, charge)


def _water_monomer() -> Molecule:
    """A single water molecule in its experimental geometry (Bohr)."""
    r_oh = 0.9572 * ANGSTROM
    theta = np.deg2rad(104.52)
    h1 = np.array([r_oh, 0.0, 0.0])
    h2 = np.array([r_oh * np.cos(theta), r_oh * np.sin(theta), 0.0])
    return Molecule(("O", "H", "H"), np.vstack([np.zeros(3), h1, h2]))


def water_cluster(n_monomers: int, seed: int = 0, spacing: float = 5.2) -> Molecule:
    """Build an ``n_monomers``-water cluster on a jittered cubic lattice.

    Monomers sit on the tightest cubic lattice that holds them, each with a
    random rigid rotation and a small positional jitter so no two clusters
    with different seeds are alike. ``spacing`` is the lattice constant in
    Bohr (default ~2.75 A, a liquid-water-like O-O distance).
    """
    check_positive("n_monomers", n_monomers)
    check_positive("spacing", spacing)
    rng = spawn_rng(seed, "water_cluster", n_monomers)
    side = int(np.ceil(n_monomers ** (1.0 / 3.0)))
    mono = _water_monomer()
    parts: list[Molecule] = []
    placed = 0
    for ix in range(side):
        for iy in range(side):
            for iz in range(side):
                if placed >= n_monomers:
                    break
                rot = _random_rotation(rng)
                jitter = rng.uniform(-0.35, 0.35, size=3)
                origin = spacing * np.array([ix, iy, iz], dtype=float) + jitter
                coords = mono.coords @ rot.T + origin
                parts.append(Molecule(mono.symbols, coords))
                placed += 1
    cluster = parts[0]
    for part in parts[1:]:
        cluster = cluster + part
    return cluster


def linear_alkane(n_carbons: int) -> Molecule:
    """An idealized all-anti alkane chain C_n H_{2n+2}.

    Quasi-one-dimensional systems maximize Schwarz screening: distant
    shell pairs vanish, producing the strongly skewed task-cost
    distributions the load-balancing study depends on.
    """
    check_positive("n_carbons", n_carbons)
    r_cc = 1.54 * ANGSTROM
    r_ch = 1.09 * ANGSTROM
    half = np.deg2rad(109.47 / 2.0)
    dx, dz = r_cc * np.sin(half), r_cc * np.cos(half)
    symbols: list[str] = []
    coords: list[np.ndarray] = []
    for i in range(n_carbons):
        c = np.array([i * dx, 0.0, (i % 2) * dz])
        symbols.append("C")
        coords.append(c)
        # Two out-of-plane hydrogens per carbon; chain-end carbons get an
        # extra axial hydrogen each to close the valence.
        ydir = 1.0 if i % 2 == 0 else -1.0
        for sy in (1.0, -1.0):
            h = c + np.array([0.0, sy * r_ch * np.sin(half), -ydir * r_ch * np.cos(half)])
            symbols.append("H")
            coords.append(h)
    # End-cap hydrogens along the chain axis.
    first_c = np.array([0.0, 0.0, 0.0])
    last_c = np.array([(n_carbons - 1) * dx, 0.0, ((n_carbons - 1) % 2) * dz])
    symbols.append("H")
    coords.append(first_c + np.array([-r_ch, 0.0, 0.0]))
    symbols.append("H")
    coords.append(last_c + np.array([r_ch, 0.0, 0.0]))
    return Molecule(tuple(symbols), np.vstack(coords))


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random 3-D rotation matrix (QR of a Gaussian matrix)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
