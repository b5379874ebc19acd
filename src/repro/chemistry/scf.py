"""Restricted Hartree-Fock SCF driver.

The SCF loop is the *iterative* context the persistence-based load
balancer (experiment E8) exploits: task costs are nearly identical across
iterations, so measured costs from iteration *i* make an excellent static
schedule for iteration *i*+1.

The driver is deliberately simple (damping, no DIIS) and parameterizes the
two-electron build as a callable, so the same loop runs on the serial
reference, the simulated distributed runtime, or the real thread pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from repro.chemistry.basis import BasisSet, BlockStructure, build_basis
from repro.chemistry.fock import TaskKernel, fock_reference_tasks
from repro.chemistry.integrals import (
    kinetic_matrix,
    nuclear_attraction_matrix,
    overlap_matrix,
)
from repro.chemistry.molecules import Molecule, nuclear_repulsion
from repro.chemistry.screening import SchwarzScreen
from repro.chemistry.tasks import TaskGraph, build_task_graph
from repro.util import ConfigurationError, check_positive, once_property

#: Smallest overlap eigenvalue tolerated before declaring the basis
#: numerically linearly dependent.
_S_EIGVAL_FLOOR = 1.0e-8

GBuilder = Callable[[np.ndarray], np.ndarray]


def core_hamiltonian(basis: BasisSet, engine=None) -> np.ndarray:
    """One-electron core Hamiltonian ``H = T + V``.

    ``engine`` is the integral engine whose pair tables V reuses (see
    :func:`~repro.chemistry.integrals.nuclear_attraction_matrix`).
    """
    return kinetic_matrix(basis) + nuclear_attraction_matrix(basis, engine=engine)


def _orthogonalizer(s: np.ndarray) -> np.ndarray:
    """Symmetric orthogonalization ``X = S^{-1/2}``."""
    vals, vecs = scipy.linalg.eigh(s)
    if vals.min() < _S_EIGVAL_FLOOR:
        raise ConfigurationError(
            f"overlap matrix is near-singular (min eigenvalue {vals.min():.3e}); "
            "the geometry places shells too close together"
        )
    return vecs @ np.diag(vals**-0.5) @ vecs.T


def _density_from_fock(
    fock: np.ndarray, x: np.ndarray, n_occ: int
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize F in the orthogonal basis; return (D, orbital energies)."""
    f_ortho = x.T @ fock @ x
    eps, c_ortho = scipy.linalg.eigh(f_ortho)
    c = x @ c_ortho
    c_occ = c[:, :n_occ]
    return c_occ @ c_occ.T, eps


class _DiisAccelerator:
    """Pulay DIIS: extrapolate the Fock matrix from recent iterates.

    The error vector is the orthogonalized commutator ``X^T (FDS - SDF) X``
    (zero at self-consistency). Keeps the last ``depth`` (F, error) pairs
    and solves the constrained least-squares problem for the mixing
    coefficients; falls back to the raw Fock when the B matrix is
    numerically singular (e.g. on the first iteration).
    """

    def __init__(self, overlap: np.ndarray, x: np.ndarray, depth: int = 6) -> None:
        check_positive("depth", depth)
        self.overlap = overlap
        self.x = x
        self.depth = int(depth)
        self._focks: list[np.ndarray] = []
        self._errors: list[np.ndarray] = []

    def extrapolate(self, fock: np.ndarray, density: np.ndarray) -> np.ndarray:
        commutator = fock @ density @ self.overlap - self.overlap @ density @ fock
        error = self.x.T @ commutator @ self.x
        self._focks.append(fock.copy())
        self._errors.append(error)
        if len(self._focks) > self.depth:
            self._focks.pop(0)
            self._errors.pop(0)
        m = len(self._focks)
        if m == 1:
            return fock
        b = np.empty((m + 1, m + 1))
        b[:m, :m] = [
            [float(np.vdot(ei, ej)) for ej in self._errors] for ei in self._errors
        ]
        b[m, :m] = b[:m, m] = -1.0
        b[m, m] = 0.0
        rhs = np.zeros(m + 1)
        rhs[m] = -1.0
        try:
            coefficients = np.linalg.solve(b, rhs)[:m]
        except np.linalg.LinAlgError:
            return fock
        out = np.zeros_like(fock)
        for c, f in zip(coefficients, self._focks):
            out += c * f
        return out


@dataclass
class ScfResult:
    """Outcome of an SCF run.

    Attributes:
        energy: total energy (electronic + nuclear) in Hartree.
        electronic_energy: electronic part only.
        nuclear_repulsion: nuclear-nuclear repulsion.
        converged: whether both energy and density criteria were met.
        n_iterations: SCF iterations performed.
        density: final (idempotent-normalized) density matrix D.
        fock: final Fock matrix.
        orbital_energies: final orbital eigenvalues.
        energy_history: electronic+nuclear energy per iteration.
    """

    energy: float
    electronic_energy: float
    nuclear_repulsion: float
    converged: bool
    n_iterations: int
    density: np.ndarray
    fock: np.ndarray
    orbital_energies: np.ndarray
    energy_history: list[float] = field(default_factory=list)


class ScfProblem:
    """Precomputed, reusable SCF machinery for one molecule.

    Bundles the basis, block structure, screening, task graph, and kernel,
    so benchmarks can build the (comparatively expensive) integral
    infrastructure once and sweep schedulers over it. ``hcore`` and
    ``overlap`` are computed on first read and kept — a study sweeps the
    graph and never runs an SCF, so :meth:`build` evaluates no
    one-electron integral — unless the constructor was handed them.
    """

    def __init__(
        self,
        molecule: Molecule,
        basis: BasisSet,
        blocks: BlockStructure,
        screen: SchwarzScreen,
        graph: TaskGraph,
        kernel: TaskKernel,
        hcore: np.ndarray | None = None,
        overlap: np.ndarray | None = None,
    ) -> None:
        self.molecule = molecule
        self.basis = basis
        self.blocks = blocks
        self.screen = screen
        self.graph = graph
        self.kernel = kernel
        if hcore is not None:
            self.hcore = hcore
        if overlap is not None:
            self.overlap = overlap

    @once_property
    def hcore(self) -> np.ndarray:
        """Core Hamiltonian ``T + V`` (first read computes it)."""
        return core_hamiltonian(self.basis, self.kernel.engine)

    @once_property
    def overlap(self) -> np.ndarray:
        """Overlap matrix ``S`` (first read computes it)."""
        return overlap_matrix(self.basis)

    @classmethod
    def build(
        cls,
        molecule: Molecule,
        block_size: int = 8,
        tau: float = 1.0e-10,
        blocks: BlockStructure | None = None,
        basis_set: str = "s-only",
    ) -> "ScfProblem":
        """Assemble basis, screening, tasks, and kernels for a molecule.

        Args:
            basis_set: ``"s-only"`` (the fast built-in set) or
                ``"sto-3g"`` (real s+p STO-3G via the McMurchie-Davidson
                engine).
        """
        if basis_set == "s-only":
            basis = build_basis(molecule)
        elif basis_set == "sto-3g":
            from repro.chemistry.basis_sets import build_basis_sto3g

            basis = build_basis_sto3g(molecule)
        else:
            raise ConfigurationError(
                f"basis_set must be 's-only' or 'sto-3g', got {basis_set!r}"
            )
        tiling = blocks if blocks is not None else BlockStructure.uniform(basis.n_basis, block_size)
        from repro.chemistry.integrals_general import make_engine

        engine = make_engine(basis)
        screen = SchwarzScreen(basis, engine)
        graph = build_task_graph(basis, tiling, screen, tau)
        kernel = TaskKernel(basis, tiling, screen, tau, engine)
        return cls(
            molecule=molecule,
            basis=basis,
            blocks=tiling,
            screen=screen,
            graph=graph,
            kernel=kernel,
        )

    @property
    def n_occupied(self) -> int:
        n_elec = self.molecule.n_electrons
        if n_elec % 2 != 0:
            raise ConfigurationError(
                f"restricted HF needs an even electron count, got {n_elec}"
            )
        return n_elec // 2

    def serial_g_builder(self) -> GBuilder:
        """The serial reference two-electron builder."""
        return lambda density: fock_reference_tasks(self.kernel, self.graph, density)


def run_scf(
    molecule: Molecule,
    block_size: int = 8,
    tau: float = 1.0e-10,
    max_iterations: int = 50,
    energy_tol: float = 1.0e-8,
    density_tol: float = 1.0e-6,
    damping: float = 0.35,
    accelerator: str = "damping",
    diis_depth: int = 6,
    g_builder: GBuilder | None = None,
    problem: ScfProblem | None = None,
    callback: Callable[[int, float, np.ndarray], None] | None = None,
) -> ScfResult:
    """Run restricted Hartree-Fock to self-consistency.

    Args:
        molecule: the geometry (must have an even electron count).
        block_size: task-block size when building a fresh problem.
        tau: Schwarz screening tolerance.
        max_iterations: iteration cap.
        energy_tol: |dE| convergence threshold (Hartree).
        density_tol: RMS density-change threshold.
        damping: fraction of the *previous* density mixed into each new
            density (0 disables damping; ignored under DIIS).
        accelerator: ``"damping"`` (simple mixing) or ``"diis"`` (Pulay
            Fock-matrix extrapolation — typically halves the iteration
            count).
        diis_depth: DIIS subspace size.
        g_builder: two-electron builder ``D -> G(D)``; defaults to the
            serial task loop.
        problem: prebuilt :class:`ScfProblem` (overrides block_size/tau).
        callback: invoked as ``callback(iteration, energy, density)`` after
            each iteration; persistence-based scheduling hooks in here.
    """
    check_positive("max_iterations", max_iterations)
    if not 0.0 <= damping < 1.0:
        raise ConfigurationError(f"damping must be in [0, 1), got {damping}")
    if accelerator not in ("damping", "diis"):
        raise ConfigurationError(
            f"accelerator must be 'damping' or 'diis', got {accelerator!r}"
        )
    prob = problem if problem is not None else ScfProblem.build(molecule, block_size, tau)
    build_g = g_builder if g_builder is not None else prob.serial_g_builder()

    e_nuc = nuclear_repulsion(prob.molecule)
    x = _orthogonalizer(prob.overlap)
    n_occ = prob.n_occupied
    density, _ = _density_from_fock(prob.hcore, x, n_occ)
    diis = (
        _DiisAccelerator(prob.overlap, x, depth=diis_depth)
        if accelerator == "diis"
        else None
    )

    history: list[float] = []
    energy_prev = np.inf
    converged = False
    fock = prob.hcore.copy()
    eps = np.zeros(prob.basis.n_basis)
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        g = build_g(density)
        fock = prob.hcore + g
        e_elec = float(np.sum(density * (prob.hcore + fock)))
        energy = e_elec + e_nuc
        history.append(energy)

        effective_fock = diis.extrapolate(fock, density) if diis is not None else fock
        new_density, eps = _density_from_fock(effective_fock, x, n_occ)
        if diis is None and damping > 0.0 and iteration > 1:
            new_density = (1.0 - damping) * new_density + damping * density
        d_rms = float(np.sqrt(np.mean((new_density - density) ** 2)))
        d_energy = abs(energy - energy_prev)
        if callback is not None:
            callback(iteration, energy, new_density)
        density = new_density
        energy_prev = energy
        if d_energy < energy_tol and d_rms < density_tol:
            converged = True
            break

    return ScfResult(
        energy=history[-1],
        electronic_energy=history[-1] - e_nuc,
        nuclear_repulsion=e_nuc,
        converged=converged,
        n_iterations=iteration,
        density=density,
        fock=fock,
        orbital_energies=eps,
        energy_history=history,
    )
