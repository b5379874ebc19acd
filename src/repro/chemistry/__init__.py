"""Computational-chemistry kernel substrate.

This package implements, from scratch, the workload the paper's case study
is built on: a Hartree-Fock (SCF) two-electron Fock-build kernel over
contracted s-type Gaussian basis functions, with Cauchy-Schwarz screening
and a blocked shell-quartet task decomposition.

The public surface:

- :mod:`repro.chemistry.molecules` -- geometry generators (water clusters,
  alkanes), XYZ text I/O and the :class:`Molecule` container.
- :mod:`repro.chemistry.basis` -- contracted shells, the built-in s-only
  basis, and shell-block tilings.
- :mod:`repro.chemistry.integrals` -- closed-form one- and two-electron
  integrals with vectorized shell-pair data.
- :mod:`repro.chemistry.screening` -- Schwarz bounds and surviving-pair
  enumeration.
- :mod:`repro.chemistry.tasks` -- block-quartet task graph with an analytic
  cost model and data footprints.
- :mod:`repro.chemistry.fock` -- serial reference Fock builds plus the
  per-task kernel every execution model runs.
- :mod:`repro.chemistry.scf` -- a restricted Hartree-Fock SCF driver.
"""

from repro.chemistry.molecules import (
    Molecule,
    water_cluster,
    linear_alkane,
    nuclear_repulsion,
    to_xyz,
    from_xyz,
)
from repro.chemistry.basis import Shell, BasisSet, BlockStructure, build_basis
from repro.chemistry.basis_sets import build_basis_sto3g
from repro.chemistry.integrals_general import GeneralIntegralEngine, make_engine
from repro.chemistry.integrals import (
    IntegralEngine,
    overlap_matrix,
    kinetic_matrix,
    nuclear_attraction_matrix,
    eri_tensor,
)
from repro.chemistry.screening import SchwarzScreen
from repro.chemistry.tasks import TaskSpec, TaskGraph, build_task_graph
from repro.chemistry.fock import (
    fock_reference_dense,
    fock_reference_tasks,
    TaskKernel,
)
from repro.chemistry.scf import ScfProblem, ScfResult, run_scf, core_hamiltonian
from repro.chemistry.symmetry import (
    build_symmetric_task_graph,
    canonical_quartet,
    quartet_images,
    SymmetricTaskKernel,
    fock_reference_symmetric,
)

__all__ = [
    "Molecule",
    "water_cluster",
    "linear_alkane",
    "nuclear_repulsion",
    "to_xyz",
    "from_xyz",
    "Shell",
    "BasisSet",
    "BlockStructure",
    "build_basis",
    "build_basis_sto3g",
    "IntegralEngine",
    "GeneralIntegralEngine",
    "make_engine",
    "overlap_matrix",
    "kinetic_matrix",
    "nuclear_attraction_matrix",
    "eri_tensor",
    "SchwarzScreen",
    "TaskSpec",
    "TaskGraph",
    "build_task_graph",
    "fock_reference_dense",
    "fock_reference_tasks",
    "TaskKernel",
    "ScfProblem",
    "ScfResult",
    "build_symmetric_task_graph",
    "canonical_quartet",
    "quartet_images",
    "SymmetricTaskKernel",
    "fock_reference_symmetric",
    "run_scf",
    "core_hamiltonian",
]
