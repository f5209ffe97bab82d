"""Linear-solver subsystem for the FDFD stack.

See :mod:`repro.fdfd.linalg.base` for the interface and the backend
names, :mod:`repro.fdfd.linalg.direct` for the SuperLU backend,
:mod:`repro.fdfd.linalg.blocked` for the blocked BiCGStab kernel that
solves an iteration's corner family, and
:mod:`repro.fdfd.linalg.krylov` for the per-matrix solver that runs the
same kernel on one system.  Backend selection is a string
(``direct`` / ``krylov-block``) carried by :class:`SolverConfig` from
the optimizer config and the CLI down to
:class:`repro.fdfd.workspace.SimulationWorkspace`.
"""

from repro.fdfd.linalg.base import (
    SOLVER_BACKENDS,
    LinearSolver,
    SolveStats,
    SolverConfig,
)
from repro.fdfd.linalg.blocked import BlockDiagnostics, CornerBlockSolver
from repro.fdfd.linalg.direct import DirectSolver, SinglePrecisionLU
from repro.fdfd.linalg.krylov import PreconditionedKrylovSolver

__all__ = [
    "LinearSolver",
    "SolverConfig",
    "SolveStats",
    "SOLVER_BACKENDS",
    "DirectSolver",
    "SinglePrecisionLU",
    "PreconditionedKrylovSolver",
    "CornerBlockSolver",
    "BlockDiagnostics",
]
