"""Pluggable linear-solver subsystem for the FDFD stack.

See :mod:`repro.fdfd.linalg.base` for the interface and registry,
:mod:`repro.fdfd.linalg.direct` for the SuperLU backend,
:mod:`repro.fdfd.linalg.krylov` for the preconditioned iterative
backend, and :mod:`repro.fdfd.linalg.blocked` for the corner-block
variant.  Backend selection is a string key (``direct`` / ``krylov`` /
``krylov-block``) carried by :class:`SolverConfig` from the optimizer
config and the CLI down to
:class:`repro.fdfd.workspace.SimulationWorkspace`.
"""

from repro.fdfd.linalg.base import (
    SOLVER_REGISTRY,
    LinearSolver,
    SolveStats,
    SolverConfig,
    available_backends,
    make_linear_solver,
    register_solver,
)
from repro.fdfd.linalg.blocked import (
    BlockDiagnostics,
    BlockedKrylovSolver,
    CornerBlockSolver,
)
from repro.fdfd.linalg.direct import DirectSolver, SinglePrecisionLU
from repro.fdfd.linalg.krylov import KrylovDiagnostics, PreconditionedKrylovSolver

__all__ = [
    "LinearSolver",
    "SolverConfig",
    "SolveStats",
    "SOLVER_REGISTRY",
    "register_solver",
    "available_backends",
    "make_linear_solver",
    "DirectSolver",
    "SinglePrecisionLU",
    "PreconditionedKrylovSolver",
    "KrylovDiagnostics",
    "BlockedKrylovSolver",
    "CornerBlockSolver",
    "BlockDiagnostics",
]
