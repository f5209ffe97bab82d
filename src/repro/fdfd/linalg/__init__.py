"""Pluggable linear-solver subsystem for the FDFD stack.

See :mod:`repro.fdfd.linalg.base` for the interface and registry,
:mod:`repro.fdfd.linalg.direct` for the SuperLU backend,
:mod:`repro.fdfd.linalg.blocked` for the blocked BiCGStab kernel that
solves an iteration's corner family, and
:mod:`repro.fdfd.linalg.krylov` for the per-matrix solver that runs the
same kernel on one system.  Backend selection is a string key
(``direct`` / ``krylov-block``) carried by :class:`SolverConfig` from
the optimizer config and the CLI down to
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
from repro.fdfd.linalg.blocked import BlockDiagnostics, CornerBlockSolver
from repro.fdfd.linalg.direct import DirectSolver, SinglePrecisionLU
from repro.fdfd.linalg.krylov import PreconditionedKrylovSolver

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
    "CornerBlockSolver",
    "BlockDiagnostics",
]
