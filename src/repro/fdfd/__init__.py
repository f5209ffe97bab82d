"""2-D finite-difference frequency-domain (FDFD) Maxwell solver.

Solves the scalar Helmholtz problem for the out-of-plane electric field
``Ez`` (TM polarization in the 2-D photonics convention used by the paper's
ceviche-based experiments):

    (d2/dx2 + d2/dy2 + omega^2 eps_r(x, y)) Ez = -i omega Jz

on a uniform Yee grid with stretched-coordinate perfectly matched layers
(SC-PML), in natural units (lengths in um, ``eps0 = mu0 = c = 1``).

The adjoint engine (:mod:`repro.fdfd.adjoint`) turns one extra linear solve
into the gradient of any port-power figure of merit with respect to the
full permittivity map — the mechanism that makes inverse design tractable
(Hughes et al. 2018, ref. [8] of the paper).
"""

from repro.fdfd.grid import SimGrid
from repro.fdfd.pml import PMLSpec, stretch_factors
from repro.fdfd.operators import build_derivative_ops, laplacian_from_ops
from repro.fdfd.solver import HelmholtzSolver, FdfdFields
from repro.fdfd.modes import SlabModeSolver, WaveguideMode
from repro.fdfd.sources import ModeLineSource
from repro.fdfd.monitors import ModeOverlapMonitor, poynting_flux_x, poynting_flux_y
from repro.fdfd.adjoint import PortInfrastructure, PortPowerProblem, PortSpec
from repro.fdfd.linalg import (
    SOLVER_BACKENDS,
    DirectSolver,
    LinearSolver,
    PreconditionedKrylovSolver,
    SolverConfig,
)
from repro.fdfd.workspace import (
    FactorOptions,
    FdfdAssembly,
    SimulationWorkspace,
    reset_shared_workspace,
    shared_workspace,
)

__all__ = [
    "SimGrid",
    "PMLSpec",
    "stretch_factors",
    "build_derivative_ops",
    "laplacian_from_ops",
    "HelmholtzSolver",
    "FdfdFields",
    "SlabModeSolver",
    "WaveguideMode",
    "ModeLineSource",
    "ModeOverlapMonitor",
    "poynting_flux_x",
    "poynting_flux_y",
    "PortInfrastructure",
    "PortPowerProblem",
    "PortSpec",
    "FactorOptions",
    "FdfdAssembly",
    "SimulationWorkspace",
    "shared_workspace",
    "reset_shared_workspace",
    "LinearSolver",
    "SolverConfig",
    "DirectSolver",
    "PreconditionedKrylovSolver",
    "SOLVER_BACKENDS",
]
