"""Assembly and solution of the 2-D Helmholtz system.

The discretized operator is

    A = Dxb Dxf + Dyb Dyf + omega^2 diag(eps_r)

(with the PML stretch folded into the difference operators), and the source
vector for a current sheet ``Jz`` is ``b = -i omega Jz``.  One LU
factorization serves both the forward solve and the transposed (adjoint)
solve, which is the key runtime trick of adjoint inverse design.

Repeated solves on the same window go through a
:class:`~repro.fdfd.workspace.SimulationWorkspace` (the process-shared
one by default): the derivative operators and Laplacian are built once
per ``(grid, omega, pml)``, each corner's system matrix is assembled by
a single diagonal update, and identical permittivities share one LU.
Pass ``workspace=None`` to force the cold, cache-free path (it produces
bit-identical matrices and fields — the caches are content-addressed).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fdfd.grid import SimGrid
from repro.fdfd.linalg import DirectSolver, SolveStats
from repro.fdfd.operators import build_derivative_ops, laplacian_from_ops
from repro.fdfd.pml import PMLSpec
from repro.fdfd.workspace import (
    FactorOptions,
    SimulationWorkspace,
    shared_workspace,
)

__all__ = ["HelmholtzSolver", "FdfdFields", "derive_h_fields"]


def derive_h_fields(dxf, dyf, omega: float, ez):
    """``(Hx, Hy)`` from ``Ez`` under the engineering time convention.

    The single source of the SC-PML sign convention: with the stretch
    ``s = 1 - i sigma / omega`` absorbing outgoing waves under
    ``e^{+i omega t}``, the curl relations give
    ``Hx = -d_y Ez / (i omega mu)`` and ``Hy = +d_x Ez / (i omega mu)``
    in natural units.  ``ez`` may be a flat vector or an ``(n, k)``
    block — sparse mat-vec and mat-mat both apply.
    """
    hx = -(dyf @ ez) / (1j * omega)
    hy = (dxf @ ez) / (1j * omega)
    return hx, hy


class FdfdFields:
    """Field solution bundle on the simulation grid.

    Attributes
    ----------
    ez:
        Out-of-plane electric field, shape ``(Nx, Ny)`` complex.
    hx, hy:
        In-plane magnetic fields derived from ``ez`` (same shape) on
        first access.  Port powers, adjoint sources and gradients read
        only ``ez``; only the Poynting-flux monitors read H.
    """

    def __init__(self, ez: np.ndarray, dxf, dyf, omega: float):
        self.ez = ez
        self._derive = (dxf, dyf, omega)
        self._h: tuple[np.ndarray, np.ndarray] | None = None

    def _h_fields(self) -> tuple[np.ndarray, np.ndarray]:
        if self._h is None:
            hx, hy = derive_h_fields(*self._derive, self.ez.ravel())
            self._h = (hx.reshape(self.ez.shape), hy.reshape(self.ez.shape))
        return self._h

    @property
    def hx(self) -> np.ndarray:
        return self._h_fields()[0]

    @property
    def hy(self) -> np.ndarray:
        return self._h_fields()[1]


class HelmholtzSolver:
    """Factorized FDFD operator for one permittivity map.

    Parameters
    ----------
    grid:
        Simulation window geometry.
    eps_r:
        Relative permittivity, shape ``grid.shape``, real (lossless).
    omega:
        Angular frequency in natural units (``2 pi / lambda_um``).
    pml:
        PML ramp specification.
    workspace:
        Cache provider.  ``"shared"`` (default) uses the process-wide
        :func:`~repro.fdfd.workspace.shared_workspace`; pass a private
        :class:`~repro.fdfd.workspace.SimulationWorkspace` for isolated
        caching, or ``None`` to rebuild everything per solver (the seed
        behaviour, used by cold-path benchmarks and identity tests).
    factor_options:
        SuperLU configuration for the *cold* path (``None`` means the
        tuned ``FactorOptions()``); a workspace applies its own
        ``factor_options`` so that cached factorizations are consistent.

    Notes
    -----
    Factorization cost dominates (~O(N^1.5) for 2-D grids with a good
    ordering); subsequent solves are cheap triangular sweeps.  The adjoint
    engine exploits ``solve_transposed`` so a gradient costs one extra
    sweep, not one extra factorization.
    """

    def __init__(
        self,
        grid: SimGrid,
        eps_r: np.ndarray,
        omega: float,
        pml: PMLSpec | None = None,
        workspace: SimulationWorkspace | None | str = "shared",
        factor_options: FactorOptions | None = None,
    ):
        eps_r = np.asarray(eps_r, dtype=np.float64)
        if eps_r.shape != grid.shape:
            raise ValueError(
                f"eps_r shape {eps_r.shape} does not match grid {grid.shape}"
            )
        if omega <= 0:
            raise ValueError(f"omega must be positive, got {omega}")
        self.grid = grid
        self.omega = float(omega)
        self.eps_r = eps_r
        if workspace == "shared":
            workspace = shared_workspace()

        if workspace is not None:
            assembly = workspace.assembly(grid, self.omega, pml)
            self.dxf = assembly.ops["dxf"]
            self.dyf = assembly.ops["dyf"]
            self.linsolver = workspace.linear_solver(assembly, eps_r)
            self.system_matrix = self.linsolver.matrix
        else:
            ops = build_derivative_ops(grid, self.omega, pml)
            laplacian = laplacian_from_ops(ops)
            self.dxf = ops["dxf"]
            self.dyf = ops["dyf"]
            self.system_matrix = (
                laplacian
                + sp.diags(self.omega**2 * eps_r.ravel(), format="csr")
            ).tocsc()
            options = factor_options or FactorOptions()
            self.linsolver = DirectSolver(
                self.system_matrix,
                options.factorize(self.system_matrix),
                SolveStats(),
            )

    @property
    def _lu(self):
        """Underlying SuperLU factors (LU-backed backends only)."""
        return self.linsolver.lu

    # ------------------------------------------------------------------ #
    def solve(self, source_jz: np.ndarray) -> FdfdFields:
        """Solve for the fields of a current distribution ``Jz``.

        Parameters
        ----------
        source_jz:
            Complex current sheet, shape ``grid.shape``.

        Returns
        -------
        FdfdFields
            ``ez``; ``hx = -d_y ez / (i omega)`` and
            ``hy = d_x ez / (i omega)`` are derived on first access.
        """
        source_jz = np.asarray(source_jz)
        if source_jz.shape != self.grid.shape:
            raise ValueError(
                f"source shape {source_jz.shape} != grid {self.grid.shape}"
            )
        b = (-1j * self.omega) * source_jz.ravel().astype(np.complex128)
        ez = self.linsolver.solve(b).reshape(self.grid.shape)
        return FdfdFields(ez, self.dxf, self.dyf, self.omega)

    def solve_raw(self, rhs_flat: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for an arbitrary flattened right-hand side."""
        return self.linsolver.solve(np.asarray(rhs_flat, dtype=np.complex128))

    def solve_many(self, rhs_block: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve for an ``(n, k)`` block of right-hand sides at once.

        The ``direct`` backend hands the block to SuperLU in a single
        matrix-RHS call; ``krylov-block`` runs every column through one
        blocked BiCGStab solve of its one-system corner block
        (:meth:`~repro.fdfd.linalg.CornerBlockSolver.solve_columns`), or
        through one matrix-RHS call when the system has an exact LU.
        """
        return self.linsolver.solve_many(
            np.asarray(rhs_block, dtype=np.complex128), trans=trans
        )

    def solve_transposed(self, rhs_flat: np.ndarray) -> np.ndarray:
        """Solve ``A^T x = rhs`` — the adjoint system.

        LU-backed solvers reuse the forward factors (``L U = P A Q``
        implies ``A^T = Q U^T L^T P``).  The Krylov solver uses the
        diagonal symmetrizer ``S`` of the SC-PML operator
        (``A^T = S A S^-1``) and solves ``S A^-1 S^-1 b`` with
        ``trans="N"`` sweeps of the anchor LU.  Either way, no second
        factorization is needed.
        """
        return self.linsolver.solve(
            np.asarray(rhs_flat, dtype=np.complex128), trans="T"
        )
