"""Per-matrix Krylov solves: a one-system corner block.

Fabrication corners differ from the nominal design only inside the
design window (plus a uniform temperature scale), so the nominal
corner's LU is an excellent preconditioner for every other corner of an
iteration.  Every library corner solve rides a blocked solve
(:class:`~repro.fdfd.linalg.blocked.CornerBlockSolver`: one per corner
family in the serial fan-out, one per corner on a remote worker), and
device calibration runs are solved exactly by fast diagonalization
(:meth:`~repro.fdfd.workspace.FdfdAssembly.solve_x_invariant`).  What
is left here is the backend's answer to a direct
:meth:`~repro.fdfd.workspace.SimulationWorkspace.linear_solver` call (a
:class:`~repro.fdfd.solver.HelmholtzSolver` on a ``krylov-block``
workspace).  The workspace opens a one-system corner block for it,
under the same anchor policy as a corner family.  A system with an
exact LU gets a :class:`~repro.fdfd.linalg.direct.DirectSolver`, and
any other gets this adapter over the block.

Robustness comes from the kernel: each solve starts from ``M^{-1} b``,
every converged column is certified against the true operator, and a
column that misses the (deliberately small) iteration budget falls
back to a direct factorization.  The workspace then recycles that
factorization as a new preconditioner anchor, so an off-manifold
permittivity pays the factorization once and seeds its own anchor
family.  Later solves on this matrix reuse that factorization.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fdfd.linalg.base import LinearSolver
from repro.fdfd.linalg.blocked import CornerBlockSolver

__all__ = ["PreconditionedKrylovSolver"]


class PreconditionedKrylovSolver(LinearSolver):
    """BiCGStab on one matrix, preconditioned by a recycled nearby LU.

    A thin adapter over a one-system :class:`CornerBlockSolver`: every
    right-hand-side column maps to system 0.  It enters the kernel below
    :meth:`CornerBlockSolver.solve_block`, so its solves count as
    ``krylov_solves`` / ``iterations`` (and ``wasted_iterations`` /
    ``fallbacks``), never as ``block_*`` work.

    Parameters
    ----------
    matrix:
        The system matrix (CSC); kept as :attr:`matrix` for callers that
        apply the operator themselves.
    kernel:
        The one-system block solver that does the work.
    """

    def __init__(self, matrix: sp.csc_matrix, kernel: CornerBlockSolver):
        super().__init__(matrix, kernel.stats)
        self._kernel = kernel
        self.diagnostics = kernel.diagnostics

    # ------------------------------------------------------------------ #
    # Both entry points live on this class, not only on LinearSolver:
    # perfbench/layers.py times the ``linalg.krylov`` layer by wrapping
    # them here by name.
    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.complex128)
        return self.solve_many(rhs[:, None], trans=trans)[:, 0]

    def solve_many(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        self._check_trans(trans)
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.ndim != 2:
            raise ValueError(f"solve_many expects an (n, k) block, got {rhs.shape}")
        k = rhs.shape[1]
        self.stats.add(solves=1, rhs_columns=k)
        out, _ = self._kernel.solve_columns(
            rhs, np.zeros(k, dtype=np.intp), trans
        )
        return out

    @property
    def lu(self):
        """The fallback LU if one was built (there is no LU otherwise)."""
        return self._kernel.system_lu(0)
