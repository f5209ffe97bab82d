"""Per-matrix Krylov solves: a one-system corner block.

Fabrication corners differ from the nominal design only inside the
design window (plus a uniform temperature scale), so the nominal
corner's LU is an excellent preconditioner for every other corner of an
iteration.  Most corner solves ride one blocked solve per family
(:class:`~repro.fdfd.linalg.blocked.CornerBlockSolver`, which also
serves the forward solves of remote workers); the rest — the
calibration environments — are solves against one matrix, served here
by the same kernel with a single system against the float64 LU of the
nearest anchor.

Robustness comes from the kernel: each solve starts from ``M^{-1} b``
(exact when the matrix *is* the anchor), every converged column is
certified against the true operator, and a column that misses the
(deliberately small) iteration budget falls back to a direct
factorization — which the workspace then recycles as a new
preconditioner anchor, so an off-manifold permittivity (a calibration
environment, a far Monte-Carlo sample) pays the factorization once and
seeds its own anchor family.  Later solves on this matrix then reuse
that factorization.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fdfd.linalg.base import (
    LinearSolver,
    SolveStats,
    SolverConfig,
    register_solver,
)
from repro.fdfd.linalg.blocked import CornerBlockSolver

__all__ = ["PreconditionedKrylovSolver"]


@register_solver("krylov-block")
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

    #: The workspace hands this backend whole corner families as well
    #: (:meth:`SimulationWorkspace.begin_corner_block`).
    supports_corner_block = True

    def __init__(self, matrix: sp.csc_matrix, kernel: CornerBlockSolver):
        super().__init__(matrix, kernel.stats)
        self._kernel = kernel
        self.diagnostics = kernel.diagnostics

    @classmethod
    def build(
        cls,
        matrix: sp.csc_matrix,
        factor_options,
        config: SolverConfig | None = None,
        stats: SolveStats | None = None,
        *,
        assembly,
        eps: np.ndarray,
        preconditioner,
        anchor_eps: np.ndarray,
        on_fallback=None,
        **_ignored,
    ) -> "PreconditionedKrylovSolver":
        """Wrap a one-system kernel for ``eps`` on ``assembly``.

        ``preconditioner`` is the float64 LU of ``anchor_eps``.
        ``on_fallback(0, direct)`` is called with the fallback
        :class:`DirectSolver` so the owner can recycle its LU as a new
        preconditioner anchor.
        """
        kernel = CornerBlockSolver(
            assembly,
            [eps],
            preconditioner,
            None,
            factor_options,
            config or SolverConfig(backend="krylov-block"),
            stats,
            on_fallback,
            anchor_eps=anchor_eps,
        )
        return cls(matrix, kernel)

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
