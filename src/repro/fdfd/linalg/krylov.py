"""LU-preconditioned Krylov backend with cross-corner factorization reuse.

Fabrication corners differ from the nominal design only inside the
design window (plus a uniform temperature scale), so the nominal
corner's LU is an excellent preconditioner for every other corner of an
iteration: ``M^{-1} A`` clusters near identity and BiCGStab converges in
a handful of sweeps — each costing two matvecs and two triangular
solves, far less than the fresh factorization the direct path pays per
corner.  This is the shift-invert / Woodbury-style factorization reuse
the ROADMAP calls for, in iterative form.

Robustness: the preconditioned solve starts from ``x0 = M^{-1} b``
(exact when the corner *is* the anchor), and a solve that fails to reach
tolerance within the (deliberately small) iteration budget falls back to
a direct factorization — which the workspace then recycles as a new
preconditioner anchor, so an off-manifold permittivity (a calibration
environment, a far Monte-Carlo sample) pays the factorization once and
seeds its own anchor family.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.fdfd.linalg.base import (
    LinearSolver,
    SolveStats,
    SolverConfig,
    register_solver,
)
from repro.fdfd.linalg.direct import DirectSolver
from repro.obs.trace import span

__all__ = ["PreconditionedKrylovSolver", "KrylovDiagnostics"]


class KrylovDiagnostics:
    """Per-solver convergence record (inspected by tests / benchmarks)."""

    def __init__(self):
        self.solves = 0
        self.iterations = 0
        self.fallbacks = 0

    @property
    def mean_iterations(self) -> float:
        return self.iterations / self.solves if self.solves else 0.0


@register_solver("krylov")
class PreconditionedKrylovSolver(LinearSolver):
    """BiCGStab/GMRES on ``A`` preconditioned by a recycled nearby LU.

    Parameters
    ----------
    matrix:
        The corner's system matrix (CSC).
    preconditioner:
        SuperLU factorization of a *nearby* matrix (the workspace's
        nearest anchor — typically the nominal corner of the current
        iteration).  ``None`` degrades to an unpreconditioned solve,
        which for Helmholtz essentially guarantees the direct fallback;
        the workspace never does this in practice.
    factor_options:
        Configuration for the fallback factorization.
    config:
        Tolerance / iteration budget / method / fallback policy.
    stats:
        Workspace-wide counters.
    on_fallback:
        Called with the fallback :class:`DirectSolver` so the owner can
        recycle its LU as a new preconditioner anchor.
    """

    #: The workspace supplies a recycled anchor LU at construction.
    uses_preconditioner = True

    def __init__(
        self,
        matrix: sp.csc_matrix,
        preconditioner: spla.SuperLU | None,
        factor_options,
        config: SolverConfig,
        stats: SolveStats | None = None,
        on_fallback: Callable[[DirectSolver], None] | None = None,
    ):
        super().__init__(matrix, stats)
        self._precond = preconditioner
        self._factor_options = factor_options
        self.config = config
        self._on_fallback = on_fallback
        self._direct: DirectSolver | None = None
        self._ops: dict[str, tuple] = {}
        self.diagnostics = KrylovDiagnostics()

    @classmethod
    def build(
        cls,
        matrix: sp.csc_matrix,
        factor_options,
        config: SolverConfig | None = None,
        stats: SolveStats | None = None,
        preconditioner: spla.SuperLU | None = None,
        on_fallback=None,
        **_ignored,
    ) -> "PreconditionedKrylovSolver":
        return cls(
            matrix,
            preconditioner,
            factor_options,
            config or SolverConfig(backend="krylov"),
            stats,
            on_fallback,
        )

    # ------------------------------------------------------------------ #
    def _operators(self, trans: str):
        """(A, M) operator pair for one orientation, built lazily.

        ``A`` stays in its stored layout (``csc.T`` is already a CSR view
        for the transposed system; converting buys nothing at the few
        matvecs a preconditioned solve needs); ``M`` applies the recycled
        LU with matching orientation (``L U = P A Q`` serves ``A^T`` via
        ``trans='T'``).
        """
        cached = self._ops.get(trans)
        if cached is None:
            a = self.matrix if trans == "N" else self.matrix.T
            m = None
            if self._precond is not None:
                lu = self._precond
                n = self.matrix.shape[0]
                m = spla.LinearOperator(
                    (n, n),
                    matvec=lambda x, _t=trans: lu.solve(
                        np.asarray(x, dtype=np.complex128), trans=_t
                    ),
                    dtype=np.complex128,
                )
            cached = (a, m)
            self._ops[trans] = cached
        return cached

    def _ensure_direct(self) -> DirectSolver:
        if self._direct is None:
            # Post-fallback multi-RHS blocks then go through one SuperLU
            # matrix-RHS sweep instead of k round-trips.
            self._direct = DirectSolver.build(
                self.matrix, self._factor_options, stats=self.stats
            )
            self.stats.add(fallbacks=1)
            self.diagnostics.fallbacks += 1
            if self._on_fallback is not None:
                self._on_fallback(self._direct)
        return self._direct

    # ------------------------------------------------------------------ #
    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        self._check_trans(trans)
        b = np.asarray(rhs, dtype=np.complex128)
        if self._direct is not None:
            # A previous solve already fell back; the factorization is
            # paid for, so keep using it.
            return self._direct.solve(b, trans=trans)

        a, m = self._operators(trans)
        # Seed with the anchor's solution M^{-1} b: exact when this
        # matrix *is* the anchor, and for FDFD's structured sources a far
        # better start than zero (physical sources concentrate b on a
        # line; the nominal field is already the right global shape).
        x0 = None if m is None else m.matvec(b)
        iters = 0

        def count(_arg):
            nonlocal iters
            iters += 1

        with span("solver.krylov", "solver",
                  method=self.config.krylov_method) as sp_handle:
            if self.config.krylov_method == "gmres":
                # GMRES counts outer restart cycles; size the cycles so
                # the total inner-iteration budget matches config.maxiter
                # exactly: `full` whole-restart cycles, then one clamped
                # cycle of the remainder (a single ceil-divided outer
                # count would overshoot by up to restart-1 iterations).
                restart = min(self.config.gmres_restart, self.config.maxiter)
                full, rem = divmod(self.config.maxiter, restart)
                x, info = spla.gmres(
                    a,
                    b,
                    x0=x0,
                    rtol=self.config.tol,
                    restart=restart,
                    maxiter=full,
                    M=m,
                    callback=count,
                    callback_type="pr_norm",
                )
                if info != 0 and rem:
                    x, info = spla.gmres(
                        a,
                        b,
                        x0=x,
                        rtol=self.config.tol,
                        restart=rem,
                        maxiter=1,
                        M=m,
                        callback=count,
                        callback_type="pr_norm",
                    )
            else:
                x, info = spla.bicgstab(
                    a,
                    b,
                    x0=x0,
                    rtol=self.config.tol,
                    maxiter=self.config.maxiter,
                    M=m,
                    callback=count,
                )
            sp_handle.set(iterations=iters, converged=info == 0)
        if info == 0:
            self.stats.add(
                solves=1, rhs_columns=1, krylov_solves=1, iterations=iters
            )
            self.diagnostics.solves += 1
            self.diagnostics.iterations += iters
            return x
        # The failed attempt is not a completed solve: record only its
        # burnt sweeps, and let the direct fallback count the solve
        # (otherwise one logical solve inflates solves/krylov_solves and
        # skews the mean-iterations evidence in the benchmark report).
        self.stats.add(wasted_iterations=iters)
        if not self.config.fallback:
            raise RuntimeError(
                f"{self.config.krylov_method} did not converge "
                f"(info={info}, iterations={iters}, tol={self.config.tol}) "
                "and fallback is disabled"
            )
        return self._ensure_direct().solve(b, trans=trans)

    def solve_many(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        self._check_trans(trans)
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.ndim != 2:
            raise ValueError(f"solve_many expects an (n, k) block, got {rhs.shape}")
        if self._direct is not None:
            # A previous solve already fell back: the factorization is
            # paid for, so hand the whole block to one SuperLU matrix-RHS
            # sweep instead of paying k per-column round-trips.
            return self._direct.solve_many(rhs, trans=trans)
        out = np.empty_like(rhs)
        for j in range(rhs.shape[1]):
            if self._direct is not None:
                # A column of *this* block fell back: the factorization
                # is paid for, so sweep every remaining column through
                # one SuperLU matrix-RHS call instead of per-column
                # round-trips through solve().
                out[:, j:] = self._direct.solve_many(rhs[:, j:], trans=trans)
                break
            out[:, j] = self.solve(rhs[:, j], trans=trans)
        return out

    @property
    def lu(self):
        """The fallback LU if one was built (there is no LU otherwise)."""
        return None if self._direct is None else self._direct.lu
