"""Block-corner Krylov backend: one blocked BiCGStab across all corners.

Every fabrication corner of an optimizer iteration shares the
PML-stretched Laplacian ``L`` and differs only on the diagonal
``omega^2 eps_c``.  The scalar ``krylov`` backend already recycles the
nominal corner's LU as a preconditioner across those corners, but still
pays its ~3 preconditioner sweeps *per corner, one right-hand side at a
time* — each sweep a separate SciPy call with two per-column triangular
solves and two per-column matvecs.

This module restructures the corner fan-out around a single block
operator, in the spirit of block Krylov methods for
parameterized systems:

``CornerBlockSolver``
    Holds the shared Laplacian plus one diagonal per corner.  Its
    blocked BiCGStab stacks every corner's residual into an ``(n, k)``
    block, so each sweep applies the recycled anchor LU to the whole
    block in a *single* SuperLU matrix-RHS call and evaluates
    ``A_c x_c`` for all columns through one shared ``L @ X`` sparse
    mat-mat product plus a columnwise diagonal term.  Columns converge
    (and leave the active block) independently; a column that exhausts
    the iteration budget falls back to a direct factorization of *its*
    corner, which re-anchors the workspace exactly like the scalar
    path's fallback.

``BlockedKrylovSolver``
    The registry entry (``"krylov-block"``).  Per-matrix behaviour is
    inherited from :class:`PreconditionedKrylovSolver` (calibration
    runs and the forward solves of process/remote workers keep working
    unchanged); its :meth:`corner_block` classmethod is the
    seam :meth:`SimulationWorkspace.begin_corner_block` uses to build
    the block operator for one iteration's corner family.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np
import scipy.sparse.linalg as spla

from repro.fdfd.linalg.base import (
    LinearSolver,
    SolveStats,
    SolverConfig,
    register_solver,
)
from repro.fdfd.linalg.direct import DirectSolver
from repro.fdfd.linalg.krylov import PreconditionedKrylovSolver
from repro.obs.trace import span

__all__ = ["BlockedKrylovSolver", "CornerBlockSolver", "BlockDiagnostics"]


class BlockDiagnostics:
    """Per-block-solver convergence record (inspected by tests/benchmarks)."""

    def __init__(self):
        self.block_solves = 0
        self.sweeps = 0
        self.columns = 0
        self.exact_columns = 0
        self.fallback_columns = 0
        self.column_iterations: list[int] = []

    @property
    def mean_column_iterations(self) -> float:
        if not self.column_iterations:
            return 0.0
        return float(np.mean(self.column_iterations))

    @property
    def sweeps_per_block(self) -> float:
        return self.sweeps / self.block_solves if self.block_solves else 0.0


class CornerBlockSolver:
    """Blocked BiCGStab over one iteration's corner family.

    Parameters
    ----------
    assembly:
        The shared :class:`~repro.fdfd.workspace.FdfdAssembly` — supplies
        the cached CSC Laplacian, the ``omega`` scale and the fallback
        matrix assembly.
    eps_list:
        One permittivity map per corner *system*.  Multiple right-hand
        -side columns may map onto one system (the isolator's fwd/bwd
        directions), see ``systems`` in :meth:`solve_block`.
    preconditioner:
        The recycled anchor LU shared by the whole block (the nominal
        corner's factorization under the optimizer's epoch policy).
    exact_lus:
        ``{system index: SuperLU}`` for systems whose permittivity *is*
        an existing anchor — those columns are solved exactly, matching
        the scalar path where the anchor corner gets a
        :class:`DirectSolver`.
    factor_options / config / stats:
        As for the scalar Krylov backend.
    on_fallback:
        ``on_fallback(system_index, direct_solver)`` — called when a
        column's system had to be factorized directly so the owner can
        recycle the LU as a new preconditioner anchor.
    """

    def __init__(
        self,
        assembly,
        eps_list,
        preconditioner: spla.SuperLU | None,
        exact_lus: Mapping[int, spla.SuperLU] | None,
        factor_options,
        config: SolverConfig,
        stats: SolveStats | None = None,
        on_fallback: Callable[[int, DirectSolver], None] | None = None,
    ):
        if not eps_list:
            raise ValueError("corner block needs at least one system")
        self.assembly = assembly
        self.eps_list = [np.asarray(e, dtype=np.float64) for e in eps_list]
        self.n_systems = len(self.eps_list)
        self._laplacian = assembly.laplacian_csc
        self._laplacian_t = self._laplacian.T  # CSR view, no copy
        # (n, n_systems): the only thing distinguishing the corners.
        self.diags = np.stack(
            [assembly.omega**2 * e.ravel() for e in self.eps_list], axis=1
        )
        self._precond = preconditioner
        self._exact: dict[int, spla.SuperLU] = dict(exact_lus or {})
        # Fallback factorizations are shared between systems carrying
        # byte-identical permittivities (degenerate corner families):
        # `_canonical[i]` is the first system whose diagonal equals
        # system i's, and `_direct` is keyed by canonical index only.
        self._canonical: list[int] = []
        for i in range(self.n_systems):
            for j in range(i):
                if np.array_equal(self.diags[:, i], self.diags[:, j]):
                    self._canonical.append(self._canonical[j])
                    break
            else:
                self._canonical.append(i)
        self._direct: dict[int, DirectSolver] = {}
        self._factor_options = factor_options
        self.config = config
        self.stats = stats or SolveStats()
        self._on_fallback = on_fallback
        # Mixed-precision sweeps: the preconditioner applies in float32
        # (a SinglePrecisionLU twin), so prepend float64-residual
        # iterative refinement before the BiCGStab recurrences.
        self._mixed = (
            config.precond_dtype == "float32" and preconditioner is not None
        )
        self.diagnostics = BlockDiagnostics()

    # ------------------------------------------------------------------ #
    # Block operator / preconditioner applications                       #
    # ------------------------------------------------------------------ #
    def _apply_operator(
        self, block: np.ndarray, diag_cols: np.ndarray, trans: str
    ) -> np.ndarray:
        """``A_c x_c`` for every column: one shared ``L @ X`` + diagonal.

        ``diag_cols`` is the per-column diagonal block (pre-gathered once
        per solve, compacted alongside the iteration state).
        """
        if trans == "T":
            out = self._laplacian_t @ block
        else:
            out = self._laplacian @ block
        out += diag_cols * block
        return out

    def _apply_preconditioner(self, block: np.ndarray, trans: str) -> np.ndarray:
        """Anchor LU over the whole block — a single matrix-RHS sweep."""
        if self._precond is None:
            return block.copy()
        return np.asarray(
            self._precond.solve(np.ascontiguousarray(block), trans=trans)
        )

    def _lu_for_system(self, system: int) -> spla.SuperLU | None:
        canonical = self._canonical[system]
        if canonical in self._direct:
            return self._direct[canonical].lu
        return self._exact.get(system)

    def _fallback_solver(self, system: int) -> DirectSolver:
        system = self._canonical[system]
        solver = self._direct.get(system)
        if solver is None:
            matrix = self.assembly.system_matrix(self.eps_list[system])
            solver = DirectSolver.build(
                matrix, self._factor_options, stats=self.stats
            )
            self.stats.add(fallbacks=1)
            self._direct[system] = solver
            if self._on_fallback is not None:
                self._on_fallback(system, solver)
        return solver

    # ------------------------------------------------------------------ #
    # Public entry point                                                 #
    # ------------------------------------------------------------------ #
    def solve_block(
        self,
        rhs: np.ndarray,
        systems: np.ndarray | None = None,
        trans: str = "N",
    ) -> np.ndarray:
        """Solve ``A_{systems[j]} x_j = rhs[:, j]`` for every column.

        Parameters
        ----------
        rhs:
            ``(n, k)`` complex block of right-hand sides.
        systems:
            Column-to-system mapping (default ``arange(k)``, requiring
            one column per system).  Repeated entries are how
            multi-direction devices batch fwd+bwd columns of one corner.
        trans:
            ``"N"`` for ``A x = b``, ``"T"`` for the adjoint systems.
        """
        LinearSolver._check_trans(trans)
        block = np.asarray(rhs, dtype=np.complex128)
        if block.ndim != 2:
            raise ValueError(
                f"solve_block expects an (n, k) block, got {block.shape}"
            )
        k = block.shape[1]
        if systems is None:
            if k != self.n_systems:
                raise ValueError(
                    f"{k} columns for {self.n_systems} systems; pass an "
                    "explicit column-to-system mapping"
                )
            systems = np.arange(k)
        else:
            systems = np.asarray(systems, dtype=np.intp)
            if systems.shape != (k,):
                raise ValueError(
                    f"systems mapping shape {systems.shape} != ({k},)"
                )
            if k and (systems.min() < 0 or systems.max() >= self.n_systems):
                raise ValueError("systems mapping indexes out of range")

        self.stats.add(solves=1, rhs_columns=k, block_solves=1, block_columns=k)
        self.diagnostics.block_solves += 1
        self.diagnostics.columns += k
        out = np.empty_like(block)

        # Columns whose system already owns an exact factorization (an
        # anchor, or an earlier fallback of this block) are solved
        # directly — the scalar path gives the anchor corner a
        # DirectSolver; this is its block equivalent.
        exact_mask = np.array(
            [self._lu_for_system(int(s)) is not None for s in systems]
        )
        for system in np.unique(systems[exact_mask]):
            cols = np.flatnonzero(exact_mask & (systems == system))
            lu = self._lu_for_system(int(system))
            with span("solver.block_exact", "solver", columns=len(cols)):
                out[:, cols] = lu.solve(
                    np.ascontiguousarray(block[:, cols]), trans=trans
                )
            self.diagnostics.exact_columns += len(cols)

        iter_cols = np.flatnonzero(~exact_mask)
        if iter_cols.size == 0:
            return out

        with span("solver.block_sweeps", "solver",
                  columns=int(iter_cols.size)) as sweep_span:
            x, converged, iters, sweeps, refined = self._bicgstab_block(
                block[:, iter_cols], systems[iter_cols], trans
            )
            sweep_span.set(sweeps=sweeps, refinement_sweeps=refined)
        self.stats.add(block_sweeps=sweeps, refinement_sweeps=refined)
        self.stats.record_block_sweeps(sweeps)
        self.diagnostics.sweeps += sweeps
        # Convergence record: converged columns only — a fallback column's
        # burnt budget lands in stats.wasted_iterations, not in the mean.
        self.diagnostics.column_iterations.extend(
            int(i) for i, c in zip(iters, converged) if c
        )
        ok = np.flatnonzero(converged)
        out[:, iter_cols[ok]] = x[:, ok]
        self.stats.add(
            krylov_solves=int(ok.size), iterations=int(iters[ok].sum())
        )

        bad = np.flatnonzero(~converged)
        if bad.size:
            self.stats.add(wasted_iterations=int(iters[bad].sum()))
            if not self.config.fallback:
                raise RuntimeError(
                    f"blocked bicgstab did not converge on {bad.size} of "
                    f"{iter_cols.size} columns within maxiter="
                    f"{self.config.maxiter} (tol={self.config.tol}) and "
                    "fallback is disabled"
                )
            bad_cols = iter_cols[bad]
            for system in np.unique(systems[bad_cols]):
                cols = bad_cols[systems[bad_cols] == system]
                solver = self._fallback_solver(int(system))
                with span("solver.block_fallback", "solver",
                          columns=len(cols)):
                    out[:, cols] = solver.lu.solve(
                        np.ascontiguousarray(block[:, cols]), trans=trans
                    )
                self.diagnostics.fallback_columns += len(cols)
        return out

    # ------------------------------------------------------------------ #
    # Blocked BiCGStab with per-column convergence masking               #
    # ------------------------------------------------------------------ #
    def _bicgstab_block(
        self, b: np.ndarray, systems: np.ndarray, trans: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        """Returns ``(x, converged_mask, per_column_iterations, sweeps,
        refinement_sweeps)``.

        The recurrences are the standard per-column BiCGStab scalars; the
        vector operations run over the whole *active* block, so each
        sweep costs at most two blocked preconditioner applications and
        two blocked operator applications regardless of how many columns
        are in flight.  A column whose half-step residual ``s`` already
        meets tolerance skips the second application pair.  The
        iteration state lives in *compacted* arrays that are re-sliced
        only when a column leaves the active set (converged or broken
        down) — steady-state sweeps touch no fancy indexing, so the
        per-sweep overhead stays proportional to the live columns.
        Breakdown columns (vanishing ``rho``/``denominator``, non-finite
        residuals) are flagged for the per-corner direct fallback.

        Under ``precond_dtype=float32`` a float64-residual iterative
        refinement pre-phase runs before the recurrences (one
        preconditioner + one operator application per sweep, half a
        BiCGStab sweep's cost, with a stall guard falling through to the
        full recurrences).
        """
        n, m = b.shape
        bnorm = np.linalg.norm(b, axis=0)
        thresh_full = self.config.tol * bnorm

        # Seed with the anchor's solution M^{-1} b, like the scalar path.
        x_out = self._apply_preconditioner(b, trans)
        zero_rhs = bnorm == 0.0
        if zero_rhs.any():
            x_out[:, zero_rhs] = 0.0
        r0 = b - self._apply_operator(x_out, self.diags[:, systems], trans)

        rnorm0 = np.linalg.norm(r0, axis=0)
        converged = (rnorm0 <= thresh_full) | zero_rhs
        failed = ~np.isfinite(rnorm0)
        iters = np.zeros(m, dtype=np.int64)
        sweeps = 0
        refinement = 0

        # Compacted working set: `cols` maps working position -> input
        # column; all state arrays below share that column order.
        keep = ~(converged | failed)
        cols = np.flatnonzero(keep)
        if cols.size == 0:
            return x_out, converged, iters, sweeps, refinement
        x = x_out[:, cols].copy()
        r = r0[:, cols].copy()
        diag_cols = self.diags[:, systems[cols]]
        thresh = thresh_full[cols]

        if self._mixed:
            # Iterative refinement against the float64 residual: the
            # float32 sweeps' rounding lands in the correction, not the
            # accumulated solution, so the achieved tolerance matches
            # the float64 path.  Each sweep is one preconditioner + one
            # operator application (a BiCGStab sweep pays two of each);
            # a column whose residual stops halving falls through to
            # the full recurrences with its refined state.
            prev = np.linalg.norm(r, axis=0)
            improving = np.ones(cols.size, dtype=bool)
            for _ in range(self.config.maxiter):
                tgt = np.flatnonzero(improving & (prev > thresh))
                if tgt.size == 0:
                    break
                refinement += 1
                dx = self._apply_preconditioner(
                    np.ascontiguousarray(r[:, tgt]), trans
                )
                correction = self._apply_operator(
                    dx, diag_cols[:, tgt], trans
                )
                new = np.linalg.norm(r[:, tgt] - correction, axis=0)
                # Stall guard: apply the sweep only where it shrank the
                # float64 residual; a column that stops halving stops
                # refining (keeping its progress) and falls through to
                # the full recurrences.
                ok = np.isfinite(new) & (new < prev[tgt])
                good = tgt[ok]
                if good.size:
                    x[:, good] += dx[:, ok]
                    r[:, good] -= correction[:, ok]
                improving[tgt] = ok & (new <= 0.5 * prev[tgt])
                prev[good] = new[ok]
            done = prev <= thresh
            if done.any():
                converged[cols[done]] = True
                x_out[:, cols[done]] = x[:, done]
                live = ~done
                cols = cols[live]
                x = x[:, live]
                r = r[:, live]
                diag_cols = diag_cols[:, live]
                thresh = thresh[live]
                if cols.size == 0:
                    return x_out, converged, iters, sweeps, refinement

        r_hat = r.copy()
        p = np.zeros_like(r)
        v = np.zeros_like(r)
        rho_old = np.ones(cols.size, dtype=np.complex128)
        alpha = np.ones(cols.size, dtype=np.complex128)
        omega = np.ones(cols.size, dtype=np.complex128)

        for _ in range(self.config.maxiter):
            sweeps += 1
            iters[cols] += 1

            rho_new = np.einsum("ij,ij->j", np.conj(r_hat), r)
            rho_bad = ~np.isfinite(rho_new) | (np.abs(rho_new) == 0.0)
            # First sweep: p and v are zero, so this reduces to p = r.
            beta = (rho_new / rho_old) * (alpha / omega)
            p = r + beta * (p - omega * v)

            p_hat = self._apply_preconditioner(p, trans)
            v = self._apply_operator(p_hat, diag_cols, trans)
            denom = np.einsum("ij,ij->j", np.conj(r_hat), v)
            denom_bad = ~np.isfinite(denom) | (np.abs(denom) == 0.0)
            alpha = rho_new / np.where(denom_bad, 1.0, denom)
            s = r - alpha * v
            snorm = np.linalg.norm(s, axis=0)
            s_done = snorm <= thresh

            # Columns whose ``s`` already met tolerance take the half step
            # x + alpha p_hat and leave the working set below (the omega
            # update would divide by a vanishing t); only the others pay
            # the second preconditioner and operator application.
            r = s
            rnorm = snorm
            tt_bad = np.zeros(cols.size, dtype=bool)
            if s_done.any():
                x[:, s_done] += alpha[s_done] * p_hat[:, s_done]
            if not s_done.all():
                a = slice(None) if not s_done.any() else np.flatnonzero(~s_done)
                s_a = s[:, a]
                s_hat = self._apply_preconditioner(s_a, trans)
                t = self._apply_operator(s_hat, diag_cols[:, a], trans)
                tt = np.einsum("ij,ij->j", np.conj(t), t).real
                tt_bad[a] = tt == 0.0
                omega[a] = np.einsum("ij,ij->j", np.conj(t), s_a) / np.where(
                    tt == 0.0, 1.0, tt
                )
                x[:, a] += alpha[a] * p_hat[:, a] + omega[a] * s_hat
                r[:, a] -= omega[a] * t
                rnorm[a] = np.linalg.norm(r[:, a], axis=0)

            bad = rho_bad | ((denom_bad | tt_bad) & ~s_done)
            bad |= ~np.isfinite(rnorm)
            done = (rnorm <= thresh) & ~bad
            rho_old = rho_new

            if done.any() or bad.any():
                # Columns leave the working set: publish their state and
                # compact every live array once.
                converged[cols[done]] = True
                failed[cols[bad]] = True
                x_out[:, cols[done]] = x[:, done]
                live = ~(done | bad)
                if not live.any():
                    break
                cols = cols[live]
                x = x[:, live]
                r = r[:, live]
                r_hat = r_hat[:, live]
                p = p[:, live]
                v = v[:, live]
                diag_cols = diag_cols[:, live]
                thresh = thresh[live]
                rho_old = rho_old[live]
                alpha = alpha[live]
                omega = omega[live]

        # Unconverged stragglers: publish whatever they reached (unused —
        # the caller routes them to the direct fallback).
        still = np.flatnonzero(~(converged | failed))
        if still.size:
            live = np.isin(cols, still)
            x_out[:, cols[live]] = x[:, live]
        return x_out, converged, iters, sweeps, refinement


@register_solver("krylov-block")
class BlockedKrylovSolver(PreconditionedKrylovSolver):
    """Corner-block-capable Krylov backend.

    Per-matrix solves (calibration environments, the forward solves of
    process/remote workers) behave exactly like the scalar
    ``krylov`` backend — this class only *adds* the corner-block seam
    that :meth:`SimulationWorkspace.begin_corner_block` drives.  The
    block algorithm is always blocked BiCGStab;
    ``SolverConfig.krylov_method`` still selects the method used by the
    scalar per-matrix fallback path.
    """

    supports_corner_block = True

    @classmethod
    def corner_block(
        cls,
        assembly,
        eps_list,
        preconditioner: spla.SuperLU | None,
        exact_lus: Mapping[int, spla.SuperLU] | None,
        factor_options,
        config: SolverConfig,
        stats: SolveStats | None = None,
        on_fallback=None,
    ) -> CornerBlockSolver:
        """Build the block operator for one iteration's corner family."""
        return CornerBlockSolver(
            assembly,
            eps_list,
            preconditioner,
            exact_lus,
            factor_options,
            config,
            stats,
            on_fallback,
        )
