"""The blocked BiCGStab kernel behind every ``krylov-block`` solve.

Every fabrication corner of an optimizer iteration shares the
PML-stretched Laplacian ``L`` and differs only on the diagonal
``omega^2 eps_c``, so the nominal corner's LU is an excellent
preconditioner for all of its siblings: ``M^{-1} A`` clusters near
identity and BiCGStab converges in a handful of sweeps.

``CornerBlockSolver``
    Holds one diagonal per corner *system* plus the anchor's.  Its
    blocked BiCGStab stacks every column's residual into an ``(n, k)``
    block, so each sweep applies the recycled anchor LU to the whole
    block in a *single* SuperLU matrix-RHS call.  Its cost model rests
    on two exact identities of the FDFD operator:

    * *Symmetrized adjoints.*  The SC-PML operator is diagonally
      symmetrizable, ``A^T = S A S^-1`` with ``S`` the integer-point
      stretch factors (:attr:`FdfdAssembly.symmetrizer`), so an adjoint
      block is the forward block ``S A^-1 S^-1 b``: every triangular
      sweep runs ``trans="N"``, which SuperLU does a whole block at a
      time (its ``trans="T"`` path goes column by column, ~1.5x slower).
    * *Residuals live on Omega.*  With the float64 anchor LU ``M = A_a``
      and ``A_c = A_a + diag(delta_c)``, the seed residual is
      ``-delta_c * M^-1 b`` and ``A_c M^-1 y = y + delta_c * M^-1 y``,
      so every residual-space vector is supported on Omega, the union
      of the ``delta_c`` supports (the design window, plus the
      waveguides when a corner rescales the background).  The
      recurrences run on those rows only; the preconditioner solve and
      the ``x`` update are the only full-grid work per sweep, and no
      ``L @ X`` product runs per sweep at all.

    Each column the recurrences report converged is checked once
    against the real operator of the caller's (trans-aware) system —
    one sparse matvec per column per solve — and a miss, like a column
    that exhausts the iteration budget, falls back to a direct
    factorization of *its* system, which the workspace recycles as a
    new preconditioner anchor.

    Two entry points share the kernel: :meth:`~CornerBlockSolver.solve_block`
    serves a corner family (it counts ``block_*`` work), and
    :meth:`~CornerBlockSolver.solve_columns` serves
    :class:`~repro.fdfd.linalg.krylov.PreconditionedKrylovSolver`, the
    per-matrix solver, whose solves are a one-system block.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np
import scipy.sparse.linalg as spla

from repro.fdfd.linalg.base import LinearSolver, SolveStats, SolverConfig
from repro.fdfd.linalg.direct import DirectSolver
from repro.obs.trace import span

__all__ = ["CornerBlockSolver", "BlockDiagnostics"]


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


def _add_columns(x: np.ndarray, cols, scale: np.ndarray, z: np.ndarray):
    """``x[:, cols[j]] += scale[j] * z[:, j]`` in place; scales ``z``."""
    z *= scale
    for j, col in enumerate(cols):
        x[:, col] += z[:, j]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise ``a_j^H b_j``."""
    return np.einsum("ij,ij->j", np.conj(a), b)


class CornerBlockSolver:
    """Blocked BiCGStab over a family of systems sharing one anchor LU.

    Cost per sweep: at most two blocked preconditioner applications
    (``trans="N"`` for adjoint blocks too, through the symmetrizer), two
    full-grid ``x`` updates, and recurrences restricted to Omega — the
    cells where some iterated corner differs from the anchor.  Per
    block: the seed application plus one true-operator matvec per
    converged column, which certifies it.

    Parameters
    ----------
    assembly:
        The shared :class:`~repro.fdfd.workspace.FdfdAssembly` — supplies
        the cached CSC Laplacian, the symmetrizer, the ``omega`` scale
        and the fallback matrix assembly.
    eps_list:
        One permittivity map per corner *system*.  Multiple right-hand
        -side columns may map onto one system (the isolator's fwd/bwd
        directions), see ``systems`` in :meth:`solve_block`.
    preconditioner:
        The recycled float64 anchor LU shared by the whole block (the
        nominal corner's factorization under the optimizer's epoch
        policy); it must factorize exactly ``anchor_eps``.
    exact_lus:
        ``{system index: SuperLU}`` for systems whose permittivity *is*
        an existing anchor — those columns are solved exactly, as the
        per-matrix path gives the anchor corner a :class:`DirectSolver`.
    factor_options:
        Configuration for the fallback factorizations.
    config:
        Tolerance / iteration budget / fallback policy.
    stats:
        Workspace-wide counters.
    on_fallback:
        ``on_fallback(system_index, direct_solver)`` — called when a
        column's system had to be factorized directly so the owner can
        recycle the LU as a new preconditioner anchor.
    anchor_eps:
        The permittivity ``preconditioner`` factorizes.  The recurrences
        run on Omega, the cells where an iterated system differs from
        it; every returned column is verified against its own system.
    """

    def __init__(
        self,
        assembly,
        eps_list,
        preconditioner: spla.SuperLU,
        exact_lus: Mapping[int, spla.SuperLU] | None,
        factor_options,
        config: SolverConfig,
        stats: SolveStats | None = None,
        on_fallback: Callable[[int, DirectSolver], None] | None = None,
        *,
        anchor_eps: np.ndarray,
    ):
        if not eps_list:
            raise ValueError("corner block needs at least one system")
        self.assembly = assembly
        self.eps_list = [np.asarray(e, dtype=np.float64) for e in eps_list]
        self.n_systems = len(self.eps_list)
        self._laplacian = assembly.laplacian_csc
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
        # M^-1 is the exact inverse of L + diag(anchor), so the
        # recurrences run on Omega (see _bicgstab_block).
        self._anchor_diag = assembly.omega**2 * np.asarray(
            anchor_eps, dtype=np.float64
        ).ravel()
        self.diagnostics = BlockDiagnostics()

    # ------------------------------------------------------------------ #
    # Preconditioner / fallback plumbing                                 #
    # ------------------------------------------------------------------ #
    def _apply_preconditioner(self, block: np.ndarray) -> np.ndarray:
        """Anchor LU over a Fortran block — a single matrix-RHS sweep."""
        with span("solver.precond", "solver", columns=block.shape[1]):
            return np.asarray(self._precond.solve(block))

    def system_lu(self, system: int) -> spla.SuperLU | None:
        """The exact LU of one system (anchor or fallback), if any."""
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
    # Public entry points                                                #
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
            ``"N"`` for ``A x = b``, ``"T"`` for the adjoint systems,
            solved as ``S A^-1 S^-1 b`` with residuals weighted by
            ``|S|`` so ``tol`` bounds ``||b - A^T x||`` itself.
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
        out, sweeps = self.solve_columns(block, systems, trans)
        self.stats.add(block_sweeps=sweeps)
        self.diagnostics.sweeps += sweeps
        return out

    def solve_columns(
        self, block: np.ndarray, systems: np.ndarray, trans: str
    ) -> tuple[np.ndarray, int]:
        """The kernel under :meth:`solve_block`, without its block counters.

        ``block`` is an ``(n, k)`` complex128 array and ``systems`` a
        valid column-to-system mapping.  Counts per-column work only
        (``krylov_solves``, ``iterations``, ``wasted_iterations``,
        ``fallbacks``) and returns the solution with the number of
        blocked sweeps it took.
        """
        if trans == "N":
            return self._solve(block, systems, None, np.empty_like(block))
        s = self.assembly.symmetrizer
        scaled = block / s[:, None]
        out, sweeps = self._solve(scaled, systems, np.abs(s), scaled)
        out *= s[:, None]
        return out, sweeps

    def _solve(
        self,
        block: np.ndarray,
        systems: np.ndarray,
        weight: np.ndarray | None,
        out: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Forward solves, converged in the ``weight``-scaled residual norm.

        ``out`` may be ``block`` itself: every column is read before it
        is written.
        """
        # Columns whose system already owns an exact factorization (an
        # anchor, or an earlier fallback of this solver) are solved
        # directly, one SuperLU matrix-RHS call per system.
        exact_mask = np.array(
            [self.system_lu(int(s)) is not None for s in systems]
        )
        for system in np.unique(systems[exact_mask]):
            cols = np.flatnonzero(exact_mask & (systems == system))
            lu = self.system_lu(int(system))
            with span("solver.block_exact", "solver", columns=len(cols)):
                out[:, cols] = lu.solve(np.asfortranarray(block[:, cols]))
            self.stats.add(batched_calls=int(len(cols) > 1))
            self.diagnostics.exact_columns += len(cols)

        iter_cols = np.flatnonzero(~exact_mask)
        if iter_cols.size == 0:
            return out, 0

        with span("solver.block_sweeps", "solver",
                  columns=int(iter_cols.size)) as sweep_span:
            x, converged, iters, sweeps = self._bicgstab_block(
                [block[:, col] for col in iter_cols],
                systems[iter_cols],
                weight,
            )
            sweep_span.set(sweeps=sweeps)
        # Convergence record: converged columns only — a fallback column's
        # burnt budget lands in stats.wasted_iterations, not in the mean.
        self.diagnostics.column_iterations.extend(
            int(i) for i, c in zip(iters, converged) if c
        )
        ok = np.flatnonzero(converged)
        for j in ok:
            out[:, iter_cols[j]] = x[:, j]
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
                        np.asfortranarray(block[:, cols])
                    )
                self.stats.add(batched_calls=int(len(cols) > 1))
                self.diagnostics.fallback_columns += len(cols)
        return out, sweeps

    # ------------------------------------------------------------------ #
    # Blocked BiCGStab with per-column convergence masking               #
    # ------------------------------------------------------------------ #
    def _bicgstab_block(
        self,
        b: list[np.ndarray],
        systems: np.ndarray,
        weight: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Solve for the right-hand-side columns ``b``.

        Returns ``(x, converged_mask, per_column_iterations, sweeps)``.

        The recurrences are the standard per-column BiCGStab scalars on
        the weighted residual ``weight * r`` (for an adjoint block that
        is exactly the transposed system's residual, so the iterates are
        those of BiCGStab on ``A^T``).  They run over the whole *active*
        block on the rows of Omega; each sweep costs at most two blocked
        preconditioner applications, each scattered from Omega into one
        Fortran scratch block reused for the whole solve.  A column
        whose half-step residual ``s`` already meets tolerance skips the
        second application.  The iteration state lives in *compacted*
        arrays re-sliced only when a column leaves the active set;
        ``x`` stays full-grid and is updated in place.  Breakdown
        columns (vanishing ``rho``/``denominator``, non-finite
        residuals) are flagged for the per-corner direct fallback, and
        so is every reportedly converged column that misses ``tol``
        against the true operator.
        """
        m = len(b)
        n = self.diags.shape[0]
        thresh_full = self.config.tol * np.array(
            [np.linalg.norm(bj if weight is None else weight * bj) for bj in b]
        )
        zero_rhs = thresh_full == 0.0

        # Seed with the anchor's solution M^{-1} b: exact when a system
        # *is* the anchor, and far better than zero for FDFD's sources.
        # The scratch block carries b for the seed, then every later
        # preconditioner input.
        scratch = np.empty((n, m), dtype=np.complex128, order="F")
        for j, bj in enumerate(b):
            scratch[:, j] = bj
        x_out = self._apply_preconditioner(scratch)
        x_out[:, zero_rhs] = 0.0

        # M = L + diag(anchor): A_c M^-1 y = y + delta_c * M^-1 y, so
        # every residual-space vector lives on Omega — the rows where an
        # iterated corner differs from the anchor — and the seed
        # residual b - A_c M^-1 b is -delta_c * M^-1 b.
        support = np.zeros(n, dtype=bool)
        for system in np.unique(systems):
            support |= self.diags[:, system] != self._anchor_diag
        rows = np.flatnonzero(support)
        w_rows = None if weight is None else weight[rows, None]
        coef = self.diags[rows][:, systems] - self._anchor_diag[rows, None]
        if w_rows is not None:
            coef *= w_rows
        scratch.fill(0.0)

        def operator(z, z_hat, coef):
            return z + coef * z_hat[rows]

        r = -coef * x_out[rows]

        def precondition(z):
            """``M^-1`` of the unweighted residual-space block ``z``."""
            k = z.shape[1]
            scratch[rows, :k] = z if w_rows is None else z / w_rows
            return self._apply_preconditioner(scratch[:, :k])

        rnorm0 = np.linalg.norm(r, axis=0)
        converged = (rnorm0 <= thresh_full) | zero_rhs
        failed = ~np.isfinite(rnorm0)
        iters = np.zeros(m, dtype=np.int64)
        sweeps = 0

        # Compacted working set: `cols` maps working position -> input
        # column; all state arrays below share that column order.
        keep = ~(converged | failed)
        cols = np.flatnonzero(keep)
        r = r[:, cols]
        coef = coef[:, cols]
        thresh = thresh_full[cols]

        r_hat = r.copy()
        p = np.zeros_like(r)
        v = np.zeros_like(r)
        rho_old = np.ones(cols.size, dtype=np.complex128)
        alpha = np.ones(cols.size, dtype=np.complex128)
        omega = np.ones(cols.size, dtype=np.complex128)

        while cols.size and sweeps < self.config.maxiter:
            sweeps += 1
            iters[cols] += 1

            rho_new = _dots(r_hat, r)
            rho_bad = ~np.isfinite(rho_new) | (np.abs(rho_new) == 0.0)
            # First sweep: p and v are zero, so this reduces to p = r.
            beta = (rho_new / rho_old) * (alpha / omega)
            p = r + beta * (p - omega * v)

            p_hat = precondition(p)
            v = operator(p, p_hat, coef)
            denom = _dots(r_hat, v)
            denom_bad = ~np.isfinite(denom) | (np.abs(denom) == 0.0)
            alpha = rho_new / np.where(denom_bad, 1.0, denom)
            s = r - alpha * v
            snorm = np.linalg.norm(s, axis=0)
            s_done = snorm <= thresh
            # Every column takes the half step x + alpha p_hat; those
            # whose ``s`` already met tolerance stop there and leave the
            # working set below (the omega update would divide by a
            # vanishing t), only the others pay the second application.
            _add_columns(x_out, cols, alpha, p_hat)
            del p_hat

            r = s
            rnorm = snorm
            tt_bad = np.zeros(cols.size, dtype=bool)
            if not s_done.all():
                a = slice(None) if not s_done.any() else np.flatnonzero(~s_done)
                s_a = s[:, a]
                s_hat = precondition(s_a)
                t = operator(s_a, s_hat, coef[:, a])
                tt = _dots(t, t).real
                tt_bad[a] = tt == 0.0
                omega[a] = _dots(t, s_a) / np.where(tt == 0.0, 1.0, tt)
                _add_columns(x_out, cols[a], omega[a], s_hat)
                del s_hat
                r[:, a] -= omega[a] * t
                rnorm[a] = np.linalg.norm(r[:, a], axis=0)

            bad = rho_bad | ((denom_bad | tt_bad) & ~s_done)
            bad |= ~np.isfinite(rnorm)
            done = (rnorm <= thresh) & ~bad
            rho_old = rho_new

            if done.any() or bad.any():
                # Columns leave the working set: record them and compact
                # every live array once.
                converged[cols[done]] = True
                failed[cols[bad]] = True
                live = ~(done | bad)
                cols = cols[live]
                r = r[:, live]
                r_hat = r_hat[:, live]
                p = p[:, live]
                v = v[:, live]
                coef = coef[:, live]
                thresh = thresh[live]
                rho_old = rho_old[live]
                alpha = alpha[live]
                omega = omega[live]

        # The recurrences' residuals are only as good as M's exactness
        # and their own rounding: certify every converged column once
        # against the true operator of its own system.
        for j in np.flatnonzero(converged & ~zero_rhs):
            xj = x_out[:, j]
            resid = self._laplacian @ xj
            resid += self.diags[:, systems[j]] * xj
            np.subtract(b[j], resid, out=resid)
            if weight is not None:
                resid *= weight
            converged[j] = np.linalg.norm(resid) <= thresh_full[j]
        return x_out, converged, iters, sweeps
