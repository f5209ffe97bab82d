"""Linear-solver protocol, configuration and the backend names.

The FDFD stack reduces every physics question to solves of one sparse
system ``A x = b`` (and its transpose, for adjoints).  This package
isolates *how* those solves happen behind a small interface so that the
workspace, the Helmholtz solver and the devices never mention SuperLU
directly:

``LinearSolver``
    One factorized/preconditioned operator for one system matrix.
    Supports single-RHS, transposed and matrix-RHS (multi-column)
    solves.

``SolverConfig``
    Which backend to use and its knobs (tolerance, iteration budget,
    fallback policy).  Threaded from
    :class:`repro.core.config.OptimizerConfig` and the CLI ``--solver``
    flag down to the workspace.

``SOLVER_BACKENDS``
    The two backend names, ``direct`` and ``krylov-block``.
    :class:`~repro.fdfd.workspace.SimulationWorkspace` picks the solver
    classes by name.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "LinearSolver",
    "SolverConfig",
    "SolveStats",
    "SOLVER_BACKENDS",
]

#: Every backend :class:`SolverConfig` accepts.
SOLVER_BACKENDS = ("direct", "krylov-block")

#: Retired solver spellings and what replaced them, for descriptive
#: refusals (a silent mapping would hide that the spelling is gone).
_RETIRED_BACKENDS = {
    "batched": "use 'direct', which now hands every multi-column block "
    "to SuperLU in one matrix-RHS call",
    "krylov": "use 'krylov-block', whose per-matrix solves run the same "
    "anchor-preconditioned BiCGStab as a one-system block",
}
_KRYLOV_METHOD_RETIRED = (
    "the Krylov method is always blocked BiCGStab; drop it "
    "(e.g. 'krylov-block')"
)
_RETIRED_MODIFIERS = {
    "recycle": "Krylov subspace recycling never beat the plain backend "
    "on wall time; drop ':recycle' (e.g. 'krylov-block')",
    "gmres": _KRYLOV_METHOD_RETIRED,
    "bicgstab": _KRYLOV_METHOD_RETIRED,
    "float32": "the single-precision preconditioner measured 1.12-1.20x "
    "slower than float64; drop ':float32' (e.g. 'krylov-block')",
}


@dataclass(frozen=True)
class SolverConfig:
    """Backend selection + iterative-solver knobs.

    Parameters
    ----------
    backend:
        One of :data:`SOLVER_BACKENDS`: ``"direct"`` (one SuperLU per
        permittivity, every multi-column block in one matrix-RHS call)
        or ``"krylov-block"`` (BiCGStab preconditioned by a recycled
        nominal-corner LU, with automatic fallback to direct; an
        iteration's corner family rides one blocked solve, and every
        other solve is a one-system block).
    tol:
        Relative residual target of the iterative solve.  The ``1e-5``
        default converges in ~3 BiCGStab sweeps when the preconditioner
        is a nearby LU and leaves optimizer trajectories
        indistinguishable from the direct backend's (the bending FoM
        trace agrees bit for bit over short runs; gradient noise at this
        level is orders of magnitude below fabrication variation).
        Tighten (e.g. ``1e-10``) for finite-difference probing or
        bit-chasing comparisons against the direct backend.
    maxiter:
        Iteration budget before the solve is declared non-converged and
        handed to the direct fallback.  Deliberately small: with a good
        preconditioner convergence takes O(10) iterations, so a solve
        that reaches ``maxiter`` is cheaper to refactorize than to grind
        out.
    fallback:
        Factorize and solve directly when the Krylov solve does not
        converge (the fallback LU also becomes a new preconditioner
        anchor).  Disabling turns non-convergence into a RuntimeError —
        used by convergence tests.
    """

    backend: str = "direct"
    tol: float = 1e-5
    maxiter: int = 12
    fallback: bool = True

    def __post_init__(self):
        if self.backend in _RETIRED_BACKENDS:
            raise ValueError(
                f"solver backend {self.backend!r} was removed: "
                f"{_RETIRED_BACKENDS[self.backend]}"
            )
        if self.backend not in SOLVER_BACKENDS:
            raise ValueError(
                f"unknown solver backend {self.backend!r}; "
                f"available: {list(SOLVER_BACKENDS)}"
            )
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.maxiter < 1:
            raise ValueError("maxiter must be >= 1")

    @classmethod
    def coerce(cls, spec: "SolverConfig | str | None") -> "SolverConfig":
        """Accept a config, a backend-name string, or ``None``.

        ``None`` means ``direct``.  A string is a bare backend name — the
        grammar of the CLI ``--solver`` flag, so every solver spec is one
        JSON-plain string.  Retired ``BACKEND:MOD`` modifiers are refused
        by name.
        """
        if spec is None:
            return cls()
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            backend, *modifiers = spec.split(":")
            if modifiers:
                modifier = modifiers[0]
                if modifier in _RETIRED_MODIFIERS:
                    raise ValueError(
                        f"solver modifier {modifier!r} in {spec!r} was "
                        f"removed: {_RETIRED_MODIFIERS[modifier]}"
                    )
                raise ValueError(
                    f"unknown solver modifier {modifier!r} in {spec!r}; "
                    "a solver spec is a bare backend name "
                    f"({list(SOLVER_BACKENDS)})"
                )
            return cls(backend=backend)
        raise TypeError(f"cannot coerce {type(spec).__name__} to SolverConfig")


class SolveStats:
    """Thread-safe counters describing the work a workspace's solvers did.

    ``iterations`` counts per-column Krylov sweeps only; a direct (or
    fallback) solve contributes to ``factorizations`` and ``solves`` but
    not to ``iterations``.  The ``block_*`` counters describe corner-block
    solves (:meth:`CornerBlockSolver.solve_block`): ``block_sweeps``
    counts *blocked* BiCGStab sweeps — each applies the preconditioner
    and the operator to the whole active corner block in single
    matrix-RHS calls, so one block sweep amortizes what a per-matrix
    solve pays once per column — while the per-column convergence work
    lands in ``krylov_solves`` / ``iterations`` for like-for-like means.
    Per-matrix Krylov solves count only the per-column counters.
    ``batched_calls`` counts multi-column blocks handed to an exact LU
    in one SuperLU matrix-RHS call.
    """

    _FIELDS = (
        "factorizations",
        "solves",
        "rhs_columns",
        "batched_calls",
        "krylov_solves",
        "iterations",
        "wasted_iterations",
        "fallbacks",
        "block_solves",
        "block_sweeps",
        "block_columns",
    )

    def __init__(self):
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)

    def add(self, **counts: int) -> None:
        with self._lock:
            for name, value in counts.items():
                setattr(self, name, getattr(self, name) + int(value))

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}

    def delta_since(self, baseline: "dict[str, int]") -> dict[str, int]:
        """Counter increments since a previous :meth:`as_dict` snapshot.

        Zero entries are dropped, so the result is a compact payload for
        shipping a worker process's solve work back to the parent (see
        :meth:`merge`).
        """
        now = self.as_dict()
        return {
            name: now[name] - baseline.get(name, 0)
            for name in now
            if now[name] != baseline.get(name, 0)
        }

    def merge(self, counts: "dict[str, int]") -> None:
        """Fold a worker's counter delta into these stats.

        The remote fan-out's reduction step: each worker snapshots its
        own workspace stats around a task (:meth:`delta_since`) and the
        parent merges the deltas here, so ``stats()`` reports the whole
        fleet's factorizations / sweeps / fallbacks.  Unknown counter
        names are an error — a silent drop would under-report work.
        """
        unknown = set(counts) - set(self._FIELDS)
        if unknown:
            raise ValueError(
                f"unknown solve-stat counters {sorted(unknown)}; "
                f"have {list(self._FIELDS)}"
            )
        self.add(**counts)

    def reset(self) -> None:
        with self._lock:
            for name in self._FIELDS:
                setattr(self, name, 0)


class LinearSolver:
    """One solvable operator ``A`` (single matrix, many right-hand sides).

    Subclasses implement :meth:`solve_many`; the single-RHS entry points
    are derived.  ``trans`` follows the SuperLU convention: ``"N"`` for
    ``A x = b``, ``"T"`` for ``A^T x = b``.
    """

    def __init__(self, matrix: sp.csc_matrix, stats: SolveStats | None = None):
        self.matrix = matrix
        self.stats = stats or SolveStats()

    # ------------------------------------------------------------------ #
    def solve_many(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve for an ``(n, k)`` block of right-hand sides."""
        raise NotImplementedError

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve for a single flattened right-hand side."""
        rhs = np.asarray(rhs, dtype=np.complex128)
        return self.solve_many(rhs[:, None], trans=trans)[:, 0]

    # ------------------------------------------------------------------ #
    @property
    def lu(self):
        """The underlying SuperLU factorization, if the backend has one."""
        return None

    @staticmethod
    def _check_trans(trans: str) -> None:
        if trans not in ("N", "T"):
            raise ValueError(f"trans must be 'N' or 'T', got {trans!r}")
