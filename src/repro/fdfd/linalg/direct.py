"""Direct (SuperLU) backend (plus the unused single-precision LU twin).

``DirectSolver`` factorizes once per permittivity and hands every
``(n, k)`` block of right-hand sides to SuperLU in a single matrix-RHS
call.  SuperLU's ``gstrs`` runs each column through the same triangular
sweeps it would use alone, so a block solve is bit-identical to a
sequence of single solves (asserted by the test suite); only the
per-call Python and setup overhead is amortized across the forward,
adjoint-transposed and multi-direction sources.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.fdfd.linalg.base import LinearSolver, SolveStats
from repro.obs.trace import span

__all__ = ["DirectSolver", "SinglePrecisionLU"]


class SinglePrecisionLU:
    """A complex64 twin of an LU, upcasting solves back to complex128.

    Nothing in the package uses it: the single-precision preconditioner
    mode it served measured 1.12-1.20x slower than float64 and was
    removed.  The class stays only because the perfbench layer tracer
    wraps ``SinglePrecisionLU.factorize`` by name, so deleting it would
    break every traced benchmark set.
    """

    dtype = np.complex64

    def __init__(self, lu32: spla.SuperLU):
        self._lu = lu32

    @classmethod
    def factorize(
        cls, matrix: sp.csc_matrix, factor_options
    ) -> "SinglePrecisionLU":
        return cls(factor_options.factorize(matrix.astype(np.complex64)))

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        out = self._lu.solve(np.asarray(rhs, dtype=np.complex64), trans=trans)
        return np.asarray(out, dtype=np.complex128)


class DirectSolver(LinearSolver):
    """SuperLU-factorized operator; one matrix-RHS call per block."""

    def __init__(
        self,
        matrix: sp.csc_matrix,
        lu: spla.SuperLU,
        stats: SolveStats | None = None,
    ):
        super().__init__(matrix, stats)
        self._lu = lu

    @classmethod
    def build(
        cls,
        matrix: sp.csc_matrix,
        factor_options,
        stats: SolveStats | None = None,
    ) -> "DirectSolver":
        """Factorize ``matrix`` now and count the factorization."""
        stats = stats or SolveStats()
        lu = factor_options.factorize(matrix)
        stats.add(factorizations=1)
        return cls(matrix, lu, stats)

    # ------------------------------------------------------------------ #
    def solve_many(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        self._check_trans(trans)
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.ndim != 2:
            raise ValueError(f"solve_many expects an (n, k) block, got {rhs.shape}")
        self.stats.add(
            solves=1,
            rhs_columns=rhs.shape[1],
            batched_calls=int(rhs.shape[1] > 1),
        )
        with span("solver.solve", "solver", backend="direct",
                  columns=rhs.shape[1]):
            out = self._lu.solve(rhs, trans=trans)
        return np.ascontiguousarray(out)

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        self._check_trans(trans)
        self.stats.add(solves=1, rhs_columns=1)
        return self._lu.solve(np.asarray(rhs, dtype=np.complex128), trans=trans)

    @property
    def lu(self) -> spla.SuperLU:
        return self._lu


#: The retired ``batched`` backend's class name.  ``direct`` now does the
#: single matrix-RHS call itself; the alias keeps code that patches or
#: imports ``BatchedDirectSolver`` by name working.
BatchedDirectSolver = DirectSolver
