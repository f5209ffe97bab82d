"""Simulation workspace: cross-solve caches for the FDFD stack.

The variation-aware inner loop re-solves the same *window* hundreds of
times: every fabrication corner and every Monte-Carlo sample shares the
grid, the frequency and the PML ramp, and only the permittivity diagonal
changes.  The seed implementation rebuilt everything per solve; this
module caches the invariants:

``FdfdAssembly``
    The PML-stretched derivative operators and the precomputed Laplacian
    ``Dxb Dxf + Dyb Dyf`` for one ``(grid, omega, pml)`` key, plus the
    CSC diagonal positions needed to assemble
    ``A = L + diag(omega^2 eps)`` with a single vectorized data update —
    no sparse matmuls, no sparse add, no format conversion per solve.
    It also solves systems whose permittivity is constant along x (the
    devices' straight-guide calibration runs) without a factorization,
    by fast diagonalization of the x second difference.

``SimulationWorkspace``
    Bounded LRU caches for assemblies, slab-mode solves (port
    cross-sections are outside the design region, so their modes are
    constants of an optimization) and LU factorizations keyed by the
    permittivity bytes (corners sharing a permittivity — e.g. the
    worst-corner probe and the nominal corner, or the two directions of
    a reciprocal device — factorize once).

``FactorOptions``
    SuperLU configuration.  The default exploits the near-symmetry of
    the Helmholtz operator (``MMD_AT_PLUS_A`` ordering + symmetric mode
    + relaxed diagonal pivoting), which roughly halves factorization
    time at machine-precision residuals; ``FactorOptions.reference()``
    is SciPy's COLAMD default, passed explicitly to a workspace or a
    cold :class:`~repro.fdfd.solver.HelmholtzSolver` where wanted.

Factor threads
    Every factorization runs on one of ``len(os.sched_getaffinity(0))``
    long-lived daemon threads (started on first use; stopped before a
    fork and at exit, and started again by the next factorization):
    :meth:`FactorOptions.factorize` blocks for the LU,
    :meth:`FactorOptions.factorize_async` returns a future of it.
    SuperLU's factorization releases the GIL, so
    :meth:`SimulationWorkspace.prefactor` lets a serial caller start a
    whole batch of independent factorizations (a corner family, a
    Monte-Carlo call) on the spare cores before it consumes the first
    one; solves stay on the caller's thread and the LUs are bitwise
    those of a serial factorization.  SciPy frees a SuperLU's memory
    only on the thread that allocated it, so each LU lives in a
    :class:`FactorHandle` that sends it back to its factor thread to be
    freed.  That also keeps ``repro worker`` (one fresh thread per task)
    from leaking every LU it evicts.

Solves themselves go through the two backends of
:mod:`repro.fdfd.linalg` (:meth:`SimulationWorkspace.linear_solver`):
``direct`` caches one SuperLU per permittivity, while ``krylov-block``
keeps a small pool of *preconditioner anchors* per operator set — LUs of
recently factorized permittivities, nearest of which preconditions a
BiCGStab solve for every other corner.  One method,
:meth:`SimulationWorkspace._begin_corner_block`, holds that anchor
policy for corner families and single systems alike.
:meth:`SimulationWorkspace.begin_solver_epoch` (called by the optimizer
once per iteration) drops the anchors so the first permittivity of each
iteration — the nominal corner — becomes the anchor its siblings recycle.

Every cache is content-addressed, so a warm workspace returns the same
bits as a cold build for the direct backend — tests assert bit-for-bit
identity of matrices, fields and gradients.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import queue
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.fdfd.grid import SimGrid
from repro.fdfd.linalg import (
    CornerBlockSolver,
    DirectSolver,
    LinearSolver,
    PreconditionedKrylovSolver,
    SolveStats,
    SolverConfig,
)
from repro.fdfd.modes import SlabModeSolver, WaveguideMode
from repro.fdfd.operators import (
    build_derivative_ops,
    laplacian_from_ops,
    second_diff_1d,
)
from repro.fdfd.pml import PMLSpec, stretch_factors
from repro.obs.trace import continue_trace, span, span_context

__all__ = [
    "FactorHandle",
    "FactorOptions",
    "FdfdAssembly",
    "SimulationWorkspace",
    "shared_workspace",
    "reset_shared_workspace",
]


@dataclass(frozen=True)
class FactorOptions:
    """SuperLU factorization configuration.

    Parameters
    ----------
    permc_spec:
        Column permutation strategy.  ``MMD_AT_PLUS_A`` suits the
        nearly-symmetric Helmholtz operator; ``COLAMD`` is SciPy's
        general-purpose default.
    diag_pivot_thresh:
        Partial-pivoting threshold in [0, 1]; small values keep pivots
        on the diagonal, preserving the symmetric ordering's fill-in.
    symmetric_mode:
        Enable SuperLU's symmetric-pattern heuristics.
    """

    permc_spec: str = "MMD_AT_PLUS_A"
    diag_pivot_thresh: float = 0.1
    symmetric_mode: bool = True

    @classmethod
    def reference(cls) -> "FactorOptions":
        """SciPy's default configuration (COLAMD, full partial pivoting)."""
        return cls(
            permc_spec="COLAMD", diag_pivot_thresh=1.0, symmetric_mode=False
        )

    def splu(self, matrix: sp.csc_matrix) -> spla.SuperLU:
        """Factorize a CSC matrix with these options, on this thread.

        The one function that runs SuperLU.  The library calls it only
        on a factor thread, through :meth:`factorize` or
        :meth:`factorize_async`.
        """
        with span("solver.factorize", "solver", n=matrix.shape[0]):
            return spla.splu(
                matrix,
                permc_spec=self.permc_spec,
                options=dict(
                    SymmetricMode=self.symmetric_mode,
                    DiagPivotThresh=self.diag_pivot_thresh,
                ),
            )

    def factorize(self, matrix: sp.csc_matrix) -> "FactorHandle":
        """Factorize on a factor thread and wait for the LU.

        Raises what :meth:`splu` raises (e.g. ``RuntimeError`` for an
        exactly singular matrix).
        """
        return self.factorize_async(matrix).result()

    def factorize_async(self, matrix: sp.csc_matrix) -> Future:
        """Start factorizing on a factor thread; a future of the LU.

        The future's result is a :class:`FactorHandle`; a failed
        factorization raises from ``result()``.
        """
        return _submit_factorization(self, matrix)


class FactorHandle:
    """A SuperLU factorization that is freed on the thread that made it.

    SciPy releases a SuperLU's memory only on the thread that allocated
    it: one freed on any other thread leaks (~5 MB per isolator LU at
    dl=0.05).  Factor threads wrap each LU they make in a handle; when
    the handle is dropped, on whatever thread, the LU is sent back to
    its home thread and freed there.
    """

    __slots__ = ("_lu", "_home")

    def __init__(self, lu: spla.SuperLU, home: "_FactorThread"):
        self._lu = lu
        self._home = home

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        return self._lu.solve(rhs, trans=trans)

    def __del__(self):
        self._home.release(self._lu)


class _FactorJob:
    """One factorization queued for a factor thread."""

    __slots__ = ("options", "matrix", "future", "trace")

    def __init__(self, options: FactorOptions, matrix, future: Future):
        self.options = options
        self.matrix = matrix
        self.future = future
        # The submitter's tracer and open span: the factor thread's
        # ``solver.factorize`` span lands in that trace, under that span.
        self.trace = span_context()


class _FactorThread:
    """A long-lived daemon thread that factorizes and frees its own LUs.

    Its queue carries two kinds of items: :class:`_FactorJob` to run,
    and LUs coming home from dropped :class:`FactorHandle` objects,
    freed simply by dropping the last reference here.
    """

    def __init__(self, pool: "_FactorPool"):
        self.load = 0  # queued + running jobs; guarded by the pool lock
        self._pool = pool
        self._queue = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._run, name="repro-factor", daemon=True
        )
        self._thread.start()

    def put(self, item) -> None:
        self._queue.put(item)

    def release(self, lu) -> None:
        """Free ``lu`` on this thread (called from ``FactorHandle.__del__``).

        ``SimpleQueue.put`` is safe to call from ``__del__``.  Once this
        thread has ended (a fork stops every factor thread, and a forked
        child has none of its parent's) the LU is dropped where it is:
        nothing can free it any more.
        """
        if (
            self._thread.is_alive()
            and threading.get_ident() != self._thread.ident
        ):
            self._queue.put(lu)

    def stop(self) -> None:
        """Free everything sent home so far, then end the thread."""
        self._queue.put(_STOP)
        self._thread.join()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            if isinstance(item, _FactorJob):
                self._factorize(item)
            # Dropping the last reference frees a returned LU here, on
            # the thread that allocated it.
            item = None

    def _factorize(self, job: _FactorJob) -> None:
        try:
            with continue_trace(job.trace):
                lu = job.options.splu(job.matrix)
        except Exception as exc:  # the caller re-raises it from result()
            job.future.set_exception(exc)
        else:
            job.future.set_result(FactorHandle(lu, self))
        finally:
            self._pool.done(self)


class _FactorPool:
    """One factor thread per CPU this process may run on.

    Threads start with the pool, on the first factorization (importing
    the module starts none).  Each job goes to the thread with the
    fewest queued or running jobs.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._threads = [
            _FactorThread(self) for _ in range(_factor_thread_count())
        ]

    def submit(self, options: FactorOptions, matrix) -> Future:
        future = Future()
        job = _FactorJob(options, matrix, future)
        with self._lock:
            home = min(self._threads, key=lambda t: t.load)
            home.load += 1
        home.put(job)
        return future

    def done(self, thread: _FactorThread) -> None:
        with self._lock:
            thread.load -= 1

    def stop(self) -> None:
        for thread in self._threads:
            thread.stop()


def _factor_thread_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Queue sentinel ending a factor thread.
_STOP = object()

_POOL: "_FactorPool | None" = None
_POOL_LOCK = threading.Lock()


def _submit_factorization(options: FactorOptions, matrix) -> Future:
    """Queue one factorization on this process's pool (made on first use).

    Submitting under the lock :func:`_stop_factor_pool` takes means no
    job can land behind a stopped thread's last item.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = _FactorPool()
        return _POOL.submit(options, matrix)


def _stop_factor_pool() -> None:
    """Let every factor thread free what was sent home, then end it.

    Runs at exit and before each fork.  SciPy keeps a thread's SuperLU
    allocations in a per-thread object; when a thread that still owns
    live LUs has that object destroyed by *another* thread, SciPy
    leaves a stray ``TypeError`` set there.  At interpreter teardown
    that fails the final flush of stdout (exit status 120); in a child
    forked next to a live factor thread it surfaces as a ``SystemError``
    in the first at-fork hook.  A thread that ends normally destroys
    its own object harmlessly.  The next factorization starts a new
    pool; LUs made by the stopped threads can no longer be freed.
    """
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.stop()


def _forget_factor_pool() -> None:
    """In a forked child: start afresh, whatever the parent threads did.

    Another parent thread may have held the lock at the fork, or started
    a pool after :func:`_stop_factor_pool` ran; none of its threads
    exist here.
    """
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


atexit.register(_stop_factor_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_stop_factor_pool, after_in_child=_forget_factor_pool
    )


#: Preconditioner LUs a workspace keeps per operator set (nominal corner,
#: worst-corner probe, fallbacks); each solve picks the nearest.
_MAX_ANCHORS = 4


class FdfdAssembly:
    """Prebuilt operators + Laplacian for one ``(grid, omega, pml)``.

    The precomputed pieces let :meth:`system_matrix` assemble
    ``A = L + diag(omega^2 eps)`` by copying the cached CSC Laplacian and
    adding the diagonal in place — bit-identical to the cold
    ``(L + diags(...)).tocsc()`` path (asserted by the test suite)
    because sparse addition and format conversion commute when the
    diagonal pattern is a subset of ``L``'s.
    """

    def __init__(self, grid: SimGrid, omega: float, pml: PMLSpec):
        self.grid = grid
        self.omega = float(omega)
        self.pml = pml
        self.ops = build_derivative_ops(grid, self.omega, pml)
        self.laplacian = laplacian_from_ops(self.ops)
        self._laplacian_csc = self.laplacian.tocsc()
        self._laplacian_csc.sort_indices()
        self._diag_positions = self._locate_diagonal(self._laplacian_csc)
        self._symmetrizer = None
        self._x_diagonalization = None

    @staticmethod
    def _locate_diagonal(mat: sp.csc_matrix) -> np.ndarray | None:
        """Data-array index of entry ``(i, i)`` per column, else ``None``.

        The 3-point Laplacian always stores its main diagonal, but a
        degenerate operator set (e.g. a future masked variant) might
        not; in that case the slow sparse-add path is used instead.
        """
        n = mat.shape[0]
        cols = np.repeat(np.arange(n), np.diff(mat.indptr))
        positions = np.flatnonzero(mat.indices == cols)
        if positions.size != n:
            return None
        return positions

    @property
    def laplacian_csc(self) -> sp.csc_matrix:
        """The cached CSC Laplacian (shared; callers must not mutate it).

        Block-corner solvers apply it once per converged column, to
        certify that column against its corner's true operator.
        """
        return self._laplacian_csc

    @property
    def symmetrizer(self) -> np.ndarray:
        """Flat diagonal ``S`` with ``A^T = S A S^-1`` for every ``A``.

        Each stretched second difference is ``s_b^-1 B s_f^-1 F`` with
        ``B = -F^T``, so it is symmetrized by the integer-point (backward)
        stretch ``s_b``; on the 2-D grid ``S = outer(s_x, s_y)``, and the
        ``omega^2 eps`` diagonal commutes with it.  Block solvers use it
        to run adjoint solves as forward ones.  Built on first use.
        """
        if self._symmetrizer is None:
            grid = self.grid
            sx, sy = (
                stretch_factors(n, grid.npml, grid.dl, self.omega, self.pml)[0]
                for n in grid.shape
            )
            self._symmetrizer = np.outer(sx, sy).ravel()
        return self._symmetrizer

    def _x_modes(self) -> tuple:
        """``(V, V^-1, diag, upper, lower)`` of the separable solve.

        ``Lx = V diag(mu) V^-1`` is the eigendecomposition of the
        stretched x second difference (PML makes it non-normal, so
        ``V^-1`` is an explicit inverse).  The rest is the banded
        storage of the block-diagonal y system, one ``ny`` block
        ``mu_k + Ly`` per x mode ``k``: its diagonal without the
        ``omega^2 eps`` term, and the off-diagonals, zero across block
        boundaries.  Built on first use.
        """
        if self._x_diagonalization is None:
            grid = self.grid
            nx, ny = grid.shape
            lx, ly = (
                second_diff_1d(
                    n,
                    grid.dl,
                    *stretch_factors(n, grid.npml, grid.dl, self.omega, self.pml),
                )
                for n in grid.shape
            )
            mu, v = np.linalg.eig(lx.toarray())
            upper = np.zeros((nx, ny), dtype=np.complex128)
            lower = np.zeros((nx, ny), dtype=np.complex128)
            upper[:, 1:] = ly.diagonal(1)
            lower[:, :-1] = ly.diagonal(-1)
            self._x_diagonalization = (
                v,
                np.linalg.inv(v),
                (mu[:, None] + ly.diagonal()[None, :]).ravel(),
                upper.ravel(),
                lower.ravel(),
            )
        return self._x_diagonalization

    def solve_x_invariant(
        self, eps_r: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve ``A x = rhs`` for a permittivity constant along x.

        Such an ``A`` is the Kronecker sum ``Lx (x) I + I (x) (Ly +
        omega^2 diag eps(y))``, so with ``Lx`` diagonalized
        (:meth:`_x_modes`) a solve is ``V^-1`` applied as one matmul,
        one tridiagonal y-solve per x mode (all in one banded LAPACK
        call) and ``V`` applied back: the tensor-product method of
        Lynch, Rice & Thomas (Numer. Math. 6, 1964), with no
        factorization.  One refinement step against
        :meth:`system_matrix` brings the residual to LU level.
        """
        eps = np.asarray(eps_r, dtype=np.float64)
        if eps.shape != self.grid.shape:
            raise ValueError(
                f"eps_r shape {eps.shape} does not match grid {self.grid.shape}"
            )
        if np.any(eps != eps[:1]):
            raise ValueError(
                "solve_x_invariant needs a permittivity constant along x"
            )
        v, v_inv, diag_lap, upper, lower = self._x_modes()
        nx, ny = self.grid.shape
        diag = diag_lap + np.tile(self.omega**2 * eps[0], nx)
        ab = np.empty((3, nx * ny), dtype=np.complex128)

        def fast(b: np.ndarray) -> np.ndarray:
            ab[0], ab[1], ab[2] = upper, diag, lower
            z = sla.solve_banded(
                (1, 1),
                ab,
                (v_inv @ b.reshape(nx, ny)).ravel(),
                overwrite_ab=True,
                overwrite_b=True,
                check_finite=False,
            )
            return (v @ z.reshape(nx, ny)).ravel()

        rhs = np.asarray(rhs, dtype=np.complex128).ravel()
        x = fast(rhs)
        return x + fast(rhs - self.system_matrix(eps) @ x)

    # ------------------------------------------------------------------ #
    def system_matrix(self, eps_r: np.ndarray) -> sp.csc_matrix:
        """``A = L + diag(omega^2 eps_r)`` in CSC format."""
        diag = self.omega**2 * np.asarray(eps_r, dtype=np.float64).ravel()
        if self._diag_positions is None:
            return (
                self.laplacian + sp.diags(diag, format="csr")
            ).tocsc()
        matrix = self._laplacian_csc.copy()
        matrix.data[self._diag_positions] += diag
        return matrix


def _hash_array(arr: np.ndarray) -> bytes:
    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(arr).view(np.uint8).data)
    return digest.digest()


class _LRUCache:
    """A tiny thread-safe LRU map (inserted-value cache)."""

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self._store: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __contains__(self, key) -> bool:
        """Membership without touching recency or the hit/miss counters."""
        with self._lock:
            return key in self._store

    def get(self, key):
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.hits += 1
                return self._store[key]
            self.misses += 1
            return None

    def put(self, key, value):
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0


class _PrecondAnchor:
    """One preconditioner anchor: permittivity + its float64 LU.

    The LU serves exact solves (anchor corners, cache seeds) and
    preconditions the Krylov solves of nearby permittivities.
    """

    __slots__ = ("eps", "lu")

    def __init__(self, eps: np.ndarray, lu):
        self.eps = eps
        self.lu = lu


class _Prefactored:
    """A factorization started by :meth:`SimulationWorkspace.prefactor`."""

    __slots__ = ("matrix", "future", "pid")

    def __init__(self, matrix: sp.csc_matrix, future: Future):
        self.matrix = matrix
        self.future = future
        self.pid = os.getpid()


class SimulationWorkspace:
    """Shared caches for repeated FDFD solves on the same window.

    Parameters
    ----------
    max_assemblies:
        Distinct ``(grid, omega, pml)`` operator sets to keep.
    max_factorizations:
        LU factorizations retained, keyed by permittivity content.  One
        optimizer iteration revisits a permittivity at most a handful of
        times (worst-probe + nominal corner, fwd/bwd directions), so a
        small bound suffices; factorizations of superseded patterns age
        out on their own.
    max_modes:
        Slab-mode solutions retained, keyed by cross-section content.
    factor_options:
        SuperLU configuration used for every factorization created
        through this workspace; ``None`` means the tuned
        ``FactorOptions()``.
    solver_config:
        Linear-solver backend selection (a
        :class:`~repro.fdfd.linalg.SolverConfig`, a backend name such as
        ``"krylov-block"``, or ``None`` for the direct default).

    Notes
    -----
    The workspace deliberately survives pickling as an *empty* shell
    (caches are dropped): LU objects are not picklable, and worker
    processes re-warm their own caches.
    """

    def __init__(
        self,
        max_assemblies: int = 8,
        max_factorizations: int = 8,
        max_modes: int = 64,
        factor_options: FactorOptions | None = None,
        solver_config: SolverConfig | str | None = None,
    ):
        self.factor_options = factor_options or FactorOptions()
        self.solver_config = SolverConfig.coerce(solver_config)
        self.solver_stats = SolveStats()
        self._assemblies = _LRUCache(max_assemblies)
        self._factorizations = _LRUCache(max_factorizations)
        self._modes = _LRUCache(max_modes)
        # Preconditioner anchors for krylov-block: per operator set, a
        # small ordered pool of (eps, LU) pairs; see
        # _begin_corner_block() for the recycling policy.  The operator-set
        # keys themselves are LRU-bounded (by max_assemblies, like the
        # operator cache) so evaluation-only usage — e.g. a wavelength
        # sweep, one omega per point — cannot pin factorizations without
        # limit.
        self._anchors: OrderedDict = OrderedDict()
        self._anchor_lock = threading.Lock()
        # Factorizations started by prefactor() and not yet consumed by
        # linear_solver(): cache key -> _Prefactored.  Outside the LRU
        # bound, so a batch larger than the cache never evicts its own
        # head before use.  Single dict operations only (pop, set): no
        # lock a fork could leave held.
        self._pending: dict = {}

    # ------------------------------------------------------------------ #
    def assembly(
        self, grid: SimGrid, omega: float, pml: PMLSpec | None = None
    ) -> FdfdAssembly:
        """The cached operator set for one window configuration."""
        pml = pml or PMLSpec()
        key = (grid, round(float(omega), 12), pml)
        cached = self._assemblies.get(key)
        if cached is None:
            cached = FdfdAssembly(grid, omega, pml)
            self._assemblies.put(key, cached)
        return cached

    def linear_solver(
        self, assembly: FdfdAssembly, eps_r: np.ndarray
    ) -> LinearSolver:
        """The configured backend's solver for one permittivity.

        ``direct``: solvers are cached by permittivity content, so
        corners sharing a permittivity (the worst-corner probe and the
        nominal corner, the two directions of a reciprocal device) share
        one factorization.

        ``krylov-block``: a one-system corner block under the anchor
        policy of :meth:`_begin_corner_block`.  A permittivity with an
        exact LU gets a :class:`DirectSolver` on it: the first one of
        the epoch (the nominal corner in the optimizer loop), which is
        factorized and becomes the anchor, an existing anchor, or an
        entry of the factorization LRU.  Any other is solved by BiCGStab
        preconditioned by its nearest anchor in Euclidean permittivity
        distance (:class:`PreconditionedKrylovSolver`).  A solve that
        falls back to direct factorization contributes its LU as an
        additional anchor, so an off-manifold permittivity pays the
        factorization once and then preconditions its own neighbourhood.
        Device calibration runs never come here: they are solved by
        :meth:`FdfdAssembly.solve_x_invariant`.
        """
        eps = np.asarray(eps_r, dtype=np.float64)
        if self.supports_corner_block:
            matrix = assembly.system_matrix(eps)
            block = self._begin_corner_block(assembly, [eps], matrix)
            lu = block.system_lu(0)
            if lu is None:
                return PreconditionedKrylovSolver(matrix, block)
            return DirectSolver(matrix, lu, self.solver_stats)
        eps_hash = _hash_array(eps)
        key = (assembly.grid, round(assembly.omega, 12), assembly.pml, eps_hash)
        solver = self._factorizations.get(key)
        if solver is None:
            solver = self._direct_solver(key, assembly, eps)
            self._factorizations.put(key, solver)
        return solver

    def _direct_solver(self, key, assembly, eps) -> LinearSolver:
        """A factorized solver, from :meth:`prefactor` when it started one."""
        pending = self._take_prefactored(key)
        if pending is None:
            return DirectSolver.build(
                assembly.system_matrix(eps),
                self.factor_options,
                stats=self.solver_stats,
            )
        solver = DirectSolver(
            pending.matrix, pending.future.result(), self.solver_stats
        )
        self.solver_stats.add(factorizations=1)
        return solver

    def prefactor(self, assembly: FdfdAssembly, eps_list) -> None:
        """Start factorizing systems :meth:`linear_solver` will ask for.

        Each distinct permittivity of ``eps_list`` that is neither cached
        nor already pending is assembled here and factorized on a factor
        thread; this returns without waiting.  :meth:`linear_solver`
        then consumes the pending LU (waiting only if it is still
        running) and counts the factorization as it always does, so the
        work and its results are those of the one-at-a-time path, only
        overlapped.  A failed factorization raises where the system is
        used.

        A no-op under ``krylov-block``: its anchor policy decides which
        systems get factorized, one system at a time.
        """
        if self.supports_corner_block:
            return
        akey = (assembly.grid, round(assembly.omega, 12), assembly.pml)
        with span("workspace.prefactor", "solver") as sp_:
            started = 0
            for eps in eps_list:
                eps = np.asarray(eps, dtype=np.float64)
                key = (*akey, _hash_array(eps))
                if key in self._factorizations or key in self._pending:
                    continue
                matrix = assembly.system_matrix(eps)
                self._pending[key] = _Prefactored(
                    matrix, self.factor_options.factorize_async(matrix)
                )
                started += 1
            sp_.set(systems=started)

    def _take_prefactored(self, key) -> "_Prefactored | None":
        """Pop the pending factorization of ``key``, if this process made it.

        An entry inherited through a fork is discarded, never awaited:
        its factor thread does not exist in the child, so its LU could
        never be freed there, and a job queued after the parent stopped
        its threads would never finish.
        """
        pending = self._pending.pop(key, None)
        if pending is None or pending.pid != os.getpid():
            return None
        return pending

    def _anchor_pool(self, akey) -> OrderedDict:
        """The (touched) anchor pool for one operator set.

        Caller must hold :attr:`_anchor_lock`.  Centralizes the
        operator-set LRU policy — pools are bounded like the assembly
        cache so evaluation-only usage (one omega per sweep point)
        cannot pin factorizations without limit.
        """
        anchors = self._anchors.setdefault(akey, OrderedDict())
        self._anchors.move_to_end(akey)
        while len(self._anchors) > self._assemblies.maxsize:
            self._anchors.popitem(last=False)
        return anchors

    def _add_anchor(self, akey, eps_hash, eps_flat, lu) -> None:
        with self._anchor_lock:
            anchors = self._anchor_pool(akey)
            anchors[eps_hash] = _PrecondAnchor(eps_flat, lu)
            while len(anchors) > _MAX_ANCHORS:
                anchors.popitem(last=False)

    @property
    def supports_corner_block(self) -> bool:
        """Whether the configured backend is ``krylov-block``.

        :meth:`begin_corner_block` then returns a block operator that
        solves every corner of an iteration through shared matrix-RHS
        sweeps.  Devices and the optimizer use this to route the corner
        fan-out through the blocked path instead of per-corner solves.
        """
        return self.solver_config.backend == "krylov-block"

    def begin_corner_block(self, assembly: FdfdAssembly, eps_list):
        """Open a corner block: one block operator for a corner family.

        The anchor policy (:meth:`_begin_corner_block`, which
        :meth:`linear_solver` runs as a one-system block): the first
        design system of the epoch (``eps_list[0]`` — the worst-corner
        probe or the nominal corner in the optimizer loop, if no block
        anchored earlier) is factorized and becomes the anchor; the
        whole block is preconditioned by the anchor nearest to the
        nominal corner, or by a fresh nominal factorization when that
        anchor is off-family.  Systems whose permittivity *is* an
        existing anchor, or has an LU in the factorization LRU, are
        solved exactly with that LU, and per-column direct fallbacks
        re-anchor through :meth:`_add_anchor`.

        Returns ``None`` under the ``direct`` backend.
        """
        if not self.supports_corner_block:
            return None
        with span("workspace.begin_corner_block", "solver",
                  corners=len(eps_list)):
            return self._begin_corner_block(assembly, eps_list)

    def _begin_corner_block(self, assembly, eps_list, nominal_matrix=None):
        """The anchor policy behind :meth:`begin_corner_block`.

        ``nominal_matrix`` is the system matrix of ``eps_list[0]`` when
        the caller already assembled it.
        """
        eps_arrs = [np.asarray(e, dtype=np.float64) for e in eps_list]
        if not eps_arrs:
            raise ValueError("begin_corner_block needs at least one corner")
        hashes = [_hash_array(e) for e in eps_arrs]
        akey = (assembly.grid, round(assembly.omega, 12), assembly.pml)
        nominal_flat = eps_arrs[0].ravel()
        with self._anchor_lock:
            anchors = self._anchor_pool(akey)
            # One preconditioner serves the whole block, so an
            # off-family anchor would sink every column at once: a
            # family decides up front, while a single system self-heals
            # via its first fallback.
            seed_nominal = not anchors
            nearest = None
            if anchors:
                nearest = min(
                    anchors.values(),
                    key=lambda a: float(
                        np.linalg.norm(a.eps - nominal_flat)
                    ),
                )
                if hashes[0] not in anchors and len(eps_arrs) > 1:
                    # Yardstick: the corner family's own spread around
                    # the nominal; an anchor within ~2 spreads is
                    # family-grade (the worst-corner probe), anything
                    # farther is worth one nominal factorization.
                    nearest_dist = float(
                        np.linalg.norm(nearest.eps - nominal_flat)
                    )
                    spread = max(
                        float(np.linalg.norm(e.ravel() - nominal_flat))
                        for e in eps_arrs[1:]
                    )
                    # A zero-spread family (degenerate corners) makes any
                    # nonzero-distance anchor off-family by definition.
                    if nearest_dist > 2.0 * spread:
                        seed_nominal = True
            if seed_nominal:
                # Seed from the factorization LRU when it already holds
                # an LU for the nominal permittivity (repeated-theta
                # workloads: FD probing, line searches), and register a
                # fresh factorization back into it.
                fkey = (*akey, hashes[0])
                cached = self._factorizations.get(fkey)
                lu = None if cached is None else cached.lu
                if lu is None:
                    matrix = nominal_matrix
                    if matrix is None:
                        matrix = assembly.system_matrix(eps_arrs[0])
                    lu = self.factor_options.factorize(matrix)
                    self.solver_stats.add(factorizations=1)
                    self._factorizations.put(
                        fkey, DirectSolver(matrix, lu, self.solver_stats)
                    )
                anchors[hashes[0]] = _PrecondAnchor(nominal_flat.copy(), lu)
                while len(anchors) > _MAX_ANCHORS:
                    anchors.popitem(last=False)
                nearest = anchors[hashes[0]]
            exact = {
                i: anchors[h].lu for i, h in enumerate(hashes) if h in anchors
            }
        for i, h in enumerate(hashes):
            # Corners whose LU survives in the factorization LRU (e.g.
            # fallbacks of a previous block over the same theta) are
            # solved exactly instead of re-iterated or re-factorized.
            if i in exact:
                continue
            cached = self._factorizations.get((*akey, h))
            if cached is not None and cached.lu is not None:
                exact[i] = cached.lu

        def reanchor(system: int, direct) -> None:
            self._add_anchor(
                akey, hashes[system], eps_arrs[system].ravel().copy(),
                direct.lu,
            )
            # The fallback solver joins the factorization LRU so
            # re-solving this permittivity (same theta, next epoch) is a
            # cache hit, not a refactorization.
            self._factorizations.put((*akey, hashes[system]), direct)

        return CornerBlockSolver(
            assembly,
            eps_arrs,
            preconditioner=nearest.lu,
            exact_lus=exact,
            factor_options=self.factor_options,
            config=self.solver_config,
            stats=self.solver_stats,
            on_fallback=reanchor,
            anchor_eps=nearest.eps,
        )

    def with_solver_config(
        self, solver_config: SolverConfig | str | None
    ) -> "SimulationWorkspace":
        """A fresh workspace with this one's options but another backend.

        Factorization options and cache bounds carry over; caches start
        cold (solver objects are backend-specific).
        """
        return SimulationWorkspace(
            max_assemblies=self._assemblies.maxsize,
            max_factorizations=self._factorizations.maxsize,
            max_modes=self._modes.maxsize,
            factor_options=self.factor_options,
            solver_config=solver_config,
        )

    def merge_solver_stats(self, counts: dict) -> None:
        """Fold a remote worker's solver-stats delta into this workspace.

        The parent half of the remote fan-out's stats contract: workers
        snapshot their own (re-warmed, per-worker) workspace around each
        task and ship ``SolveStats.delta_since`` dicts home with the
        results; merging them here makes :meth:`stats` report the whole
        fleet's factorizations, sweeps and fallbacks.  Empty deltas are
        a no-op.
        """
        if counts:
            self.solver_stats.merge(counts)

    def begin_solver_epoch(self) -> None:
        """Drop preconditioner anchors (start of an optimizer iteration).

        The design pattern changes every iteration, so last iteration's
        anchors are stale; clearing them makes the first factorization of
        the new iteration — the nominal corner — the anchor every other
        corner recycles.  A no-op for the direct backend.
        """
        with self._anchor_lock:
            self._anchors.clear()

    def slab_mode(
        self, eps_line: np.ndarray, dl: float, omega: float, order: int
    ) -> WaveguideMode:
        """Cached 1-D eigenmode solve on a cross-section."""
        eps_line = np.asarray(eps_line, dtype=np.float64)
        key = (
            _hash_array(eps_line),
            eps_line.size,
            round(float(dl), 12),
            round(float(omega), 12),
            int(order),
        )
        cached = self._modes.get(key)
        if cached is None:
            cached = SlabModeSolver(eps_line, dl, omega).mode(order)
            self._modes.put(key, cached)
        return cached

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, dict]:
        """Hit/miss counters and rates per cache (benchmark evidence).

        Each cache reports raw ``hits``/``misses``/``size`` plus
        ``hit_rate_pct`` (0.0 when the cache was never consulted); the
        ``solver`` entry aggregates backend work (factorizations, RHS
        columns, Krylov iterations, fallbacks).
        """
        report: dict[str, dict] = {}
        for name, cache in (
            ("assemblies", self._assemblies),
            ("factorizations", self._factorizations),
            ("modes", self._modes),
        ):
            total = cache.hits + cache.misses
            report[name] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "size": len(cache),
                "hit_rate_pct": round(100.0 * cache.hits / total, 1) if total else 0.0,
            }
        report["solver"] = {
            "backend": self.solver_config.backend,
            **self.solver_stats.as_dict(),
        }
        return report

    def clear(self) -> None:
        """Drop every cache; wait for pending factorizations and drop them."""
        pending, self._pending = self._pending, {}
        for entry in pending.values():
            if entry.pid == os.getpid():
                entry.future.exception()  # wait; a failure is dropped too
        self._assemblies.clear()
        self._factorizations.clear()
        self._modes.clear()
        self.solver_stats.reset()
        with self._anchor_lock:
            self._anchors.clear()

    # Pickling support: ship an empty workspace (LU objects cannot be
    # pickled; worker processes re-warm their own caches).
    def __getstate__(self):
        return {
            "factor_options": self.factor_options,
            "solver_config": self.solver_config,
            "max_assemblies": self._assemblies.maxsize,
            "max_factorizations": self._factorizations.maxsize,
            "max_modes": self._modes.maxsize,
        }

    def __setstate__(self, state):
        self.__init__(
            max_assemblies=state["max_assemblies"],
            max_factorizations=state["max_factorizations"],
            max_modes=state["max_modes"],
            factor_options=state["factor_options"],
            solver_config=state.get("solver_config"),
        )


_SHARED = SimulationWorkspace()


def shared_workspace() -> SimulationWorkspace:
    """The process-wide default workspace."""
    return _SHARED


def reset_shared_workspace() -> SimulationWorkspace:
    """Drop every shared cache (tests / benchmarks).

    Clears the shared instance *in place* so that every device, problem
    and solver holding a reference to it goes cold too, and returns it.
    """
    _SHARED.clear()
    return _SHARED
