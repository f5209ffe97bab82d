"""Recycled anchor LUs: mixed-precision twins and Krylov regressions.

The Krylov backends recycle an anchor corner's LU as the preconditioner
for its sibling corners.  Covers

* the ``precond_dtype`` configuration surface, and the refusal of the
  retired subspace-recycling knobs (``recycle_dim``, format-v1
  checkpoints whose config digest carries it),
* the mixed-precision preconditioner (:class:`SinglePrecisionLU` twin,
  refinement engagement, full-tolerance results),
* regressions on the recycled-anchor paths: the GMRES iteration-budget
  overshoot, the ``solve_many`` mid-block fallback short-circuit, and
  the ``solver.block_exact`` / ``solver.block_fallback`` trace spans.
"""

import hashlib
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core import OptimizerConfig
from repro.core.checkpoint import (
    _HEADER,
    _MAGIC,
    CheckpointError,
    DesignCheckpoint,
    config_digest,
)
from repro.fdfd import SimGrid, SimulationWorkspace
from repro.fdfd.linalg import (
    PreconditionedKrylovSolver,
    SinglePrecisionLU,
    SolverConfig,
)
from repro.fdfd.workspace import default_factor_options
from repro.obs.trace import disable_tracing, enable_tracing
from repro.utils.constants import omega_from_wavelength

pytestmark = pytest.mark.krylov

OMEGA = omega_from_wavelength(1.55)


@pytest.fixture
def grid():
    return SimGrid((40, 36), dl=0.05, npml=8)


@pytest.fixture
def eps(grid):
    rng = np.random.default_rng(7)
    return 1.0 + 11.0 * rng.uniform(size=grid.shape)


def corner_family(eps, bumps=(0.3, 0.6, -0.2)):
    family = [eps]
    for bump in bumps:
        corner = eps.copy()
        corner[14:26, 12:24] += bump
        family.append(corner)
    return family


def rhs_block(grid, k, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((grid.n_cells, k)) + 1j * rng.standard_normal(
        (grid.n_cells, k)
    )


def synthetic_system(n=120, seed=0):
    """A small complex shifted-Laplacian family: (L, anchor diagonal)."""
    rng = np.random.default_rng(seed)
    lap = sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=(-1, 0, 1),
        format="csc",
        dtype=np.complex128,
    )
    # Indefinite complex shift, Helmholtz-like: not SPD, mildly damped.
    d0 = -1.2 + 0.05j + 0.3 * rng.uniform(size=n)
    return lap, d0


# --------------------------------------------------------------------- #
# Configuration surface                                                 #
# --------------------------------------------------------------------- #
def v1_checkpoint_bytes():
    """A checkpoint framed as format v1, the last to carry ``recycle_dim``."""
    ckpt = DesignCheckpoint(
        config_digest=config_digest(OptimizerConfig(), "bending"),
        device_name="bending",
        next_iteration=2,
        theta=np.arange(6.0),
        adam_state={"t": 2, "lr": 0.1},
        rng_state={"bit_generator": "PCG64", "state": 7},
    )
    payload = pickle.dumps(ckpt)
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return _HEADER.pack(_MAGIC, 1, len(payload), digest) + payload


class TestConfigSurface:
    def test_negative_recycle_dim_rejected(self):
        # The field is gone: any recycle_dim, negative or not, is refused.
        for dim in (-1, 8):
            with pytest.raises(TypeError, match="recycle_dim"):
                SolverConfig(recycle_dim=dim)

    def test_bad_precond_dtype_rejected(self):
        with pytest.raises(ValueError, match="precond_dtype"):
            SolverConfig(precond_dtype="float16")

    def test_checkpoint_digest_binds_recycling_fields(self):
        """``precond_dtype`` binds; pre-removal (v1) checkpoints are refused."""
        base = config_digest(OptimizerConfig(solver="krylov-block"), "bending")
        mixed = config_digest(
            OptimizerConfig(
                solver=SolverConfig(
                    backend="krylov-block", precond_dtype="float32"
                )
            ),
            "bending",
        )
        assert base != mixed
        # Every v1 checkpoint's digest carries `recycle_dim`; the format
        # bump refuses them all, naming the removal and the replacements.
        with pytest.raises(
            CheckpointError,
            match=r"format v1.*recycle_dim.*'batched'.*'krylov-block' or "
            r"'direct'",
        ):
            DesignCheckpoint.from_bytes(v1_checkpoint_bytes())


# --------------------------------------------------------------------- #
# Mixed-precision preconditioning                                       #
# --------------------------------------------------------------------- #
class TestMixedPrecision:
    def test_single_precision_lu_twin(self):
        lap, d0 = synthetic_system(seed=13)
        matrix = (lap + sp.diags(d0)).tocsc()
        lu64 = spla.splu(matrix)
        lu32 = SinglePrecisionLU.factorize(matrix, default_factor_options())
        rng = np.random.default_rng(0)
        b = rng.standard_normal(d0.size) + 1j * rng.standard_normal(d0.size)
        x32 = lu32.solve(b)
        assert x32.dtype == np.complex128  # upcast on return
        # Float32 factors: ~single-precision accuracy, not float64.
        rel = np.linalg.norm(x32 - lu64.solve(b)) / np.linalg.norm(b)
        assert 0 < rel < 1e-4
        # The transposed orientation must route through the same twin.
        xt = lu32.solve(b, trans="T")
        rel_t = np.linalg.norm(matrix.T @ xt - b) / np.linalg.norm(b)
        assert rel_t < 1e-4

    def test_blocked_float32_refines_to_full_tolerance(self, grid, eps):
        family = corner_family(eps)
        cfg = SolverConfig(backend="krylov-block", precond_dtype="float32")
        ws = SimulationWorkspace(solver_config=cfg)
        assembly = ws.assembly(grid, OMEGA)
        block = ws.begin_corner_block(assembly, family)
        rhs = rhs_block(grid, len(family), seed=3)
        out = block.solve_block(rhs)
        # Refinement actually engaged (the f32 preconditioner path), and
        # every column still certifies against the float64 tolerance.
        assert ws.solver_stats.refinement_sweeps > 0
        for j, corner in enumerate(family):
            matrix = assembly.system_matrix(corner)
            res = np.linalg.norm(matrix @ out[:, j] - rhs[:, j])
            assert res <= 10 * cfg.tol * np.linalg.norm(rhs[:, j])

    def test_float64_config_keeps_matrixless_anchors(self, grid, eps):
        ws = SimulationWorkspace(solver_config="krylov-block")
        assembly = ws.assembly(grid, OMEGA)
        ws.begin_corner_block(assembly, corner_family(eps))
        (anchors,) = ws._anchors.values()
        for anchor in anchors.values():
            assert anchor._matrix is None  # no twin possible, none kept


# --------------------------------------------------------------------- #
# Recycled-anchor path regressions                                      #
# --------------------------------------------------------------------- #
class TestSatelliteRegressions:
    def _hard_solver(self, **overrides):
        """An unpreconditioned Helmholtz-like system: will not converge."""
        lap, d0 = synthetic_system(n=200, seed=17)
        matrix = (lap + sp.diags(d0)).tocsc()
        cfg = SolverConfig(backend="krylov", fallback=False, **overrides)
        return PreconditionedKrylovSolver(
            matrix, None, default_factor_options(), cfg
        )

    def test_gmres_budget_is_exact(self):
        """maxiter must cap *inner* iterations, not restart cycles.

        The old sizing ran ceil(maxiter/restart) full cycles — up to
        restart-1 iterations over budget (10 budgeted, 12 burnt).
        """
        solver = self._hard_solver(
            krylov_method="gmres", maxiter=10, gmres_restart=4
        )
        b = np.ones(200, dtype=complex)
        with pytest.raises(RuntimeError, match="did not converge"):
            solver.solve(b)
        assert solver.stats.wasted_iterations <= 10

    def test_solve_many_batches_after_midblock_fallback(self):
        lap, d0 = synthetic_system(n=200, seed=17)
        matrix = (lap + sp.diags(d0)).tocsc()
        cfg = SolverConfig(backend="krylov", maxiter=3)
        solver = PreconditionedKrylovSolver(
            matrix, None, default_factor_options(), cfg
        )
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal((200, 5)) + 0j
        out = solver.solve_many(rhs)
        # Column 0 falls back mid-block; the remaining 4 columns must
        # ride ONE batched matrix-RHS sweep, not 4 scalar round-trips.
        assert solver.stats.fallbacks == 1
        assert solver.stats.batched_calls == 1
        np.testing.assert_allclose(matrix @ out, rhs, atol=1e-8)

    def test_block_exact_and_fallback_spans(self, grid, eps):
        family = corner_family(eps)
        # maxiter=1 forces every non-anchor column through the fallback.
        cfg = SolverConfig(backend="krylov-block", maxiter=1)
        ws = SimulationWorkspace(solver_config=cfg)
        assembly = ws.assembly(grid, OMEGA)
        block = ws.begin_corner_block(assembly, family)
        tracer = enable_tracing()
        try:
            block.solve_block(rhs_block(grid, len(family), seed=5))
            records = [rec for rec in tracer.drain()]
        finally:
            disable_tracing()
        by_name = {}
        for rec in records:
            by_name.setdefault(rec["name"], []).append(rec)
        assert "solver.block_exact" in by_name  # the anchor column
        assert "solver.block_fallback" in by_name
        for rec in by_name["solver.block_exact"]:
            assert rec["args"]["columns"] >= 1
        # Every column is either the anchor's (exact) or iterated; with
        # maxiter=1 most — but not necessarily all — of the non-anchor
        # columns miss tolerance and must surface as fallback spans.
        fell_back = sum(
            rec["args"]["columns"] for rec in by_name["solver.block_fallback"]
        )
        assert 1 <= fell_back <= len(family) - 1
