"""Recycled anchor LUs: mixed-precision twins and Krylov regressions.

The Krylov backends recycle an anchor corner's LU as the preconditioner
for its sibling corners.  Covers

* the ``precond_dtype`` configuration surface, and the refusal of the
  retired subspace-recycling knobs (``recycle_dim``, format-v1
  checkpoints whose config digest carries it),
* the mixed-precision preconditioner (:class:`SinglePrecisionLU` twin,
  refinement engagement, full-tolerance results, one twin serving every
  block of an epoch),
* regressions on the recycled-anchor paths: the ``solve_many`` mid-block
  fallback short-circuit, and the ``solver.block_exact`` /
  ``solver.block_fallback`` trace spans.
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
from repro.fdfd import FactorOptions, SimGrid, SimulationWorkspace
from repro.fdfd.linalg import (
    PreconditionedKrylovSolver,
    SinglePrecisionLU,
    SolverConfig,
)
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
def retired_checkpoint_bytes(version=1):
    """A checkpoint framed as a retired format (v1 carried ``recycle_dim``)."""
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
    return _HEADER.pack(_MAGIC, version, len(payload), digest) + payload


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
            DesignCheckpoint.from_bytes(retired_checkpoint_bytes())
        # v2 digests carry krylov_method / gmres_restart / max_anchors.
        with pytest.raises(
            CheckpointError,
            match=r"format v2.*'krylov' backend.*krylov_method, gmres_restart "
            r"and max_anchors.*'krylov-block' or 'direct'",
        ):
            DesignCheckpoint.from_bytes(retired_checkpoint_bytes(2))


# --------------------------------------------------------------------- #
# Mixed-precision preconditioning                                       #
# --------------------------------------------------------------------- #
class TestMixedPrecision:
    def test_single_precision_lu_twin(self):
        lap, d0 = synthetic_system(seed=13)
        matrix = (lap + sp.diags(d0)).tocsc()
        lu64 = spla.splu(matrix)
        lu32 = SinglePrecisionLU.factorize(matrix, FactorOptions())
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

    def test_float32_twin_serves_every_block_of_an_epoch(
        self, grid, eps, monkeypatch
    ):
        """An anchor's twin, once cut, keeps preconditioning its blocks.

        Releasing the anchor's matrix after the twin factorization must
        not hand later blocks the float64 LU in its place.
        """
        family = corner_family(eps)
        cfg = SolverConfig(backend="krylov-block", precond_dtype="float32")
        ws = SimulationWorkspace(solver_config=cfg)
        assembly = ws.assembly(grid, OMEGA)
        twin_sweeps = []
        solve32 = SinglePrecisionLU.solve

        def counted(self, rhs, trans="N"):
            twin_sweeps.append(rhs.shape)
            return solve32(self, rhs, trans)

        monkeypatch.setattr(SinglePrecisionLU, "solve", counted)
        for seed in (3, 4):
            refined, swept = ws.solver_stats.refinement_sweeps, len(twin_sweeps)
            block = ws.begin_corner_block(assembly, family)
            block.solve_block(rhs_block(grid, len(family), seed=seed))
            assert ws.solver_stats.refinement_sweeps > refined
            assert len(twin_sweeps) > swept
        # The nominal anchor's LU and its one float32 twin.
        assert ws.solver_stats.factorizations == 2
        assert ws.solver_stats.fallbacks == 0

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
    def _hard_solver(self, grid, eps, **overrides):
        """An unpreconditioned Helmholtz system: will not converge."""
        assembly = SimulationWorkspace().assembly(grid, OMEGA)
        cfg = SolverConfig(
            **{"backend": "krylov-block", "fallback": False, **overrides}
        )
        return PreconditionedKrylovSolver.build(
            assembly.system_matrix(eps), FactorOptions(), cfg,
            assembly=assembly, eps=eps, preconditioner=None, anchor_eps=eps,
        )

    def test_solve_many_batches_after_midblock_fallback(self, grid, eps):
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal((grid.n_cells, 5)) + 0j
        strict = self._hard_solver(grid, eps, maxiter=3)
        with pytest.raises(RuntimeError, match="did not converge"):
            strict.solve_many(rhs)
        # The budget caps every column's iterations.
        assert 0 < strict.stats.wasted_iterations <= 3 * 5
        solver = self._hard_solver(grid, eps, maxiter=3, fallback=True)
        out = solver.solve_many(rhs)
        # The columns miss the budget together; the one fallback
        # factorization then solves them in ONE batched matrix-RHS
        # sweep, not 5 per-column round-trips.
        assert solver.stats.fallbacks == 1
        assert solver.stats.batched_calls == 1
        np.testing.assert_allclose(solver.matrix @ out, rhs, atol=1e-8)

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
