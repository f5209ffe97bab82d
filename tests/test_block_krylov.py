"""Block-corner Krylov solves + the solver-path bugfixes.

Covers

* the ``PreconditionedKrylovSolver.solve_many`` post-fallback
  short-circuit (a block after a paid-for fallback factorization is one
  matrix-RHS call, not k per-column round-trips) and its mid-block
  fallback (columns that miss the budget together share one batched
  fallback solve),
* the descriptive zero-corner error in ``Boson1Optimizer.loss``,
* the ``krylov-block`` backend: :class:`CornerBlockSolver` accuracy /
  masking / fallback re-anchoring, its per-matrix solves, corner-batched
  device power ops, and block-vs-direct agreement of optimizer
  trajectories and gradients on the bending and isolator devices.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import Boson1Optimizer, OptimizerConfig
from repro.core.sampling import SamplingStrategy
from repro.devices import make_device
from repro.eval import evaluate_post_fab
from repro.fab.process import FabricationProcess
from repro.fdfd import (
    FactorOptions,
    HelmholtzSolver,
    SimGrid,
    SimulationWorkspace,
)
from repro.fdfd.linalg import (
    CornerBlockSolver,
    PreconditionedKrylovSolver,
    SolverConfig,
)
from repro.obs.trace import disable_tracing, enable_tracing
from repro.params import rasterize_segments
from repro.utils.constants import omega_from_wavelength

OMEGA = omega_from_wavelength(1.55)


@pytest.fixture
def grid():
    return SimGrid((40, 36), dl=0.05, npml=8)


@pytest.fixture
def eps(grid):
    rng = np.random.default_rng(7)
    return 1.0 + 11.0 * rng.uniform(size=grid.shape)


def corner_family(eps, bumps=(0.3, 0.6, -0.2)):
    """Nominal + design-window perturbations, like an iteration's corners."""
    family = [eps]
    for bump in bumps:
        corner = eps.copy()
        corner[14:26, 12:24] += bump
        family.append(corner)
    return family


def rhs_block(grid, k=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((grid.n_cells, k)) + 1j * rng.standard_normal(
        (grid.n_cells, k)
    )


# --------------------------------------------------------------------- #
# Satellite bugfixes                                                    #
# --------------------------------------------------------------------- #
class TestSolveManyPostFallback:
    def _fallen_back_solver(self, grid, eps):
        """A per-matrix solver that already paid for its direct fallback."""
        cfg = SolverConfig(backend="krylov-block", maxiter=1)
        ws = SimulationWorkspace(solver_config=cfg)
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)  # anchor
        far = np.full(grid.shape, 6.0)
        solver = HelmholtzSolver(grid, far, OMEGA, workspace=ws)
        solver.solve_raw(rhs_block(grid)[:, 0])  # triggers the fallback
        assert ws.stats()["solver"]["fallbacks"] == 1
        return ws, solver

    def test_block_short_circuits_to_fallback_factorization(self, grid, eps):
        ws, solver = self._fallen_back_solver(grid, eps)
        before = ws.stats()["solver"]
        block = rhs_block(grid, k=4, seed=3)
        out = solver.solve_many(block)
        after = ws.stats()["solver"]
        # One matrix-RHS sweep through the already-paid factorization:
        # no new factorization, no Krylov iterations, one batched call.
        assert after["factorizations"] == before["factorizations"]
        assert after["iterations"] == before["iterations"]
        assert after["batched_calls"] == before["batched_calls"] + 1
        ref = HelmholtzSolver(grid, np.full(grid.shape, 6.0), OMEGA, workspace=None)
        for j in range(4):
            expect = ref.solve_raw(block[:, j])
            np.testing.assert_allclose(out[:, j], expect, rtol=1e-10, atol=1e-12)

    def test_transposed_block_also_short_circuits(self, grid, eps):
        ws, solver = self._fallen_back_solver(grid, eps)
        block = rhs_block(grid, k=2, seed=4)
        out = solver.solve_many(block, trans="T")
        ref = HelmholtzSolver(grid, np.full(grid.shape, 6.0), OMEGA, workspace=None)
        for j in range(2):
            expect = ref.solve_transposed(block[:, j])
            np.testing.assert_allclose(out[:, j], expect, rtol=1e-10, atol=1e-12)

    def _far_anchor_solver(self, grid, eps, **overrides):
        """A per-matrix solver preconditioned by the vacuum's float64 LU.

        The anchor is far from ``eps``, so a small budget cannot converge.
        """
        assembly = SimulationWorkspace().assembly(grid, OMEGA)
        vacuum = np.ones(grid.shape)
        options = FactorOptions()
        cfg = SolverConfig(
            **{"backend": "krylov-block", "fallback": False, **overrides}
        )
        kernel = CornerBlockSolver(
            assembly, [eps], options.splu(assembly.system_matrix(vacuum)),
            None, options, cfg, anchor_eps=vacuum,
        )
        return PreconditionedKrylovSolver(assembly.system_matrix(eps), kernel)

    def test_solve_many_batches_after_midblock_fallback(self, grid, eps):
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal((grid.n_cells, 5)) + 0j
        strict = self._far_anchor_solver(grid, eps, maxiter=3)
        with pytest.raises(RuntimeError, match="did not converge"):
            strict.solve_many(rhs)
        # The budget caps every column's iterations.
        assert 0 < strict.stats.wasted_iterations <= 3 * 5
        solver = self._far_anchor_solver(grid, eps, maxiter=3, fallback=True)
        out = solver.solve_many(rhs)
        # The columns miss the budget together; the one fallback
        # factorization then solves them in ONE batched matrix-RHS
        # sweep, not 5 per-column round-trips.
        assert solver.stats.fallbacks == 1
        assert solver.stats.batched_calls == 1
        np.testing.assert_allclose(solver.matrix @ out, rhs, atol=1e-8)


class _EmptySampling(SamplingStrategy):
    name = "empty-for-test"

    def corners(self, iteration, rng, worst_finder=None):
        return []


class TestZeroCornerLossError:
    def test_loss_names_the_sampler(self):
        device = make_device("bending")
        optimizer = Boson1Optimizer(
            device, OptimizerConfig(iterations=1, seed=0, sampling="axial")
        )
        optimizer.sampler = _EmptySampling()
        theta = Tensor(optimizer.theta, requires_grad=True)
        with pytest.raises(ValueError, match="empty-for-test"):
            optimizer.loss(theta, 0)
        optimizer.close()


# --------------------------------------------------------------------- #
# CornerBlockSolver unit behaviour                                      #
# --------------------------------------------------------------------- #
class TestCornerBlockSolver:
    def _block(self, grid, eps_list, **overrides):
        cfg = SolverConfig(backend="krylov-block", **overrides)
        ws = SimulationWorkspace(solver_config=cfg)
        assembly = ws.assembly(grid, OMEGA)
        return ws, ws.begin_corner_block(assembly, eps_list)

    def test_only_krylov_block_is_block_capable(self):
        assert not SimulationWorkspace(
            solver_config="direct"
        ).supports_corner_block
        assert SimulationWorkspace(
            solver_config="krylov-block"
        ).supports_corner_block

    def test_direct_backend_returns_none(self, grid, eps):
        ws = SimulationWorkspace()
        assembly = ws.assembly(grid, OMEGA)
        assert ws.begin_corner_block(assembly, [eps]) is None

    def test_scalar_path_matches_krylov_backend(self, grid, eps):
        """Per-matrix solves run the kernel as a one-system block."""
        ws = SimulationWorkspace(
            solver_config=SolverConfig(backend="krylov-block", tol=1e-10)
        )
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)  # anchor
        corner = corner_family(eps)[1]
        solver = HelmholtzSolver(grid, corner, OMEGA, workspace=ws)
        assert isinstance(solver.linsolver, PreconditionedKrylovSolver)
        b = rhs_block(grid)[:, 0]
        ref = HelmholtzSolver(grid, corner, OMEGA, workspace=None)
        x = solver.solve_raw(b)
        y = ref.solve_raw(b)
        assert np.linalg.norm(x - y) / np.linalg.norm(y) < 1e-8
        stats = ws.stats()["solver"]
        assert stats["krylov_solves"] == 1
        assert stats["block_solves"] == stats["block_sweeps"] == 0

        # A calibration-like system: the straight guide of the anchor at
        # a rescaled temperature, so it differs from the anchor exactly
        # on the waveguide rows — Omega spans the guide, PML included.
        guide = np.zeros(grid.shape)
        guide[:, 15:21] = 1.0
        anchor_eps = 1.0 + 11.0 * guide
        calib_eps = 1.0 + 11.0 * guide * 1.0127
        cfg = SolverConfig(backend="krylov-block", tol=1e-8, maxiter=30)
        ws = SimulationWorkspace(solver_config=cfg)
        HelmholtzSolver(grid, anchor_eps, OMEGA, workspace=ws)  # anchor
        calib = HelmholtzSolver(grid, calib_eps, OMEGA, workspace=ws)
        assert isinstance(calib.linsolver, PreconditionedKrylovSolver)
        matrix = ws.assembly(grid, OMEGA).system_matrix(calib_eps)
        for solve, op in (
            (calib.solve_raw, matrix), (calib.solve_transposed, matrix.T)
        ):
            x = solve(b)
            assert np.linalg.norm(b - op @ x) <= cfg.tol * np.linalg.norm(b)
        stats = ws.stats()["solver"]
        assert (stats["krylov_solves"], stats["fallbacks"]) == (2, 0)

    def test_block_solves_match_direct_reference(self, grid, eps):
        family = corner_family(eps)
        ws, block = self._block(grid, family, tol=1e-10, maxiter=30)
        assert isinstance(block, CornerBlockSolver)
        b = rhs_block(grid, k=len(family), seed=1)
        for trans in ("N", "T"):
            x = block.solve_block(b, trans=trans)
            for i, eps_i in enumerate(family):
                ref = HelmholtzSolver(grid, eps_i, OMEGA, workspace=None)
                solve = ref.solve_raw if trans == "N" else ref.solve_transposed
                y = solve(b[:, i])
                assert np.linalg.norm(x[:, i] - y) / np.linalg.norm(y) < 1e-8

    def test_anchor_column_is_exact_and_sweeps_are_blocked(self, grid, eps):
        family = corner_family(eps)
        ws, block = self._block(grid, family, tol=1e-8, maxiter=30)
        b = rhs_block(grid, k=len(family), seed=2)
        block.solve_block(b)
        diag = block.diagnostics
        # The nominal column is the anchor: solved exactly, no sweeps.
        assert diag.exact_columns == 1
        assert len(diag.column_iterations) == len(family) - 1
        # The whole point: blocked sweeps number far fewer than the sum
        # of per-column iterations that per-matrix solves would pay.
        assert diag.sweeps == max(diag.column_iterations)
        assert diag.sweeps < sum(diag.column_iterations)
        stats = ws.stats()["solver"]
        assert stats["block_solves"] == 1
        assert stats["block_sweeps"] == diag.sweeps
        assert stats["factorizations"] == 1  # only the anchor

    def test_systems_mapping_shares_one_system_across_columns(self, grid, eps):
        family = corner_family(eps, bumps=(0.4,))
        ws, block = self._block(grid, family, tol=1e-10, maxiter=30)
        b = rhs_block(grid, k=3, seed=5)
        systems = np.array([1, 0, 1])  # fwd/bwd-style repeated system
        x = block.solve_block(b, systems=systems)
        for j, s in enumerate(systems):
            ref = HelmholtzSolver(grid, family[s], OMEGA, workspace=None)
            y = ref.solve_raw(b[:, j])
            assert np.linalg.norm(x[:, j] - y) / np.linalg.norm(y) < 1e-8

    def test_fallback_column_is_exact_and_reanchors(self, grid, eps):
        far = np.full(grid.shape, 6.0)  # nothing like the anchor
        ws, block = self._block(grid, [eps, far], maxiter=2)
        b = rhs_block(grid, k=2, seed=6)
        x = block.solve_block(b)
        ref = HelmholtzSolver(grid, far, OMEGA, workspace=None)
        np.testing.assert_allclose(
            x[:, 1], ref.solve_raw(b[:, 1]), rtol=1e-10, atol=1e-12
        )
        stats = ws.stats()["solver"]
        assert stats["fallbacks"] == 1
        assert stats["factorizations"] == 2
        assert block.diagnostics.fallback_columns == 1
        # The fallback LU became a workspace anchor: a nearby eps now
        # iterates against it instead of the distant nominal anchor.
        near_far = far.copy()
        near_far[20, 20] += 0.05
        again = HelmholtzSolver(grid, near_far, OMEGA, workspace=ws)
        y = again.solve_raw(b[:, 0])
        assert ws.stats()["solver"]["fallbacks"] == 1  # no new fallback
        resid = np.linalg.norm(again.system_matrix @ y - b[:, 0])
        assert resid / np.linalg.norm(b[:, 0]) < 1e-4

    def test_no_fallback_raises(self, grid, eps):
        far = np.full(grid.shape, 6.0)
        ws, block = self._block(grid, [eps, far], maxiter=2, fallback=False)
        with pytest.raises(RuntimeError, match="did not converge"):
            block.solve_block(rhs_block(grid, k=2))

    def test_bad_shapes_and_mappings_raise(self, grid, eps):
        ws, block = self._block(grid, [eps])
        with pytest.raises(ValueError, match="block"):
            block.solve_block(rhs_block(grid)[:, 0])
        with pytest.raises(ValueError, match="mapping"):
            block.solve_block(rhs_block(grid, k=2))
        with pytest.raises(ValueError, match="out of range"):
            block.solve_block(rhs_block(grid, k=1), systems=np.array([3]))

    def test_zero_rhs_column_converges_to_zero(self, grid, eps):
        family = corner_family(eps, bumps=(0.3,))
        ws, block = self._block(grid, family, tol=1e-8)
        b = rhs_block(grid, k=2, seed=8)
        b[:, 1] = 0.0
        x = block.solve_block(b)
        np.testing.assert_array_equal(x[:, 1], 0.0)

    def test_transposed_pml_corner_rhs_meets_tol_unscaled(self, grid, eps):
        """Adjoint columns converge on ``A^T``'s own residual, not ``S``'s.

        The block solves ``A^T x = b`` as ``S A^-1 S^-1 b``; a right-hand
        side deep in a PML corner, where ``|S|`` is largest, is where a
        convergence test in the scaled system would be furthest off.
        """
        family = corner_family(eps)
        ws, block = self._block(grid, family, maxiter=30)
        s = ws.assembly(grid, OMEGA).symmetrizer.reshape(grid.shape)
        npml = grid.npml
        assert np.abs(s[:npml, :npml]).max() > 500.0
        rng = np.random.default_rng(11)
        b = np.zeros((grid.n_cells, len(family)), dtype=complex)
        corner = np.zeros(grid.shape, dtype=bool)
        corner[:npml, :npml] = True
        for j in range(len(family)):
            b[corner.ravel(), j] = rng.standard_normal(corner.sum()) + 1j
        x = block.solve_block(b, trans="T")
        assert ws.stats()["solver"]["fallbacks"] == 0
        assembly = ws.assembly(grid, OMEGA)
        for j, corner_eps in enumerate(family):
            matrix = assembly.system_matrix(corner_eps)
            resid = np.linalg.norm(b[:, j] - matrix.T @ x[:, j])
            assert resid <= block.config.tol * np.linalg.norm(b[:, j])

    def test_mismatched_anchor_falls_back_instead_of_lying(self, grid, eps):
        """Only the true-residual check stands between a wrong anchor and
        a wrong answer: the recurrences trust ``M = L + diag(anchor)``.

        Claiming the LU of ``eps`` factorizes the first corner makes that
        corner's residual vanish on Omega at the seed and steers the
        other column's recurrences towards the wrong system.
        """
        assembly = SimulationWorkspace().assembly(grid, OMEGA)
        options = FactorOptions()
        family = corner_family(eps, bumps=(0.3, 0.6))[1:]
        block = CornerBlockSolver(
            assembly, family, options.splu(assembly.system_matrix(eps)),
            {}, options, SolverConfig(backend="krylov-block"),
            anchor_eps=family[0],
        )
        b = rhs_block(grid, k=2, seed=12)
        x = block.solve_block(b)
        for j, corner in enumerate(family):
            resid = np.linalg.norm(
                assembly.system_matrix(corner) @ x[:, j] - b[:, j]
            )
            assert resid <= block.config.tol * np.linalg.norm(b[:, j])
        assert block.stats.fallbacks > 0

    def test_block_exact_and_fallback_spans(self, grid, eps):
        family = corner_family(eps)
        # maxiter=1 forces most non-anchor columns through the fallback.
        cfg = SolverConfig(backend="krylov-block", maxiter=1)
        ws = SimulationWorkspace(solver_config=cfg)
        assembly = ws.assembly(grid, OMEGA)
        block = ws.begin_corner_block(assembly, family)
        tracer = enable_tracing()
        try:
            block.solve_block(rhs_block(grid, len(family), seed=5))
            records = tracer.drain()
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

    def test_precond_spans_nest_under_sweeps(self, grid, eps):
        """One ``solver.precond`` span per preconditioner application."""
        assembly, family, block, calls = self._counted_block(
            grid, eps, bumps=(0.3, 0.6, -0.2)
        )
        tracer = enable_tracing()
        try:
            block.solve_block(rhs_block(grid, k=3, seed=13), trans="T")
            records = tracer.drain()
        finally:
            disable_tracing()
        (sweeps,) = [r for r in records if r["name"] == "solver.block_sweeps"]
        precond = [r for r in records if r["name"] == "solver.precond"]
        assert len(precond) == len(calls) > 1
        assert sum(r["args"]["columns"] for r in precond) == sum(calls)
        assert all(r["parent"] == sweeps["id"] for r in precond)

    def _counted_block(self, grid, eps, bumps):
        """A block preconditioned by ``eps``'s LU, counting sweep columns."""
        ws = SimulationWorkspace()
        assembly = ws.assembly(grid, OMEGA)
        options = FactorOptions()
        family = corner_family(eps, bumps=bumps)[1:]
        block = CornerBlockSolver(
            assembly, family, options.splu(assembly.system_matrix(eps)),
            {}, options, SolverConfig(backend="krylov-block"), anchor_eps=eps,
        )
        calls = []
        apply = block._apply_preconditioner

        def counted(columns):
            calls.append(columns.shape[1])
            return apply(columns)

        block._apply_preconditioner = counted
        return assembly, family, block, calls

    def test_half_step_columns_skip_second_preconditioner(self, grid, eps):
        """Columns whose ``s`` meets tol pay no second application pair.

        The 3e-4 corner is so close to the anchor that its half step
        already converges on the first sweep; the 0.6 corner needs two.
        """
        assembly, family, block, calls = self._counted_block(
            grid, eps, bumps=(3e-4, 0.6)
        )
        b = rhs_block(grid, k=2, seed=9)
        x = block.solve_block(b)
        assert block.diagnostics.column_iterations == [1, 2]
        # Seed (both columns), sweep 1's first half (both), its second
        # half (only the unconverged column), then sweep 2 (one column).
        assert calls == [2, 2, 1, 1, 1]
        for j, corner in enumerate(family):
            resid = np.linalg.norm(assembly.system_matrix(corner) @ x[:, j] - b[:, j])
            assert resid <= block.config.tol * np.linalg.norm(b[:, j])

        # A sweep where every column meets tol at the half step skips the
        # second application entirely.
        assembly, family, block, calls = self._counted_block(
            grid, eps, bumps=(1e-3,)
        )
        b = rhs_block(grid, k=1, seed=9)
        x = block.solve_block(b)
        assert block.diagnostics.column_iterations == [1]
        assert calls == [1, 1]
        resid = np.linalg.norm(assembly.system_matrix(family[0]) @ x[:, 0] - b[:, 0])
        assert resid <= block.config.tol * np.linalg.norm(b[:, 0])


# --------------------------------------------------------------------- #
# Corner-batched device power ops + engine/eval integration             #
# --------------------------------------------------------------------- #
def device_with_backend(name, backend):
    device = make_device(name)
    device.configure_simulation_cache(
        True, SimulationWorkspace(solver_config=backend)
    )
    return device


@pytest.fixture(scope="module")
def bend_pattern():
    device = make_device("bending")
    return rasterize_segments(
        device.design_shape, device.dl, device.init_segments()
    )


@pytest.mark.krylov
class TestCornerBatchedPowers:
    TIGHT = SolverConfig(backend="krylov-block", tol=1e-10, maxiter=40)

    def test_block_powers_match_per_corner_path(self, bend_pattern):
        device = device_with_backend("bending", self.TIGHT)
        patterns = [
            bend_pattern,
            np.clip(bend_pattern * 0.9, 0.0, 1.0),
            np.clip(bend_pattern + 0.05, 0.0, 1.0),
        ]
        alphas = [1.0, 0.999, 1.0]
        batched = device.port_powers_array_corners(patterns, alphas)
        assert batched is not None
        for pattern, alpha, powers in zip(patterns, alphas, batched):
            reference = device.port_powers_array_all(pattern, alpha)
            for direction in device.directions:
                for port, value in reference[direction].items():
                    assert powers[direction][port] == pytest.approx(
                        value, rel=1e-6, abs=1e-12
                    )

    def test_block_gradients_match_direct(self, bend_pattern):
        blocked = device_with_backend("bending", self.TIGHT)
        direct = device_with_backend("bending", "direct")
        patterns = [bend_pattern, np.clip(bend_pattern * 0.95, 0.0, 1.0)]
        grads = {}
        for key, device in (("block", blocked), ("direct", direct)):
            tensors = [Tensor(p.copy(), requires_grad=True) for p in patterns]
            if key == "block":
                powers_list = device.port_powers_corners(tensors, [1.0, 1.0])
                assert powers_list is not None
            else:
                powers_list = [
                    device.port_powers_all(t, 1.0) for t in tensors
                ]
            total = None
            for powers in powers_list:
                for direction in device.directions:
                    for value in powers[direction].values():
                        total = value if total is None else total + value
            total.backward()
            grads[key] = [t.grad.copy() for t in tensors]
        for g_block, g_direct in zip(grads["block"], grads["direct"]):
            rel = np.linalg.norm(g_block - g_direct) / np.linalg.norm(g_direct)
            assert rel < 1e-6

    def test_non_block_backend_solves_each_corner(self, bend_pattern):
        device = device_with_backend("bending", "direct")
        patterns = [bend_pattern, np.clip(bend_pattern * 0.9, 0.0, 1.0)]
        alphas = [1.0, 0.999]
        family = device.port_powers_array_corners(patterns, alphas)
        for pattern, alpha, powers in zip(patterns, alphas, family):
            assert powers == device.port_powers_array_all(pattern, alpha)
        assert device.workspace.stats()["solver"]["block_solves"] == 0

    def test_mismatched_lengths_raise(self, bend_pattern):
        device = device_with_backend("bending", "krylov-block")
        with pytest.raises(ValueError, match="temperature scales"):
            device.port_powers_corners([bend_pattern], [1.0, 1.0])


@pytest.mark.krylov
class TestEngineAndEvalAgreement:
    def _trace(self, device_name, backend, iterations):
        device = make_device(device_name)
        optimizer = Boson1Optimizer(
            device,
            OptimizerConfig(iterations=iterations, seed=0, solver=backend),
        )
        result = optimizer.run()
        optimizer.close()
        stats = device.workspace.stats()["solver"]
        return result.fom_trace(), stats

    def test_bending_block_matches_direct(self):
        direct, _ = self._trace("bending", "direct", 3)
        block, block_stats = self._trace("bending", "krylov-block", 3)
        np.testing.assert_allclose(block, direct, rtol=1e-5, atol=1e-8)
        # The engine actually used the blocked path: per iteration a
        # forward + adjoint block for the corner family and another pair
        # for the one-system worst-corner probe, and far fewer blocked
        # sweeps than the per-column iterations they amortize.
        assert block_stats["block_solves"] == 4 * 3
        assert block_stats["block_sweeps"] > 0
        assert block_stats["block_sweeps"] < block_stats["iterations"]

    @pytest.mark.parametrize("device_name", ["bending", "crossing", "isolator"])
    def test_calibration_anchor_never_preconditions_a_block(self, device_name):
        """No calibration anchors a block, so no iteration is wasted.

        Calibrations are solved by fast diagonalization, so no
        straight-guide LU enters the anchor pool, and every anchor that
        preconditions a block is a design system of the same family:
        no Krylov iteration is wasted and none falls back.
        """
        _, stats = self._trace(device_name, "krylov-block", 2)
        assert stats["wasted_iterations"] == 0
        assert stats["fallbacks"] == 0

    def test_evaluate_post_fab_block_matches_direct(self, bend_pattern):
        reports = {}
        for backend in ("direct", "krylov-block"):
            device = device_with_backend("bending", backend)
            process = FabricationProcess(
                device.design_shape,
                device.dl,
                context=device.litho_context(12),
                pad=12,
            )
            reports[backend] = evaluate_post_fab(
                device, process, bend_pattern, n_samples=3, seed=7
            )
        np.testing.assert_allclose(
            reports["krylov-block"].foms,
            reports["direct"].foms,
            rtol=1e-4,
            atol=1e-8,
        )

    @pytest.mark.slow
    def test_isolator_block_matches_direct(self):
        direct, _ = self._trace("isolator", "direct", 2)
        block, stats = self._trace("isolator", "krylov-block", 2)
        np.testing.assert_allclose(block, direct, rtol=1e-5, atol=1e-8)
        # Multi-direction device: two columns per corner share a system.
        assert stats["block_columns"] > stats["block_solves"]


@pytest.mark.krylov
class TestBlockGradientFiniteDifference:
    """FD probing needs the objective far tighter than the default tol."""

    def _fd_check(self, device_name, pattern, cells, alphas=(1.0, 1.0)):
        device = device_with_backend(
            device_name, SolverConfig(backend="krylov-block", tol=1e-10, maxiter=40)
        )
        rng = np.random.default_rng(0)
        weights = {
            d: {
                n: float(rng.uniform(0.5, 1.5))
                for n in device.port_names(d)
            }
            for d in device.directions
        }
        patterns = [pattern, np.clip(pattern * 0.97, 0.0, 1.0)]
        tensors = [Tensor(p.copy(), requires_grad=True) for p in patterns]
        powers_list = device.port_powers_corners(tensors, list(alphas))
        assert powers_list is not None
        total = None
        for powers in powers_list:
            for d in device.directions:
                for n, p in powers[d].items():
                    term = p * weights[d][n]
                    total = term if total is None else total + term
        total.backward()
        grad = tensors[0].grad

        def objective(p0):
            values = device.port_powers_array_corners(
                [p0, patterns[1]], list(alphas)
            )
            return sum(
                values[c][d][n] * weights[d][n]
                for c in range(2)
                for d in device.directions
                for n in device.port_names(d)
            )

        d = 1e-5
        for ix, iy in cells:
            plus = pattern.copy()
            plus[ix, iy] += d
            minus = pattern.copy()
            minus[ix, iy] -= d
            fd = (objective(plus) - objective(minus)) / (2 * d)
            assert grad[ix, iy] == pytest.approx(fd, rel=2e-2, abs=1e-12)

    def test_bending_fd(self, bend_pattern):
        self._fd_check("bending", bend_pattern, [(10, 12), (22, 9)])

    def test_bending_fd_across_temperatures(self, bend_pattern):
        """A rescaled background puts the waveguides, PML included, in Omega."""
        self._fd_check(
            "bending", bend_pattern, [(10, 12), (22, 9)], alphas=(1.0, 1.0127)
        )

    @pytest.mark.slow
    def test_isolator_fd(self):
        device = make_device("isolator")
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        self._fd_check("isolator", pattern, [(20, 14)])


@pytest.mark.krylov
@pytest.mark.slow
class TestLargeGridBlockConvergence:
    """Blocked recycling on a grid where factorization is genuinely heavy."""

    def test_large_grid_block_converges_without_fallback(self):
        grid = SimGrid((160, 160), dl=0.05, npml=12)
        rng = np.random.default_rng(1)
        eps = 1.0 + 11.0 * rng.uniform(size=grid.shape)
        family = [eps]
        for bump in (0.1, 0.3, 0.6):
            corner = eps.copy()
            corner[60:100, 60:100] += bump
            family.append(corner)
        ws = SimulationWorkspace(
            solver_config=SolverConfig(
                backend="krylov-block", tol=1e-8, maxiter=40
            )
        )
        block = ws.begin_corner_block(ws.assembly(grid, OMEGA), family)
        b = np.stack(
            [rng.standard_normal(grid.n_cells) + 0j for _ in family], axis=1
        )
        x = block.solve_block(b)
        for i, eps_i in enumerate(family):
            matrix = ws.assembly(grid, OMEGA).system_matrix(eps_i)
            resid = np.linalg.norm(matrix @ x[:, i] - b[:, i])
            assert resid / np.linalg.norm(b[:, i]) < 1e-6
        stats = ws.stats()["solver"]
        assert stats["fallbacks"] == 0
        assert stats["factorizations"] == 1
