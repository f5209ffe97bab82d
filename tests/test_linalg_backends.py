"""Linear-solver subsystem: config, backends, and cross-backend physics.

The contract, per backend:

* ``direct`` — one SuperLU factorization per permittivity; a block of
  right-hand sides goes to SuperLU in one matrix-RHS call that is
  bit-identical to per-column solves, and multi-direction devices stack
  their forward and adjoint systems into such blocks.
* ``krylov-block`` — per-matrix solves preconditioned by a recycled
  nominal LU, accurate to the configured tolerance, with automatic
  direct fallback; gradients must agree with finite differences and
  trajectories with the direct backend to tight tolerance.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.autodiff import Tensor
from repro.core import Boson1Optimizer, OptimizerConfig
from repro.devices import make_device
from repro.fdfd import (
    FactorOptions,
    HelmholtzSolver,
    SimGrid,
    SimulationWorkspace,
)
from repro.fdfd.linalg import (
    SOLVER_BACKENDS,
    DirectSolver,
    PreconditionedKrylovSolver,
    SinglePrecisionLU,
    SolverConfig,
)
from repro.fdfd.linalg import direct as direct_module
from repro.params import rasterize_segments
from repro.utils.constants import omega_from_wavelength

OMEGA = omega_from_wavelength(1.55)
#: Solver families of the cross-backend checks (keys of FD_BACKENDS).
BACKENDS = ("direct", "krylov")


@pytest.fixture
def grid():
    return SimGrid((40, 36), dl=0.05, npml=8)


@pytest.fixture
def eps(grid):
    rng = np.random.default_rng(7)
    return 1.0 + 11.0 * rng.uniform(size=grid.shape)


def corner_of(eps):
    """A design-window-style perturbation of a nominal permittivity."""
    bumped = eps.copy()
    bumped[14:26, 12:24] += 0.6
    return bumped


def rhs_block(grid, k=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((grid.n_cells, k)) + 1j * rng.standard_normal(
        (grid.n_cells, k)
    )


class TestBackendsAndConfig:
    def test_builtin_backends(self):
        for backend in SOLVER_BACKENDS:
            assert SolverConfig(backend=backend).backend == backend
        # The retired backend's class name survives only as an alias.
        assert direct_module.BatchedDirectSolver is DirectSolver

    def test_unknown_backend_raises(self):
        with pytest.raises(
            ValueError,
            match=r"unknown solver backend 'cusolver'; "
            r"available: \['direct', 'krylov-block'\]",
        ):
            SolverConfig(backend="cusolver")

    def test_coerce(self):
        assert SolverConfig.coerce(None) == SolverConfig()
        cfg = SolverConfig.coerce("krylov-block")
        assert cfg == SolverConfig(backend="krylov-block")
        assert SolverConfig.coerce(cfg) is cfg
        with pytest.raises(ValueError, match="float16.*bare backend name"):
            SolverConfig.coerce("krylov-block:float16")
        with pytest.raises(ValueError):
            SolverConfig.coerce("spectral")
        with pytest.raises(TypeError):
            SolverConfig.coerce(42)

    def test_retired_spellings_refused_with_replacement(self):
        with pytest.raises(ValueError, match="'batched' was removed.*'direct'"):
            SolverConfig.coerce("batched")
        with pytest.raises(ValueError, match="'batched' was removed"):
            OptimizerConfig(solver="batched")
        for spec, retired in (
            ("krylov-block:recycle", "'recycle'"),
            ("krylov-block:float32", "'float32'.*1.12-1.20x slower"),
            ("krylov", "'krylov'"),
            ("krylov:gmres", "'gmres'"),
            ("krylov-block:bicgstab", "'bicgstab'"),
        ):
            with pytest.raises(ValueError, match=f"{retired}.*'krylov-block'"):
                SolverConfig.coerce(spec)
        with pytest.raises(ValueError, match="'krylov' was removed"):
            OptimizerConfig(solver="krylov")

    def test_retired_precond_dtype_rejected(self):
        # The float32 preconditioner mode is gone: any value is refused.
        for dtype in ("float16", "float32", "float64"):
            with pytest.raises(TypeError, match="precond_dtype"):
                SolverConfig(precond_dtype=dtype)

    def test_retired_recycle_dim_rejected(self):
        # The field is gone: any recycle_dim, negative or not, is refused.
        for dim in (-1, 8):
            with pytest.raises(TypeError, match="recycle_dim"):
                SolverConfig(recycle_dim=dim)

    def test_config_validation(self):
        for retired in ("krylov_method", "gmres_restart", "max_anchors"):
            with pytest.raises(TypeError, match=retired):
                SolverConfig(**{retired: 1})
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(maxiter=0)

    def test_optimizer_config_coerces_and_validates(self):
        cfg = OptimizerConfig(solver="krylov-block")
        assert isinstance(cfg.solver, SolverConfig)
        assert cfg.solver.backend == "krylov-block"
        # Caching is the device's switch: the optimizer refuses an
        # iterative backend on a cold device and leaves a direct one cold.
        with pytest.raises(TypeError, match="simulation_cache"):
            OptimizerConfig(simulation_cache=False)
        cold = make_device("bending")
        cold.configure_simulation_cache(False)
        with pytest.raises(ValueError, match="simulation"):
            Boson1Optimizer(cold, cfg)
        Boson1Optimizer(cold, OptimizerConfig(solver="direct")).close()
        assert cold.workspace is None


class TestDirectAndBatched:
    def test_batched_solve_many_bitwise_matches_direct(self):
        """One matrix-RHS SuperLU call == per-column solves, bit for bit.

        The guarantee that lets ``direct`` stack the isolator's fwd+bwd
        sources (and every adjoint block) without changing a single bit
        of its trajectories.
        """
        for device_name in ("isolator", "crossing"):
            device = make_device(device_name)
            occ = device.cached_background().copy()
            occ[device.design_slice] = rasterize_segments(
                device.design_shape, device.dl, device.init_segments()
            )
            matrix = HelmholtzSolver(
                device.grid, device.eps_from_occupancy(occ), device.omega,
                workspace=None,
            ).system_matrix
            solver = DirectSolver.build(matrix, FactorOptions())
            block = rhs_block(device.grid, k=4, seed=3)
            for trans in ("N", "T"):
                columns = np.stack(
                    [solver.solve(block[:, j], trans=trans) for j in range(4)],
                    axis=1,
                )
                assert np.array_equal(
                    solver.solve_many(block, trans=trans), columns
                ), (device_name, trans)
            assert solver.stats.batched_calls == 2

    def test_solve_many_matches_column_solves(self, grid, eps):
        matrix = HelmholtzSolver(grid, eps, OMEGA, workspace=None).system_matrix
        solver = DirectSolver.build(matrix, FactorOptions())
        block = rhs_block(grid, k=4)
        stacked = np.stack([solver.solve(block[:, j]) for j in range(4)], axis=1)
        assert np.array_equal(solver.solve_many(block), stacked)

    def test_batched_counts_batched_calls(self, grid, eps):
        ws = SimulationWorkspace()
        solver = HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        solver.solve_many(rhs_block(grid))
        stats = ws.stats()["solver"]
        assert stats["batched_calls"] == 1
        assert stats["rhs_columns"] == 3

    def test_bad_trans_and_shape_raise(self, grid, eps):
        matrix = HelmholtzSolver(grid, eps, OMEGA, workspace=None).system_matrix
        solver = DirectSolver.build(matrix, FactorOptions())
        with pytest.raises(ValueError):
            solver.solve(rhs_block(grid)[:, 0], trans="H")
        with pytest.raises(ValueError):
            solver.solve_many(rhs_block(grid)[:, 0])

    def test_single_precision_lu_twin(self):
        """The unused complex64 twin still factorizes and solves.

        Kept because the perfbench layer tracer wraps its ``factorize``.
        """
        n = 120
        rng = np.random.default_rng(13)
        lap = sp.diags(
            [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
            offsets=(-1, 0, 1),
            dtype=np.complex128,
        )
        # Indefinite complex shift, Helmholtz-like: not SPD, mildly damped.
        d0 = -1.2 + 0.05j + 0.3 * rng.uniform(size=n)
        matrix = (lap + sp.diags(d0)).tocsc()
        lu64 = spla.splu(matrix)
        lu32 = SinglePrecisionLU.factorize(matrix, FactorOptions())
        rng = np.random.default_rng(0)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x32 = lu32.solve(b)
        assert x32.dtype == np.complex128  # upcast on return
        # Float32 factors: ~single-precision accuracy, not float64.
        rel = np.linalg.norm(x32 - lu64.solve(b)) / np.linalg.norm(b)
        assert 0 < rel < 1e-4
        xt = lu32.solve(b, trans="T")
        rel_t = np.linalg.norm(matrix.T @ xt - b) / np.linalg.norm(b)
        assert rel_t < 1e-4


@pytest.mark.krylov
class TestKrylovBackend:
    def _workspace_pair(self, grid, eps, **overrides):
        cfg = SolverConfig(backend="krylov-block", **overrides)
        ws = SimulationWorkspace(solver_config=cfg)
        nominal = HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        return ws, nominal

    def test_nominal_anchor_is_direct(self, grid, eps):
        ws, nominal = self._workspace_pair(grid, eps)
        assert isinstance(nominal.linsolver, DirectSolver)
        assert ws.stats()["solver"]["factorizations"] == 1

    def test_corner_recycles_anchor_within_tolerance(self, grid, eps):
        ws, _ = self._workspace_pair(grid, eps, tol=1e-10)
        corner = corner_of(eps)
        warm = HelmholtzSolver(grid, corner, OMEGA, workspace=ws)
        assert isinstance(warm.linsolver, PreconditionedKrylovSolver)
        ref = HelmholtzSolver(grid, corner, OMEGA, workspace=None)
        b = rhs_block(grid)[:, 0]
        for solve in ("solve_raw", "solve_transposed"):
            x = getattr(warm, solve)(b)
            y = getattr(ref, solve)(b)
            assert np.linalg.norm(x - y) / np.linalg.norm(y) < 1e-8
        # No second factorization happened: the anchor was recycled.
        assert ws.stats()["solver"]["factorizations"] == 1
        assert ws.stats()["solver"]["krylov_solves"] == 2
        assert warm.linsolver.diagnostics.mean_column_iterations > 0

    def test_fallback_on_nonconvergence_is_exact_and_anchored(self, grid, eps):
        ws, _ = self._workspace_pair(grid, eps, maxiter=1)
        far = np.full(grid.shape, 6.0)  # nothing like the anchor
        warm = HelmholtzSolver(grid, far, OMEGA, workspace=ws)
        b = rhs_block(grid)[:, 0]
        x = warm.solve_raw(b)
        resid = np.linalg.norm(warm.system_matrix @ x - b) / np.linalg.norm(b)
        assert resid < 1e-10  # the fallback is a direct solve
        stats = ws.stats()["solver"]
        assert stats["fallbacks"] == 1
        assert stats["factorizations"] == 2
        # The fallback LU became an anchor: a nearby eps now iterates
        # against it instead of the distant nominal anchor.
        near_far = far.copy()
        near_far[20, 20] += 0.05
        again = HelmholtzSolver(grid, near_far, OMEGA, workspace=ws)
        x2 = again.solve_raw(b)
        assert ws.stats()["solver"]["fallbacks"] == 1  # no new fallback
        resid2 = np.linalg.norm(again.system_matrix @ x2 - b) / np.linalg.norm(b)
        assert resid2 < 1e-6

    def test_no_fallback_raises(self, grid, eps):
        ws, _ = self._workspace_pair(grid, eps, maxiter=1, fallback=False)
        far = np.full(grid.shape, 6.0)
        warm = HelmholtzSolver(grid, far, OMEGA, workspace=ws)
        with pytest.raises(RuntimeError, match="did not converge"):
            warm.solve_raw(rhs_block(grid)[:, 0])

    def test_epoch_reset_reanchors(self, grid, eps):
        ws, _ = self._workspace_pair(grid, eps)
        corner = corner_of(eps)
        ws.begin_solver_epoch()
        # After the reset the *corner* is the first permittivity seen, so
        # it gets factorized directly instead of iterating.
        warm = HelmholtzSolver(grid, corner, OMEGA, workspace=ws)
        assert isinstance(warm.linsolver, DirectSolver)
        assert ws.stats()["solver"]["factorizations"] == 2

    def test_anchor_operator_sets_bounded(self, grid, eps):
        ws = SimulationWorkspace(max_assemblies=2, solver_config="krylov-block")
        for i in range(4):
            # Each omega is a new operator set and hence a new anchor key.
            HelmholtzSolver(grid, eps, OMEGA * (1.0 + 0.01 * i), workspace=ws)
        assert len(ws._anchors) <= 2

    def test_default_optimizer_config_inherits_workspace_backend(self):
        device = make_device("bending")
        ws = SimulationWorkspace(solver_config="krylov-block")
        device.configure_simulation_cache(True, ws)
        assert OptimizerConfig().solver is None
        Boson1Optimizer(device, OptimizerConfig(iterations=1, seed=0))
        assert device.workspace is ws  # pre-configured backend kept

    def test_workspace_pickle_keeps_solver_config(self, grid, eps):
        import pickle

        ws, _ = self._workspace_pair(grid, eps, tol=1e-6)
        clone = pickle.loads(pickle.dumps(ws))
        assert clone.solver_config == ws.solver_config
        assert clone.stats()["solver"]["factorizations"] == 0


class TestWorkspaceStatsRates:
    def test_hit_rate_percentages(self, grid, eps):
        ws = SimulationWorkspace()
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        stats = ws.stats()
        assert stats["factorizations"]["hit_rate_pct"] == 50.0
        assert stats["assemblies"]["hit_rate_pct"] == 50.0
        assert stats["modes"]["hit_rate_pct"] == 0.0
        ws.clear()
        assert ws.stats()["factorizations"]["hit_rate_pct"] == 0.0


# --------------------------------------------------------------------- #
# Cross-backend physics on the benchmark devices                        #
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bend_pattern():
    device = make_device("bending")
    return rasterize_segments(
        device.design_shape, device.dl, device.init_segments()
    )


@pytest.fixture(scope="module")
def isolator_pattern():
    device = make_device("isolator")
    return rasterize_segments(
        device.design_shape, device.dl, device.init_segments()
    )


@pytest.fixture(scope="module")
def crossing_pattern():
    device = make_device("crossing")
    return rasterize_segments(
        device.design_shape, device.dl, device.init_segments()
    )


def device_with_backend(name, backend):
    device = make_device(name)
    device.configure_simulation_cache(
        True, SimulationWorkspace(solver_config=backend)
    )
    return device


#: Finite-difference probing divides the objective by a 1e-5 step, so the
#: objective itself must be far more accurate than the default Krylov
#: tolerance — FD checks run the iterative backend near direct precision.
FD_BACKENDS = {
    "direct": "direct",
    "krylov": SolverConfig(backend="krylov-block", tol=1e-10),
}


def adjoint_grad(device, pattern, seed=0, per_direction=False):
    """Gradient of a fixed random weighting of all port powers.

    ``per_direction`` builds the powers one direction at a time instead
    of through :meth:`port_powers_all`'s stacked solves.
    """
    rng = np.random.default_rng(seed)
    rho = Tensor(pattern.copy(), requires_grad=True)
    if per_direction:
        powers = {d: device.port_powers(rho, d) for d in device.directions}
    else:
        powers = device.port_powers_all(rho)
    total = None
    for direction in device.directions:
        for name, p in powers[direction].items():
            term = p * float(rng.uniform(0.5, 1.5))
            total = term if total is None else total + term
    total.backward()
    return rho.grad.copy()


def scalar_objective(device, pattern, seed=0):
    rng = np.random.default_rng(seed)
    value = 0.0
    for direction in device.directions:
        powers = device.port_powers_array(pattern, direction)
        for name in device.port_names(direction):
            value += powers[name] * float(rng.uniform(0.5, 1.5))
    return value


class TestGradientConsistency:
    """Adjoint gradients vs finite differences, per backend, per device."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bending_fd(self, bend_pattern, backend):
        device = device_with_backend("bending", FD_BACKENDS[backend])
        grad = adjoint_grad(device, bend_pattern)
        cells = [(10, 12), (16, 16), (22, 9)]
        d = 1e-5
        for ix, iy in cells:
            plus = bend_pattern.copy()
            plus[ix, iy] += d
            minus = bend_pattern.copy()
            minus[ix, iy] -= d
            fd = (
                scalar_objective(device, plus) - scalar_objective(device, minus)
            ) / (2 * d)
            assert grad[ix, iy] == pytest.approx(fd, rel=2e-2, abs=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crossing_fd(self, crossing_pattern, backend):
        # Four monitors (through, reflection, two crosstalk arms) on a
        # single direction: the widest port set of the benchmark trio.
        device = device_with_backend("crossing", FD_BACKENDS[backend])
        grad = adjoint_grad(device, crossing_pattern)
        cells = [(10, 16), (16, 16), (24, 8)]
        d = 1e-5
        for ix, iy in cells:
            plus = crossing_pattern.copy()
            plus[ix, iy] += d
            minus = crossing_pattern.copy()
            minus[ix, iy] -= d
            fd = (
                scalar_objective(device, plus) - scalar_objective(device, minus)
            ) / (2 * d)
            assert grad[ix, iy] == pytest.approx(fd, rel=2e-2, abs=1e-12)

    @pytest.mark.krylov
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_isolator_fd(self, isolator_pattern, backend):
        device = device_with_backend("isolator", FD_BACKENDS[backend])
        grad = adjoint_grad(device, isolator_pattern)
        cells = [(20, 14), (30, 18)]
        d = 1e-5
        for ix, iy in cells:
            plus = isolator_pattern.copy()
            plus[ix, iy] += d
            minus = isolator_pattern.copy()
            minus[ix, iy] -= d
            fd = (
                scalar_objective(device, plus) - scalar_objective(device, minus)
            ) / (2 * d)
            assert grad[ix, iy] == pytest.approx(fd, rel=2e-2, abs=1e-12)

    @pytest.mark.krylov
    def test_default_tol_krylov_gradient_near_direct(self, bend_pattern):
        g_direct = adjoint_grad(
            device_with_backend("bending", "direct"), bend_pattern
        )
        g_krylov = adjoint_grad(
            device_with_backend("bending", "krylov-block"), bend_pattern
        )
        rel = np.linalg.norm(g_krylov - g_direct) / np.linalg.norm(g_direct)
        assert rel < 1e-3

    def test_isolator_batched_matches_direct_gradient(self, isolator_pattern):
        """Stacked fwd+bwd solves vs one taped op per direction."""
        device = device_with_backend("isolator", "direct")
        g_stacked = adjoint_grad(device, isolator_pattern)
        g_direct = adjoint_grad(device, isolator_pattern, per_direction=True)
        np.testing.assert_allclose(g_stacked, g_direct, rtol=1e-9, atol=1e-12)

    def test_isolator_batched_actually_batches(self, isolator_pattern):
        device = device_with_backend("isolator", "direct")
        adjoint_grad(device, isolator_pattern)
        stats = device.workspace.stats()["solver"]
        assert stats["batched_calls"] >= 2  # fwd block + adjoint block

    def test_bending_never_batches(self, bend_pattern):
        device = device_with_backend("bending", "direct")
        adjoint_grad(device, bend_pattern)  # single direction: no blocks
        assert device.workspace.stats()["solver"]["batched_calls"] == 0

    def test_isolator_array_all_batches_and_matches(self, isolator_pattern):
        device = device_with_backend("isolator", "direct")
        p_stacked = device.port_powers_array_all(isolator_pattern)
        assert device.workspace.stats()["solver"]["batched_calls"] >= 1
        p_loop = {
            d: device.port_powers_array(isolator_pattern, d)
            for d in device.directions
        }
        assert p_stacked == p_loop  # matrix-RHS sweeps are bitwise

    def test_evaluate_post_fab_batched_matches_direct(self, isolator_pattern):
        """Cached (stacked) evaluation == the cold per-direction path."""
        from repro.eval import evaluate_post_fab
        from repro.fab.process import FabricationProcess

        reports = {}
        for cache in (True, False):
            device = make_device("isolator")
            device.configure_simulation_cache(cache)
            process = FabricationProcess(
                device.design_shape,
                device.dl,
                context=device.litho_context(12),
                pad=12,
            )
            reports[cache] = evaluate_post_fab(
                device, process, isolator_pattern, n_samples=2, seed=7
            )
        np.testing.assert_array_equal(reports[True].foms, reports[False].foms)


class TestTrajectoryConsistency:
    """`fom_trace` agreement across backends on short optimizer runs."""

    def _trace(self, device_name, backend, iterations):
        device = make_device(device_name)
        optimizer = Boson1Optimizer(
            device,
            OptimizerConfig(iterations=iterations, seed=0, solver=backend),
        )
        result = optimizer.run()
        optimizer.close()
        return result.fom_trace()

    @pytest.mark.krylov
    def test_bending_krylov_matches_direct(self):
        direct = self._trace("bending", "direct", 3)
        krylov = self._trace("bending", "krylov-block", 3)
        np.testing.assert_allclose(krylov, direct, rtol=1e-6, atol=1e-9)

    @pytest.mark.krylov
    @pytest.mark.slow
    def test_isolator_backends_agree(self):
        direct = self._trace("isolator", "direct", 2)
        krylov = self._trace("isolator", "krylov-block", 2)
        np.testing.assert_allclose(krylov, direct, rtol=1e-5, atol=1e-8)


@pytest.mark.krylov
@pytest.mark.slow
class TestLargeGridConvergence:
    """Anchor-preconditioned Krylov on a grid where factorization is heavy."""

    def test_large_grid_corner_solves_converge(self):
        grid = SimGrid((160, 160), dl=0.05, npml=12)
        rng = np.random.default_rng(1)
        eps = 1.0 + 11.0 * rng.uniform(size=grid.shape)
        ws = SimulationWorkspace(
            solver_config=SolverConfig(
                backend="krylov-block", tol=1e-8, maxiter=40
            )
        )
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)  # anchor
        b = rng.standard_normal(grid.n_cells) + 0j
        for bump in (0.1, 0.3, 0.6):
            corner = eps.copy()
            corner[60:100, 60:100] += bump
            solver = HelmholtzSolver(grid, corner, OMEGA, workspace=ws)
            x = solver.solve_raw(b)
            resid = np.linalg.norm(solver.system_matrix @ x - b)
            assert resid / np.linalg.norm(b) < 1e-6
        assert ws.stats()["solver"]["fallbacks"] == 0
        assert ws.stats()["solver"]["factorizations"] == 1
