"""Cache-correctness tests for the simulation workspace.

The contract of the caching layer is *bit-for-bit* identity: a warm
workspace must return exactly the same matrices, fields, powers and
gradients as the cold rebuild-everything path.  Anything weaker would
silently change optimization trajectories.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autodiff import Tensor
from repro.devices import DEVICE_REGISTRY, make_device
from repro.fdfd import (
    FactorOptions,
    HelmholtzSolver,
    PortPowerProblem,
    PortSpec,
    SimGrid,
    SimulationWorkspace,
    shared_workspace,
    reset_shared_workspace,
)
from repro.fdfd.sources import point_source
from repro.params import rasterize_segments
from repro.utils.constants import omega_from_wavelength

OMEGA = omega_from_wavelength(1.55)


@pytest.fixture
def grid():
    return SimGrid((40, 36), dl=0.05, npml=8)


@pytest.fixture
def eps(grid):
    rng = np.random.default_rng(3)
    return 1.0 + 11.0 * rng.uniform(size=grid.shape)


class TestAssemblyIdentity:
    def test_system_matrix_bitwise_equal(self, grid, eps):
        cold = HelmholtzSolver(grid, eps, OMEGA, workspace=None)
        warm = HelmholtzSolver(grid, eps, OMEGA, workspace=SimulationWorkspace())
        a, b = cold.system_matrix, warm.system_matrix
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_fields_bitwise_equal(self, grid, eps):
        src = point_source(grid, 20, 18)
        cold = HelmholtzSolver(grid, eps, OMEGA, workspace=None).solve(src)
        warm = HelmholtzSolver(
            grid, eps, OMEGA, workspace=SimulationWorkspace()
        ).solve(src)
        assert np.array_equal(cold.ez, warm.ez)
        assert np.array_equal(cold.hx, warm.hx)
        assert np.array_equal(cold.hy, warm.hy)

    def test_transposed_solve_bitwise_equal(self, grid, eps):
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(grid.n_cells) + 1j * rng.standard_normal(
            grid.n_cells
        )
        cold = HelmholtzSolver(grid, eps, OMEGA, workspace=None)
        warm = HelmholtzSolver(grid, eps, OMEGA, workspace=SimulationWorkspace())
        assert np.array_equal(
            cold.solve_transposed(rhs), warm.solve_transposed(rhs)
        )

    def test_assembly_reused_across_eps(self, grid, eps):
        ws = SimulationWorkspace()
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        HelmholtzSolver(grid, eps + 1.0, OMEGA, workspace=ws)
        stats = ws.stats()
        assert stats["assemblies"]["misses"] == 1
        assert stats["assemblies"]["hits"] == 1
        assert stats["factorizations"]["misses"] == 2

    def test_lu_shared_for_identical_eps(self, grid, eps):
        ws = SimulationWorkspace()
        a = HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        b = HelmholtzSolver(grid, eps.copy(), OMEGA, workspace=ws)
        assert a._lu is b._lu
        assert ws.stats()["factorizations"]["hits"] == 1

    def test_distinct_omega_distinct_assembly(self, grid, eps):
        ws = SimulationWorkspace()
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        HelmholtzSolver(grid, eps, OMEGA * 1.01, workspace=ws)
        assert ws.stats()["assemblies"]["misses"] == 2

    @pytest.mark.parametrize(
        "name, kwargs, wavelength",
        [
            *((name, {}, None) for name in sorted(DEVICE_REGISTRY)),
            ("bending", {"dl": 0.025}, None),
            ("bending", {}, 1.50),
        ],
    )
    def test_symmetrizer_transposes_the_laplacian(
        self, name, kwargs, wavelength
    ):
        """``S L S^-1 == L^T``: adjoint solves may run as forward ones."""
        device = make_device(name, **kwargs)
        if wavelength is not None:
            device = device.at_wavelength(wavelength)
        assembly = SimulationWorkspace().assembly(device.grid, device.omega)
        lap = assembly.laplacian_csc
        s = assembly.symmetrizer
        assert np.abs(s).max() > 10.0  # the PML stretch is in play
        conjugated = sp.diags(s) @ lap @ sp.diags(1.0 / s)
        err = abs(conjugated - lap.T).max()
        assert err <= 1e-14 * abs(lap).max()

    def test_lru_eviction_bounded(self, grid, eps):
        ws = SimulationWorkspace(max_factorizations=2)
        for i in range(5):
            bumped = eps.copy()
            bumped[0, 0] += i
            HelmholtzSolver(grid, bumped, OMEGA, workspace=ws)
        assert ws.stats()["factorizations"]["size"] <= 2


class TestFactorOptions:
    def test_reference_matches_tuned_to_solver_precision(self, grid, eps):
        src = point_source(grid, 20, 18)
        tuned = HelmholtzSolver(grid, eps, OMEGA, workspace=None).solve(src)
        reference = HelmholtzSolver(
            grid,
            eps,
            OMEGA,
            workspace=None,
            factor_options=FactorOptions.reference(),
        ).solve(src)
        np.testing.assert_allclose(tuned.ez, reference.ez, atol=1e-9, rtol=1e-9)

    def test_residual_small(self, grid, eps):
        solver = HelmholtzSolver(grid, eps, OMEGA, workspace=None)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(grid.n_cells) + 0j
        x = solver.solve_raw(b)
        residual = np.linalg.norm(solver.system_matrix @ x - b)
        assert residual / np.linalg.norm(b) < 1e-10


class TestPortInfrastructure:
    def _problem(self, grid, workspace):
        ports = [PortSpec("out", "x", 1.7, 0.9, 0.9)]
        source = PortSpec("src", "x", 0.3, 0.9, 0.9)
        return PortPowerProblem(grid, OMEGA, ports, source, workspace=workspace)

    def _guide_eps(self, grid):
        eps = np.ones(grid.shape)
        eps[:, 14:22] = 12.0
        return eps

    def test_infra_solve_matches_per_solve(self, grid):
        eps = self._guide_eps(grid)
        cold = self._problem(grid, None)
        warm = self._problem(grid, SimulationWorkspace())
        infra = warm.prepare(eps)
        sol_cold = cold.solve(eps)
        sol_warm = warm.solve(eps, infra=infra)
        assert sol_cold.amplitudes == sol_warm.amplitudes
        assert sol_cold.raw_powers == sol_warm.raw_powers

    def test_infra_gradients_match(self, grid):
        eps = self._guide_eps(grid)
        cold = self._problem(grid, None)
        warm = self._problem(grid, SimulationWorkspace())
        infra = warm.prepare(eps)
        g_cold = cold.grad_eps(cold.solve(eps), {"out": 1.0})
        g_warm = warm.grad_eps(warm.solve(eps, infra=infra), {"out": 1.0})
        assert np.array_equal(g_cold, g_warm)

    def test_mode_cache_hits(self, grid):
        eps = self._guide_eps(grid)
        ws = SimulationWorkspace()
        problem = self._problem(grid, ws)
        problem.solve(eps)
        problem.solve(eps)
        stats = ws.stats()
        assert stats["modes"]["hits"] >= 2  # src + out on the second solve


class TestDeviceCache:
    @pytest.fixture(scope="class")
    def bend_pattern(self):
        device = make_device("bending")
        return rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )

    def test_powers_bitwise_equal_cold_vs_warm(self, bend_pattern):
        warm = make_device("bending")
        warm.configure_simulation_cache(True, SimulationWorkspace())
        cold = make_device("bending")
        cold.configure_simulation_cache(False)
        p_warm = warm.port_powers_array(bend_pattern, "fwd")
        p_cold = cold.port_powers_array(bend_pattern, "fwd")
        assert p_warm == p_cold

    def test_powers_bitwise_equal_across_alpha_bg(self, bend_pattern):
        warm = make_device("bending")
        warm.configure_simulation_cache(True, SimulationWorkspace())
        cold = make_device("bending")
        cold.configure_simulation_cache(False)
        for alpha in (1.0, 0.98):
            assert warm.port_powers_array(
                bend_pattern, "fwd", alpha
            ) == cold.port_powers_array(bend_pattern, "fwd", alpha)

    def test_gradients_bitwise_equal_cold_vs_warm(self, bend_pattern):
        grads = []
        for cached in (True, False):
            device = make_device("bending")
            device.configure_simulation_cache(cached, SimulationWorkspace())
            rho = Tensor(bend_pattern.copy(), requires_grad=True)
            device.port_powers(rho, "fwd")["out"].backward()
            grads.append(rho.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_repeated_warm_solves_stable(self, bend_pattern):
        device = make_device("bending")
        device.configure_simulation_cache(True, SimulationWorkspace())
        first = device.port_powers_array(bend_pattern, "fwd")
        second = device.port_powers_array(bend_pattern, "fwd")
        assert first == second

    def test_infra_memoized_per_direction_alpha(self, bend_pattern):
        ws = SimulationWorkspace()
        device = make_device("bending")
        device.configure_simulation_cache(True, ws)
        device.port_powers_array(bend_pattern, "fwd")
        _, infra = device._calibration_cache[("fwd", 1.0)]
        assert infra is not None
        device.port_powers_array(bend_pattern, "fwd")
        assert device._calibration_cache[("fwd", 1.0)][1] is infra


class TestSharedWorkspace:
    def test_reset_clears_state_in_place(self):
        ws = shared_workspace()
        grid = SimGrid((20, 20), dl=0.05, npml=5)
        HelmholtzSolver(grid, np.ones(grid.shape), OMEGA)  # default = shared
        assert shared_workspace().stats()["assemblies"]["misses"] >= 1
        fresh = reset_shared_workspace()
        # In-place clear: objects holding a reference also go cold.
        assert fresh is shared_workspace()
        assert fresh is ws
        assert fresh.stats()["assemblies"]["misses"] == 0
        assert fresh.stats()["assemblies"]["size"] == 0

    def test_pickle_drops_caches(self):
        import pickle

        ws = SimulationWorkspace(max_factorizations=3)
        grid = SimGrid((20, 20), dl=0.05, npml=5)
        HelmholtzSolver(grid, np.ones(grid.shape), OMEGA, workspace=ws)
        clone = pickle.loads(pickle.dumps(ws))
        assert clone.stats()["assemblies"]["size"] == 0
        assert clone._factorizations.maxsize == 3
        assert clone.factor_options == ws.factor_options
