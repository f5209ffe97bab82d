"""Cache-correctness tests for the simulation workspace.

The contract of the caching layer is *bit-for-bit* identity: a warm
workspace must return exactly the same matrices, fields, powers and
gradients as the cold rebuild-everything path.  Anything weaker would
silently change optimization trajectories.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
from repro.fdfd.workspace import FdfdAssembly
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


def _eps_family(grid, n, seed=5):
    rng = np.random.default_rng(seed)
    return [1.0 + 11.0 * rng.uniform(size=grid.shape) for _ in range(n)]


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestFactorThreads:
    """Every LU is made on a factor thread and freed on that thread.

    SciPy frees a SuperLU's memory only on the thread that allocated it,
    so a handle dropped anywhere else must send its LU home.
    """

    def test_lu_released_on_the_thread_that_made_it(
        self, grid, eps, monkeypatch
    ):
        made_on, freed_on = [], []
        real_splu = spla.splu

        class Recorded:
            def __init__(self, lu):
                self.lu = lu
                made_on.append(threading.get_ident())

            def solve(self, rhs, trans="N"):
                return self.lu.solve(rhs, trans=trans)

            def __del__(self):
                freed_on.append(threading.get_ident())

        monkeypatch.setattr(
            spla, "splu", lambda *a, **kw: Recorded(real_splu(*a, **kw))
        )
        matrix = SimulationWorkspace().assembly(grid, OMEGA).system_matrix(eps)
        handle = FactorOptions().factorize(matrix)
        assert len(made_on) == 1
        assert made_on[0] != threading.get_ident()
        assert np.allclose(
            matrix @ handle.solve(np.ones(grid.n_cells, dtype=complex)), 1.0
        )
        del handle  # dropped on this thread ...
        assert _wait_for(lambda: freed_on)
        assert freed_on == made_on  # ... released on the factor thread

    def test_failed_factorization_raises_from_the_caller(self):
        singular = sp.csc_matrix((4, 4), dtype=complex)
        future = FactorOptions().factorize_async(singular)
        with pytest.raises(RuntimeError, match="singular"):
            future.result(timeout=10)


class TestPrefactor:
    """``prefactor`` overlaps factorizations and changes nothing else."""

    @pytest.mark.parametrize("name", ["bending", "isolator"])
    def test_powers_and_gradients_bitwise_equal(self, name):
        device = make_device(name)
        base = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        patterns = [base * s for s in (1.0, 0.97, 1.02)]
        alphas = [1.0, 0.985, 1.012]
        runs = []
        for prefetch in (False, True):
            device = make_device(name)
            device.configure_simulation_cache(True, SimulationWorkspace())
            if prefetch:
                device.prefactor(patterns, alphas)
            rhos = [Tensor(p.copy(), requires_grad=True) for p in patterns]
            powers = [
                device.port_powers_all(rho, alpha)
                for rho, alpha in zip(rhos, alphas)
            ]
            total = None
            for per_corner in powers:
                for ports in per_corner.values():
                    for value in ports.values():
                        total = value if total is None else total + value
            total.backward()
            runs.append(
                (
                    [
                        {d: {k: v.item() for k, v in ports.items()}
                         for d, ports in per_corner.items()}
                        for per_corner in powers
                    ],
                    [rho.grad.copy() for rho in rhos],
                    device.workspace.stats(),
                    device.workspace._pending,
                )
            )
        (p0, g0, s0, _), (p1, g1, s1, pending) = runs
        assert p0 == p1
        for a, b in zip(g0, g1):
            assert np.array_equal(a, b)
        # Every prefactored system was the one looked up: the same
        # factorizations and cache misses, nothing left pending.
        assert s1["solver"] == s0["solver"]
        assert s1["factorizations"] == s0["factorizations"]
        assert pending == {}

    def test_batch_larger_than_the_cache_factors_each_once(
        self, grid, monkeypatch
    ):
        calls = []
        real = FactorOptions.splu

        def counting(self, matrix):
            calls.append(matrix.shape)
            return real(self, matrix)

        monkeypatch.setattr(FactorOptions, "splu", counting)
        ws = SimulationWorkspace(max_factorizations=8)
        family = _eps_family(grid, 12)
        assembly = ws.assembly(grid, OMEGA)
        ws.prefactor(assembly, family + [e.copy() for e in family[:3]])
        rhs = np.ones(grid.n_cells, dtype=complex)
        for e in family:
            HelmholtzSolver(grid, e, OMEGA, workspace=ws).solve_raw(rhs)
        assert len(calls) == 12
        assert ws.stats()["solver"]["factorizations"] == 12
        assert ws.stats()["factorizations"]["misses"] == 12
        assert ws._pending == {}

    def test_singular_system_raises_at_point_of_use(
        self, grid, eps, monkeypatch
    ):
        real = FdfdAssembly.system_matrix

        def singular_for_zero_eps(self, eps_r):
            matrix = real(self, eps_r)
            if not np.any(eps_r):
                matrix.data[:] = 0.0
            return matrix

        monkeypatch.setattr(FdfdAssembly, "system_matrix", singular_for_zero_eps)
        zero = np.zeros(grid.shape)
        errors = []
        for prefetch in (False, True):
            ws = SimulationWorkspace()
            if prefetch:
                ws.prefactor(ws.assembly(grid, OMEGA), [zero, eps])
            with pytest.raises(RuntimeError) as info:
                HelmholtzSolver(grid, zero, OMEGA, workspace=ws)
            errors.append(str(info.value))
            # The good system of the batch is unaffected.
            HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
            assert ws._pending == {}
        assert errors[0] == errors[1]
        assert "singular" in errors[0]

    def test_krylov_block_prefactor_is_a_noop(self, grid, eps):
        ws = SimulationWorkspace(solver_config="krylov-block")
        ws.prefactor(ws.assembly(grid, OMEGA), [eps])
        assert ws._pending == {}

    def test_clear_drains_pending(self, grid):
        ws = SimulationWorkspace()
        ws.prefactor(ws.assembly(grid, OMEGA), _eps_family(grid, 4))
        futures = [entry.future for entry in ws._pending.values()]
        ws.clear()
        assert ws._pending == {}
        assert all(f.done() for f in futures)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_factors_on_its_own(self, grid, monkeypatch):
        parent = os.getpid()
        child_calls = []
        real = FactorOptions.splu

        def counting(self, matrix):
            if os.getpid() != parent:
                child_calls.append(matrix.shape)
            return real(self, matrix)

        monkeypatch.setattr(FactorOptions, "splu", counting)
        ws = SimulationWorkspace()
        family = _eps_family(grid, 4)
        ws.prefactor(ws.assembly(grid, OMEGA), family)
        pid = os.fork()  # with the batch pending in the parent
        if pid == 0:
            code = 1
            try:
                rhs = np.ones(grid.n_cells, dtype=complex)
                for e in family:
                    solver = HelmholtzSolver(grid, e, OMEGA, workspace=ws)
                    solver.solve_raw(rhs)
                # The inherited pending entries were discarded, not
                # used: the child ran all four factorizations itself.
                if len(child_calls) == 4:
                    code = 0
            finally:
                os._exit(code)
        try:
            status = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                time.sleep(0.05)
            else:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung on inherited prefactoring")
            assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        finally:
            ws.clear()

    def test_fork_and_exit_leave_no_stray_errors(self):
        """An LU alive at a fork and at exit leaves stderr clean.

        SciPy leaves a stray error when a thread owning live LUs has its
        state destroyed elsewhere: in a child forked next to a running
        factor thread, or at interpreter teardown.  Factor threads are
        therefore stopped before each fork and at exit.
        """
        script = (
            "import os\n"
            "import scipy.sparse as sp\n"
            "from repro.fdfd.workspace import FactorOptions\n"
            "m = (sp.random(300, 300, density=0.02, random_state=1)\n"
            "     + 5 * sp.eye(300)).tocsc().astype(complex)\n"
            "kept = FactorOptions().factorize(m)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    FactorOptions().factorize(m)\n"
            "    os._exit(0)\n"
            "assert os.waitpid(pid, 0)[1] == 0\n"
            "kept_to_exit = FactorOptions().factorize(m)\n"
            "print('done')\n"
        )
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "done\n", "")
