"""Executor backends, deterministic fan-out, and cached-trajectory identity.

Three contracts under test:

1. **Backend independence** — the remote executor over loopback worker
   processes (which replay only forward solves and leave the parent to
   reassemble the taped VJPs) matches the serial executor to solver
   precision for the engine loss, full optimization trajectories and
   Monte-Carlo evaluation, for every registered solver backend and any
   worker count; the removed thread and process backends are refused
   by name.
2. **Cache independence** — a full ``Boson1Optimizer`` run with the
   simulation cache on matches the cold rebuild-everything path
   bit-for-bit (same seed => identical ``fom_trace``), for both
   parameterizations and across temperature (``alpha_bg``) corners.
3. **Stats exactness** — ``SolveStats`` counters stay exact under
   simultaneous solves from a thread pool, and worker-side deltas merge
   exactly across a fan-out to worker processes.

Worker processes are :func:`repro.core.remote.start_worker_subprocess`
servers on loopback, so those tests carry the ``remote`` marker.
"""

import os
import pickle
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import Boson1Optimizer, OptimizerConfig, executors
from repro.core.engine import _CornerForwardTask
from repro.core.executors import (
    EXECUTOR_BACKENDS,
    SerialExecutor,
    make_executor,
)
from repro.core.remote import (
    RemoteCornerExecutor,
    seed_key,
    start_worker_subprocess,
)
from repro.devices import make_device
from repro.eval import evaluate_post_fab
from repro.fab.process import FabricationProcess
from repro.fdfd import HelmholtzSolver, SimGrid, SimulationWorkspace
from repro.fdfd.linalg import SolveStats
from repro.params import rasterize_segments
from repro.utils.constants import omega_from_wavelength


def _square(x):
    return x * x


def _seed_key_of(task) -> str:
    """The seed key a remote map names ``task``'s pickled closure by."""
    return seed_key(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))


def _jittery(i):
    time.sleep(0.002 * (5 - i % 5))  # finish out of order
    return i * 10


@pytest.fixture(scope="module")
def worker_pair():
    """Two forked loopback worker servers shared by the module."""
    workers = [start_worker_subprocess() for _ in range(2)]
    yield [address for _proc, address in workers]
    for proc, _address in workers:
        proc.terminate()


def _remote(*addresses) -> str:
    return "remote:" + ",".join(f"{host}:{port}" for host, port in addresses)


class TestMakeExecutor:
    def test_default_is_serial(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)

    def test_backend_selection(self):
        ex = make_executor("remote:127.0.0.1:7070")
        assert isinstance(ex, RemoteCornerExecutor)

    @pytest.mark.parametrize(
        "spec", ["thread", "thread:2", "process", "process:2"]
    )
    def test_thread_backend_refused(self, spec):
        with pytest.raises(ValueError) as exc:
            make_executor(spec)
        message = str(exc.value)
        backend = spec.partition(":")[0]
        assert f"the {backend} executor was removed" in message
        assert "use 'serial', or 'remote:host:port" in message
        assert "repro worker --listen 127.0.0.1:0" in message
        if backend == "process":
            assert "serial already overlaps factorizations" in message

    def test_worker_count_suffix(self):
        # No backend takes a worker count: serial is one process, and
        # remote fan-out width is its address list.
        for spec in ("serial:3", "process:3"):
            with pytest.raises(ValueError, match="'remote:"):
                make_executor(spec)

    def test_passthrough_instance(self):
        ex = SerialExecutor()
        assert make_executor(ex) is ex

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            make_executor("gpu")
        with pytest.raises(ValueError):
            make_executor("process:zero")
        with pytest.raises(ValueError):
            make_executor("process:0")
        with pytest.raises(ValueError, match="no worker count"):
            make_executor("serial:7")

    def test_registry_names(self):
        assert set(EXECUTOR_BACKENDS) == {"serial", "remote"}


class TestMapOrdered:
    @pytest.mark.parametrize(
        "backend", ["serial", pytest.param("remote", marks=pytest.mark.remote)]
    )
    def test_order_preserved(self, backend, request):
        spec = backend
        if backend == "remote":
            spec = _remote(*request.getfixturevalue("worker_pair"))
        items = list(range(20))
        with make_executor(spec) as ex:
            assert ex.map_ordered(_square, items) == [i * i for i in items]

    @pytest.mark.remote
    def test_process_results_match_serial_under_jitter(self, worker_pair):
        items = list(range(10))
        serial = SerialExecutor().map_ordered(_jittery, items)
        with make_executor(_remote(*worker_pair)) as ex:
            assert ex.map_ordered(_jittery, items) == serial

    @pytest.mark.remote
    def test_process_backend(self, worker_pair):
        with make_executor(_remote(*worker_pair)) as ex:
            assert ex.map_ordered(_square, [1, 2, 3]) == [1, 4, 9]

    @pytest.mark.remote
    def test_pool_reusable_after_shutdown(self, worker_pair):
        # Shutdown closes the connection pool; the next map reconnects.
        ex = make_executor(_remote(*worker_pair))
        assert ex.map_ordered(_square, [2, 3]) == [4, 9]
        ex.shutdown()
        assert ex._connections == {}
        assert ex.map_ordered(_square, [4, 5]) == [16, 25]
        assert ex._connections
        ex.shutdown()


class TestConfigValidation:
    def test_engine_accepts_serial_refuses_thread(self):
        OptimizerConfig(corner_executor="serial")
        for spec in ("thread", "thread:2"):
            with pytest.raises(ValueError, match="'serial', or 'remote:"):
                OptimizerConfig(corner_executor=spec)

    def test_engine_refuses_process(self):
        # Serial overlaps factorizations on the factor threads; extra
        # processes are local `repro worker` servers behind `remote:`.
        for spec in ("process", "process:2"):
            with pytest.raises(ValueError, match="factor threads"):
                OptimizerConfig(corner_executor=spec)

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            OptimizerConfig(corner_executor="mpi")

    def test_rejects_bad_workers(self):
        for spec in ("process:0", "process:abc", "serial:7"):
            with pytest.raises(ValueError, match="'remote:"):
                OptimizerConfig(corner_executor=spec)


@pytest.fixture(scope="module")
def bend():
    return make_device("bending")


def _run(device, **overrides):
    base = dict(iterations=2, seed=11)
    base.update(overrides)
    opt = Boson1Optimizer(device, OptimizerConfig(**base))
    result = opt.run()
    opt.close()
    return result


class TestEngineDeterminism:
    @pytest.mark.remote
    def test_worker_count_irrelevant(self, bend, worker_pair):
        one = _run(bend, corner_executor=_remote(worker_pair[0]))
        two = _run(bend, corner_executor=_remote(*worker_pair))
        assert np.array_equal(one.loss_trace(), two.loss_trace())

    def test_n_corners_reports_actual_count(self, bend):
        result = _run(bend, sampling="axial+worst")
        # axial (7, including nominal) + the worst-finder corner.
        assert all(r.n_corners == 8 for r in result.history)
        result = _run(bend, sampling="nominal")
        assert all(r.n_corners == 1 for r in result.history)

    def test_n_corners_zero_without_fab(self, bend):
        result = _run(bend, use_fab=False)
        assert all(r.n_corners == 0 for r in result.history)


class TestTrajectoryCacheIdentity:
    """Satellite: warm trajectories must equal the cold path bit-for-bit."""

    @pytest.mark.parametrize("parameterization", ["levelset", "density"])
    def test_cold_equals_warm(self, parameterization):
        results = []
        for cached in (True, False):
            device = make_device("bending")
            device.configure_simulation_cache(cached, SimulationWorkspace())
            cfg = OptimizerConfig(
                iterations=2, seed=5, parameterization=parameterization
            )
            opt = Boson1Optimizer(device, cfg)
            results.append(opt.run())
            assert (device.workspace is None) == (not cached)
        warm, cold = results
        assert np.array_equal(warm.fom_trace(), cold.fom_trace())
        assert np.array_equal(warm.loss_trace(), cold.loss_trace())
        assert np.array_equal(warm.theta, cold.theta)
        assert np.array_equal(warm.pattern, cold.pattern)

    def test_cold_equals_warm_across_temperature_corners(self):
        # axial sampling exercises alpha_bg != 1 calibrations each iteration
        results = []
        for cached in (True, False):
            device = make_device("bending")
            device.configure_simulation_cache(cached, SimulationWorkspace())
            cfg = OptimizerConfig(
                iterations=2, seed=3, sampling="axial", t_delta=30.0
            )
            results.append(Boson1Optimizer(device, cfg).run())
        assert np.array_equal(results[0].loss_trace(), results[1].loss_trace())
        assert np.array_equal(results[0].pattern, results[1].pattern)


class TestMonteCarloExecutors:
    @pytest.fixture(scope="class")
    def mc_setup(self):
        device = make_device("bending")
        process = FabricationProcess(
            device.design_shape,
            device.dl,
            context=device.litho_context(12),
            pad=12,
        )
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        return device, process, pattern

    @pytest.mark.remote
    def test_process_matches_serial(self, mc_setup, worker_pair):
        device, process, pattern = mc_setup
        serial = evaluate_post_fab(device, process, pattern, 3, seed=2)
        multiproc = evaluate_post_fab(
            device, process, pattern, 3, seed=2,
            executor=_remote(*worker_pair),
        )
        assert np.array_equal(serial.foms, multiproc.foms)

    @pytest.mark.remote
    def test_executor_instance_reused_not_shut_down(
        self, mc_setup, worker_pair
    ):
        device, process, pattern = mc_setup
        ex = make_executor(_remote(*worker_pair))
        a = evaluate_post_fab(device, process, pattern, 3, seed=2, executor=ex)
        # A caller-owned executor keeps its worker connections open.
        assert ex._connections
        b = evaluate_post_fab(device, process, pattern, 3, seed=2, executor=ex)
        assert np.array_equal(a.foms, b.foms)
        ex.shutdown()

    def test_worst_fom_polarity(self, mc_setup):
        device, process, pattern = mc_setup
        report = evaluate_post_fab(device, process, pattern, 4, seed=2)
        assert not report.fom_lower_is_better
        assert report.worst_fom == float(np.min(report.foms))
        assert report.best_fom == float(np.max(report.foms))

    def test_worst_fom_lower_is_better(self, mc_setup):
        from repro.eval import RobustnessReport

        report = RobustnessReport(
            foms=np.array([0.1, 0.5, 0.3]),
            mean_powers={},
            fom_lower_is_better=True,
        )
        assert report.worst_fom == 0.5
        assert report.best_fom == 0.1


# --------------------------------------------------------------------- #
# Out-of-process taped corner fan-out (forward replay + VJP assembly)   #
# --------------------------------------------------------------------- #
ALL_BACKENDS = ("direct", "krylov-block")
#: Tolerance of worker-vs-serial comparisons per backend: LU-backed
#: backends differ only in adjoint recombination (per-port basis solves
#: instead of one aggregated solve — machine-epsilon territory);
#: preconditioned backends additionally anchor per worker.
PROCESS_TOL = {
    "direct": dict(rtol=1e-9, atol=1e-12),
    "krylov-block": dict(rtol=1e-5, atol=1e-7),
}


def _loss_and_grad(device_name, executor, backend="direct"):
    """One taped loss + backward; returns (loss, grad, worker pids)."""
    device = make_device(device_name)
    opt = Boson1Optimizer(
        device,
        OptimizerConfig(
            iterations=1, seed=11, corner_executor=executor, solver=backend,
            remote_timeout=15.0,
        ),
    )
    theta = Tensor(np.array(opt.theta, dtype=np.float64), requires_grad=True)
    loss, _powers, n_corners = opt.loss(theta, 0)
    loss.backward()
    opt.close()
    assert n_corners > 0
    return loss.item(), theta.grad.copy(), set(opt.observed_worker_pids)


def _trace(device_name, executor, backend, iterations=2):
    device = make_device(device_name)
    opt = Boson1Optimizer(
        device,
        OptimizerConfig(
            iterations=iterations,
            seed=11,
            corner_executor=executor,
            solver=backend,
            remote_timeout=15.0,
        ),
    )
    result = opt.run()
    opt.close()
    return result


class TestProcessTapedFanout:
    """Taped corner losses fanned out to worker processes."""

    @pytest.mark.remote
    @pytest.mark.parametrize("device_name", ["bending", "crossing", "isolator"])
    def test_loss_and_grad_match_serial(self, device_name, worker_pair):
        l_serial, g_serial, no_pids = _loss_and_grad(device_name, "serial")
        assert not no_pids  # the serial executor reports no worker pids
        l_proc, g_proc, pids = _loss_and_grad(
            device_name, _remote(*worker_pair)
        )
        assert l_proc == pytest.approx(l_serial, rel=1e-10, abs=1e-12)
        scale = max(float(np.linalg.norm(g_serial)), 1e-30)
        assert float(np.linalg.norm(g_proc - g_serial)) <= 1e-9 * scale
        # Worker processes actually carried the solves.
        assert len(pids) >= 2
        assert str(os.getpid()) not in {p.partition(".")[0] for p in pids}

    def test_task_payloads_pickle_clean(self):
        """The exact objects the engine ships must survive pickling."""
        device = make_device("bending")
        opt = Boson1Optimizer(device, OptimizerConfig(iterations=1, seed=3))
        rho = opt.decode(Tensor(np.array(opt.theta), requires_grad=True))
        corners = opt.sampler.corners(0, opt.rng, None)
        from repro.fab.temperature import alpha_of_temperature

        items = [
            (
                1,
                alpha_of_temperature(c.temperature_k),
                np.asarray(opt.process.apply(rho, c).data, dtype=np.float64),
            )
            for c in corners[:2]
        ]
        task = _CornerForwardTask(device, False, "run")
        task2, items2 = pickle.loads(pickle.dumps((task, items)))
        # The round-tripped task runs and its result pickles too.  Run
        # here it behaves as on any worker and reports this process's
        # identity.
        summary, delta, pid, obs = task2(items2[0])
        assert pid == f"{os.getpid()}.{executors._PROCESS_NONCE}"
        assert obs is None
        assert isinstance(delta, dict)
        roundtrip = pickle.loads(pickle.dumps(summary))
        assert [s.direction for s in roundtrip.directions] == ["fwd"]
        opt.close()

    def test_each_run_is_its_own_seed(self):
        """Workers key seeds by content, so two runs on identical
        devices must still ship distinct design tasks: one shared seed
        would make their tasks take turns on its lock and mix their
        solver epochs."""
        keys = []

        class Recording(SerialExecutor):
            supports_shared_memory = False

            def map_ordered(self, fn, items):
                keys.append(_seed_key_of(fn))
                return [fn(item) for item in items]

        for _run in range(2):
            opt = Boson1Optimizer(
                make_device("bending"),
                OptimizerConfig(iterations=1, seed=3, sampling="nominal"),
            )
            opt.executor = Recording()
            opt.run()
            opt.close()
        assert len(keys) == 2
        assert keys[0] != keys[1]

    def test_precomputed_summary_rejects_wrong_pattern(self):
        device = make_device("bending")
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        summary = device.solve_forward_summary(pattern, 1.0)
        other = pattern.copy()
        other[5, 5] += 0.25
        with pytest.raises(ValueError, match="different pattern"):
            device.port_powers_precomputed(
                Tensor(other, requires_grad=True), summary
            )

    def test_precomputed_summary_rejects_wrong_alpha(self):
        # The same design array solved at a different background
        # temperature is a different system; the digest alone cannot
        # tell them apart, so the alpha pin must.
        device = make_device("bending")
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        summary = device.solve_forward_summary(pattern, 1.0)
        with pytest.raises(ValueError, match="alpha_bg"):
            device.port_powers_precomputed(
                Tensor(pattern.copy(), requires_grad=True),
                summary,
                alpha_bg=0.995,
            )

    @pytest.mark.parametrize("device_name", ["bending", "isolator"])
    def test_precomputed_matches_taped_powers_and_grad(self, device_name):
        """The seam itself: summary-injected op vs the in-process op.

        Forward powers are bitwise equal (the summary's stacked forward
        solve is the power op's); gradients agree to solver precision
        because the adjoint is recombined per port.  The isolator's two
        directions share one stacked adjoint-basis solve.
        """
        device = make_device(device_name)
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )

        def total_of(powers_fn, rho):
            powers = powers_fn(rho)
            total = None
            for d in device.directions:
                for p in powers[d].values():
                    total = p if total is None else total + p
            return total

        rho_a = Tensor(pattern.copy(), requires_grad=True)
        total_a = total_of(lambda r: device.port_powers_all(r, 1.0), rho_a)
        total_a.backward()

        summary = device.solve_forward_summary(pattern, 1.0)
        rho_b = Tensor(pattern.copy(), requires_grad=True)
        total_b = total_of(
            lambda r: device.port_powers_precomputed(r, summary), rho_b
        )
        total_b.backward()

        assert total_b.item() == total_a.item()
        np.testing.assert_allclose(
            rho_b.grad, rho_a.grad, rtol=1e-9, atol=1e-14
        )

    def test_reconfigured_device_changes_seed_key(self):
        """A worker must not serve the warm copy with the old
        workspace/backend after the caller reconfigured the device."""
        device = make_device("bending")
        before = _seed_key_of(_CornerForwardTask(device, False, "run"))
        device.configure_simulation_cache(
            True, SimulationWorkspace(solver_config="krylov-block")
        )
        assert _seed_key_of(_CornerForwardTask(device, False, "run")) != before

    def test_wavelength_clone_changes_seed_key(self):
        """A worker must not serve the warm base device (wrong omega)
        for a clone's solves."""
        device = make_device("bending")
        base = _seed_key_of(_CornerForwardTask(device, False, "run"))
        clone = device.at_wavelength(1.6)
        assert _seed_key_of(_CornerForwardTask(clone, False, "run")) != base

    def test_calibration_cache_thread_safe_under_hits_and_eviction(self):
        """The LRU recency touch mutates on cache hits; hammer it.

        Threads repeatedly hit one hot key while others churn fresh
        alphas through a tiny bound, forcing concurrent touch/insert/
        evict interleavings — any KeyError here is the race the lock
        exists to prevent.
        """
        device = make_device("bending")
        device._MAX_CALIBRATIONS = 2
        device.calibration("fwd", 1.0)
        errors = []

        def hot(_i):
            try:
                for _ in range(25):
                    device.calibration("fwd", 1.0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def churn(i):
            try:
                for j in range(4):
                    device.calibration("fwd", 1.0 - 1e-5 * (1 + i * 4 + j))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=6) as pool:
            for i in range(3):
                pool.submit(hot, i)
                pool.submit(churn, i)
        assert errors == []
        assert len(device._calibration_cache) <= 2

    def test_calibration_cache_bounded_and_dropped_from_pickle(self):
        """Devices held warm in a worker's seed cache must not grow
        without bound.

        Monte-Carlo workloads mint one (direction, alpha) calibration
        per temperature draw; the LRU bound caps what a long-lived
        (worker-warm) device pins, and pickles ship without the cache so
        per-chunk payloads stay lean.
        """
        device = make_device("bending")
        device._MAX_CALIBRATIONS = 3  # instance override to keep it fast
        for i in range(5):
            device.calibration("fwd", 1.0 - 1e-4 * i)
        assert len(device._calibration_cache) == 3
        # Recency refresh: touching the oldest survivor keeps it alive.
        survivor = next(iter(device._calibration_cache))
        device.calibration(survivor[0], survivor[1])
        device.calibration("fwd", 0.5)
        assert survivor in device._calibration_cache
        clone = pickle.loads(pickle.dumps(device))
        assert clone._calibration_cache == {}

@pytest.mark.remote
class TestCrossExecutorDeterminism:
    """fom_trace agreement across executors x workers x solver backends."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_process_matches_serial(self, backend, worker_pair):
        serial = _trace("bending", "serial", backend)
        proc = _trace("bending", _remote(*worker_pair), backend)
        np.testing.assert_allclose(
            proc.fom_trace(), serial.fom_trace(), **PROCESS_TOL[backend]
        )
        np.testing.assert_allclose(
            proc.loss_trace(), serial.loss_trace(), **PROCESS_TOL[backend]
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_process_worker_count_consistent(self, backend, worker_pair):
        one = _trace("bending", _remote(worker_pair[0]), backend)
        two = _trace("bending", _remote(*worker_pair), backend)
        if backend == "direct":
            # Per-corner work is schedule-independent and deterministic.
            assert np.array_equal(one.fom_trace(), two.fom_trace())
        else:
            np.testing.assert_allclose(
                two.fom_trace(), one.fom_trace(), **PROCESS_TOL[backend]
            )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_process_gradients_match_serial(self, backend, worker_pair):
        _, g_serial, _ = _loss_and_grad("bending", "serial", backend)
        _, g_proc, pids = _loss_and_grad(
            "bending", _remote(*worker_pair), backend
        )
        assert len(pids) >= 2
        tol = 1e-9 if backend == "direct" else 1e-4
        scale = max(float(np.linalg.norm(g_serial)), 1e-30)
        assert float(np.linalg.norm(g_proc - g_serial)) <= tol * scale


class TestSolveStatsConcurrencyAndMerge:
    def test_counters_exact_under_concurrent_add(self):
        stats = SolveStats()
        n_threads, n_bumps = 8, 250

        def bump(_i):
            for _ in range(n_bumps):
                stats.add(solves=1, iterations=2)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(bump, range(n_threads)))
        counts = stats.as_dict()
        assert counts["solves"] == n_threads * n_bumps
        assert counts["iterations"] == 2 * n_threads * n_bumps

    def test_counters_exact_under_simultaneous_solves(self):
        grid = SimGrid((40, 36), dl=0.05, npml=8)
        omega = omega_from_wavelength(1.55)
        rng = np.random.default_rng(0)
        eps = 1.0 + 11.0 * rng.uniform(size=grid.shape)
        ws = SimulationWorkspace()
        solver = HelmholtzSolver(grid, eps, omega, workspace=ws)
        before = ws.solver_stats.as_dict()
        b = rng.standard_normal(grid.n_cells) + 0j
        n_threads, n_solves = 6, 5

        def hammer(_i):
            for _ in range(n_solves):
                solver.solve_raw(b)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(hammer, range(n_threads)))
        delta = ws.solver_stats.delta_since(before)
        assert delta["solves"] == n_threads * n_solves
        assert delta["rhs_columns"] == n_threads * n_solves
        assert "factorizations" not in delta  # cached LU, no refactor

    def test_delta_since_and_merge_roundtrip(self):
        stats = SolveStats()
        stats.add(factorizations=2, solves=5)
        base = stats.as_dict()
        stats.add(solves=3, iterations=7)
        delta = stats.delta_since(base)
        assert delta == {"solves": 3, "iterations": 7}
        other = SolveStats()
        other.merge(delta)
        assert other.as_dict()["solves"] == 3
        assert other.as_dict()["iterations"] == 7
        assert other.as_dict()["factorizations"] == 0

    def test_merge_rejects_unknown_counters(self):
        with pytest.raises(ValueError, match="unknown solve-stat"):
            SolveStats().merge({"gpu_kernels": 1})

    @pytest.mark.remote
    def test_process_eval_merges_worker_stats_exactly(self, fresh_pair):
        """Parent stats after a worker fan-out == the serial run's.

        Every Monte-Carlo sample draws its own temperature, so each
        (direction, alpha) calibration is solved exactly once whether it
        happens in the parent or in a worker — the merged totals must
        therefore reproduce the serial count exactly for the direct
        backend.
        """
        pattern = None
        totals = {}
        for executor in ("serial", _remote(*fresh_pair)):
            device = make_device("bending")
            device.configure_simulation_cache(True, SimulationWorkspace())
            process = FabricationProcess(
                device.design_shape,
                device.dl,
                context=device.litho_context(12),
                pad=12,
            )
            if pattern is None:
                pattern = rasterize_segments(
                    device.design_shape, device.dl, device.init_segments()
                )
            evaluate_post_fab(
                device, process, pattern, 4, seed=2, executor=executor,
                remote_timeout=15.0,
            )
            totals[executor] = device.workspace.stats()["solver"]
        serial, fanned = totals.values()
        assert fanned == serial

    @pytest.mark.remote
    def test_single_sample_process_eval_does_not_double_count(
        self, fresh_pair
    ):
        """n_samples=1 still goes to a worker, whose stats delta the
        parent merges exactly once: the parent's own workspace did none
        of the work, so the totals equal the serial run's.
        """
        pattern = None
        totals = {}
        for executor in ("serial", _remote(*fresh_pair)):
            device = make_device("bending")
            device.configure_simulation_cache(True, SimulationWorkspace())
            process = FabricationProcess(
                device.design_shape,
                device.dl,
                context=device.litho_context(12),
                pad=12,
            )
            if pattern is None:
                pattern = rasterize_segments(
                    device.design_shape, device.dl, device.init_segments()
                )
            evaluate_post_fab(
                device, process, pattern, 1, seed=2, executor=executor,
                remote_timeout=15.0,
            )
            totals[executor] = device.workspace.stats()["solver"]
        serial, fanned = totals.values()
        assert fanned == serial

    @pytest.mark.remote
    def test_single_corner_process_run_keeps_stats_exact(self, worker_pair):
        """A one-corner sampler at p=1 fans out a single item, which a
        worker runs like any other."""
        totals = {}
        pids = {}
        for executor in ("serial", _remote(*worker_pair)):
            device = make_device("bending")
            device.configure_simulation_cache(True, SimulationWorkspace())
            opt = Boson1Optimizer(
                device,
                OptimizerConfig(
                    iterations=1,
                    seed=1,
                    sampling="nominal",
                    relax_epochs=0,
                    corner_executor=executor,
                    remote_timeout=15.0,
                ),
            )
            opt.run()
            opt.close()
            totals[executor] = device.workspace.stats()["solver"]
            pids[executor] = opt.observed_worker_pids
        serial, fanned = totals.values()
        # The forward-replay path legitimately solves a per-port adjoint
        # basis instead of one aggregated adjoint (rhs_columns differ),
        # but factorizations and solve counts must not double-count.
        assert fanned["factorizations"] == serial["factorizations"]
        assert fanned["solves"] == serial["solves"]
        # The one item ran on exactly one worker, not in this process.
        _serial_pids, fanned_pids = pids.values()
        assert len(fanned_pids) == 1
        assert str(os.getpid()) not in {
            p.partition(".")[0] for p in fanned_pids
        }

    @pytest.mark.remote
    def test_engine_process_fanout_merges_worker_stats(self, worker_pair):
        device = make_device("bending")
        device.configure_simulation_cache(True, SimulationWorkspace())
        opt = Boson1Optimizer(
            device,
            OptimizerConfig(
                iterations=1, seed=1, corner_executor=_remote(*worker_pair),
                remote_timeout=15.0,
            ),
        )
        opt.run()
        opt.close()
        stats = device.workspace.stats()["solver"]
        # Workers factorized and solved; the parent saw all of it.
        assert stats["factorizations"] > 0
        assert stats["solves"] > 0
