"""Multi-node corner fan-out over loopback sockets.

Four contracts under test, all against real worker *processes* (forked
servers — seed caches, pids and stats deltas behave exactly as they
would on a remote host):

1. **Determinism** — design and Monte-Carlo evaluation over
   ``remote:127.0.0.1:<port>`` (1 and 2 workers) reproduce the serial
   executor bitwise for LU-backed solver backends and to solver
   precision for the preconditioned ones, with merged ``SolveStats``
   equal to the serial run's where the work is per-item isolated.
2. **Fault tolerance** — a worker server killed mid-iteration has its
   items resubmitted to a survivor with an identical (bitwise) final
   trajectory; only a fully dead fleet raises.
3. **Protocol hygiene** — version skew and task-state digest mismatch
   produce descriptive errors, never hangs; a silent worker is declared
   dead within ``--remote-timeout``.
4. **Spec plumbing** — ``remote:host:port[,...]`` parsing, config
   validation, and the ``repro worker`` / ``repro design --executor
   remote:...`` CLI round trip.
"""

import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.core.remote as remote_mod
from repro.core import Boson1Optimizer, OptimizerConfig
from repro.core.executors import make_executor
from repro.core.remote import (
    DEFAULT_REMOTE_TIMEOUT,
    MIN_REMOTE_TIMEOUT,
    PROTOCOL_VERSION,
    FaultInjection,
    RemoteCornerExecutor,
    RemoteProtocolError,
    RemoteTaskError,
    RemoteWorkerServer,
    client_heartbeat_interval,
    negotiate_heartbeat,
    parse_worker_addresses,
    recv_frame,
    send_frame,
    start_worker_subprocess,
)
from repro.devices import make_device
from repro.eval import evaluate_post_fab
from repro.fab.process import FabricationProcess
from repro.fdfd import SimulationWorkspace
from repro.params import rasterize_segments

pytestmark = pytest.mark.remote

ALL_BACKENDS = ("direct", "krylov-block")
#: Remote workers run the forward-replay arithmetic; preconditioned
#: backends anchor per worker, so they agree with serial to solver
#: precision only.
KRYLOV_TOL = dict(rtol=1e-5, atol=1e-7)
#: Monte-Carlo krylov-block yardstick (matches the benchmark's): the serial
#: reference takes the *blocked* path while workers anchor per worker,
#: so sample FoMs agree to the looser evaluation tolerance.
MC_KRYLOV_TOL = dict(rtol=1e-4, atol=1e-6)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"deterministic task failure on item {x}")


def _pid_of(_x):
    return os.getpid()


def _pid_parts(identities) -> set:
    """The pid halves of ``pid.nonce`` worker identities."""
    return {int(identity.partition(".")[0]) for identity in identities}


def _spec(*addresses) -> str:
    return "remote:" + ",".join(f"{host}:{port}" for host, port in addresses)


@pytest.fixture(scope="module")
def worker_pair():
    """Two forked loopback worker servers shared by the module."""
    workers = [start_worker_subprocess() for _ in range(2)]
    yield [address for _proc, address in workers]
    for proc, _address in workers:
        proc.terminate()


@pytest.fixture(params=["worker", "daemon"])
def frame_server(request, tmp_path):
    """A running server of each handler set on the shared frame server."""
    from repro.core.serve import ServeDaemon

    if request.param == "worker":
        server = RemoteWorkerServer()
    else:
        server = ServeDaemon(tmp_path / "jobs")
    thread = server.serve_in_thread()
    yield server
    server.shutdown()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def _trace(executor, backend, iterations=2, sampling="axial+worst"):
    device = make_device("bending")
    opt = Boson1Optimizer(
        device,
        OptimizerConfig(
            iterations=iterations,
            seed=11,
            sampling=sampling,
            corner_executor=executor,
            solver=backend,
            remote_timeout=15.0,
        ),
    )
    result = opt.run()
    pids = set(opt.observed_worker_pids)
    opt.close()
    return result, pids


@pytest.fixture(scope="module")
def serial_trace():
    """Lazily computed serial reference trajectories, one per backend."""
    cache = {}

    def get(backend):
        if backend not in cache:
            cache[backend] = _trace("serial", backend)[0]
        return cache[backend]

    return get


# --------------------------------------------------------------------- #
# Spec parsing and config plumbing                                      #
# --------------------------------------------------------------------- #
class TestSpecParsing:
    def test_parse_worker_addresses(self):
        assert parse_worker_addresses("127.0.0.1:7070") == [("127.0.0.1", 7070)]
        assert parse_worker_addresses("a:1, b:2,") == [("a", 1), ("b", 2)]

    @pytest.mark.parametrize(
        "bad", ["", "hostonly", "host:", ":7070", "host:port", "host:70707"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_worker_addresses(bad)

    def test_make_executor_builds_remote(self):
        ex = make_executor("remote:127.0.0.1:7070,10.0.0.2:7171")
        assert isinstance(ex, RemoteCornerExecutor)
        assert ex.addresses == [("127.0.0.1", 7070), ("10.0.0.2", 7171)]
        assert ex.timeout == DEFAULT_REMOTE_TIMEOUT
        assert not ex.supports_shared_memory

    def test_make_executor_passes_timeout(self):
        ex = make_executor("remote:h:1", remote_timeout=3.5)
        assert ex.timeout == 3.5

    def test_make_executor_rejects_bare_remote(self):
        with pytest.raises(ValueError, match="remote"):
            make_executor("remote")

    def test_executor_rejects_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            RemoteCornerExecutor([("h", 1)], timeout=0.0)

    def test_config_accepts_remote_spec(self):
        cfg = OptimizerConfig(
            corner_executor="remote:127.0.0.1:7070", remote_timeout=5.0
        )
        assert cfg.remote_timeout == 5.0

    def test_config_rejects_malformed_remote_spec(self):
        with pytest.raises(ValueError, match="remote"):
            OptimizerConfig(corner_executor="remote")
        with pytest.raises(ValueError):
            OptimizerConfig(corner_executor="remote:hostonly")

    def test_config_rejects_bad_timeout(self):
        with pytest.raises(ValueError, match="remote_timeout"):
            OptimizerConfig(remote_timeout=0.0)

    def test_duplicate_addresses_deduped(self):
        """A repeated address must not hand one pooled socket to two
        slot threads (their frames would interleave)."""
        ex = RemoteCornerExecutor(
            [("h", 1), ("h", 1), ("g", 2)], timeout=1.0
        )
        assert ex.addresses == [("h", 1), ("g", 2)]


# --------------------------------------------------------------------- #
# Loopback integration: design                                          #
# --------------------------------------------------------------------- #
class TestLoopbackDesign:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_two_workers_match_serial(self, worker_pair, serial_trace, backend):
        serial = serial_trace(backend)
        remote, pids = _trace(_spec(*worker_pair), backend)
        if backend == "direct":
            # LU-backed solves are pure functions of their payloads and
            # the forward-replay seam reproduces the serial arithmetic:
            # every bit of the trajectory survives the socket hop.
            assert np.array_equal(remote.fom_trace(), serial.fom_trace())
            assert np.array_equal(remote.loss_trace(), serial.loss_trace())
            assert np.array_equal(remote.pattern, serial.pattern)
        else:
            np.testing.assert_allclose(
                remote.fom_trace(), serial.fom_trace(), **KRYLOV_TOL
            )
            np.testing.assert_allclose(
                remote.loss_trace(), serial.loss_trace(), **KRYLOV_TOL
            )
        # Remote server processes really carried the solves.
        assert len(pids) == 2
        assert os.getpid() not in _pid_parts(pids)

    def test_single_worker_matches_serial_bitwise(
        self, worker_pair, serial_trace
    ):
        serial = serial_trace("direct")
        remote, pids = _trace(_spec(worker_pair[0]), "direct")
        assert np.array_equal(remote.fom_trace(), serial.fom_trace())
        assert np.array_equal(remote.pattern, serial.pattern)
        assert len(pids) == 1 and os.getpid() not in _pid_parts(pids)

    def test_single_worker_merges_stats_exactly(self, worker_pair):
        """Merged worker deltas == the serial run's counters.

        ``axial`` sampling keeps the worst-corner probe (a parent-side
        taped solve that would duplicate the nominal calibration on the
        worker) out of the picture: the lone worker then performs
        exactly the serial run's solves in the serial order.  The
        forward-replay seam legitimately differs in ``rhs_columns``
        (per-port adjoint-basis sweeps instead of one aggregated
        adjoint), so the assertion covers factorizations and solves.
        """
        totals = {}
        for executor in ("serial", _spec(worker_pair[0])):
            device = make_device("bending")
            device.configure_simulation_cache(True, SimulationWorkspace())
            opt = Boson1Optimizer(
                device,
                OptimizerConfig(
                    iterations=2,
                    seed=11,
                    sampling="axial",
                    corner_executor=executor,
                    remote_timeout=15.0,
                ),
            )
            opt.run()
            opt.close()
            totals[executor] = device.workspace.stats()["solver"]
        serial, remote = totals.values()
        assert remote["factorizations"] == serial["factorizations"]
        assert remote["solves"] == serial["solves"]


# --------------------------------------------------------------------- #
# Loopback integration: Monte-Carlo evaluation                          #
# --------------------------------------------------------------------- #
class TestLoopbackMonteCarlo:
    def _evaluate(self, executor, backend):
        device = make_device("bending")
        device.configure_simulation_cache(
            True, SimulationWorkspace(solver_config=backend)
        )
        process = FabricationProcess(
            device.design_shape,
            device.dl,
            context=device.litho_context(12),
            pad=12,
        )
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        report = evaluate_post_fab(
            device,
            process,
            pattern,
            4,
            seed=2,
            executor=executor,
            remote_timeout=15.0,
        )
        return report, device.workspace.stats()["solver"]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_two_workers_match_serial(self, worker_pair, backend):
        serial, _ = self._evaluate("serial", backend)
        remote, _ = self._evaluate(_spec(*worker_pair), backend)
        if backend == "direct":
            assert np.array_equal(remote.foms, serial.foms)
            assert remote.mean_powers == serial.mean_powers
        else:
            np.testing.assert_allclose(
                remote.foms, serial.foms, **MC_KRYLOV_TOL
            )

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_merged_stats_equal_serial(self, fresh_pair, n_workers):
        """Every MC sample draws its own temperature, so each
        (direction, alpha) calibration is solved exactly once wherever
        it runs — the merged totals reproduce the serial dict exactly,
        for any worker count."""
        serial, s_stats = self._evaluate("serial", "direct")
        remote, r_stats = self._evaluate(
            _spec(*fresh_pair[:n_workers]), "direct"
        )
        assert np.array_equal(remote.foms, serial.foms)
        assert r_stats == s_stats

    @pytest.mark.parametrize("n_servers", [1, 2])
    def test_in_process_server_merges_stats_like_serial(self, n_servers):
        """Worker servers in the parent's own process run their tasks on
        their own unpickled copies of the device, so their stats deltas
        must merge into the parent workspace like any worker's — also
        with two servers in one process, whose warm state is each
        server's own seed cache."""
        serial, s_stats = self._evaluate("serial", "direct")
        servers = [RemoteWorkerServer() for _ in range(n_servers)]
        threads = [server.serve_in_thread() for server in servers]
        try:
            remote, r_stats = self._evaluate(
                _spec(*(server.address for server in servers)), "direct"
            )
        finally:
            for server, thread in zip(servers, threads):
                server.shutdown()
                thread.join(timeout=10.0)
        assert np.array_equal(remote.foms, serial.foms)
        assert s_stats["factorizations"] > 0
        assert r_stats == s_stats


# --------------------------------------------------------------------- #
# Task-state shipping                                                   #
# --------------------------------------------------------------------- #
class TestSeedShipping:
    """Unchanged task state crosses the wire once per worker.

    The solver epoch rides each design item, so every iteration's
    closure pickles to the same seed key; a worker asks for the state
    (``need-seed``) only when it does not hold it, so a fresh connection
    — each remote Monte-Carlo call opens one — re-ships nothing.
    """

    @pytest.fixture
    def seed_frames(self, monkeypatch):
        """Seed keys the client sends (workers forked before patching)."""
        sent = []
        real = remote_mod.send_frame

        def counting(sock, message):
            if message.get("kind") == "seed":
                sent.append(message["key"])
            return real(sock, message)

        monkeypatch.setattr(remote_mod, "send_frame", counting)
        return sent

    def test_multi_iteration_design_seeds_each_worker_once(
        self, fresh_pair, seed_frames
    ):
        _trace(_spec(*fresh_pair), "direct", iterations=3, sampling="axial")
        # One omega group, one task state, two workers: two seeds for
        # all three iterations.
        assert len(seed_frames) == 2
        assert len(set(seed_frames)) == 1

    def test_repeated_mc_calls_seed_each_worker_once(
        self, fresh_pair, seed_frames
    ):
        device = make_device("bending")
        process = FabricationProcess(
            device.design_shape, device.dl,
            context=device.litho_context(12), pad=12,
        )
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        for call in range(3):
            evaluate_post_fab(
                device, process, pattern, 4, seed=call,
                executor=_spec(*fresh_pair), remote_timeout=15.0,
            )
            # The first call seeds both workers; later calls open fresh
            # connections and reuse what the workers already hold.
            assert len(seed_frames) == 2, call
        assert len(set(seed_frames)) == 1

    def test_identical_task_state_of_another_device_is_warm(
        self, fresh_pair, seed_frames
    ):
        """Warm state is keyed by content, not by the parent's object:
        a separately built device with the same content meets the seed,
        and the warm workspace, that the first one left on the worker."""
        factorizations = []
        for _call in range(2):
            device = make_device("bending")
            device.configure_simulation_cache(True, SimulationWorkspace())
            process = FabricationProcess(
                device.design_shape, device.dl,
                context=device.litho_context(12), pad=12,
            )
            pattern = rasterize_segments(
                device.design_shape, device.dl, device.init_segments()
            )
            evaluate_post_fab(
                device, process, pattern, 4, seed=2,
                executor=_spec(fresh_pair[0]), remote_timeout=15.0,
            )
            factorizations.append(
                device.workspace.stats()["solver"]["factorizations"]
            )
        assert len(seed_frames) == 1
        assert factorizations[0] > 0
        assert factorizations[1] == 0, factorizations

    def test_new_patterns_on_one_device_stay_warm(
        self, fresh_pair, seed_frames
    ):
        """The pattern rides each Monte-Carlo item, not the seed, so
        evaluating new patterns on one device reuses the worker's warm
        calibrations (keyed by direction and alpha) and its one seed."""
        device = make_device("bending")
        device.configure_simulation_cache(True, SimulationWorkspace())
        process = FabricationProcess(
            device.design_shape, device.dl,
            context=device.litho_context(12), pad=12,
        )
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        factorizations = []
        for k in range(3):
            variant = pattern.copy()
            variant[0, k] = 1.0 - variant[0, k]
            before = device.workspace.stats()["solver"]["factorizations"]
            evaluate_post_fab(
                device, process, variant, 4, seed=2,
                executor=_spec(fresh_pair[0]), remote_timeout=15.0,
            )
            factorizations.append(
                device.workspace.stats()["solver"]["factorizations"] - before
            )
        assert len(seed_frames) == 1
        assert factorizations[0] > 0
        assert factorizations[1:] == [0, 0], factorizations


def _vm_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise AssertionError(f"no VmRSS line for pid {pid}")


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc"
)
class TestWorkerMemory:
    """A worker's resident set plateaus across repeated remote calls.

    ``repro worker`` runs each task on a fresh thread, and SciPy frees a
    SuperLU only on the thread that allocated it; LUs that one task's
    thread made and a later task evicted used to leak (~65 MB per call
    here).  The worker is the CLI in its own interpreter: a worker
    forked from a long test session inherits a large fragmented heap
    whose unmapped holes fault back in as it allocates, which moves its
    RSS by tens of MB with no leak at all.
    """

    def test_rss_plateaus_over_remote_monte_carlo_calls(self):
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "repro worker listening on 127.0.0.1:" in line
            port = int(line.split("127.0.0.1:")[1].split()[0])
            device = make_device("crossing")
            process = FabricationProcess(
                device.design_shape, device.dl,
                context=device.litho_context(12), pad=12,
            )
            pattern = rasterize_segments(
                device.design_shape, device.dl, device.init_segments()
            )
            rss = []
            for call in range(6):
                evaluate_post_fab(
                    device, process, pattern, 8, seed=call,
                    executor=f"remote:127.0.0.1:{port}", remote_timeout=60.0,
                )
                rss.append(_vm_rss_mb(proc.pid))
            assert rss[5] - rss[1] < 40.0, rss
        finally:
            proc.terminate()
            proc.wait(timeout=30)


# --------------------------------------------------------------------- #
# Fault injection                                                       #
# --------------------------------------------------------------------- #
class TestFaultInjection:
    def test_worker_death_mid_run_resubmits_to_survivor(
        self, worker_pair, serial_trace
    ):
        """A worker that dies mid-iteration changes nothing: its queued
        and in-flight items land on the survivor and the LU-backed
        trajectory is bitwise identical to serial."""
        proc, address = start_worker_subprocess(
            fault=FaultInjection(fail_after_tasks=3)
        )
        try:
            remote, pids = _trace(
                _spec(address, worker_pair[0]), "direct"
            )
        finally:
            proc.terminate()
        serial = serial_trace("direct")
        assert np.array_equal(remote.fom_trace(), serial.fom_trace())
        assert np.array_equal(remote.loss_trace(), serial.loss_trace())
        assert np.array_equal(remote.pattern, serial.pattern)
        # Both the doomed worker and the survivor were real processes.
        assert len(pids) == 2 and os.getpid() not in _pid_parts(pids)

    def test_mc_eval_survives_worker_death(self, worker_pair):
        proc, address = start_worker_subprocess(
            fault=FaultInjection(fail_after_tasks=1)
        )
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
        try:
            serial = evaluate_post_fab(device, process, pattern, 4, seed=2)
            remote = evaluate_post_fab(
                device,
                process,
                pattern,
                4,
                seed=2,
                executor=_spec(address, worker_pair[1]),
                remote_timeout=15.0,
            )
        finally:
            proc.terminate()
        assert np.array_equal(remote.foms, serial.foms)

    def test_all_workers_dead_raises_descriptively(self):
        proc, address = start_worker_subprocess(
            fault=FaultInjection(fail_after_tasks=0)
        )
        try:
            ex = RemoteCornerExecutor([address], timeout=3.0)
            with pytest.raises(RuntimeError, match="remote workers died"):
                ex.map_ordered(_square, [1, 2, 3])
            ex.shutdown()
        finally:
            proc.terminate()

    def test_unpicklable_result_is_a_task_error_not_a_dead_worker(
        self, worker_pair
    ):
        """A result that cannot be serialized surfaces once as a
        RemoteTaskError instead of killing the connection and touring
        the 'failure' around the fleet as resubmissions."""
        ex = RemoteCornerExecutor(list(worker_pair), timeout=15.0)
        with pytest.raises(RemoteTaskError, match="could not be serialized"):
            ex.map_ordered(_returns_unpicklable, [1, 2])
        # The workers are still healthy afterwards.
        assert ex.map_ordered(_square, [2, 3]) == [4, 9]
        ex.shutdown()

    def test_remote_task_exception_not_resubmitted(self, worker_pair):
        """A task that raises fails the map with the remote traceback —
        it would raise identically on every worker."""
        ex = RemoteCornerExecutor(list(worker_pair), timeout=15.0)
        with pytest.raises(RemoteTaskError, match="deterministic task"):
            ex.map_ordered(_boom, [1, 2, 3])
        ex.shutdown()

    def test_silent_worker_bounded_by_timeout(self):
        """A worker that accepts but never answers is declared dead
        within the remote timeout — no hang."""
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(2)
        try:
            ex = RemoteCornerExecutor(
                [silent.getsockname()[:2]], timeout=1.0
            )
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="remote workers died"):
                ex.map_ordered(_square, [1, 2, 3])
            assert time.monotonic() - start < 10.0
            ex.shutdown()
        finally:
            silent.close()

    def test_heartbeats_keep_slow_tasks_alive(self):
        """A task longer than the timeout survives: the server's busy
        frames reset the client's death timer."""
        server = RemoteWorkerServer()
        server.serve_in_thread()
        try:
            ex = RemoteCornerExecutor([server.address], timeout=0.4)
            assert ex.map_ordered(_sleepy, [0.6, 0.7]) == [0.6, 0.7]
            ex.shutdown()
        finally:
            server.shutdown()

    def test_tasks_of_one_seed_run_one_at_a_time(self):
        """Two parents can send byte-identical closures, which a worker
        holds as one seed: its tasks must not share the seeded object
        at once.  The waiting task sits on the seed lock longer than
        the timeout and still is not declared dead — busy heartbeats
        flow while it waits."""
        server = RemoteWorkerServer()
        server.serve_in_thread()
        probe = _ConcurrencyProbe(0.4)
        pool = [
            RemoteCornerExecutor([server.address], timeout=0.25)
            for _ in range(2)
        ]
        outcomes: "list[object]" = [None, None]

        def run(i):
            try:
                outcomes[i] = pool[i].map_ordered(probe, [0, 1])
            except Exception as exc:  # pragma: no cover - failure path
                outcomes[i] = exc

        try:
            # Seed once up front so both maps meet the same seed.
            assert pool[0].map_ordered(probe, [0]) == [1]
            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert outcomes == [[1, 1], [1, 1]]
            for ex in pool:
                ex.shutdown()
        finally:
            server.shutdown()

    def test_worker_reseeds_after_losing_task_state(self):
        """need-seed recovery: a worker that dropped its seed (restart
        or LRU eviction) asks for it again instead of failing."""
        server = RemoteWorkerServer()
        server.serve_in_thread()
        try:
            ex = RemoteCornerExecutor([server.address], timeout=5.0)
            assert ex.map_ordered(_square, [1, 2]) == [1, 4]
            server._seeds.clear()  # simulate restart / eviction
            assert ex.map_ordered(_square, [3, 4]) == [9, 16]
            ex.shutdown()
        finally:
            server.shutdown()


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


class _ConcurrencyProbe:
    """Plain picklable task: returns how many calls were inside its
    (seeded) instance when this one entered, itself included."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.inside: list = []

    def __call__(self, _item):
        self.inside.append(None)
        peak = len(self.inside)
        time.sleep(self.seconds)
        self.inside.pop()
        return peak


def _returns_unpicklable(x):
    return lambda: x  # noqa: E731 - deliberately unpicklable result


# --------------------------------------------------------------------- #
# Heartbeat / timeout interplay                                         #
# --------------------------------------------------------------------- #
class TestHeartbeatNegotiation:
    """The server may stretch a too-fast heartbeat but must never let
    the negotiated cadence reach the client's dead-worker timeout — a
    clamped-up heartbeat above the timeout meant every long solve was
    declared a dead worker."""

    def test_clamped_below_client_timeout(self):
        # Requested cadence ≥ the client timeout: clamp to timeout/2.
        assert negotiate_heartbeat(5.0, 0.3) == pytest.approx(0.15)
        assert negotiate_heartbeat(1.0, 1.0) == pytest.approx(0.5)

    def test_sane_requests_pass_through(self):
        assert negotiate_heartbeat(0.2, 10.0) == pytest.approx(0.2)
        assert negotiate_heartbeat(1.0, None) == pytest.approx(1.0)

    def test_floor_still_applies(self):
        # Clamping from below (the pre-existing behaviour) is kept.
        assert negotiate_heartbeat(0.001, None) == pytest.approx(0.05)
        assert negotiate_heartbeat(0.001, 1.0) == pytest.approx(0.05)

    def test_impossible_timeout_refused_descriptively(self):
        # Both sides of the boundary: just above the floor the clamp
        # succeeds; at/below it no legal cadence exists and the request
        # is refused rather than silently armed to misfire.
        assert negotiate_heartbeat(1.0, 0.11) < 0.11
        with pytest.raises(RemoteProtocolError, match="heartbeat"):
            negotiate_heartbeat(1.0, 0.05)
        with pytest.raises(RemoteProtocolError, match="raise the timeout"):
            negotiate_heartbeat(0.05, 0.04)

    def test_client_interval_stays_inside_timeout(self):
        for timeout in (0.11, 0.2, 0.5, 1.0, 15.0, DEFAULT_REMOTE_TIMEOUT):
            assert client_heartbeat_interval(timeout) < timeout
        assert client_heartbeat_interval(15.0) == pytest.approx(3.75)

    def test_executor_rejects_timeout_at_or_below_floor(self):
        with pytest.raises(ValueError, match="must exceed"):
            RemoteCornerExecutor([("h", 1)], timeout=MIN_REMOTE_TIMEOUT)
        # Just above the floor is legal, with a cadence inside it.
        ex = RemoteCornerExecutor([("h", 1)], timeout=0.11)
        assert ex.heartbeat_interval < ex.timeout
        ex.shutdown()

    def test_config_rejects_remote_timeout_at_floor(self):
        with pytest.raises(ValueError, match="must exceed"):
            OptimizerConfig(
                corner_executor="remote:127.0.0.1:7070",
                remote_timeout=MIN_REMOTE_TIMEOUT,
            )
        # Non-remote executors keep accepting small values: the knob is
        # inert there.
        OptimizerConfig(corner_executor="serial", remote_timeout=0.05)

    def test_server_clamps_heartbeat_under_announced_timeout(self):
        """A hello announcing a huge heartbeat with a small timeout is
        welcomed with the clamped cadence, not armed to misfire."""
        server = RemoteWorkerServer()
        server.serve_in_thread()
        try:
            sock = socket.create_connection(server.address, timeout=3.0)
            sock.settimeout(3.0)
            send_frame(
                sock,
                {
                    "kind": "hello",
                    "version": PROTOCOL_VERSION,
                    "heartbeat": 60.0,
                    "timeout": 0.3,
                },
            )
            assert recv_frame(sock)["kind"] == "welcome"
            sock.close()
        finally:
            server.shutdown()

    def test_server_refuses_impossible_timeout(self):
        server = RemoteWorkerServer()
        server.serve_in_thread()
        try:
            sock = socket.create_connection(server.address, timeout=3.0)
            sock.settimeout(3.0)
            send_frame(
                sock,
                {
                    "kind": "hello",
                    "version": PROTOCOL_VERSION,
                    "heartbeat": 1.0,
                    "timeout": 0.04,
                },
            )
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert "heartbeat" in reply["message"]
            sock.close()
        finally:
            server.shutdown()

    def test_legacy_hello_without_timeout_still_welcomed(self):
        """Backward compatibility: a hello that does not announce its
        timeout negotiates exactly as before."""
        server = RemoteWorkerServer()
        server.serve_in_thread()
        try:
            sock = socket.create_connection(server.address, timeout=3.0)
            sock.settimeout(3.0)
            send_frame(
                sock,
                {
                    "kind": "hello",
                    "version": PROTOCOL_VERSION,
                    "heartbeat": 0.5,
                },
            )
            assert recv_frame(sock)["kind"] == "welcome"
            sock.close()
        finally:
            server.shutdown()


# --------------------------------------------------------------------- #
# Protocol hygiene                                                      #
# --------------------------------------------------------------------- #
class TestProtocolHygiene:
    def test_version_skew_is_descriptive_not_a_hang(self):
        server = RemoteWorkerServer(protocol_version=PROTOCOL_VERSION + 1)
        server.serve_in_thread()
        try:
            ex = RemoteCornerExecutor([server.address], timeout=3.0)
            with pytest.raises(
                RemoteProtocolError, match="protocol version mismatch"
            ):
                ex.map_ordered(_square, [1, 2])
            ex.shutdown()
        finally:
            server.shutdown()

    def test_server_rejects_stale_client_version(self):
        server = RemoteWorkerServer()
        server.serve_in_thread()
        try:
            sock = socket.create_connection(server.address, timeout=3.0)
            sock.settimeout(3.0)
            send_frame(
                sock, {"kind": "hello", "version": 0, "heartbeat": 0.5}
            )
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert "protocol version mismatch" in reply["message"]
            sock.close()
        finally:
            server.shutdown()

    def test_server_rejects_seed_digest_mismatch(self):
        server = RemoteWorkerServer()
        server.serve_in_thread()
        try:
            sock = socket.create_connection(server.address, timeout=3.0)
            sock.settimeout(3.0)
            send_frame(
                sock,
                {
                    "kind": "hello",
                    "version": PROTOCOL_VERSION,
                    "heartbeat": 0.5,
                },
            )
            assert recv_frame(sock)["kind"] == "welcome"
            send_frame(
                sock,
                {
                    "kind": "seed",
                    "key": "0" * 32,
                    "payload": pickle.dumps(_square),
                },
            )
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert "digest mismatch" in reply["message"]
            sock.close()
        finally:
            server.shutdown()

    def test_frame_digest_detects_corruption(self):
        server = RemoteWorkerServer()
        server.serve_in_thread()
        try:
            sock = socket.create_connection(server.address, timeout=3.0)
            sock.settimeout(3.0)
            payload = pickle.dumps(
                {"kind": "hello", "version": PROTOCOL_VERSION}
            )
            import struct

            header = struct.pack(">Q16s", len(payload), b"x" * 16)
            sock.sendall(header + payload)
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert "corrupted" in reply["message"]
            sock.close()
        finally:
            server.shutdown()

    def test_non_pickle_frame_is_refused_by_both_servers(self, frame_server):
        """A frame whose digest checks out but whose payload is not a
        pickle gets an error reply instead of killing the handler."""
        from repro.core.remote import _FRAME_HEADER, _digest

        sock = socket.create_connection(frame_server.address, timeout=3.0)
        sock.settimeout(3.0)
        try:
            payload = b"not a pickle"
            sock.sendall(
                _FRAME_HEADER.pack(len(payload), _digest(payload)) + payload
            )
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert "malformed frame payload" in reply["message"]
        finally:
            sock.close()

    def test_shutdown_gives_idle_connections_eof(self, frame_server):
        """shutdown() wakes the handler blocked in recv and hands the
        peer EOF; closing the socket from another thread did neither."""
        sock = socket.create_connection(frame_server.address, timeout=3.0)
        sock.settimeout(3.0)
        try:
            send_frame(
                sock,
                {"kind": "hello", "version": PROTOCOL_VERSION, "heartbeat": 0.5},
            )
            assert recv_frame(sock)["kind"] == "welcome"
            frame_server.shutdown()
            assert sock.recv(1) == b""
        finally:
            sock.close()

    def test_unpicklable_task_state_raises_locally(self, worker_pair):
        ex = RemoteCornerExecutor(list(worker_pair), timeout=5.0)
        with pytest.raises(ValueError, match="not picklable"):
            ex.map_ordered(lambda x: x, [1, 2])
        ex.shutdown()

    def test_single_item_maps_reach_a_worker(self, worker_pair):
        """A one-item map goes over the socket like any other: the task
        runs in the worker process, never in the parent."""
        ex = RemoteCornerExecutor(list(worker_pair), timeout=5.0)
        [pid] = ex.map_ordered(_pid_of, [7])
        assert pid != os.getpid()
        assert ex.observed_pids == {pid}
        assert ex.map_ordered(_pid_of, []) == []
        ex.shutdown()


# --------------------------------------------------------------------- #
# CLI round trip                                                        #
# --------------------------------------------------------------------- #
class TestWorkerCli:
    def test_worker_subcommand_serves_and_announces_port(self):
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "repro worker listening on 127.0.0.1:" in line
            assert f"protocol v{PROTOCOL_VERSION}" in line
            port = int(line.split("127.0.0.1:")[1].split()[0])
            ex = RemoteCornerExecutor([("127.0.0.1", port)], timeout=10.0)
            # A builtin task state: the CLI worker is an independent
            # process (not a fork), so it cannot import this test module.
            assert ex.map_ordered(abs, [-2, -3, 4]) == [2, 3, 4]
            assert ex.observed_pids == {proc.pid}
            ex.shutdown()
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_worker_subcommand_rejects_bad_listen_spec(self, capsys):
        from repro.cli import main

        assert main(["worker", "--listen", "nocolon"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_design_cli_over_remote_executor(
        self, worker_pair, tmp_path, capsys
    ):
        """The acceptance path: `repro design bending --executor
        remote:...` matches the serial CLI run bit for bit."""
        from repro.cli import main
        from repro.utils.io import load_result

        outputs = {}
        for name, executor in (
            ("serial", "serial"),
            ("remote", _spec(*worker_pair)),
        ):
            out = tmp_path / f"{name}.json"
            code = main(
                [
                    "design",
                    "bending",
                    "--iterations",
                    "1",
                    "--executor",
                    executor,
                    "--remote-timeout",
                    "15",
                    "--quiet",
                    "--output",
                    str(out),
                ]
            )
            assert code == 0
            outputs[name] = load_result(str(out))
        capsys.readouterr()
        assert np.array_equal(
            np.asarray(outputs["remote"]["pattern"]),
            np.asarray(outputs["serial"]["pattern"]),
        )
        assert np.array_equal(
            np.asarray(outputs["remote"]["fom_trace"]),
            np.asarray(outputs["serial"]["fom_trace"]),
        )

    def test_help_documents_scaling_out(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "scaling out" in text
        assert "repro worker --listen" in text
        assert "--remote-timeout" in text or "remote:" in text
