"""The ``repro serve`` job daemon: lifecycle, protocol, crash recovery.

What is locked down here:

* **Job lifecycle** — submit over loopback, run, stream progress to a
  ``watch`` client, complete with a result payload bitwise-identical
  (LU-backed) to a direct ``repro design`` run of the same config.
* **Cancellation** — a queued job is cancelled in place (no work, no
  checkpoints); a running job gets a soft stop that finishes the
  iteration and checkpoints before settling.
* **Protocol hygiene** — version skew (handshake *and* per-request),
  corrupt frames, unknown kinds/jobs/devices and invalid configs are
  descriptive refusals, never hangs.
* **Crash recovery** — the acceptance path: a daemon SIGKILLed mid-job
  and restarted resumes from the newest checkpoint and completes, the
  trajectory stays bitwise, and a ``watch`` opened after the restart
  replays every iteration record exactly once.  Graceful drains park
  jobs as ``interrupted`` with the same resume guarantee, and the
  restart scan tolerates rotation debris (orphan sidecars, torn
  payloads).
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.checkpoint import find_latest_checkpoint
from repro.core.config import OptimizerConfig
from repro.core.engine import Boson1Optimizer
from repro.core.remote import PROTOCOL_VERSION, recv_frame, send_frame
from repro.core.serve import JobStore, ServeClient, ServeDaemon, ServeError
from repro.devices import make_device
from repro.utils.io import load_result

pytestmark = pytest.mark.serve

#: Small-but-real design config every lifecycle test submits; random
#: sampling exercises the RNG-stream part of the resume contract.
CFG = dict(iterations=4, sampling="random", relax_epochs=2, seed=0)


@pytest.fixture(scope="module")
def reference():
    """Uninterrupted direct `repro design`-equivalent run of CFG."""
    optimizer = Boson1Optimizer(make_device("bending"), OptimizerConfig(**CFG))
    result = optimizer.run()
    optimizer.close()
    return result


@pytest.fixture()
def daemon(tmp_path):
    d = ServeDaemon(tmp_path / "jobs", parallel=1)
    d.serve_in_thread()
    yield d
    d.shutdown()


def _client(daemon, timeout=120.0, **kw):
    return ServeClient(daemon.address, timeout=timeout, **kw)


def _wait_for(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _wait_for_checkpoint(job_dir: Path, timeout=60.0) -> None:
    assert _wait_for(
        lambda: list((job_dir / "checkpoints").glob("ckpt_*.ckpt")),
        timeout=timeout,
    ), "no checkpoint appeared in time"


# --------------------------------------------------------------------- #
# Job lifecycle over loopback                                           #
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_submit_watch_complete_bitwise(self, daemon, reference):
        with _client(daemon) as client:
            job = client.submit("bending", dict(CFG))
            assert job["status"] == "queued"
            records = []
            final = client.watch(job["id"], on_record=records.append)
        assert final["status"] == "completed"
        assert final["iterations_done"] == CFG["iterations"]
        # The stream carries every iteration exactly once, in order,
        # in the trace-JSONL record shape (metrics snapshot included).
        assert [r["iteration"] for r in records] == [0, 1, 2, 3]
        assert all(r["type"] == "iteration" for r in records)
        assert all(r["job"] == job["id"] for r in records)
        assert all("metrics" in r for r in records)
        np.testing.assert_array_equal(
            [r["loss"] for r in records],
            [rec.loss for rec in reference.history],
        )
        # The persisted result is bitwise-identical to the direct run.
        payload = load_result(
            daemon.store.result_path(job["id"])
        )
        np.testing.assert_array_equal(
            np.asarray(payload["fom_trace"]), reference.fom_trace()
        )
        np.testing.assert_array_equal(
            np.asarray(payload["pattern"]), reference.pattern
        )
        assert payload["final_loss"] == reference.final_loss

    def test_result_written_before_status_completes(
        self, daemon, monkeypatch
    ):
        """A watcher that sees "completed" must find result.json."""
        import repro.core.serve as serve_mod

        seen = []

        def recording_save(payload, path):
            seen.append(daemon.store.get(Path(path).parent.name).status)
            return save_result(payload, path)

        save_result = serve_mod.save_result
        monkeypatch.setattr(serve_mod, "save_result", recording_save)
        with _client(daemon) as client:
            job = client.submit("bending", dict(CFG, iterations=1))
            final = client.watch(job["id"])
        assert final["status"] == "completed"
        assert seen == ["running"]

    def test_status_and_list_carry_gauges(self, daemon):
        with _client(daemon) as client:
            job = client.submit("bending", dict(CFG))
            reply = client.status(job["id"])
            assert reply["job"]["id"] == job["id"]
            for key in ("queue_depth", "jobs_running", "rss_bytes"):
                assert key in reply["daemon"]
            assert reply["daemon"]["rss_bytes"] > 0
            assert isinstance(reply["fleet"], dict)
            listing = client.list_jobs()
            assert [j["id"] for j in listing["jobs"]] == [job["id"]]
            client.cancel(job["id"])

    def test_welcome_carries_gauges(self, daemon):
        with _client(daemon) as client:
            assert "queue_depth" in client.gauges

    def test_job_ids_increment_across_store_reload(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.create("bending", {}).id == "job-000001"
        assert store.create("bending", {}).id == "job-000002"
        reloaded = JobStore(tmp_path)
        reloaded.scan()
        assert reloaded.create("bending", {}).id == "job-000003"

    def test_store_scan_skips_torn_record(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create("bending", {})
        torn = tmp_path / "job-000002"
        torn.mkdir()
        (torn / "job.json").write_text("{not json", encoding="utf-8")
        reloaded = JobStore(tmp_path)
        assert [j.id for j in reloaded.scan()] == [job.id]


# --------------------------------------------------------------------- #
# Cancellation                                                          #
# --------------------------------------------------------------------- #
class TestCancel:
    def test_cancel_queued_vs_running(self, daemon):
        """With one runner, job B queues behind job A: cancelling B is
        immediate and leaves no work products; cancelling A soft-stops
        it after the current iteration, with a checkpoint on disk."""
        long_cfg = dict(CFG, iterations=50)
        with _client(daemon) as client:
            job_a = client.submit("bending", long_cfg)
            job_b = client.submit("bending", dict(CFG))

            cancelled_b = client.cancel(job_b["id"])
            assert cancelled_b["status"] == "cancelled"
            assert not (
                daemon.store.checkpoint_dir(job_b["id"])
            ).exists() or not list(
                daemon.store.checkpoint_dir(job_b["id"]).iterdir()
            )

            # Let A reach its first iteration so the cancel exercises
            # the running path, then soft-stop it.
            _wait_for_checkpoint(daemon.store.job_dir(job_a["id"]))
            reply = client.cancel(job_a["id"])
            assert reply["cancelling"] or reply["status"] == "cancelled"
            final = client.watch(job_a["id"])
        assert final["status"] == "cancelled"
        assert 0 < final["iterations_done"] < long_cfg["iterations"]
        assert find_latest_checkpoint(
            daemon.store.checkpoint_dir(job_a["id"])
        ) is not None

    def test_cancel_terminal_job_is_a_noop(self, daemon):
        with _client(daemon) as client:
            job = client.submit("bending", dict(CFG, iterations=1))
            client.watch(job["id"])
            reply = client.cancel(job["id"])
            assert reply["status"] == "completed"


# --------------------------------------------------------------------- #
# Protocol hygiene on the new frame kinds                               #
# --------------------------------------------------------------------- #
class TestProtocolHygiene:
    def test_handshake_version_skew_is_descriptive(self, tmp_path):
        daemon = ServeDaemon(
            tmp_path / "jobs", protocol_version=PROTOCOL_VERSION + 1
        )
        daemon.serve_in_thread()
        try:
            with pytest.raises(ServeError, match="protocol version"):
                ServeClient(daemon.address, timeout=5.0)
        finally:
            daemon.shutdown()

    def test_request_frames_are_version_pinned(self, daemon):
        """A stale version on any serve request — not just hello — is
        refused descriptively."""
        sock = socket.create_connection(daemon.address, timeout=5.0)
        sock.settimeout(5.0)
        try:
            send_frame(
                sock,
                {
                    "kind": "hello",
                    "version": PROTOCOL_VERSION,
                    "heartbeat": 0.5,
                },
            )
            assert recv_frame(sock)["kind"] == "welcome"
            send_frame(sock, {"kind": "list", "version": 0})
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert "protocol version mismatch" in reply["message"]
        finally:
            sock.close()

    def test_tiny_client_timeout_refused_at_handshake(self, daemon):
        """A timeout that cannot fit a heartbeat under it is refused
        with the raise-your-timeout message, mirroring the worker."""
        sock = socket.create_connection(daemon.address, timeout=5.0)
        sock.settimeout(5.0)
        try:
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
        finally:
            sock.close()

    def test_corrupt_frame_is_descriptive(self, daemon):
        """A digest-corrupted frame surfaces as a transport-corruption
        error, never a misparse."""
        from repro.core.remote import _FRAME_HEADER, _digest
        import pickle

        sock = socket.create_connection(daemon.address, timeout=5.0)
        sock.settimeout(5.0)
        try:
            payload = pickle.dumps(
                {"kind": "hello", "version": PROTOCOL_VERSION}
            )
            corrupted = bytes([payload[0] ^ 0xFF]) + payload[1:]
            sock.sendall(
                _FRAME_HEADER.pack(len(corrupted), _digest(payload))
                + corrupted
            )
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert "digest mismatch" in reply["message"]
        finally:
            sock.close()

    def test_unknown_kind_closes_with_error(self, daemon):
        sock = socket.create_connection(daemon.address, timeout=5.0)
        sock.settimeout(5.0)
        try:
            send_frame(
                sock,
                {
                    "kind": "hello",
                    "version": PROTOCOL_VERSION,
                    "heartbeat": 0.5,
                },
            )
            assert recv_frame(sock)["kind"] == "welcome"
            send_frame(sock, {"kind": "frobnicate"})
            reply = recv_frame(sock)
            assert reply["kind"] == "error"
            assert "unknown message kind" in reply["message"]
        finally:
            sock.close()

    @pytest.mark.parametrize("kind", ["status", "watch", "cancel"])
    def test_unknown_job_is_refused(self, daemon, kind):
        with _client(daemon, timeout=5.0) as client:
            with pytest.raises(ServeError, match="unknown job"):
                client._request({"kind": kind, "job": "job-999999"})

    def test_unknown_device_is_refused(self, daemon):
        with _client(daemon, timeout=5.0) as client:
            with pytest.raises(ServeError, match="unknown device"):
                client.submit("warp-drive", {})

    def test_invalid_config_refused_before_queueing(self, daemon):
        with _client(daemon, timeout=5.0) as client:
            with pytest.raises(ServeError, match="invalid job config"):
                client.submit("bending", {"iterations": -3})
        with _client(daemon, timeout=5.0) as client:
            assert client.list_jobs()["jobs"] == []


    def test_removed_connect_retries_refused_before_queueing(self, daemon):
        with _client(daemon, timeout=5.0) as client:
            with pytest.raises(ServeError, match="invalid job config"):
                client.submit("bending", {"remote_connect_retries": 2})
        with _client(daemon, timeout=5.0) as client:
            assert client.list_jobs()["jobs"] == []

    def test_removed_executor_refused_before_queueing(self, daemon):
        with _client(daemon, timeout=5.0) as client:
            with pytest.raises(ServeError, match="factor threads"):
                client.submit("bending", {"corner_executor": "process:2"})
        with _client(daemon, timeout=5.0) as client:
            assert client.list_jobs()["jobs"] == []

    def test_non_json_config_refused_without_phantom_job(self, daemon):
        from repro.fdfd.linalg import SolverConfig

        bad = {"iterations": 1, "solver": SolverConfig("krylov-block")}
        with _client(daemon, timeout=5.0) as client:
            with pytest.raises(ServeError, match="'solver'"):
                client.submit("bending", bad)
        with _client(daemon, timeout=5.0) as client:
            assert client.list_jobs()["jobs"] == []

    def test_store_lists_a_job_only_once_its_record_lands(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(TypeError):
            store.create("bending", {"solver": object()})
        assert store.all() == []
        assert store.create("bending", {}).id == "job-000001"


class TestCliJobSpec:
    """``repro design`` and ``repro submit`` build one job spec."""

    ARGV = [
        "--iterations", "1", "--sampling", "random", "--relax-epochs", "1",
        "--seed", "3", "--wavelengths", "1.53,1.57", "--temperatures", "290",
        "--aggregate", "cvar:0.5", "--solver", "krylov-block",
    ]

    def test_design_and_submit_configs_match(self, daemon, monkeypatch):
        import repro.cli as cli
        from repro.core.checkpoint import config_digest
        from repro.fdfd.linalg import SolverConfig

        built = []

        class Built(Exception):
            pass

        def capture(device, config):
            built.append(config)
            raise Built

        monkeypatch.setattr(cli, "Boson1Optimizer", capture)
        with pytest.raises(Built):
            cli.main(["design", "bending", *self.ARGV])
        host, port = daemon.address
        argv = ["submit", "bending", "--connect", f"{host}:{port}"]
        assert cli.main(argv + self.ARGV) == 0
        # Rebuild from job.json as a restarted daemon would read it.
        (stored,) = JobStore(daemon.store.root).scan()
        served = daemon._job_config(stored)
        assert config_digest(served, "bending") == config_digest(
            built[0], "bending"
        )
        assert served.solver == SolverConfig(backend="krylov-block")
        with _client(daemon) as client:
            assert client.watch(stored.id)["status"] == "completed"


# --------------------------------------------------------------------- #
# Peer loss on the client side                                          #
# --------------------------------------------------------------------- #
class TestDaemonLoss:
    def test_shutdown_mid_watch_raises_serve_error(self, tmp_path):
        """A daemon that goes away mid-stream surfaces as ServeError,
        not as a transport exception callers do not expect."""
        daemon = ServeDaemon(tmp_path / "jobs", parallel=1)
        thread = daemon.serve_in_thread()
        try:
            with _client(daemon) as client:
                job = client.submit("bending", dict(CFG, iterations=50))
                with pytest.raises(ServeError, match="daemon"):
                    client.watch(
                        job["id"], on_record=lambda _r: daemon.shutdown()
                    )
        finally:
            daemon.shutdown()
            thread.join(60.0)
        assert not thread.is_alive()

    def test_cli_watch_exits_one_when_daemon_goes_away(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        daemon = ServeDaemon(tmp_path / "jobs", parallel=1)
        thread = daemon.serve_in_thread()
        try:
            with _client(daemon) as client:
                job = client.submit("bending", dict(CFG, iterations=50))

            def stop_after_first_checkpoint():
                _wait_for_checkpoint(daemon.store.job_dir(job["id"]))
                daemon.shutdown()

            stopper = threading.Thread(
                target=stop_after_first_checkpoint, daemon=True
            )
            stopper.start()
            host, port = daemon.address
            code = main(["watch", job["id"], "--connect", f"{host}:{port}"])
            stopper.join(60.0)
        finally:
            daemon.shutdown()
            thread.join(60.0)
        assert code == 1
        assert "error: watch failed" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Crash recovery                                                        #
# --------------------------------------------------------------------- #
class TestRestartRecovery:
    def test_graceful_drain_parks_and_restart_resumes_bitwise(
        self, tmp_path, reference
    ):
        jobs = tmp_path / "jobs"
        first = ServeDaemon(jobs, parallel=1)
        thread = first.serve_in_thread()
        with _client(first) as client:
            job = client.submit("bending", dict(CFG))
        _wait_for_checkpoint(first.store.job_dir(job["id"]))
        first.request_graceful_shutdown()
        thread.join(60.0)
        assert not thread.is_alive()
        spec = json.loads(
            (jobs / job["id"] / "job.json").read_text(encoding="utf-8")
        )
        assert spec["status"] == "interrupted"
        assert 0 < spec["iterations_done"] < CFG["iterations"]

        second = ServeDaemon(jobs, parallel=1)
        second.serve_in_thread()
        try:
            records = []
            with _client(second) as client:
                final = client.watch(job["id"], on_record=records.append)
            assert final["status"] == "completed"
            # The replayed stream covers every iteration exactly once
            # across the interruption.
            assert [r["iteration"] for r in records] == [0, 1, 2, 3]
            payload = load_result(second.store.result_path(job["id"]))
            np.testing.assert_array_equal(
                np.asarray(payload["fom_trace"]), reference.fom_trace()
            )
            np.testing.assert_array_equal(
                np.asarray(payload["pattern"]), reference.pattern
            )
        finally:
            second.shutdown()

    def test_queued_jobs_survive_a_drain(self, tmp_path):
        jobs = tmp_path / "jobs"
        first = ServeDaemon(jobs, parallel=1)
        thread = first.serve_in_thread()
        with _client(first) as client:
            running = client.submit("bending", dict(CFG, iterations=50))
            queued = client.submit("bending", dict(CFG))
        _wait_for_checkpoint(first.store.job_dir(running["id"]))
        first.request_graceful_shutdown()
        thread.join(60.0)
        spec = json.loads(
            (jobs / queued["id"] / "job.json").read_text(encoding="utf-8")
        )
        assert spec["status"] == "queued"
        assert not (jobs / queued["id"] / "checkpoints").exists()

    def test_restart_scan_tolerates_rotation_debris(
        self, tmp_path, reference
    ):
        """An orphan sidecar (payload already rotated away) and a torn
        payload next to a valid checkpoint must not strand the resume:
        the scan skips both and resumes from the newest valid file."""
        jobs = tmp_path / "jobs"
        first = ServeDaemon(jobs, parallel=1)
        thread = first.serve_in_thread()
        with _client(first) as client:
            job = client.submit("bending", dict(CFG))
        _wait_for_checkpoint(first.store.job_dir(job["id"]))
        first.request_graceful_shutdown()
        thread.join(60.0)

        ckpt_dir = jobs / job["id"] / "checkpoints"
        # Orphan sidecar: its payload was deleted by rotation (the
        # pre-fix _rotate left exactly this debris behind).
        (ckpt_dir / "ckpt_000099.ckpt.meta.json").write_text(
            "{}", encoding="utf-8"
        )
        # Torn payload newer than every real checkpoint: must be
        # skipped, not resumed from.
        (ckpt_dir / "ckpt_000098.ckpt").write_bytes(b"RPCK\x00garbage")

        second = ServeDaemon(jobs, parallel=1)
        second.serve_in_thread()
        try:
            with _client(second) as client:
                final = client.watch(job["id"])
            assert final["status"] == "completed"
            payload = load_result(second.store.result_path(job["id"]))
            np.testing.assert_array_equal(
                np.asarray(payload["fom_trace"]), reference.fom_trace()
            )
        finally:
            second.shutdown()


# --------------------------------------------------------------------- #
# The acceptance path: SIGKILL the daemon subprocess mid-job            #
# --------------------------------------------------------------------- #
def _spawn_serve(jobs_dir: Path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--jobs-dir",
            str(jobs_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    assert match, f"unparseable serve startup line: {line!r}"
    return proc, (match.group(1), int(match.group(2)))


class TestKillMinusNine:
    def test_sigkilled_daemon_restarts_and_completes_bitwise(
        self, tmp_path, reference
    ):
        """The ISSUE acceptance criterion end to end: SIGKILL the
        daemon subprocess mid-job, restart it on the same jobs dir,
        and the job completes with an LU-backed trajectory bitwise
        equal to an uninterrupted direct run — while a watch client
        connected after the restart receives the full record stream,
        each iteration exactly once."""
        jobs = tmp_path / "jobs"
        proc, address = _spawn_serve(jobs)
        try:
            with ServeClient(address, timeout=120.0) as client:
                job = client.submit("bending", dict(CFG))
            _wait_for_checkpoint(jobs / job["id"], timeout=120.0)
            proc.kill()  # SIGKILL: no drain, no final checkpoint
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        spec = json.loads(
            (jobs / job["id"] / "job.json").read_text(encoding="utf-8")
        )
        assert spec["status"] == "running"  # torn state, by design

        proc2, address2 = _spawn_serve(jobs)
        try:
            records = []
            with ServeClient(address2, timeout=120.0) as client:
                final = client.watch(job["id"], on_record=records.append)
            assert final["status"] == "completed"
            iterations = [r["iteration"] for r in records]
            assert iterations == sorted(set(iterations))
            assert iterations == list(range(CFG["iterations"]))
            payload = load_result(jobs / job["id"] / "result.json")
            np.testing.assert_array_equal(
                np.asarray(payload["fom_trace"]), reference.fom_trace()
            )
            np.testing.assert_array_equal(
                np.asarray(payload["pattern"]), reference.pattern
            )
            np.testing.assert_array_equal(
                [r["loss"] for r in records],
                [rec.loss for rec in reference.history],
            )
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc2.kill()
