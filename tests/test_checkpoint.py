"""Crash-safe checkpoint/resume, graceful shutdown, fleet-loss degradation.

Contracts under test (ISSUE PR 6):

1. **Bitwise resume** — a run killed mid-flight (in-process exception,
   SIGKILL of a real subprocess, or graceful SIGINT) resumes from its
   newest checkpoint to a final ``fom_trace`` and theta bitwise-equal to
   the uninterrupted run for LU-backed solver backends
   (direct), and solver-precision-equal for krylov-block.
2. **Refusal semantics** — truncated/corrupted files, foreign format
   versions, and config/device digest mismatches are refused with
   descriptive errors; ``--resume auto`` skips invalid files instead of
   stranding the run.
3. **Crash-safe persistence** — self-validating header, atomic writes
   (no torn files, no leftover tmp files), JSON sidecars, keep-last-K
   rotation.
4. **Graceful shutdown** — first SIGINT/SIGTERM finishes the iteration
   and checkpoints (``result.interrupted``); a second signal escalates.
   ``repro worker`` drains in-flight tasks on SIGTERM: started tasks
   finish and their result frames reach the wire before sockets close.
5. **Fleet-loss degradation** — a fully dead remote fleet checkpoints
   (when enabled), restores the pre-iteration RNG, and falls back to
   the serial executor with a bitwise-identical trajectory.
6. **Connect retries** — worker dials retry transient connection
   failures with exponential backoff + jitter; protocol errors are
   systemic and surface immediately.
"""

import os
import pickle
import signal
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
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointManager,
    CheckpointMismatchError,
    DesignCheckpoint,
    GracefulShutdown,
    _HEADER,
    _MAGIC,
    config_digest,
    find_latest_checkpoint,
    list_checkpoints,
    resolve_resume,
    sidecar_path,
)
from repro.core.executors import SerialExecutor
from repro.core.remote import (
    PROTOCOL_VERSION,
    FaultInjection,
    RemoteCornerExecutor,
    RemoteFleetDead,
    RemoteProtocolError,
    RemoteWorkerDied,
    RemoteWorkerServer,
    recv_frame,
    seed_key,
    send_frame,
    start_worker_subprocess,
)
from repro.devices import make_device
from repro.utils.io import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    load_result,
    save_result,
)

pytestmark = pytest.mark.checkpoint

#: Preconditioned backends resume to solver precision, not bitwise
#: (anchors are re-established in the resumed process).
KRYLOV_TOL = dict(rtol=1e-5, atol=1e-7)

#: Trajectory-shaping settings shared by every engine run below; the
#: ``random`` sampler makes the trajectory depend on the engine RNG, so
#: these tests prove the RNG stream is checkpointed and restored.
CFG_KW = dict(iterations=4, sampling="random", relax_epochs=2, seed=0)


@pytest.fixture(scope="module")
def bend():
    return make_device("bending")


def _make_opt(bend, backend="direct", **overrides):
    kw = dict(CFG_KW, solver=backend)
    kw.update(overrides)
    return Boson1Optimizer(bend, OptimizerConfig(**kw))


@pytest.fixture(scope="module")
def reference(bend, tmp_path_factory):
    """Uninterrupted checkpointed run per backend (cached)."""
    cache = {}

    def get(backend):
        if backend not in cache:
            ckpt_dir = tmp_path_factory.mktemp(f"ref_{backend}")
            opt = _make_opt(
                bend,
                backend,
                checkpoint_dir=str(ckpt_dir),
                checkpoint_keep=10,
            )
            cache[backend] = (opt.run(), ckpt_dir)
        return cache[backend]

    return get


def _tiny_ckpt(**kw):
    base = dict(
        config_digest="d" * 32,
        device_name="bending",
        next_iteration=2,
        theta=np.arange(6.0),
        adam_state={"t": 2, "lr": 0.1},
        rng_state={"bit_generator": "PCG64", "state": 7},
    )
    base.update(kw)
    return DesignCheckpoint(**base)


# --------------------------------------------------------------------- #
# Config digest                                                         #
# --------------------------------------------------------------------- #
class TestConfigDigest:
    def test_runtime_only_fields_do_not_bind(self):
        base = config_digest(OptimizerConfig(), "bending")
        for override in (
            dict(corner_executor="remote:127.0.0.1:7070"),
            dict(remote_timeout=5.0),
            dict(iterations=7),
            dict(checkpoint_dir="somewhere"),
            dict(checkpoint_every=2),
            dict(checkpoint_keep=5),
        ):
            assert config_digest(OptimizerConfig(**override), "bending") == base, (
                f"runtime-only override {override} changed the digest"
            )

    def test_trajectory_fields_bind(self):
        base = config_digest(OptimizerConfig(), "bending")
        for override in (
            dict(seed=1),
            dict(sampling="axial"),
            dict(lr=0.123),
            dict(relax_epochs=0),
            dict(solver="krylov-block"),
        ):
            assert config_digest(OptimizerConfig(**override), "bending") != base, (
                f"trajectory-shaping override {override} left the digest "
                "unchanged"
            )

    def test_device_binds(self):
        cfg = OptimizerConfig()
        assert config_digest(cfg, "bending") != config_digest(cfg, "crossing")

    def test_config_validates_checkpoint_knobs(self):
        with pytest.raises(ValueError):
            OptimizerConfig(checkpoint_every=0)
        with pytest.raises(ValueError):
            OptimizerConfig(checkpoint_keep=0)


# --------------------------------------------------------------------- #
# On-disk format: header validation, descriptive refusals               #
# --------------------------------------------------------------------- #
class TestCheckpointFormat:
    def test_round_trip(self):
        ckpt = _tiny_ckpt()
        back = DesignCheckpoint.from_bytes(ckpt.to_bytes())
        assert back.config_digest == ckpt.config_digest
        assert back.next_iteration == 2
        assert np.array_equal(back.theta, ckpt.theta)
        assert back.adam_state == ckpt.adam_state
        assert back.rng_state == ckpt.rng_state
        assert back.version == CHECKPOINT_VERSION

    def test_truncated_header_refused(self):
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            DesignCheckpoint.from_bytes(_tiny_ckpt().to_bytes()[:10])

    def test_bad_magic_refused(self):
        blob = bytearray(_tiny_ckpt().to_bytes())
        blob[:4] = b"XXXX"
        with pytest.raises(
            CheckpointCorruptError, match="not a repro design checkpoint"
        ):
            DesignCheckpoint.from_bytes(bytes(blob))

    def test_foreign_format_version_refused(self):
        payload = pickle.dumps(_tiny_ckpt())
        import hashlib

        header = _HEADER.pack(
            _MAGIC,
            CHECKPOINT_VERSION + 1,
            len(payload),
            hashlib.blake2b(payload, digest_size=16).digest(),
        )
        with pytest.raises(
            CheckpointError, match=f"format v{CHECKPOINT_VERSION + 1}"
        ):
            DesignCheckpoint.from_bytes(header + payload)

    @pytest.mark.parametrize(
        "version, removed",
        [
            (1, r"recycle_dim.*'batched'"),
            (2, r"'krylov' backend.*krylov_method, gmres_restart and "
             r"max_anchors"),
            (3, r"'krylov-block:float32'.*precond_dtype"),
        ],
        ids=["v1", "v2", "v3"],
    )
    def test_retired_format_refused_naming_removal(self, version, removed):
        """Every retired format's config digest covers solver fields this
        build no longer has, so it is refused with what was removed
        instead of a misleading digest mismatch."""
        import hashlib

        payload = pickle.dumps(
            _tiny_ckpt(config_digest=config_digest(
                OptimizerConfig(solver="krylov-block"), "bending"
            ))
        )
        header = _HEADER.pack(
            _MAGIC,
            version,
            len(payload),
            hashlib.blake2b(payload, digest_size=16).digest(),
        )
        with pytest.raises(
            CheckpointError,
            match=rf"format v{version}.*{removed}.*'krylov-block' or "
            r"'direct'",
        ):
            DesignCheckpoint.from_bytes(header + payload)

    def test_truncated_payload_refused(self):
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            DesignCheckpoint.from_bytes(_tiny_ckpt().to_bytes()[:-3])

    def test_bit_flip_refused(self):
        blob = bytearray(_tiny_ckpt().to_bytes())
        blob[-1] ^= 0xFF
        with pytest.raises(CheckpointCorruptError, match="digest"):
            DesignCheckpoint.from_bytes(bytes(blob))

    def test_wrong_payload_type_refused(self):
        payload = pickle.dumps({"not": "a checkpoint"})
        import hashlib

        header = _HEADER.pack(
            _MAGIC,
            CHECKPOINT_VERSION,
            len(payload),
            hashlib.blake2b(payload, digest_size=16).digest(),
        )
        with pytest.raises(
            CheckpointCorruptError, match="not DesignCheckpoint"
        ):
            DesignCheckpoint.from_bytes(header + payload)

    def test_load_missing_path_is_descriptive(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            DesignCheckpoint.load(tmp_path / "nope.ckpt")

    def test_save_writes_sidecar_and_no_tmp_litter(self, tmp_path):
        path = tmp_path / "ckpt_000002.ckpt"
        _tiny_ckpt().save(path)
        assert DesignCheckpoint.load(path).next_iteration == 2
        meta = load_result(sidecar_path(path))
        assert meta["format"] == "repro design checkpoint"
        assert meta["version"] == CHECKPOINT_VERSION
        assert meta["device"] == "bending"
        assert meta["next_iteration"] == 2
        assert not list(tmp_path.glob("*.tmp")), "atomic write left tmp files"

    def test_sidecar_size_does_not_depend_on_save_time(
        self, tmp_path, monkeypatch
    ):
        # Two saves at different sub-second times: a float timestamp
        # prints with a different number of digits, an integer does not.
        sizes = []
        for i, now in enumerate((1760000000.5, 1760000001.123456789)):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            path = _tiny_ckpt().save(tmp_path / f"ckpt_{i:06d}.ckpt")
            sizes.append(sidecar_path(path).stat().st_size)
            assert load_result(sidecar_path(path))["written_unix"] == int(now)
        assert sizes[0] == sizes[1]

    def test_mismatched_device_refused(self):
        cfg = OptimizerConfig()
        ckpt = _tiny_ckpt(
            config_digest=config_digest(cfg, "bending"), device_name="bending"
        )
        with pytest.raises(CheckpointMismatchError, match="device"):
            ckpt.verify_against(cfg, "crossing")

    def test_mismatched_config_refused(self):
        cfg = OptimizerConfig()
        ckpt = _tiny_ckpt(config_digest=config_digest(cfg, "bending"))
        ckpt.verify_against(cfg, "bending")  # matching digest passes
        with pytest.raises(CheckpointMismatchError, match="config digest"):
            ckpt.verify_against(OptimizerConfig(seed=99), "bending")


# --------------------------------------------------------------------- #
# Rotation + discovery                                                  #
# --------------------------------------------------------------------- #
class TestRotationAndDiscovery:
    def test_keep_last_k_rotation(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, keep=2)
        for n in range(1, 5):
            manager.save(_tiny_ckpt(next_iteration=n))
        kept = list_checkpoints(tmp_path)
        assert [p.name for p in kept] == ["ckpt_000003.ckpt", "ckpt_000004.ckpt"]
        # Sidecars rotate with their payloads.
        metas = sorted(p.name for p in tmp_path.glob("*.meta.json"))
        assert metas == [
            "ckpt_000003.ckpt.meta.json",
            "ckpt_000004.ckpt.meta.json",
        ]
        path, latest = manager.latest()
        assert path.name == "ckpt_000004.ckpt"
        assert latest.next_iteration == 4

    def test_cadence(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=3)
        assert [n for n in range(1, 10) if manager.should_save(n)] == [3, 6, 9]
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)

    def test_rotation_refreshes_last_path_hint(self, tmp_path):
        """Rotation orders by iteration number, so saving *behind* the
        newest file on disk can delete the file just written.  The
        manager's ``last_path`` hint must survive pointing at a file
        that still exists — previously it kept naming the deleted one.
        """
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save(_tiny_ckpt(next_iteration=5))
        # Resume from an earlier checkpoint into the same directory:
        # this save is older by iteration number and rotates away.
        manager.save(_tiny_ckpt(next_iteration=3))
        assert manager.last_path == manager.path_for(5)
        assert manager.last_path.exists()
        path, latest = manager.latest()
        assert path == manager.path_for(5)
        assert latest.next_iteration == 5

    def test_rotation_clears_hint_when_nothing_survives(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save(_tiny_ckpt(next_iteration=2))
        for path in list_checkpoints(tmp_path):
            path.unlink()
        manager._rotate()
        assert manager.last_path is None

    def test_find_latest_skips_corrupt_files(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=10)
        for n in (1, 2, 3):
            manager.save(_tiny_ckpt(next_iteration=n))
        # The newest file is torn; auto-resume must fall back to ckpt 2.
        (tmp_path / "ckpt_000003.ckpt").write_bytes(b"RPCK garbage")
        path, ckpt = find_latest_checkpoint(tmp_path)
        assert path.name == "ckpt_000002.ckpt"
        assert ckpt.next_iteration == 2

    def test_resolve_resume_auto_needs_directory(self):
        with pytest.raises(CheckpointError, match="--checkpoint-dir"):
            resolve_resume("auto", None)

    def test_resolve_resume_auto_empty_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            resolve_resume("auto", tmp_path)

    def test_resolve_resume_explicit_path(self, tmp_path):
        path = tmp_path / "ckpt_000002.ckpt"
        _tiny_ckpt().save(path)
        got_path, got = resolve_resume(str(path), None)
        assert got_path == path
        assert got.next_iteration == 2

    def test_atomic_json_failure_leaves_target_intact(self, tmp_path):
        target = tmp_path / "report.json"
        atomic_write_json(target, {"ok": 1})
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        assert load_result(target) == {"ok": 1}
        assert not list(tmp_path.glob("*.tmp"))

    def test_atomic_bytes_overwrites_atomically(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"one", fsync=False)
        atomic_write_bytes(target, b"two", fsync=True)
        assert target.read_bytes() == b"two"
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_atomic_writes_get_open_mode_not_owner_only(self, tmp_path):
        """Written files take ``0o666 & ~umask``, as :func:`open` gives."""
        old_umask = os.umask(0o022)
        try:
            fresh = tmp_path / "fresh.txt"
            with open(fresh, "w"):
                pass
            assert fresh.stat().st_mode & 0o777 == 0o644
            atomic_write_text(fresh, "rewritten")
            assert fresh.stat().st_mode & 0o777 == 0o644
            result = save_result({"x": np.arange(3)}, tmp_path / "result.json")
            assert result.stat().st_mode & 0o777 == 0o644
            os.umask(0o077)
            private = atomic_write_bytes(tmp_path / "private.bin", b"x")
            assert private.stat().st_mode & 0o777 == 0o600
        finally:
            os.umask(old_umask)
        assert not list(tmp_path.glob("*.tmp"))


# --------------------------------------------------------------------- #
# Bitwise resume (the tentpole contract)                                #
# --------------------------------------------------------------------- #
class TestBitwiseResume:
    @pytest.mark.parametrize("backend", ["direct"])
    def test_resume_mid_run_is_bitwise_identical(
        self, bend, reference, backend
    ):
        ref, ckpt_dir = reference(backend)
        mid = ckpt_dir / "ckpt_000002.ckpt"
        resumed = _make_opt(bend, backend).run(resume=mid)
        assert np.array_equal(resumed.fom_trace(), ref.fom_trace())
        assert np.array_equal(resumed.theta, ref.theta)
        assert np.array_equal(resumed.pattern, ref.pattern)
        # History is restored, not recomputed: the resumed run carries
        # the full 4-iteration record with contiguous iteration numbers.
        assert [r.iteration for r in resumed.history] == [0, 1, 2, 3]

    @pytest.mark.krylov
    def test_resume_matches_to_solver_precision_for_krylov(
        self, bend, reference
    ):
        ref, ckpt_dir = reference("krylov-block")
        mid = ckpt_dir / "ckpt_000002.ckpt"
        resumed = _make_opt(bend, "krylov-block").run(resume=mid)
        assert np.allclose(resumed.fom_trace(), ref.fom_trace(), **KRYLOV_TOL)
        assert np.allclose(resumed.theta, ref.theta, **KRYLOV_TOL)

    def test_resume_from_final_checkpoint_runs_nothing(self, bend, reference):
        ref, ckpt_dir = reference("direct")
        final = ckpt_dir / "ckpt_000004.ckpt"
        resumed = _make_opt(bend, "direct").run(resume=final)
        assert resumed.iterations_run == 4
        assert np.array_equal(resumed.fom_trace(), ref.fom_trace())
        assert np.array_equal(resumed.theta, ref.theta)

    def test_every_iteration_checkpointed(self, reference):
        _ref, ckpt_dir = reference("direct")
        names = [p.name for p in list_checkpoints(ckpt_dir)]
        assert names == [f"ckpt_{n:06d}.ckpt" for n in (1, 2, 3, 4)]

    def test_resume_refuses_mismatched_run(self, bend, reference):
        _ref, ckpt_dir = reference("direct")
        mid = ckpt_dir / "ckpt_000002.ckpt"
        with pytest.raises(CheckpointMismatchError, match="config digest"):
            _make_opt(bend, "direct", seed=123).run(resume=mid)


# --------------------------------------------------------------------- #
# Crash + signal recovery                                               #
# --------------------------------------------------------------------- #
class _Boom(RuntimeError):
    pass


class TestCrashAndSignalResume:
    def test_in_process_crash_then_auto_resume(self, bend, reference, tmp_path):
        ref, _ = reference("direct")

        def crash_at_1(record):
            if record.iteration == 1:
                raise _Boom("simulated mid-iteration crash")

        opt = _make_opt(bend, "direct", checkpoint_dir=str(tmp_path))
        with pytest.raises(_Boom):
            opt.run(callback=crash_at_1)
        # Iteration 0 completed and was checkpointed; iteration 1 died
        # mid-flight and must not have been.
        _path, ckpt = resolve_resume("auto", tmp_path)
        assert ckpt.next_iteration == 1
        assert len(ckpt.history) == 1
        resumed = _make_opt(bend, "direct").run(resume=ckpt)
        assert np.array_equal(resumed.fom_trace(), ref.fom_trace())
        assert np.array_equal(resumed.theta, ref.theta)

    def test_sigint_finishes_iteration_checkpoints_and_resumes(
        self, bend, reference, tmp_path
    ):
        ref, _ = reference("direct")

        def interrupt_at_1(record):
            if record.iteration == 1:
                os.kill(os.getpid(), signal.SIGINT)

        opt = _make_opt(bend, "direct", checkpoint_dir=str(tmp_path))
        result = opt.run(callback=interrupt_at_1)
        assert result.interrupted
        assert result.iterations_run == 2  # iteration 1 finished cleanly
        path, ckpt = resolve_resume("auto", tmp_path)
        assert ckpt.next_iteration == 2
        resumed = _make_opt(bend, "direct").run(resume=path)
        assert not resumed.interrupted
        assert np.array_equal(resumed.fom_trace(), ref.fom_trace())
        assert np.array_equal(resumed.theta, ref.theta)

    def test_second_signal_escalates(self):
        with pytest.raises(KeyboardInterrupt):
            with GracefulShutdown() as stop:
                signal.raise_signal(signal.SIGINT)
                assert stop.requested
                assert stop.signum == signal.SIGINT
                signal.raise_signal(signal.SIGINT)  # escalate

    def test_handlers_restored_after_context(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulShutdown():
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before

    def test_disabled_shutdown_leaves_handlers_alone(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulShutdown(enabled=False) as stop:
            assert signal.getsignal(signal.SIGINT) == before
            assert not stop.requested

    def test_external_stop_event_is_observed_without_handlers(self):
        """The cross-thread seam: an external event flips ``requested``
        even when signal handlers are not installed, and re-entering
        the context never clears the caller-owned event."""
        event = threading.Event()
        before = signal.getsignal(signal.SIGINT)
        with GracefulShutdown(enabled=False, external_stop=event) as stop:
            assert signal.getsignal(signal.SIGINT) == before
            assert not stop.requested
            event.set()
            assert stop.requested
        with GracefulShutdown(enabled=False, external_stop=event) as stop:
            assert event.is_set()
            assert stop.requested

    def test_external_stop_from_worker_thread_checkpoints_and_resumes(
        self, bend, reference, tmp_path
    ):
        """Signal installation is skipped off the main thread — the
        seam ``repro serve`` job threads rely on instead.  A stop event
        set mid-run from outside must end the loop after the current
        iteration with a checkpoint, and the resumed run must stay
        bitwise."""
        ref, _ = reference("direct")
        stop = threading.Event()
        outcome = {}

        def stop_at_1(record):
            if record.iteration == 1:
                stop.set()

        def run():
            opt = _make_opt(bend, "direct", checkpoint_dir=str(tmp_path))
            outcome["result"] = opt.run(
                callback=stop_at_1, stop_event=stop
            )

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        result = outcome["result"]
        assert result.interrupted
        assert result.iterations_run == 2  # iteration 1 finished cleanly
        path, ckpt = resolve_resume("auto", tmp_path)
        assert ckpt.next_iteration == 2
        resumed = _make_opt(bend, "direct").run(resume=path)
        assert not resumed.interrupted
        assert np.array_equal(resumed.fom_trace(), ref.fom_trace())
        assert np.array_equal(resumed.theta, ref.theta)


# --------------------------------------------------------------------- #
# Kill -9 a real run, resume through the CLI                            #
# --------------------------------------------------------------------- #
CLI_FLAGS = [
    "--iterations",
    "3",
    "--sampling",
    "random",
    "--relax-epochs",
    "1",
    "--seed",
    "0",
]


class TestKillMinusNineCli:
    def test_sigkill_mid_run_then_cli_auto_resume(self, tmp_path, capsys):
        from repro.cli import main

        ref_out = tmp_path / "ref.json"
        assert (
            main(
                ["design", "bending", *CLI_FLAGS, "--quiet", "--output", str(ref_out)]
            )
            == 0
        )
        ref = load_result(ref_out)

        ckpt_dir = tmp_path / "ckpts"
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "design",
                "bending",
                *CLI_FLAGS,
                "--checkpoint-dir",
                str(ckpt_dir),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            # Atomic writes mean existence == a complete checkpoint.
            deadline = time.monotonic() + 180.0
            first = ckpt_dir / "ckpt_000001.ckpt"
            while not first.exists():
                assert time.monotonic() < deadline, (
                    "subprocess never wrote its first checkpoint"
                )
                if proc.poll() is not None:
                    break  # finished before we could kill it; still fine
                time.sleep(0.05)
            if proc.poll() is None:
                proc.kill()  # SIGKILL: no chance to clean up
        finally:
            proc.wait(timeout=30)
        assert list_checkpoints(ckpt_dir), "no checkpoint survived the kill"

        resumed_out = tmp_path / "resumed.json"
        code = main(
            [
                "design",
                "bending",
                *CLI_FLAGS,
                "--resume",
                "auto",
                "--checkpoint-dir",
                str(ckpt_dir),
                "--quiet",
                "--output",
                str(resumed_out),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resuming from" in out
        resumed = load_result(resumed_out)
        assert np.array_equal(
            np.asarray(resumed["fom_trace"]), np.asarray(ref["fom_trace"])
        )
        assert np.array_equal(
            np.asarray(resumed["pattern"]), np.asarray(ref["pattern"])
        )

        # Explicit-path resume without --checkpoint-dir: checkpoints
        # default back into the resumed file's directory, and resuming
        # the *final* checkpoint replays nothing but reports everything.
        final_path, final = resolve_resume("auto", ckpt_dir)
        assert final.next_iteration == 3
        explicit_out = tmp_path / "explicit.json"
        code = main(
            [
                "design",
                "bending",
                *CLI_FLAGS,
                "--resume",
                str(final_path),
                "--quiet",
                "--output",
                str(explicit_out),
            ]
        )
        assert code == 0
        explicit = load_result(explicit_out)
        assert np.array_equal(
            np.asarray(explicit["fom_trace"]), np.asarray(ref["fom_trace"])
        )

    def test_cli_resume_missing_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "design",
                "bending",
                "--resume",
                str(tmp_path / "nope.ckpt"),
            ]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_cli_resume_auto_without_dir_exits_2(self, capsys):
        from repro.cli import main

        assert main(["design", "bending", "--resume", "auto"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_help_documents_crash_safety(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "resuming and surviving crashes" in text
        assert "--resume" in text or "resume:" in text


# --------------------------------------------------------------------- #
# Fleet-loss degradation                                                #
# --------------------------------------------------------------------- #
def _square(x):
    return x * x


class TestFleetLossDegradation:
    def test_fleet_death_raises_with_failure_detail(self):
        proc, addr = start_worker_subprocess(
            fault=FaultInjection(fail_after_tasks=1)
        )
        try:
            ex = RemoteCornerExecutor([addr], timeout=10.0)
            with pytest.raises(RemoteFleetDead) as info:
                ex.map_ordered(_square, [1, 2, 3, 4])
            assert info.value.worker_failures, "per-worker failures missing"
            assert info.value.missing, "lost item indices missing"
            ex.shutdown()
        finally:
            proc.terminate()
            proc.join(timeout=10)

    def test_dead_fleet_checkpoints_and_degrades_to_serial(
        self, bend, tmp_path
    ):
        """Both workers die mid-iteration 0; the run checkpoints, logs,
        falls back to serial, replays the same RNG draws, and finishes
        with a trajectory bitwise-equal to the pure-serial run."""
        kw = dict(
            iterations=2, sampling="random", relax_epochs=0, seed=0
        )
        serial = Boson1Optimizer(
            bend, OptimizerConfig(**kw, solver="direct")
        ).run()

        procs, addresses = [], []
        for _ in range(2):
            proc, addr = start_worker_subprocess(
                fault=FaultInjection(fail_after_tasks=1)
            )
            procs.append(proc)
            addresses.append(addr)
        spec = "remote:" + ",".join(f"{h}:{p}" for h, p in addresses)
        try:
            opt = Boson1Optimizer(
                bend,
                OptimizerConfig(
                    **kw,
                    solver="direct",
                    corner_executor=spec,
                    remote_timeout=15.0,
                    checkpoint_dir=str(tmp_path),
                    checkpoint_keep=10,
                ),
            )
            result = opt.run()
        finally:
            for proc in procs:
                proc.terminate()
                proc.join(timeout=10)

        assert isinstance(opt.executor, SerialExecutor)
        assert not result.interrupted
        assert np.array_equal(result.fom_trace(), serial.fom_trace())
        assert np.array_equal(result.theta, serial.theta)
        # The degradation checkpoint describes the state *before* the
        # lost iteration (next_iteration == 0, nothing recorded yet).
        degraded = DesignCheckpoint.load(tmp_path / "ckpt_000000.ckpt")
        assert degraded.next_iteration == 0
        assert degraded.history == []
        _path, final = resolve_resume("auto", tmp_path)
        assert final.next_iteration == 2


# --------------------------------------------------------------------- #
# Worker graceful drain (satellite 2)                                   #
# --------------------------------------------------------------------- #
def _slow_identity(x):
    time.sleep(0.6)
    return x


class TestWorkerGracefulDrain:
    def test_in_flight_task_result_reaches_wire_before_close(self):
        """request_graceful_shutdown mid-task: the started task finishes,
        its result frame arrives, and only then does the socket close."""
        server = RemoteWorkerServer()
        thread = server.serve_in_thread()
        sock = socket.create_connection(server.address, timeout=10.0)
        sock.settimeout(10.0)
        try:
            send_frame(
                sock,
                {"kind": "hello", "version": PROTOCOL_VERSION, "heartbeat": 0.2},
            )
            assert recv_frame(sock)["kind"] == "welcome"
            payload = pickle.dumps(_slow_identity)
            send_frame(
                sock, {"kind": "seed", "key": seed_key(payload), "payload": payload}
            )
            assert recv_frame(sock)["kind"] == "seeded"
            send_frame(
                sock, {"kind": "task", "key": seed_key(payload), "item": 42}
            )
            time.sleep(0.15)  # the 0.6 s task is now executing
            server.request_graceful_shutdown()
            while True:
                reply = recv_frame(sock)
                if reply["kind"] != "busy":
                    break
            assert reply == {"kind": "result", "ok": True, "value": 42}
            assert server.wait_drained(timeout=10.0)
            # After the drain the worker departs: clean EOF, no reply.
            with pytest.raises((RemoteWorkerDied, RemoteProtocolError, OSError)):
                recv_frame(sock)
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        finally:
            sock.close()
            server.shutdown()

    def test_cli_worker_drains_on_sigterm_and_exits_zero(self):
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "repro worker listening on 127.0.0.1:" in line
            port = int(line.split("127.0.0.1:")[1].split()[0])
            ex = RemoteCornerExecutor([("127.0.0.1", port)], timeout=15.0)
            assert ex.map_ordered(abs, [-2, -3]) == [2, 3]
            ex.shutdown()
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0
        assert "draining in-flight tasks" in err
        assert "drained, exiting cleanly" in out


# --------------------------------------------------------------------- #
# Connect-time retries                                                  #
# --------------------------------------------------------------------- #
class TestConnectRetries:
    def _executor(self):
        return RemoteCornerExecutor([("127.0.0.1", 47)], timeout=1.0)
    def test_transient_refusals_retried_with_backoff(self, monkeypatch):
        delays = []
        monkeypatch.setattr(time, "sleep", delays.append)

        class Flaky:
            calls = 0

            def __init__(self, address, timeout, heartbeat):
                Flaky.calls += 1
                if Flaky.calls <= 2:
                    raise RemoteWorkerDied("connection refused (binding)")
                self.pid = "fake.1"

        monkeypatch.setattr(remote_mod, "_WorkerConnection", Flaky)
        ex = self._executor()
        conn = ex._connect_with_retry(("127.0.0.1", 47))
        assert conn.pid == "fake.1"
        assert Flaky.calls == 3
        # Backoff doubles (0.1, 0.2, capped at 2.0) with x0.5..1.5 jitter.
        assert len(delays) == 2
        assert 0.05 <= delays[0] <= 0.15
        assert 0.10 <= delays[1] <= 0.30

    def test_exhausted_retries_are_descriptive(self, monkeypatch):
        delays = []
        monkeypatch.setattr(time, "sleep", delays.append)
        calls = []

        class Dead:
            def __init__(self, address, timeout, heartbeat):
                calls.append(1)
                raise RemoteWorkerDied("connection refused")

        monkeypatch.setattr(remote_mod, "_WorkerConnection", Dead)
        ex = self._executor()
        with pytest.raises(
            RemoteWorkerDied, match="after 3 connection attempts"
        ):
            ex._connect_with_retry(("127.0.0.1", 47))
        assert len(calls) == remote_mod._CONNECT_ATTEMPTS
        assert len(delays) == remote_mod._CONNECT_ATTEMPTS - 1

    def test_protocol_errors_are_not_retried(self, monkeypatch):
        calls = []

        class Skewed:
            def __init__(self, address, timeout, heartbeat):
                calls.append(1)
                raise RemoteProtocolError("protocol version mismatch")

        monkeypatch.setattr(remote_mod, "_WorkerConnection", Skewed)
        monkeypatch.setattr(
            time, "sleep", lambda _s: pytest.fail("slept on a systemic error")
        )
        ex = self._executor()
        with pytest.raises(RemoteProtocolError):
            ex._connect_with_retry(("127.0.0.1", 47))
        assert len(calls) == 1
