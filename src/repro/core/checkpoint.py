"""Crash-safe checkpoint/resume for long design runs.

A BOSON-1 optimization is a long, stateful loop: Adam moments, the
Eq. (3) relaxation ramp position, the engine RNG feeding the
variation-corner draws, and the full :class:`IterationRecord` history
all live in one blocking process.  This module captures *everything*
needed to continue that loop bitwise-identically after a crash, OOM
kill, or preemption:

* :class:`DesignCheckpoint` — one frozen snapshot (theta, optimizer
  moments + step count, iteration history, ``np.random.Generator``
  bit-generator state, sampler state, solver epoch) plus a *config
  digest* binding it to the exact device/config that produced it.
* :class:`CheckpointManager` — crash-safe persistence: payloads go
  through the shared atomic-write helper (tmp file + fsync +
  ``os.replace``), each carries a self-validating header (magic,
  format version, BLAKE2b payload digest), a human/tool-readable JSON
  sidecar rides along, and a keep-last-K rotation bounds disk use.
* :class:`GracefulShutdown` — SIGINT/SIGTERM turn into "finish the
  current iteration, write a final checkpoint, exit cleanly" inside
  :meth:`Boson1Optimizer.run`; a second signal falls through to the
  previous handler (so a double Ctrl-C still kills a wedged run).

Resume (:func:`resolve_resume`, CLI ``repro design --resume
<path|auto>``) refuses mismatched runs loudly: a truncated or corrupted
file, a checkpoint format from another version, or a config/device
digest that does not match the resuming run all produce descriptive
errors instead of a silently-diverging trajectory.  For LU-backed
solver backends, a resumed run's ``fom_trace`` and final theta are
bitwise-equal to the uninterrupted run's (asserted by the test suite
and the ``checkpoint`` benchmark gate).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import pickle
import signal
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.obs.metrics import get_metrics
from repro.obs.trace import span
from repro.utils.io import atomic_write_bytes, atomic_write_json

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointMismatchError",
    "DesignCheckpoint",
    "CheckpointManager",
    "GracefulShutdown",
    "config_digest",
    "find_latest_checkpoint",
    "resolve_resume",
]

log = logging.getLogger("repro.checkpoint")

#: Bumped whenever the on-disk payload schema changes; a checkpoint
#: written by another version is refused with a descriptive error.
#: v2: the solver config lost ``recycle_dim`` and the ``batched`` backend.
#: v3: the solver config lost ``krylov_method``, ``gmres_restart``,
#: ``max_anchors`` and the ``krylov`` backend.
#: v4: the solver config lost its preconditioner-precision field.
CHECKPOINT_VERSION = 4

#: Why each retired format cannot resume (its config digest covers
#: solver fields or backends this build no longer has).
_RETIRED_FORMATS = {
    1: "Krylov subspace recycling (recycle_dim, 'krylov-block:recycle') "
    "and the 'batched' backend were removed",
    2: "the scalar 'krylov' backend and the krylov_method, gmres_restart "
    "and max_anchors solver fields were removed",
    3: "the single-precision preconditioner ('krylov-block:float32') and "
    "the precond_dtype solver field were removed",
}

#: File header: 4-byte magic, format version, payload length, BLAKE2b-128
#: payload digest.  Self-validating — a truncated or bit-flipped file is
#: detected before any unpickling happens.
_MAGIC = b"RPCK"
_HEADER = struct.Struct(">4sHQ16s")

#: Checkpoint payload filename pattern: ``ckpt_<next_iteration>.ckpt``.
_CKPT_SUFFIX = ".ckpt"
_META_SUFFIX = ".meta.json"

#: Config fields that steer *where and how fast* a run executes, not
#: which trajectory it takes.  They are excluded from the resume digest
#: so a run checkpointed on a remote fleet can be resumed serially on
#: another box (the fleet-loss degradation path relies on exactly this),
#: and a horizon extension (more ``iterations``) is a legal resume.
RUNTIME_ONLY_FIELDS = frozenset(
    {
        "corner_executor",
        "remote_timeout",
        "iterations",
        "checkpoint_dir",
        "checkpoint_every",
        "checkpoint_keep",
        "trace_dir",
        "trace_format",
        "metrics_every",
    }
)


class CheckpointError(RuntimeError):
    """Base class for checkpoint load/validation failures."""


class CheckpointCorruptError(CheckpointError):
    """Truncated, bit-flipped, or not a repro checkpoint at all."""


class CheckpointMismatchError(CheckpointError):
    """Checkpoint belongs to a different device/config than the resume."""


def config_digest(config: Any, device_name: str) -> str:
    """Content digest binding a checkpoint to its device + config.

    Covers every trajectory-shaping :class:`OptimizerConfig` field (and
    the nested solver config — ``dataclasses.asdict`` recurses into it,
    so solver knobs like ``tol`` bind automatically) plus the device
    name; runtime-only fields (executor backend, worker counts,
    timeouts, checkpoint knobs, the iteration horizon) are excluded —
    see :data:`RUNTIME_ONLY_FIELDS`.
    """
    data = dataclasses.asdict(config)
    for name in RUNTIME_ONLY_FIELDS:
        data.pop(name, None)
    canonical = json.dumps(
        {"device": str(device_name), "config": data},
        sort_keys=True,
        default=repr,
    )
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


@dataclass
class DesignCheckpoint:
    """Everything needed to continue a design run bitwise-identically.

    ``next_iteration`` is the first iteration the resumed loop will
    execute: a checkpoint written after completing iteration ``k``
    carries ``next_iteration = k + 1``, theta/Adam state *after* that
    iteration's step, the RNG state after its corner draws, and the
    history up to and including its record.
    """

    config_digest: str
    device_name: str
    next_iteration: int
    theta: np.ndarray
    adam_state: dict
    rng_state: dict
    sampler_state: dict = field(default_factory=dict)
    solver_epoch: int = 0
    history: list = field(default_factory=list)
    version: int = CHECKPOINT_VERSION

    # ------------------------------------------------------------------ #
    # Persistence                                                        #
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialize with the self-validating header."""
        payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(
            _MAGIC,
            CHECKPOINT_VERSION,
            len(payload),
            hashlib.blake2b(payload, digest_size=16).digest(),
        )
        return header + payload

    def save(self, path: str | Path) -> Path:
        """Crash-safely write this checkpoint plus its JSON sidecar.

        The payload goes through tmp file + fsync + ``os.replace``; the
        sidecar (advisory metadata for humans and tools — the loader
        trusts only the embedded header) is written the same way.
        """
        path = Path(path)
        atomic_write_bytes(path, self.to_bytes(), fsync=True)
        atomic_write_json(
            sidecar_path(path),
            {
                "format": "repro design checkpoint",
                "version": self.version,
                "device": self.device_name,
                "config_digest": self.config_digest,
                "next_iteration": self.next_iteration,
                "iterations_recorded": len(self.history),
                "solver_epoch": self.solver_epoch,
                "written_unix": int(time.time()),
            },
            fsync=False,
        )
        return path

    @classmethod
    def from_bytes(cls, data: bytes, source: str = "<bytes>") -> "DesignCheckpoint":
        """Parse + validate; every failure mode gets a descriptive error."""
        if len(data) < _HEADER.size:
            raise CheckpointCorruptError(
                f"checkpoint {source} is truncated: {len(data)} bytes is "
                f"smaller than the {_HEADER.size}-byte header"
            )
        magic, version, length, digest = _HEADER.unpack(data[: _HEADER.size])
        if magic != _MAGIC:
            raise CheckpointCorruptError(
                f"{source} is not a repro design checkpoint (bad magic "
                f"{magic!r})"
            )
        if version in _RETIRED_FORMATS:
            raise CheckpointError(
                f"checkpoint {source} uses format v{version}, written "
                f"before {_RETIRED_FORMATS[version]}; it cannot resume "
                "— start a fresh run with 'krylov-block' or 'direct'"
            )
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {source} uses format v{version}; this build "
                f"reads v{CHECKPOINT_VERSION} — resume with a matching "
                "repro version"
            )
        payload = data[_HEADER.size :]
        if len(payload) != length:
            raise CheckpointCorruptError(
                f"checkpoint {source} is truncated: header announces "
                f"{length} payload bytes but {len(payload)} are present "
                "(the writing process likely died mid-write of a "
                "non-atomic copy)"
            )
        if hashlib.blake2b(payload, digest_size=16).digest() != digest:
            raise CheckpointCorruptError(
                f"checkpoint {source} failed its payload digest check: "
                "the file was corrupted after writing"
            )
        ckpt = pickle.loads(payload)
        if not isinstance(ckpt, cls):
            raise CheckpointCorruptError(
                f"checkpoint {source} unpickled to "
                f"{type(ckpt).__name__}, not DesignCheckpoint"
            )
        return ckpt

    @classmethod
    def load(cls, path: str | Path) -> "DesignCheckpoint":
        path = Path(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise CheckpointError(
                f"checkpoint {path} does not exist"
            ) from None
        return cls.from_bytes(data, source=str(path))

    # ------------------------------------------------------------------ #
    # Resume guard                                                       #
    # ------------------------------------------------------------------ #
    def verify_against(self, config: Any, device_name: str) -> None:
        """Refuse resume against a mismatched device/config, loudly."""
        if self.device_name != device_name:
            raise CheckpointMismatchError(
                f"checkpoint was written for device "
                f"{self.device_name!r} but this run designs "
                f"{device_name!r}; refusing to resume"
            )
        expected = config_digest(config, device_name)
        if self.config_digest != expected:
            raise CheckpointMismatchError(
                "checkpoint config digest "
                f"{self.config_digest[:12]}… does not match this run's "
                f"{expected[:12]}…: a trajectory-shaping setting "
                "(sampling, seed, solver, relaxation, objective, "
                "parameterization, …) differs from the checkpointed "
                "run.  Resume with the original settings, or start a "
                "fresh run.  (Executor/worker/timeout/checkpoint knobs "
                "and the iteration horizon may differ freely.)"
            )


def sidecar_path(path: str | Path) -> Path:
    """The JSON metadata sidecar next to a checkpoint payload."""
    path = Path(path)
    return path.with_name(path.name + _META_SUFFIX)


def _iteration_of(path: Path) -> int | None:
    """Parse ``ckpt_<n>.ckpt`` back into ``n`` (None if not ours)."""
    stem = path.name
    if not (stem.startswith("ckpt_") and stem.endswith(_CKPT_SUFFIX)):
        return None
    try:
        return int(stem[len("ckpt_") : -len(_CKPT_SUFFIX)])
    except ValueError:
        return None


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Checkpoint payloads in ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [
        (n, p)
        for p in directory.glob(f"ckpt_*{_CKPT_SUFFIX}")
        if (n := _iteration_of(p)) is not None
    ]
    return [p for _n, p in sorted(found)]


def find_latest_checkpoint(
    directory: str | Path,
) -> "tuple[Path, DesignCheckpoint] | None":
    """Newest *valid* checkpoint in a directory (``--resume auto``).

    Candidates are tried newest-first; an invalid one (torn by a crash
    predating atomic writes, corrupted on disk) is logged and skipped so
    a single bad file never strands an otherwise-resumable run.
    """
    for path in reversed(list_checkpoints(directory)):
        try:
            return path, DesignCheckpoint.load(path)
        except CheckpointError as exc:
            log.warning(
                "skipping invalid checkpoint %s: %s", path, exc
            )
    return None


def resolve_resume(
    spec: str | Path, checkpoint_dir: str | Path | None
) -> "tuple[Path, DesignCheckpoint]":
    """Resolve the CLI ``--resume <path|auto>`` argument.

    ``auto`` picks the newest valid checkpoint under ``checkpoint_dir``;
    an explicit path is loaded (and validated) directly.
    """
    if str(spec) == "auto":
        if checkpoint_dir is None:
            raise CheckpointError(
                "--resume auto needs --checkpoint-dir to know where to "
                "look for checkpoints"
            )
        found = find_latest_checkpoint(checkpoint_dir)
        if found is None:
            raise CheckpointError(
                f"no valid checkpoint found under {checkpoint_dir}; "
                "nothing to resume"
            )
        return found
    path = Path(spec)
    return path, DesignCheckpoint.load(path)


class CheckpointManager:
    """Periodic crash-safe checkpoint writes with keep-last-K rotation.

    One manager owns one directory.  ``every`` controls the cadence
    (:meth:`should_save` is true after iterations ``every, 2*every,
    ...``); ``keep`` bounds how many payload+sidecar pairs survive
    rotation.  The engine additionally writes a final checkpoint at
    run end and on graceful shutdown / fleet-loss degradation,
    whatever the cadence.
    """

    def __init__(
        self, directory: str | Path, every: int = 1, keep: int = 3
    ):
        every = int(every)
        keep = int(keep)
        if every < 1:
            raise ValueError(f"checkpoint every must be >= 1, got {every}")
        if keep < 1:
            raise ValueError(f"checkpoint keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.every = every
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Path of the most recent successful save (for log/UX hints).
        self.last_path: Path | None = None

    def path_for(self, next_iteration: int) -> Path:
        return self.directory / f"ckpt_{next_iteration:06d}{_CKPT_SUFFIX}"

    def should_save(self, completed_iterations: int) -> bool:
        """Whether the cadence asks for a checkpoint after this many
        completed iterations."""
        return completed_iterations % self.every == 0

    def save(self, ckpt: DesignCheckpoint) -> Path:
        """Write ``ckpt`` crash-safely, then rotate old checkpoints."""
        with span("checkpoint.save", "io", iteration=ckpt.next_iteration):
            path = ckpt.save(self.path_for(ckpt.next_iteration))
            self.last_path = path
            self._rotate()
        get_metrics().counter_add("checkpoint.saves")
        log.debug(
            "checkpoint written: %s (next iteration %d)",
            path,
            ckpt.next_iteration,
        )
        return path

    def latest(self) -> "tuple[Path, DesignCheckpoint] | None":
        return find_latest_checkpoint(self.directory)

    def _rotate(self) -> None:
        paths = list_checkpoints(self.directory)
        cut = max(0, len(paths) - self.keep)
        survivors = paths[cut:]
        for stale in paths[:cut]:
            for victim in (stale, sidecar_path(stale)):
                try:
                    victim.unlink()
                except OSError:
                    pass
        # Rotation orders by iteration number, so a save *behind* the
        # newest file on disk (resume from an earlier checkpoint into a
        # directory holding later ones) can rotate away the file that
        # was just written; keep the hint pointing at a surviving path.
        if self.last_path is not None and self.last_path not in survivors:
            self.last_path = survivors[-1] if survivors else None


class GracefulShutdown:
    """Context manager turning SIGINT/SIGTERM into a soft stop request.

    Inside the block, the first signal only sets :attr:`requested` — the
    optimization loop finishes its current iteration, writes a final
    checkpoint, and returns cleanly.  A second signal restores the
    previous handlers and re-raises itself, so a wedged run can still be
    killed interactively.  Installation is skipped off the main thread
    (Python only allows signal handlers there) and when ``enabled`` is
    false.

    ``external_stop`` is the cross-thread seam: loops running where
    signal handlers cannot be installed (``repro serve`` job threads)
    are stopped by setting that :class:`threading.Event` from any
    thread — :attr:`requested` honours it exactly like a first signal.
    The event is owned by the caller and never cleared here, so one
    daemon-wide shutdown request reaches every running job.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(
        self,
        enabled: bool = True,
        external_stop: "threading.Event | None" = None,
    ):
        self._enabled = enabled
        self._external = external_stop
        self._previous: dict[int, Any] = {}
        self._requested = False
        #: Signal number that triggered the stop (None if none did).
        self.signum: int | None = None

    @property
    def requested(self) -> bool:
        """True once a signal arrived *or* the external stop event is set."""
        return self._requested or (
            self._external is not None and self._external.is_set()
        )

    def __enter__(self) -> "GracefulShutdown":
        self._requested = False
        self.signum = None
        if (
            self._enabled
            and threading.current_thread() is threading.main_thread()
        ):
            for sig in self._SIGNALS:
                try:
                    self._previous[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()

    def _handle(self, signum, frame) -> None:
        if self._requested:
            # Second signal: put the old handlers back and re-deliver,
            # so the default behaviour (KeyboardInterrupt / termination)
            # still works on a run that is stuck mid-iteration.
            self._restore()
            signal.raise_signal(signum)
            return
        self._requested = True
        self.signum = signum
        log.warning(
            "received %s: finishing the current iteration, writing a "
            "final checkpoint, then exiting cleanly (send again to "
            "abort immediately)",
            signal.Signals(signum).name,
        )
