"""Pluggable executors for independent simulation fan-out.

The variation-aware loop evaluates many *independent* units of work per
step: one loss per fabrication corner in
:meth:`repro.core.engine.Boson1Optimizer.loss`, one FoM per sample in
:func:`repro.eval.montecarlo.evaluate_post_fab`.  This module provides a
minimal executor abstraction so those sites can fan out without
committing to a backend:

* ``serial``  — in-process loop; zero overhead, always available.  The
  optimizer (:meth:`~repro.core.engine.Boson1Optimizer._corner_losses`)
  and the Monte-Carlo evaluation run it through the device's one
  in-process power op rather than per-item tasks, and start each
  batch's factorizations up front so they overlap on the factor threads
  of :mod:`repro.fdfd.workspace` — the one in-host parallelism.
* ``remote`` — :class:`repro.core.remote.RemoteCornerExecutor`;
  pickle-clean payloads shipped over TCP to worker servers started with
  ``repro worker --listen host:port`` (spec:
  ``remote:host:port[,host:port...]``), plus dead-worker resubmission —
  see :mod:`repro.core.remote`.  Extra processes on one host are local
  workers (``repro worker --listen 127.0.0.1:0``).  Tape-free workloads
  (Monte-Carlo evaluation) ship whole tasks; taped corner losses go
  through the *forward-replay* seam — workers run only the forward FDFD
  solves on ``(alpha, rho_fab)`` payloads and the parent injects the
  returned solve summaries into the autodiff graph
  (:meth:`repro.devices.base.PhotonicDevice.port_powers_precomputed`).
  Workers re-warm their own simulation caches; each worker server keeps
  the unpickled task state (device and warmed workspace) in its seed
  cache, keyed by the closure's content digest, so only the first task
  of a fan-out pays the re-warm.

Remote fan-outs run through one pair of helpers: :func:`run_warm_task`
is the worker half, :func:`fan_out` the parent half (dispatch span,
ordered map, worker span adoption, metric and solver-stats merges).
Every item of a remote map runs on a worker, even in a one-item map.

Determinism contract
--------------------
:meth:`CornerExecutor.map_ordered` always returns results in **input
order**, whatever order workers finish in, and callers reduce serially
over that list — so results are bit-reproducible regardless of backend
and worker count (asserted by the test suite).  Preconditioned solver
backends are the one exception: each worker anchors its own items, so
iterative results agree with serial only to solver tolerance.
"""

from __future__ import annotations

import os
import uuid
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs.metrics import get_metrics
from repro.obs.trace import SpanCapture, get_tracer, span

__all__ = [
    "CornerExecutor",
    "SerialExecutor",
    "make_executor",
    "fan_out",
    "executor_backend",
    "run_warm_task",
    "EXECUTOR_BACKENDS",
]

T = TypeVar("T")
R = TypeVar("R")

#: Random per-process component of worker identities.  A bare pid is
#: not a process identity once payloads cross machines: two worker
#: hosts can run under one pid.  Forked workers inherit the nonce but
#: differ in pid; other processes differ in both.
_PROCESS_NONCE = uuid.uuid4().hex[:12]


def _process_identity() -> str:
    return f"{os.getpid()}.{_PROCESS_NONCE}"


def run_warm_task(
    task: Callable[[], R],
    workspace,
    capture_obs: bool = False,
) -> "tuple[R, dict, str, dict | None]":
    """Execute one fan-out task in a worker and report what it cost.

    The worker half of :func:`fan_out`, shared by the taped corner
    fan-out and the Monte-Carlo fan-out.  The warm state is the seeded
    task object itself: a worker server keeps each unpickled closure in
    its content-addressed seed cache
    (:class:`repro.core.remote.RemoteWorkerServer`), so the device and
    its ``workspace`` stay warm across tasks, map calls and
    connections.  This helper brackets the workspace's solver stats
    (skipped when it is ``None``) around ``task()`` and returns the
    delta for the parent to merge.

    Returns ``(result, stats delta, worker identity, obs payload)`` —
    the identity (``pid.nonce``) is fan-out evidence that stays
    distinct across hosts where bare pids can collide.  When the parent
    asked for observability capture (``capture_obs=True`` baked into
    the pickled task), the worker brackets the task in a
    :class:`repro.obs.trace.SpanCapture` plus a metrics baseline and
    ships ``{"spans": [...], "metrics": {...}}`` home; otherwise the
    payload is ``None``.
    """
    before = (
        workspace.solver_stats.as_dict() if workspace is not None else None
    )
    obs = None
    if capture_obs:
        metrics = get_metrics()
        metrics_before = metrics.as_dict()
        with SpanCapture("worker.task", "worker") as cap:
            result = task()
        obs = {
            "spans": cap.records,
            "metrics": metrics.delta_since(metrics_before),
        }
    else:
        result = task()
    delta = (
        workspace.solver_stats.delta_since(before)
        if workspace is not None
        else {}
    )
    return result, delta, _process_identity(), obs


def fan_out(
    executor: "CornerExecutor",
    task: Callable,
    items: Iterable,
    workspace,
    span_name: str,
    **attrs,
) -> "tuple[list, set[str]]":
    """Map a :func:`run_warm_task` task over ``items`` and merge what
    the workers send home.

    The parent half of the fan-out protocol, shared by the taped
    corner fan-out and the Monte-Carlo fan-out.  The ordered map runs
    under a ``span_name`` span (category: the name's dotted prefix;
    attributes: the executor backend plus ``attrs``); each worker span
    tree grafts under it, so a fan-out reads as one connected timeline
    across the fleet.  Worker metric deltas merge into the parent
    registry and solver-stats deltas into ``workspace`` (skipped when it
    is ``None``).

    Returns ``(results, workers)``: the task results in input order and
    the distinct worker identities that reported.
    """
    items = list(items)
    with span(
        span_name, span_name.partition(".")[0],
        backend=executor.name, **attrs,
    ) as dispatch:
        outcomes = executor.map_ordered(task, items)
    tracer = get_tracer()
    metrics = get_metrics()
    results = []
    workers: set[str] = set()
    for result, stats_delta, worker, obs in outcomes:
        workers.add(worker)
        if obs is not None:
            if tracer is not None:
                tracer.adopt(obs.get("spans", []), dispatch.span_id)
            metrics.merge_delta(obs.get("metrics"))
        if workspace is not None:
            workspace.merge_solver_stats(stats_delta)
        results.append(result)
    return results, workers


class CornerExecutor:
    """Base executor: ordered map over independent work items."""

    name = "base"
    #: Whether tasks may carry non-picklable state (tapes, LU objects).
    supports_shared_memory = True

    def map_ordered(
        self, fn: Callable[[T], R], items: Sequence[T] | Iterable[T]
    ) -> list[R]:
        """Apply ``fn`` to every item; results in input order."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release worker resources (no-op for the serial backend)."""

    def __enter__(self) -> "CornerExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class SerialExecutor(CornerExecutor):
    """The default: a plain loop in the calling thread."""

    name = "serial"

    def map_ordered(self, fn, items):
        return [fn(item) for item in items]


#: Former base of the in-host pool executors, kept as a name only:
#: ``perfbench/layers.py`` wraps ``_PoolExecutor.map_ordered`` by name.
_PoolExecutor = CornerExecutor


#: Registered executor backends.
EXECUTOR_BACKENDS = ("serial", "remote")

#: Removed backends, refused by name; the message then names what
#: replaces them.
_REMOVED_BACKENDS = {
    "thread": "the thread executor was removed",
    "process": (
        "the process executor was removed: serial already overlaps "
        "factorizations on the factor threads"
    ),
}


def executor_backend(spec: str) -> "tuple[str, str]":
    """Split and validate an executor spec into ``(backend, remainder)``.

    The one spec parser behind ``OptimizerConfig``, the CLI's
    ``--executor`` and :func:`make_executor`.  Refuses unknown backends
    (the removed ``thread`` and ``process`` backends with a message
    naming their replacements) and a suffix on ``serial``.  A
    ``remote`` remainder is the address list that
    :func:`repro.core.remote.parse_worker_addresses` checks.
    """
    name, _, rest = str(spec).partition(":")
    if name in _REMOVED_BACKENDS:
        raise ValueError(
            f"executor {spec!r}: {_REMOVED_BACKENDS[name]}; use 'serial', "
            "or 'remote:host:port[,...]' with `repro worker` servers "
            "(on one host: `repro worker --listen 127.0.0.1:0`)"
        )
    if name not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"unknown executor backend {name!r}; "
            f"have {sorted(EXECUTOR_BACKENDS)}"
        )
    if name == "serial" and rest:
        raise ValueError(
            f"executor {spec!r}: serial takes no worker count; for more "
            "processes use 'remote:host:port[,...]'"
        )
    return name, rest


def make_executor(
    spec: "str | CornerExecutor | None",
    remote_timeout: float | None = None,
) -> CornerExecutor:
    """Build an executor from a backend spec.

    Parameters
    ----------
    spec:
        ``None`` or ``"serial"``, or
        ``"remote:host:port[,host:port...]"``.  An existing
        :class:`CornerExecutor` passes through unchanged.
    remote_timeout:
        Dead-worker detection bound in seconds for the ``remote``
        backend (CLI ``--remote-timeout``); ignored by ``serial``.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, CornerExecutor):
        return spec
    name, rest = executor_backend(spec)
    if name == "remote":
        # Imported lazily: repro.core.remote subclasses CornerExecutor
        # from this module, so a top-level import would be a cycle.
        from repro.core.remote import RemoteCornerExecutor

        return RemoteCornerExecutor(rest, timeout=remote_timeout)
    return SerialExecutor()
