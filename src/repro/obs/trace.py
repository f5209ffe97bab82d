"""Near-zero-overhead span tracer with cross-process propagation.

The hot layers (engine iterations, workspace factorizations and solves,
blocked sweeps, executor dispatch, remote frames, checkpoint writes) are
instrumented with :func:`span` — a context manager that costs one
attribute read and a ``None`` check when tracing is disabled, which is
the permanent state of every production process that never asked for a
trace.  When a :class:`Tracer` is installed (``--trace-dir`` on the
CLI, :func:`enable_tracing` programmatically), each exited span appends
one flat record ``{id, parent, name, cat, ts, dur, pid, tid, args}``:

* ``ts`` is wall-anchored monotonic time in ns (``perf_counter_ns``
  offset by a per-process wall anchor), so spans from different
  processes land on one timeline while durations stay monotonic;
* ``parent`` links spans into trees via a *thread-local* stack of open
  span ids — concurrent threads interleave without locks on the hot
  path and still produce correct trees;
* records are plain dicts of scalars, so they pickle cleanly across
  the remote executor seam;
* work handed to another thread (the factor threads of
  :mod:`repro.fdfd.workspace`) carries :func:`span_context` along and
  records its spans inside :func:`continue_trace`, so they join the
  caller's tree.

Worker processes do not share the parent's tracer.  They wrap each task
in a :class:`SpanCapture` — a thread-local tracer override that records
the task's span tree into a private buffer — and ship the serialized
records home with the result payload; the parent re-parents them under
its dispatching span with :meth:`Tracer.adopt`, so one connected trace
covers the whole fleet (worker pids stay on the records, which is what
puts each worker on its own Chrome-trace row).
"""

from __future__ import annotations

import itertools
import os
import threading
import time

__all__ = [
    "Tracer",
    "SpanCapture",
    "span",
    "enable_tracing",
    "disable_tracing",
    "get_tracer",
    "tracing_active",
    "span_context",
    "continue_trace",
]

#: Maps ``time.perf_counter_ns()`` onto the epoch once per process:
#: span timestamps are wall-anchored (cross-process alignment) while
#: durations come from the monotonic clock (immune to wall steps).
_WALL_ANCHOR_NS = time.time_ns() - time.perf_counter_ns()

#: Process-global tracer; ``None`` means disabled (the fast path).
_TRACER: "Tracer | None" = None

#: Thread-local override used by :class:`SpanCapture` on worker side.
_LOCAL = threading.local()


class _NoopSpan:
    """The disabled fast path: a shared, stateless context manager."""

    __slots__ = ()
    span_id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self


_NOOP = _NoopSpan()


class _SpanHandle:
    """One open span: records itself into the tracer on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_attrs", "_parent", "_t0",
                 "span_id")

    def __init__(self, tracer, name, cat, attrs, parent=None):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._attrs = attrs
        self._parent = parent
        self.span_id = None

    def set(self, **attrs):
        """Attach attributes to the span (visible in every exporter)."""
        if self._attrs is None:
            self._attrs = attrs
        else:
            self._attrs.update(attrs)
        return self

    def __enter__(self):
        tracer = self._tracer
        self.span_id = next(tracer._ids)
        stack = tracer._stack()
        if self._parent is None and stack:
            self._parent = stack[-1]
        stack.append(self.span_id)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        else:  # unbalanced exit (exception across threads); best effort
            try:
                stack.remove(self.span_id)
            except ValueError:
                pass
        record = {
            "id": self.span_id,
            "parent": self._parent,
            "name": self._name,
            "cat": self._cat,
            "ts": _WALL_ANCHOR_NS + self._t0,
            "dur": t1 - self._t0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": self._attrs or {},
        }
        with tracer._lock:
            tracer._records.append(record)
        return False


class Tracer:
    """Collects finished spans as flat, pickle-clean records.

    Spans reference each other by id (allocated at ``__enter__``), not
    by list position, so children — which finish *before* their parents
    — can be appended as they close, and foreign span trees can be
    grafted in with :meth:`adopt` by remapping ids.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._records: "list[dict]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, cat: str = "", parent: "int | None" = None,
             **attrs) -> _SpanHandle:
        """An open span handle bound to this tracer (context manager)."""
        return _SpanHandle(self, name, cat, attrs or None, parent)

    def drain(self) -> "list[dict]":
        """Return and clear every finished span record."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def adopt(
        self, records: "list[dict]", parent_id: "int | None" = None
    ) -> None:
        """Graft a foreign (worker) span tree under ``parent_id``.

        Ids are remapped into this tracer's id space (worker counters
        collide across processes); roots of the adopted tree — records
        whose parent is ``None`` or outside the batch — are re-parented
        under ``parent_id``, which is how one timeline ends up covering
        the whole fleet.  Worker pids/tids on the records are preserved.
        """
        if not records:
            return
        mapping = {rec["id"]: next(self._ids) for rec in records}
        adopted = []
        for rec in records:
            rec = dict(rec)
            rec["id"] = mapping[rec["id"]]
            rec["parent"] = mapping.get(rec["parent"], parent_id)
            adopted.append(rec)
        with self._lock:
            self._records.extend(adopted)


def current_tracer() -> "Tracer | None":
    """The tracer active for this thread (capture override, then global)."""
    tracer = getattr(_LOCAL, "tracer", None)
    return tracer if tracer is not None else _TRACER


def tracing_active() -> bool:
    """Whether spans entered on this thread will be recorded."""
    return current_tracer() is not None


def span_context() -> "tuple[Tracer, int | None] | None":
    """This thread's tracer and innermost open span id (``None``: off).

    Capture it where work is handed to another thread and enter
    :func:`continue_trace` with it there: the work's spans then land in
    the same tracer (the global one or a worker's :class:`SpanCapture`)
    under the span that handed the work over.
    """
    tracer = current_tracer()
    if tracer is None:
        return None
    stack = tracer._stack()
    return tracer, (stack[-1] if stack else None)


class continue_trace:
    """Record this thread's spans under a :func:`span_context` capture.

    A ``None`` context (tracing was off where it was captured) makes
    this a no-op, so spans inside stay no-ops too.
    """

    __slots__ = ("_context", "_prev")

    def __init__(self, context: "tuple[Tracer, int | None] | None"):
        self._context = context

    def __enter__(self):
        if self._context is not None:
            tracer, parent = self._context
            self._prev = getattr(_LOCAL, "tracer", None)
            _LOCAL.tracer = tracer
            tracer._stack().append(parent)
        return self

    def __exit__(self, *exc):
        if self._context is not None:
            self._context[0]._stack().pop()
            _LOCAL.tracer = self._prev
        return False


def span(name: str, cat: str = "", parent: "int | None" = None, **attrs):
    """A span context manager, or the shared no-op when disabled.

    This is the only call instrumented code should make; its disabled
    cost is one thread-local read, one global read and a ``None`` check.
    """
    tracer = getattr(_LOCAL, "tracer", None)
    if tracer is None:
        tracer = _TRACER
        if tracer is None:
            return _NOOP
    return _SpanHandle(tracer, name, cat, attrs or None, parent)


def enable_tracing() -> Tracer:
    """Install (or return) the process-global tracer."""
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer()
    return _TRACER


def disable_tracing() -> None:
    """Remove the process-global tracer (spans become no-ops again)."""
    global _TRACER
    _TRACER = None


def get_tracer() -> "Tracer | None":
    """The process-global tracer, if tracing is enabled."""
    return _TRACER


class SpanCapture:
    """Worker-side capture of one task's span tree.

    Installs a private tracer as this thread's override (shadowing any
    process-global tracer), wraps the captured region in a root span,
    and exposes the serialized records as :attr:`records` after exit —
    ready to ride a result payload home, where the parent grafts them
    under its dispatch span via :meth:`Tracer.adopt`.
    """

    def __init__(self, name: str = "worker.task", cat: str = "worker",
                 **attrs):
        self._name = name
        self._cat = cat
        self._attrs = attrs
        self.records: "list[dict]" = []

    def __enter__(self) -> "SpanCapture":
        self._prev = getattr(_LOCAL, "tracer", None)
        self._tracer = Tracer()
        _LOCAL.tracer = self._tracer
        self._root = self._tracer.span(self._name, self._cat, **self._attrs)
        self._root.__enter__()
        return self

    def __exit__(self, *exc):
        self._root.__exit__(*exc)
        _LOCAL.tracer = self._prev
        self.records = self._tracer.drain()
        return False
