"""Outside-in layer tracer: timing wrappers installed at run time.

The benchmark measures each layer of the library from outside: it
replaces the public entry points listed in :data:`TARGETS` with timing
wrappers for the duration of a traced set and restores the original
attributes afterwards, so no library file changes and untraced sets run
the unmodified code.

Every wrapper keeps a per-thread stack of active layers.  A layer's
*self* time is its wall time minus the time spent in wrapped calls it
made on the same thread.  A call made while the same layer is already
on top of the stack (``DirectSolver.solve`` delegating to
``solve_many``, ``SinglePrecisionLU.factorize`` delegating to
``FactorOptions.splu``) is folded into the outer call, so each real
operation is counted once.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

__all__ = ["TARGETS", "LayerTracer"]


def _rhs_columns(args, _kwargs, _result) -> dict:
    rhs = args[1] if len(args) > 1 else _kwargs.get("rhs")
    shape = getattr(rhs, "shape", ())
    return {"rhs_columns": shape[1] if len(shape) == 2 else 1}


def _map_items(args, _kwargs, _result) -> dict:
    # Every caller in the library passes a list.
    return {"items": len(args[2])}


def _checkpoint_bytes(_args, _kwargs, result) -> dict:
    from repro.core.checkpoint import sidecar_path

    total = 0
    for path in (result, sidecar_path(result)):
        try:
            total += path.stat().st_size
        except OSError:
            pass  # rotation may already have removed a sidecar
    return {"bytes": total}


#: ``(layer, module, owner, attribute, extra)``: the entry points each
#: layer is timed at.  ``owner`` is a class name in ``module`` or
#: ``None`` for a module-level function; ``extra`` maps one call's
#: ``(args, kwargs, result)`` to counter increments.
TARGETS = (
    ("fab.apply", "repro.fab.process", "FabricationProcess", "apply", None),
    ("fab.apply_array", "repro.fab.process", "FabricationProcess",
     "apply_array", None),
    ("fab.litho", "repro.fab.litho", "AbbeLithography", "image", None),
    ("fab.litho", "repro.fab.litho", "AbbeLithography", "image_array", None),
    ("fdfd.assembly", "repro.fdfd.workspace", "FdfdAssembly",
     "system_matrix", None),
    ("fdfd.factorize", "repro.fdfd.workspace", "FactorOptions", "splu", None),
    ("fdfd.factorize", "repro.fdfd.linalg.direct", "SinglePrecisionLU",
     "factorize", None),
    ("fdfd.calibration", "repro.devices.base", "PhotonicDevice",
     "calibration", None),
    ("fdfd.calibration", "repro.fdfd.workspace", "SimulationWorkspace",
     "slab_mode", None),
    ("linalg.solve", "repro.fdfd.linalg.direct", "DirectSolver", "solve",
     _rhs_columns),
    ("linalg.solve", "repro.fdfd.linalg.direct", "DirectSolver",
     "solve_many", _rhs_columns),
    ("linalg.solve", "repro.fdfd.linalg.direct", "BatchedDirectSolver",
     "solve_many", _rhs_columns),
    ("linalg.krylov", "repro.fdfd.linalg.krylov",
     "PreconditionedKrylovSolver", "solve", None),
    ("linalg.krylov", "repro.fdfd.linalg.krylov",
     "PreconditionedKrylovSolver", "solve_many", None),
    ("linalg.block", "repro.fdfd.linalg.blocked", "CornerBlockSolver",
     "solve_block", None),
    *(
        ("devices.port_powers", "repro.devices.base", "PhotonicDevice",
         name, None)
        for name in (
            "port_powers", "port_powers_all", "port_powers_corners",
            "port_powers_array_corners", "port_powers_precomputed",
            "port_powers_array", "port_powers_array_all",
            "solve_forward_summary",
        )
    ),
    ("autodiff.backward", "repro.autodiff.tensor", "Tensor", "backward",
     None),
    ("engine.loss", "repro.core.engine", "Boson1Optimizer", "loss", None),
    ("engine.step", "repro.core.engine", "Boson1Optimizer", "run", None),
    ("executors.map", "repro.core.executors", "SerialExecutor",
     "map_ordered", _map_items),
    ("executors.map", "repro.core.executors", "_PoolExecutor",
     "map_ordered", _map_items),
    ("executors.map", "repro.core.remote", "RemoteCornerExecutor",
     "map_ordered", _map_items),
    ("checkpoint.save", "repro.core.checkpoint", "CheckpointManager", "save",
     _checkpoint_bytes),
    ("eval.mc", "repro.eval.montecarlo", None, "evaluate_post_fab", None),
)


def resolve_owner(module: str, owner: "str | None"):
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


class LayerTracer:
    """Per-layer ``calls`` / ``self_s`` plus extra counters.

    :meth:`install` puts every wrapper of :data:`TARGETS` in place,
    :meth:`uninstall` restores the original attributes.  Records
    accumulate across installs, so one tracer covers several traced sets.
    """

    def __init__(self):
        self.records: "dict[str, dict[str, float]]" = defaultdict(
            lambda: defaultdict(float)
        )
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: "list[tuple[object, str, object]]" = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
            counts = extra(args, kwargs, result) if extra else {}
            with tracer._lock:
                rec = tracer.records[layer]
                rec["calls"] += 1
                rec["self_s"] += elapsed - frame[1]
                for name, value in counts.items():
                    rec[name] += value
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for layer, module, owner_name, attr, extra in TARGETS:
            owner = resolve_owner(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__, extra))
            else:
                wrapped = self._wrap(layer, raw, extra)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def value(self, layer: str, field: str) -> float:
        rec = self.records.get(layer)
        return float(rec.get(field, 0.0)) if rec is not None else 0.0

    def self_total(self) -> float:
        """Self time summed over every layer and thread."""
        return sum(rec["self_s"] for rec in self.records.values())
