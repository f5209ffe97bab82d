"""The benchmark's workloads and the closed-loop *set* each run repeats.

A set is one client doing one design job and then a Monte-Carlo
evaluation of the pattern it produced, waiting for each result before
asking for the next: set-up (fresh simulation workspace, device,
optimizer; for the serve workload also the worker fleet and the job
daemon), ``iterations`` design iterations, then ``samples`` Monte-Carlo
draws asked for in ``mc_calls`` requests.  A run repeats sets until its
time is spent.

Inputs: the design configuration is fixed (``axial+worst`` sampling and
the path initialization are deterministic), so every set's FoM
trajectory must equal the recorded one.  The Monte-Carlo draws come
from one of :data:`MC_SEED_POOL`'s evaluation seeds, chosen and ordered
by the run's ``--seed``; each pool seed's FoM vector is recorded too,
so every output of every set is checked against a reference.
"""

from __future__ import annotations

import ctypes
import gc
import os
import random
import shutil
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import Boson1Optimizer, OptimizerConfig
from repro.core.remote import start_worker_subprocess
from repro.core.serve import ServeClient, ServeDaemon
from repro.devices import DEVICE_REGISTRY, make_device
from repro.eval import montecarlo
from repro.fab.process import FabricationProcess
from repro.fdfd.workspace import reset_shared_workspace, shared_workspace
from repro.obs.metrics import get_metrics, rss_bytes
from repro.utils.io import load_result

__all__ = [
    "Workload",
    "WORKLOADS",
    "MC_SEED_POOL",
    "SetResult",
    "mc_seed_order",
    "warm_up",
    "run_set",
    "count_mismatches",
]

#: Monte-Carlo evaluation seeds with recorded FoM vectors.
MC_SEED_POOL = tuple(range(16))

#: A short relaxation ramp: only iterations 0-2 add the ideal system, so
#: most timed iterations do the same work and the median iteration time
#: does not sit on the boundary between the two kinds.
RELAX_EPOCHS = 3

#: Relative tolerance for Krylov-backed references: ten times the
#: default Krylov residual tolerance (``SolverConfig.tol`` = 1e-5).
KRYLOV_RTOL = 1e-4


@dataclass(frozen=True)
class Workload:
    """One closed-loop design + Monte-Carlo workload.

    ``fleet`` > 0 routes the design job through an in-process
    :class:`ServeDaemon` whose corner fan-out and the Monte-Carlo
    evaluation run on that many forked ``repro worker`` processes; the
    daemon builds its device at the default grid, so ``dl`` must be the
    device default then.
    """

    name: str
    device: str
    dl: float
    solver: str
    fleet: int = 0
    iterations: int = 10
    samples: int = 16
    #: Monte-Carlo requests the client splits ``samples`` into; each
    #: request's rate is one sample of ``mc_samples_per_s``.
    mc_calls: int = 4

    def __post_init__(self):
        if self.samples % self.mc_calls:
            raise ValueError(
                f"{self.name}: {self.samples} samples do not split into "
                f"{self.mc_calls} equal Monte-Carlo requests"
            )

    @property
    def compare(self) -> str:
        return "bitwise" if self.solver == "direct" else "rtol"

    @property
    def fom_lower_is_better(self) -> bool:
        return bool(DEVICE_REGISTRY[self.device].fom_lower_is_better)

    def config(self) -> dict:
        return {
            "iterations": self.iterations,
            "relax_epochs": RELAX_EPOCHS,
            "seed": 0,
            "solver": self.solver,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("isolator-direct", "isolator", 0.05, "direct"),
        Workload("bending-block-fine", "bending", 0.025, "krylov-block",
                 iterations=8, samples=12, mc_calls=3),
        Workload("crossing-serve-fleet", "crossing", 0.05, "direct", fleet=2),
    )
}


@dataclass
class SetResult:
    """Timings, outputs and counters of one set."""

    setup_s: float = 0.0
    iter_s: "list[float]" = field(default_factory=list)
    job_s: float = 0.0
    mc_s: "list[float]" = field(default_factory=list)
    work_s: float = 0.0
    fom_trace: "list[float]" = field(default_factory=list)
    mc_foms: "list[float]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    error: "str | None" = None
    peak_mb: float = 0.0
    counters: "dict[str, float]" = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


def mc_seed_order(seed: int) -> "list[int]":
    """The run's Monte-Carlo seeds, in the order its sets use them."""
    return random.Random(seed).sample(MC_SEED_POOL, len(MC_SEED_POOL))


def _fab_process(device) -> FabricationProcess:
    # The fab chain the CLI's `evaluate` and the optimizer build.
    return FabricationProcess(
        device.design_shape, device.dl, context=device.litho_context(12),
        pad=12,
    )


def warm_up(spec: Workload) -> None:
    """Import and touch every code path once, untimed.

    The serve workload forks its fleet from this process, so the warm
    modules are what every set's workers start from.
    """
    reset_shared_workspace()
    device = make_device(spec.device, dl=spec.dl)
    config = dict(spec.config(), iterations=1)
    optimizer = Boson1Optimizer(device, OptimizerConfig(**config))
    result = optimizer.run()
    montecarlo.evaluate_post_fab(
        device, optimizer.process, result.pattern, n_samples=2, seed=0
    )
    reset_shared_workspace()


def _matches(actual: float, expected: str, mode: str) -> bool:
    if mode == "bitwise":
        return float(actual).hex() == expected
    ref = float.fromhex(expected)
    return abs(actual - ref) <= KRYLOV_RTOL * max(abs(ref), 1e-12)


def count_mismatches(actual, expected, mode) -> int:
    """Entries of ``actual`` missing or off their reference."""
    if expected is None:
        return 0
    bad = abs(len(expected) - len(actual))
    bad += sum(
        not _matches(a, e, mode) for a, e in zip(actual, expected)
    )
    return bad


def _release_memory() -> None:
    """Return freed heap to the OS so every set starts from the same RSS."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the peak then includes earlier sets' heap


class _RssSampler:
    """Peak resident set size of this process while running, in MB.

    Polls ``/proc/self/statm`` on a daemon thread.  A per-set peak needs
    no reset of the kernel's high-water mark, which only ever grows.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, rss_bytes() / 2**20)
            if self._stop.wait(self.interval):
                return

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return max(self.peak_mb, rss_bytes() / 2**20)


def _proc_stat(pid: int) -> "tuple[float, float]":
    """(CPU seconds, peak RSS MB) of a live process, from ``/proc``."""
    cpu = peak = 0.0
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                peak = int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass  # the worker already exited; its numbers are lost
    return cpu, peak


def _solver_counters(workspaces) -> "dict[str, float]":
    out: "dict[str, float]" = {}
    for ws in {id(w): w for w in workspaces if w is not None}.values():
        stats = ws.stats()
        out["factor_cache_misses"] = (
            out.get("factor_cache_misses", 0)
            + stats["factorizations"]["misses"]
        )
        for name, value in stats["solver"].items():
            if isinstance(value, (int, float)):
                out[name] = out.get(name, 0) + value
    return out


def _metric_deltas(before: dict) -> "dict[str, float]":
    after = get_metrics().as_dict()["counters"]
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _iteration_times(start: float, stamps: "list[float]") -> "list[float]":
    return [float(x) for x in np.diff([start, *stamps])]


def _design_in_process(spec: Workload, res: SetResult, t0: float):
    device = make_device(spec.device, dl=spec.dl)
    optimizer = Boson1Optimizer(device, OptimizerConfig(**spec.config()))
    res.setup_s = time.perf_counter() - t0
    stamps: "list[float]" = []

    def on_iteration(record) -> None:
        stamps.append(time.perf_counter())
        res.fom_trace.append(float(record.fom))

    start = time.perf_counter()
    result = optimizer.run(callback=on_iteration)
    res.job_s = time.perf_counter() - t0
    res.iter_s = _iteration_times(start, stamps)
    return device, optimizer.process, result.pattern, None


def _design_served(spec: Workload, res: SetResult, t0: float, tracer,
                   stack) -> tuple:
    """Fleet + daemon set-up, then one job submitted and watched."""
    workdir = Path(tempfile.mkdtemp(prefix="set-", dir=_work_root()))
    stack.append(lambda: shutil.rmtree(workdir, ignore_errors=True))
    workers = []
    stack.append(lambda: _stop_workers(workers, res))
    for _ in range(spec.fleet):
        workers.append(start_worker_subprocess())
    if tracer is not None:
        # Installed after the fork: workers run untraced, as they would
        # on another host, and the parent's layers are timed.
        tracer.install()
        stack.append(tracer.uninstall)
    fleet = [address for _proc, address in workers]
    daemon = ServeDaemon(workdir / "jobs", fleet=fleet)
    thread = daemon.serve_in_thread()
    stack.append(lambda: (daemon.shutdown(), thread.join(10)))
    client = ServeClient(daemon.address)
    stack.append(client.close)
    res.setup_s = time.perf_counter() - t0

    arrivals: "list[float]" = []

    def on_record(record: dict) -> None:
        arrivals.append(time.time())
        res.fom_trace.append(float(record["fom"]))

    submit0 = time.time()
    job = client.submit(spec.device, spec.config())
    res.counters["serve.submit_s"] = time.time() - submit0
    final = client.watch(job["id"], on_record=on_record)
    done = time.time()
    if final["status"] != "completed":
        raise RuntimeError(
            f"job {final['id']} settled {final['status']}: {final.get('error')}"
        )
    res.job_s = done - final["submitted_unix"]
    res.iter_s = _iteration_times(final["started_unix"], arrivals)
    res.counters["serve.queue_wait_s"] = (
        final["started_unix"] - final["submitted_unix"]
    )
    res.counters["serve.finish_to_done_s"] = done - final["finished_unix"]
    res.counters["serve.watch_records"] = len(arrivals)
    pattern = load_result(daemon.store.result_path(job["id"]))["pattern"]
    device = make_device(spec.device)
    executor = "remote:" + ",".join(f"{h}:{p}" for h, p in fleet)
    return device, _fab_process(device), pattern, executor


def _stop_workers(workers, res: SetResult) -> None:
    for proc, _address in workers:
        cpu, peak = _proc_stat(proc.pid)
        res.counters["worker_cpu_s"] = res.counters.get("worker_cpu_s", 0) + cpu
        res.peak_mb += peak
    for proc, _address in workers:
        proc.terminate()
    for proc, _address in workers:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join(10)


def _work_root() -> Path:
    root = Path(__file__).resolve().parent.parent / ".perfbench_work"
    root.mkdir(exist_ok=True)
    return root


def run_set(spec: Workload, mc_seed: int, tracer=None,
            reference: "dict | None" = None) -> SetResult:
    """Run one closed-loop set; never raises (failures are counted).

    ``tracer`` (a :class:`layers.LayerTracer`) is installed for the
    set's work and removed before it returns.  ``reference`` holds the
    recorded ``fom_trace`` and per-seed ``mc`` vectors as float hex
    strings; ``None`` skips the comparison.
    """
    _release_memory()
    res = SetResult(attempted=spec.iterations + spec.samples + 1)
    metrics_before = get_metrics().as_dict()["counters"]
    cleanup: list = []
    sampler = _RssSampler()
    sampler.start()
    t0 = time.perf_counter()
    try:
        reset_shared_workspace()
        if spec.fleet:
            device, process, pattern, executor = _design_served(
                spec, res, t0, tracer, cleanup
            )
        else:
            if tracer is not None:
                tracer.install()
                cleanup.append(tracer.uninstall)
            device, process, pattern, executor = _design_in_process(
                spec, res, t0
            )
        per_call = spec.samples // spec.mc_calls
        for call in range(spec.mc_calls):
            mc0 = time.perf_counter()
            report = montecarlo.evaluate_post_fab(
                device, process, pattern, n_samples=per_call,
                seed=mc_seed + call * len(MC_SEED_POOL), executor=executor,
            )
            res.mc_s.append(time.perf_counter() - mc0)
            res.mc_foms.extend(float(x) for x in report.foms)
        res.work_s = time.perf_counter() - t0
        res.counters.update(
            _solver_counters([device.workspace, shared_workspace()])
        )
    except Exception:
        res.error = traceback.format_exc()
    finally:
        for undo in reversed(cleanup):
            try:
                undo()
            except Exception:
                res.error = res.error or traceback.format_exc()
    res.peak_mb += sampler.stop()
    res.counters.update(
        {"metric." + k: v for k, v in _metric_deltas(metrics_before).items()}
    )
    if res.error is not None:
        res.failed = res.attempted
        return res
    if reference is not None:
        mode = spec.compare
        res.failed += count_mismatches(
            res.fom_trace, reference["fom_trace"], mode
        )
        res.failed += count_mismatches(
            res.mc_foms, reference["mc"][str(mc_seed)], mode
        )
    return res
