"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``design``    — run the BOSON-1 optimizer on a benchmark device.
``evaluate``  — Monte-Carlo post-fab evaluation of a saved design.
``baseline``  — run one named prior-art method end-to-end.
``worker``    — serve this host's cores to remote corner fan-outs.
``trace``     — inspect trace files written by ``--trace-dir`` runs.
``info``      — print device/benchmark inventory.

Every command accepts ``--help``.  Results are saved as JSON (patterns
included) so they can be re-evaluated or rendered later.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import __version__
from repro.baselines import BASELINE_REGISTRY, run_baseline
from repro.core import Boson1Optimizer, OptimizerConfig
from repro.core.executors import executor_backend
from repro.core.remote import PROTOCOL_VERSION, parse_worker_addresses
from repro.core.sampling import SAMPLING_STRATEGIES
from repro.devices import DEVICE_REGISTRY, make_device
from repro.eval import evaluate_ideal, evaluate_post_fab
from repro.fab.process import FabricationProcess
from repro.fdfd.linalg import SolverConfig
from repro.utils.io import load_result, save_result
from repro.utils.logsetup import LOG_LEVELS, configure_logging
from repro.utils.render import ascii_pattern

__all__ = ["main", "build_parser"]


_CHOOSING_HELP = """\
choosing an executor / solver
-----------------------------
executors (corner / sample fan-out):
  serial       default; in-process and fully deterministic.  each
               batch's factorizations overlap on one factor thread per
               available core, so the dominant cost already uses every
               core of one host.
  remote:ADDRS pickle-clean forward-solve payloads shipped over TCP to
               `repro worker` servers (ADDRS = host:port[,host:port...]);
               `design` reassembles gradients in the parent; direct
               results stay bitwise equal to serial.  see "scaling out".
more processes on one host: start local workers and list them,
    repro worker --listen 127.0.0.1:0   # once per worker; prints its port
    repro design bending --executor remote:127.0.0.1:P1,127.0.0.1:P2
solvers (every FDFD solve), spelled --solver BACKEND:
  direct       one SuperLU per corner, multi-column blocks (e.g. the
               isolator's forward and backward sources) in one
               matrix-RHS call; the bitwise reference.
  krylov-block nominal-corner LU recycled across an iteration's corners
               as the preconditioner of a BiCGStab that solves the
               whole corner family in one *blocked* solve; accurate to
               the solver tolerance.  on the serial executor only;
               remote workers solve each corner as a one-system
               block.  calibration runs (straight guides) are solved
               exactly by fast diagonalization, with no factorization
               and no Krylov solve.  not a
               universal win: which backend is faster depends on the
               device and grid (the perfbench workloads isolator-direct
               and bending-block-fine measure each).
determinism contract: direct is bitwise stable across executors;
krylov-block agrees with it to the solver tolerance — trajectories
match to ~1e-8, not bit-for-bit.
rule of thumb: keep `--solver direct` unless a timed comparison on
your device and grid favours `krylov-block`; keep `--executor serial`
on one host, and reach for `remote:` when more hosts are available.

robust scenario families (broadband x thermal x fab)
----------------------------------------------------
axes: `repro design bending --wavelengths 1.53,1.55,1.57
--temperatures 290,310` crosses every sampled fabrication corner with
each operating wavelength and temperature (comma-separated floats;
temperatures compose with a corner's own thermal excursion as offsets
around the 300 K nominal).  scenarios are grouped by omega: each group
shares its Laplacian, and under `--solver krylov-block` each group
rides one blocked forward solve plus one blocked adjoint solve per
iteration; the remote fan-out ships one device clone per omega
group, each sent once per worker for the whole run, exactly like the
single-device case.
aggregation: `--aggregate mean` (weighted expectation, the default) |
`worst` (tempered soft-max over the family — a differentiable worst
case whose gradient is FD-exact) | `cvar:ALPHA` (expected loss of the
worst ALPHA-tail, e.g. cvar:0.5; tail membership from detached losses,
applied as constant Rockafellar weights).
determinism: with no axes set nothing changes — single-wavelength
mean-aggregate runs stay bitwise identical to pre-scenario builds for
the direct backend on the serial executor, and a
checkpoint written before the scenario axes existed refuses to resume
with a descriptive digest error (the config digest covers the axes).
with axes set, omega grouping never changes results: LU-backed
backends stay bitwise across executors and worker counts; krylov-block
agrees to solver tolerance per omega group.
evaluation: `repro evaluate ... --wavelengths 1.5,1.6` re-evaluates
each Monte-Carlo fabrication draw at every wavelength (the same draws
per stratum — a paired comparison) and reports per-wavelength
statistics.  the `demux` device routes two channels to separate drop
ports and is meant to be designed under `--wavelengths` — each omega
clone targets its own drop port.

scaling out (multi-node fan-out)
--------------------------------
start one worker per host (any machine with this package installed):
    repro worker --listen 0.0.0.0:7070
then point a design or evaluation at the fleet:
    repro design bending --executor remote:hostA:7070,hostB:7070
protocol: length-prefixed, digest-checked frames; the handshake pins
the protocol version and each task-state seed ships under its own
device digest, so version skew or payload mismatch is a descriptive
error, never a hang.  task state (the device) is shipped once per
worker, on the worker's first request for it, and the solver epoch
rides each item; items are round-robined with work stealing,
and workers keep warm solver caches across iterations.
determinism: ordered reduction makes results independent of worker
count and scheduling — bitwise equal to serial for the direct solver,
solver precision for krylov-block (each worker
anchors its own preconditioner).
failures: a worker that dies mid-run (connection loss, or silence
longer than --remote-timeout; busy workers emit heartbeats) has its
items resubmitted to survivors with an identical reduced result; a
task that *raises* is not resubmitted — the remote traceback surfaces
locally.  the run fails only when every worker is gone.
security: no auth/TLS yet — workers execute pickled task state, so
bind them to trusted networks only (e.g. over an SSH tunnel or VPN).

resuming and surviving crashes
------------------------------
checkpoints: `repro design ... --checkpoint-dir DIR` writes a
crash-safe checkpoint every N iterations (--checkpoint-every, default
1) plus a final one at run end.  each file lands via tmp file + fsync +
atomic rename (a kill -9 leaves the previous complete checkpoint, never
a torn one), is self-validating (magic, format version, payload
digest), carries a JSON metadata sidecar, and only the newest K survive
rotation (--checkpoint-keep, default 3).
resume: `repro design ... --resume auto --checkpoint-dir DIR` continues
from the newest *valid* checkpoint (corrupt files are skipped with a
warning); `--resume PATH` loads one file directly, and continued
checkpoints then default into that file's directory.  a checkpoint
records theta, the Adam moments and step count, the RNG stream, sampler
state, the relaxation-schedule position and the full iteration history,
so a resumed run with the direct solver reproduces
the uninterrupted trajectory bit-for-bit; krylov-block agrees to
solver precision.  mismatches are refused loudly: truncated or
corrupted files, checkpoints from another format version, and any
difference in a trajectory-shaping setting (sampling, seed, solver,
relaxation, device, ...).  executor/worker/timeout/checkpoint knobs and
the iteration horizon may differ freely — a resume can extend a run or
move it to different hardware.
graceful shutdown: with checkpointing enabled, SIGINT/SIGTERM let the
current iteration finish, write a final checkpoint, and exit cleanly
(a second signal aborts immediately).  `repro worker` handles
SIGTERM/SIGINT by draining: in-flight tasks finish and their results
reach the wire, then the accept loop closes and the process exits 0 —
clients see a clean EOF and resubmit to surviving workers.
degradation: if *every* remote worker dies mid-run, the driver writes a
checkpoint (when enabled), logs each worker's failure, and finishes the
run on the in-process serial executor instead of aborting; connect-time
races (a worker still binding its socket) are retried with exponential
backoff, three attempts per worker.

observing a run
---------------
tracing: `repro design ... --trace-dir DIR` (also on `evaluate`) spans
every hot layer — engine iterations, loss, dispatch, factorizations,
blocked Krylov sweeps, remote frames, checkpoint writes — at
near-zero overhead (a disabled span is one thread-local read).  DIR
receives trace.jsonl (one record per iteration: spans + a metrics
snapshot folding solver counters and cache hit rates) and summary.txt
(per-phase wall-time breakdown); add `--trace-format jsonl,chrome` for
trace_chrome.json, loadable in chrome://tracing or https://ui.perfetto.dev.
spans cross process boundaries: remote workers bracket each
task in a span capture and ship the span tree + metric deltas home with
the result payload, where they are re-parented under the dispatching
span — one connected trace per run, worker pids and all.
metrics: `--metrics-every N` logs a counters/gauges snapshot every N
iterations at info level (see --log-level).  remote workers piggyback
queue depth, completed-task counts and RSS on their heartbeat frames;
the parent publishes them as `remote.worker.HOST:PORT.*` gauges.
summaries: `repro trace summarize DIR/trace.jsonl` (or the chrome file)
prints calls / total / self / mean wall time per phase, widest first.
logging: `repro --log-level debug <command>` configures logging once
for every subcommand; worker subprocesses inherit the level through
their spawn environment (REPRO_LOG_LEVEL).

running a service
-----------------
daemon: `repro serve --listen HOST:PORT --jobs-dir DIR` accepts design
jobs over the same framed protocol the workers speak.  submissions are
queued on disk under DIR (one directory per job: spec, checkpoints,
progress stream, result), run through the optimizer with checkpointing
forced on, and fanned out across `--fleet hostA:7070,hostB:7070`
workers when configured (jobs may pin their own --executor instead).
submitting: `repro submit DEVICE --connect HOST:PORT [--iterations N
--sampling S --seed K --solver B ...]` — the same trajectory-shaping
flags as `repro design`, sent as one JSON-plain config; it is validated
before connecting and again before the job is queued, so a bad
submission is refused immediately.  then:
    repro status [JOB] --connect HOST:PORT   # one job, or all + gauges
    repro watch JOB --connect HOST:PORT      # live iteration stream
    repro cancel JOB --connect HOST:PORT     # queued: dropped in place;
                                             # running: checkpoint+stop
watch replays the job's full progress stream from iteration 0 (the
records are the same JSONL shape --trace-dir writes), then tails it
live with heartbeat keepalives while iterations compute.
restart semantics: every job mutation lands via atomic rename, so a
daemon killed -9 mid-job loses nothing — on restart it rescans DIR,
re-queues interrupted work, and resumes each job from its newest
checkpoint (LU-backed solvers continue bitwise).  SIGTERM drains
gracefully: running jobs finish their iteration, checkpoint, and park
as 'interrupted' for the next start; queued jobs stay queued.
fleet health: status/list replies carry daemon gauges (queue depth,
jobs running, RSS) plus per-worker gauges harvested from heartbeat
frames (`remote.worker.HOST:PORT.*`).
security: like `repro worker`, no auth/TLS yet — the daemon executes
submitted configs, so bind it to trusted networks only (e.g. over an
SSH tunnel or VPN).
"""


def _spec_arg(validate):
    """argparse ``type`` keeping a spec string that ``validate`` accepts.

    The spec stays the plain string a job config carries to the daemon;
    a bad or removed spelling (``--solver batched``, ``--executor
    thread``) exits 2 with the message naming its replacement instead
    of a traceback.
    """

    def parse(spec: str) -> str:
        try:
            validate(spec)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return spec

    return parse


_solver_arg = _spec_arg(SolverConfig.coerce)
_executor_arg = _spec_arg(executor_backend)
_trace_format_arg = _spec_arg(lambda spec: OptimizerConfig(trace_format=spec))


def _positive_int(text: str) -> int:
    """argparse ``type`` for a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _axis_arg(spec: str) -> "list[float] | None":
    """argparse ``type`` for a scenario axis: comma-separated floats."""
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad axis value: {exc}") from None
    return values or None


#: Where the CLI takes a default from the config, it reads it here.
_DEFAULTS = OptimizerConfig()


def _add_job_args(p: argparse.ArgumentParser) -> None:
    """Trajectory-shaping flags shared by ``design`` and ``submit``.

    :func:`_job_config` turns them into ``OptimizerConfig`` overrides.
    """
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument(
        "--sampling",
        choices=sorted(SAMPLING_STRATEGIES),
        default=_DEFAULTS.sampling,
    )
    p.add_argument("--relax-epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.add_argument(
        "--wavelengths",
        type=_axis_arg,
        default=None,
        metavar="UM[,UM...]",
        help=(
            "operating-wavelength axis of the scenario family "
            "(comma-separated um, e.g. 1.53,1.55,1.57); every sampled "
            "fab corner is crossed with each wavelength and grouped by "
            "omega for blocked solves (default: the device's centre "
            "wavelength only; see 'robust scenario families' below)"
        ),
    )
    p.add_argument(
        "--temperatures",
        type=_axis_arg,
        default=None,
        metavar="K[,K...]",
        help=(
            "operating-temperature axis of the scenario family "
            "(comma-separated kelvin, e.g. 290,310), composed with each "
            "fab corner's own thermal excursion as offsets around 300 K "
            "(default: corner temperatures unchanged)"
        ),
    )
    p.add_argument(
        "--aggregate",
        default=_DEFAULTS.aggregate,
        metavar="MODE",
        help=(
            "scenario-loss reduction: mean (weighted expectation) | "
            "worst (tempered soft-max worst case) | cvar:ALPHA "
            "(expected loss of the worst ALPHA-tail, e.g. cvar:0.5; "
            "default %(default)s)"
        ),
    )
    p.add_argument(
        "--solver",
        default="direct",
        type=_solver_arg,
        metavar="BACKEND",
        help=(
            "linear-solver backend: direct (one LU per corner; "
            "multi-column blocks in one matrix-RHS call) or "
            "krylov-block (BiCGStab preconditioned by the nominal "
            "corner's LU, recycled across the iteration's fabrication "
            "corners, whose corner fan-out is one blocked solve: the "
            "preconditioner is applied to the whole corner block in "
            "single matrix-RHS sweeps and columns converge "
            "independently; a non-converging solve falls back to a "
            "direct factorization automatically; remote workers solve "
            "each corner as a one-system block; see "
            "'choosing an executor / solver' below)"
        ),
    )


def _add_remote_args(p: argparse.ArgumentParser) -> None:
    """The remote-executor knob shared by ``design`` and ``evaluate``."""
    p.add_argument(
        "--remote-timeout",
        type=float,
        default=_DEFAULTS.remote_timeout,
        metavar="SECONDS",
        help=(
            "remote executor only: declare a worker dead after this many "
            "seconds of silence (busy workers heartbeat, so long solves "
            "survive short timeouts) and resubmit its work to survivors "
            "(default %(default)s)"
        ),
    )


def _add_observability_args(
    p: argparse.ArgumentParser, format_type=str
) -> None:
    """Tracing/metrics flags shared by ``design`` and ``evaluate``.

    ``design`` checks ``--trace-format`` with the rest of its config;
    ``evaluate`` builds no config, so it passes a ``format_type`` that
    refuses a bad value at parse time.
    """
    p.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=(
            "write structured traces into DIR: trace.jsonl (per-"
            "iteration spans + metrics snapshots) and summary.txt "
            "(per-phase wall-time breakdown); see 'observing a run' "
            "below"
        ),
    )
    p.add_argument(
        "--trace-format",
        default=_DEFAULTS.trace_format,
        type=format_type,
        metavar="FMT[,FMT]",
        help=(
            "trace export formats (comma-separated): jsonl | chrome "
            "(chrome adds trace_chrome.json for chrome://tracing / "
            "Perfetto; default %(default)s)"
        ),
    )
    p.add_argument(
        "--metrics-every",
        type=int,
        default=_DEFAULTS.metrics_every,
        metavar="N",
        help=(
            "log a counters/gauges snapshot every N iterations at info "
            "level (0 disables; default %(default)s)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BOSON-1 reproduction: robust photonic inverse design",
        epilog=_CHOOSING_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default=None,
        help=(
            "logging level for every subcommand (default: "
            "$REPRO_LOG_LEVEL or warning); worker subprocesses inherit "
            "it through their spawn environment"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="run the BOSON-1 optimizer")
    p_design.add_argument("device", choices=sorted(DEVICE_REGISTRY))
    _add_job_args(p_design)
    p_design.add_argument("--output", default=None, help="result JSON path")
    p_design.add_argument("--quiet", action="store_true")
    p_design.add_argument(
        "--executor",
        default="serial",
        type=_executor_arg,
        help=(
            "corner fan-out backend: serial (in-process; factorizations "
            "overlap on the factor threads) | "
            "remote:host:port[,host:port...] (ships to `repro worker` "
            "servers, local or on other hosts; workers replay only the "
            "forward solves and the parent assembles the taped "
            "gradients, matching serial to solver precision)"
        ),
    )
    _add_remote_args(p_design)
    p_design.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "write crash-safe checkpoints into DIR (atomic rename + "
            "fsync, rotated); also arms graceful SIGINT/SIGTERM shutdown "
            "and fleet-loss checkpointing (see 'resuming and surviving "
            "crashes' below)"
        ),
    )
    p_design.add_argument(
        "--checkpoint-every",
        type=int,
        default=_DEFAULTS.checkpoint_every,
        metavar="N",
        help="iterations between checkpoints (default %(default)s)",
    )
    p_design.add_argument(
        "--checkpoint-keep",
        type=int,
        default=_DEFAULTS.checkpoint_keep,
        metavar="K",
        help="rotated checkpoints kept on disk (default %(default)s)",
    )
    p_design.add_argument(
        "--resume",
        default=None,
        metavar="PATH|auto",
        help=(
            "continue from a checkpoint: 'auto' picks the newest valid "
            "one under --checkpoint-dir, a path loads that file (and "
            "further checkpoints default into its directory); the "
            "checkpoint must match this run's config/device digest"
        ),
    )
    _add_observability_args(p_design)

    p_eval = sub.add_parser("evaluate", help="post-fab Monte-Carlo eval")
    p_eval.add_argument("result", help="JSON produced by `design`/`baseline`")
    p_eval.add_argument("--samples", type=_positive_int, default=20)
    p_eval.add_argument("--seed", type=int, default=1234)
    p_eval.add_argument(
        "--executor",
        default="serial",
        type=_executor_arg,
        help=(
            "sample fan-out backend: serial (in-process) | "
            "remote:host:port[,host:port...] (`repro worker` servers)"
        ),
    )
    _add_remote_args(p_eval)
    p_eval.add_argument(
        "--solver",
        default="direct",
        type=_solver_arg,
        metavar="BACKEND",
        help=(
            "linear-solver backend for the evaluation solves: direct | "
            "krylov-block (see `design --help`; "
            "krylov-block falls back to direct factorization on "
            "non-convergence and batches all Monte-Carlo samples of a "
            "serial evaluation into one blocked solve)"
        ),
    )
    p_eval.add_argument(
        "--wavelengths",
        type=_axis_arg,
        default=None,
        metavar="UM[,UM...]",
        help=(
            "re-evaluate every Monte-Carlo draw at each of these "
            "wavelengths (comma-separated um) and report per-wavelength "
            "statistics; omega groups share blocked solves under "
            "krylov-block (default: the device's centre wavelength only)"
        ),
    )
    _add_observability_args(p_eval, format_type=_trace_format_arg)

    p_worker = sub.add_parser(
        "worker",
        help="serve this host to remote corner fan-outs",
        description=(
            "Run a remote fan-out worker: design and evaluation runs on "
            "other machines reach it via --executor "
            "remote:host:port[,...].  The worker keeps solver caches "
            "warm across iterations and serves until interrupted.  No "
            "auth/TLS yet: bind to trusted networks only."
        ),
    )
    p_worker.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help=(
            "bind address (default %(default)s; port 0 picks a free "
            "port, printed on startup)"
        ),
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the design-job daemon",
        description=(
            "Run the design-job daemon: clients submit jobs with `repro "
            "submit`, the daemon queues them on disk, runs each with "
            "checkpointing forced on (a killed daemon restarts and "
            "resumes), and streams progress to `repro watch`.  See "
            "'running a service' in `repro --help`.  No auth/TLS yet: "
            "bind to trusted networks only."
        ),
    )
    p_serve.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help=(
            "bind address (default %(default)s; port 0 picks a free "
            "port, printed on startup)"
        ),
    )
    p_serve.add_argument(
        "--jobs-dir",
        required=True,
        metavar="DIR",
        help=(
            "persistent job-queue directory: one subdirectory per job "
            "(spec, checkpoints, progress stream, result); rescanned on "
            "startup so a restarted daemon resumes interrupted work"
        ),
    )
    p_serve.add_argument(
        "--fleet",
        default=None,
        metavar="ADDRS",
        help=(
            "remote worker fleet (host:port[,host:port...]) jobs fan "
            "corners out across unless they pin their own --executor; "
            "worker heartbeat gauges become the daemon's fleet-health "
            "view (default: in-process serial execution)"
        ),
    )
    p_serve.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="jobs run concurrently (default %(default)s)",
    )

    def _add_connect_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--connect",
            required=True,
            metavar="HOST:PORT",
            help="address of a running `repro serve` daemon",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=60.0,
            metavar="SECONDS",
            help=(
                "declare the daemon dead after this much silence "
                "(busy daemons heartbeat; default %(default)s)"
            ),
        )

    p_submit = sub.add_parser(
        "submit",
        help="queue a design job on a `repro serve` daemon",
        description=(
            "Queue a design job: the same trajectory-shaping flags as "
            "`repro design`, validated here and again by the daemon "
            "before anything is queued.  Prints the job id for "
            "status/watch/cancel."
        ),
    )
    p_submit.add_argument("device", choices=sorted(DEVICE_REGISTRY))
    _add_connect_arg(p_submit)
    _add_job_args(p_submit)
    p_submit.add_argument(
        "--executor", default=None, metavar="SPEC", type=_executor_arg,
        help=(
            "pin this job's corner fan-out backend (serial | "
            "remote:...); default: the daemon's --fleet, or serial"
        ),
    )
    p_submit.add_argument(
        "--watch", action="store_true",
        help="stay connected and stream the job like `repro watch`",
    )

    p_status = sub.add_parser(
        "status",
        help="job state + daemon/fleet gauges from a daemon",
    )
    p_status.add_argument(
        "job", nargs="?", default=None,
        help="job id (omit to list every job)",
    )
    _add_connect_arg(p_status)

    p_watch = sub.add_parser(
        "watch",
        help="stream a job's iteration records until it settles",
        description=(
            "Stream a job's progress records (iteration, loss, fom) from "
            "iteration 0 and tail live until the job settles.  Exits 0 "
            "iff the job completed."
        ),
    )
    p_watch.add_argument("job", help="job id from `repro submit`")
    _add_connect_arg(p_watch)

    p_cancel = sub.add_parser(
        "cancel",
        help="cancel a queued job or soft-stop a running one",
    )
    p_cancel.add_argument("job", help="job id from `repro submit`")
    _add_connect_arg(p_cancel)

    p_trace = sub.add_parser(
        "trace",
        help="inspect trace files written by --trace-dir runs",
        description=(
            "Post-process the trace files a `--trace-dir` run leaves "
            "behind (trace.jsonl or trace_chrome.json)."
        ),
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_sum = trace_sub.add_parser(
        "summarize",
        help="per-phase wall-time breakdown of a trace file",
    )
    p_trace_sum.add_argument(
        "file",
        help="trace.jsonl or trace_chrome.json from a --trace-dir run",
    )

    p_base = sub.add_parser("baseline", help="run a named prior-art method")
    p_base.add_argument("device", choices=sorted(DEVICE_REGISTRY))
    p_base.add_argument("method", choices=sorted(BASELINE_REGISTRY))
    p_base.add_argument("--iterations", type=int, default=30)
    p_base.add_argument("--seed", type=int, default=0)
    p_base.add_argument("--output", default=None)

    sub.add_parser("info", help="list devices, methods and strategies")
    return parser


def _job_config(args) -> dict:
    """The JSON-plain ``OptimizerConfig`` overrides the job flags ask for.

    ``design`` runs them (plus its local knobs) and ``submit`` sends
    them to the daemon as they are, so both shape the same trajectory.
    Raises ValueError, before any work or connection, when they do not
    make a valid config.
    """
    config = {
        "iterations": args.iterations,
        "sampling": args.sampling,
        "relax_epochs": (
            args.relax_epochs
            if args.relax_epochs is not None
            else max(4, args.iterations // 3)
        ),
        "seed": args.seed,
        "wavelengths_um": args.wavelengths,
        "temperatures_k": args.temperatures,
        "aggregate": args.aggregate,
        "solver": args.solver,
    }
    if args.executor is not None:
        config["corner_executor"] = args.executor
    OptimizerConfig(**config)
    return config


def _invalid_config(exc: ValueError) -> int:
    print(f"error: invalid config: {exc}", file=sys.stderr)
    return 2


def _cmd_design(args) -> int:
    from repro.core.checkpoint import CheckpointError, resolve_resume

    checkpoint_dir = args.checkpoint_dir
    resume_ckpt = None
    if args.resume is not None:
        try:
            resume_path, resume_ckpt = resolve_resume(
                args.resume, checkpoint_dir
            )
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if checkpoint_dir is None:
            # Resuming an explicit file without --checkpoint-dir keeps
            # checkpointing where the resumed run left its files.
            checkpoint_dir = str(resume_path.parent)
        print(
            f"resuming from {resume_path} "
            f"(next iteration {resume_ckpt.next_iteration})"
        )
    try:
        config = OptimizerConfig(
            **_job_config(args),
            remote_timeout=args.remote_timeout,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            checkpoint_keep=args.checkpoint_keep,
            trace_dir=args.trace_dir,
            trace_format=args.trace_format,
            metrics_every=args.metrics_every,
        )
    except ValueError as exc:
        return _invalid_config(exc)
    optimizer = Boson1Optimizer(make_device(args.device), config)

    def log(record):
        print(
            f"iter {record.iteration:3d}  loss {record.loss:+.4f}  "
            f"fom {record.fom:.4f}  p {record.p:.2f}"
        )

    try:
        result = optimizer.run(
            callback=None if args.quiet else log, resume=resume_ckpt
        )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.interrupted:
        print(
            "\ninterrupted by signal; final checkpoint written.  resume "
            f"with: repro design {args.device} --resume auto "
            f"--checkpoint-dir {checkpoint_dir}"
        )
    print("\nfinal design:")
    print(ascii_pattern(result.pattern, max_width=48))
    output = args.output or f"boson1_{args.device}_seed{args.seed}.json"
    path = save_result(result.to_payload(), output)
    print(f"\nsaved to {path}")
    if args.trace_dir is not None:
        print(f"trace written to {args.trace_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    try:
        payload = load_result(args.result)
        if not isinstance(payload, dict) or not (
            {"device", "pattern"} <= payload.keys()
        ):
            raise ValueError(
                "not a result file (needs 'device' and 'pattern' entries)"
            )
        device = make_device(payload["device"])
        pattern = np.asarray(payload["pattern"], dtype=np.float64)
        if pattern.shape != device.design_shape:
            raise ValueError(
                f"pattern shape {pattern.shape} does not match the "
                f"{payload['device']} design shape {device.design_shape}"
            )
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: cannot evaluate {args.result}: {exc}", file=sys.stderr)
        return 2
    if SolverConfig.coerce(args.solver).backend != "direct":
        from repro.fdfd.workspace import SimulationWorkspace

        device.configure_simulation_cache(
            True, SimulationWorkspace(solver_config=args.solver)
        )
    process = FabricationProcess(
        device.design_shape,
        device.dl,
        context=device.litho_context(12),
        pad=12,
    )
    session = None
    if args.trace_dir is not None:
        from repro.obs import TraceSession

        config = OptimizerConfig(trace_format=args.trace_format)
        session = TraceSession(args.trace_dir, config.trace_formats())
    try:
        pre, _ = evaluate_ideal(device, pattern)
        report = evaluate_post_fab(
            device, process, pattern, n_samples=args.samples, seed=args.seed,
            executor=args.executor,
            remote_timeout=args.remote_timeout,
            wavelengths_um=args.wavelengths,
        )
        if session is not None:
            session.record(
                "evaluate",
                extra={
                    "mean_fom": report.mean_fom,
                    "samples": report.n_samples,
                },
                workspace=device.workspace,
            )
        if args.metrics_every:
            import logging

            from repro.obs.metrics import get_metrics

            snap = get_metrics().snapshot(device.workspace)
            logging.getLogger("repro.eval").info(
                "metrics: counters=%s gauges=%s",
                snap["counters"], snap["gauges"],
            )
    finally:
        if session is not None:
            session.close()
            print(f"trace written to {args.trace_dir}")
    better = "lower" if device.fom_lower_is_better else "higher"
    print(f"device          : {payload['device']} ({better} FoM is better)")
    print(f"method          : {payload.get('method', '?')}")
    print(f"pre-fab FoM     : {pre:.4g}")
    print(
        f"post-fab FoM    : {report.mean_fom:.4g} +- {report.std_fom:.4g} "
        f"({report.n_samples} samples)"
    )
    print(f"worst sample    : {report.worst_fom:.4g}")
    strata = report.stratified_foms()
    if len(strata) > 1 or None not in strata:
        worst = np.max if device.fom_lower_is_better else np.min
        for lam, foms in strata.items():
            print(
                f"  lam={lam:g}um  : {np.mean(foms):.4g} +- "
                f"{np.std(foms):.4g}  worst {worst(foms):.4g}"
            )
    return 0


def _cmd_baseline(args) -> int:
    device = make_device(args.device)
    process = FabricationProcess(
        device.design_shape,
        device.dl,
        context=device.litho_context(12),
        pad=12,
    )
    result = run_baseline(
        args.method, device, process, iterations=args.iterations,
        seed=args.seed,
    )
    print(ascii_pattern(result.mask, max_width=48))
    payload = {
        "device": args.device,
        "method": args.method,
        "pattern": result.mask,
        "design_pattern": result.design_pattern,
        "seed": args.seed,
        "iterations": args.iterations,
    }
    output = (
        args.output
        or f"{args.method.lower()}_{args.device}_seed{args.seed}.json"
    )
    path = save_result(payload, output)
    print(f"saved to {path}")
    return 0


def _one_address(flag: str, spec: str) -> "tuple[str, int] | None":
    """The single ``HOST:PORT`` a ``--listen``/``--connect`` flag names.

    Prints the error and returns None when ``spec`` is malformed.
    """
    try:
        addresses = parse_worker_addresses(spec)
        if len(addresses) != 1:
            raise ValueError(
                f"{flag} takes exactly one address, got {len(addresses)}"
            )
    except ValueError as exc:
        print(
            f"error: {flag} expects HOST:PORT, got {spec!r} ({exc})",
            file=sys.stderr,
        )
        return None
    return addresses[0]


def _serve_until_drained(server, name: str, drain_note: str,
                         announce_extra: str = "") -> int:
    """Run a frame server in the foreground until a signal drains it.

    SIGTERM/SIGINT drain instead of killing: the handler only requests
    a graceful stop (flag + unblocked accept), so it is safe at signal
    time, and ``serve_forever`` does the waiting before exit 0.
    """
    import os
    import signal

    def _graceful(signum, _frame):
        print(
            f"repro {name} pid {os.getpid()}: received "
            f"{signal.Signals(signum).name}, {drain_note} before exit",
            file=sys.stderr,
            flush=True,
        )
        server.request_graceful_shutdown()

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _graceful)
    # The parseable startup line doubles as the port announcement for
    # --listen host:0 (tests and scripts scrape it).
    print(
        f"repro {name} listening on {server.host}:{server.port} "
        f"(protocol v{PROTOCOL_VERSION}, pid {os.getpid()}{announce_extra})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    print(
        f"repro {name} pid {os.getpid()}: drained, exiting cleanly",
        flush=True,
    )
    return 0


def _cmd_worker(args) -> int:
    from repro.core.remote import RemoteWorkerServer

    address = _one_address("--listen", args.listen)
    if address is None:
        return 2
    # A drain lets in-flight tasks finish and their result frames hit
    # the wire.
    return _serve_until_drained(
        RemoteWorkerServer(*address), "worker", "draining in-flight tasks"
    )


def _cmd_serve(args) -> int:
    from repro.core.serve import ServeDaemon

    address = _one_address("--listen", args.listen)
    if address is None:
        return 2
    fleet = None
    if args.fleet is not None:
        try:
            fleet = parse_worker_addresses(args.fleet)
        except ValueError as exc:
            print(f"error: bad --fleet: {exc}", file=sys.stderr)
            return 2
    try:
        daemon = ServeDaemon(
            args.jobs_dir, *address, fleet=fleet, parallel=args.parallel
        )
    except (OSError, ValueError) as exc:
        print(f"error: cannot start daemon: {exc}", file=sys.stderr)
        return 2
    # A drain soft-stops running jobs: each finishes its iteration,
    # checkpoints, and parks as 'interrupted' for the next start.
    return _serve_until_drained(
        daemon, "serve", "checkpointing running jobs",
        f", jobs {args.jobs_dir}",
    )


def _serve_client(args):
    """Connect to the daemon named by ``--connect`` (or exit 2)."""
    from repro.core.serve import ServeClient, ServeError

    address = _one_address("--connect", args.connect)
    if address is None:
        return None
    try:
        return ServeClient(address, timeout=args.timeout)
    except ServeError as exc:
        print(
            f"error: cannot reach daemon at {args.connect}: {exc}",
            file=sys.stderr,
        )
        return None


def _print_job_line(job: dict) -> None:
    extra = ""
    if job.get("cancelling"):
        extra = "  (cancelling)"
    elif job.get("error"):
        first = str(job["error"]).strip().splitlines()[-1]
        extra = f"  ({first})"
    print(
        f"{job['id']}  {job['status']:<11}  device {job['device']}"
        f"  iterations {job['iterations_done']}{extra}"
    )


def _watch_stream(client, job_id: str) -> int:
    """Stream one job to stdout; exit 0 iff it completed."""
    from repro.core.serve import ServeError

    def on_record(record):
        loss = record.get("loss")
        fom = record.get("fom")
        print(
            f"iter {record.get('iteration', '?'):>3}  "
            f"loss {loss:+.4f}  fom {fom:.4f}"
            if isinstance(loss, float) and isinstance(fom, float)
            else f"iter {record.get('iteration', '?')}  {record}"
        )

    try:
        final = client.watch(job_id, on_record=on_record)
    except ServeError as exc:
        print(f"error: watch failed: {exc}", file=sys.stderr)
        return 1
    print(f"\n{final['id']} settled: {final['status']}")
    if final.get("error"):
        print(final["error"], file=sys.stderr)
    return 0 if final["status"] == "completed" else 1


def _cmd_submit(args) -> int:
    from repro.core.serve import ServeError

    try:
        config = _job_config(args)
    except ValueError as exc:
        return _invalid_config(exc)
    client = _serve_client(args)
    if client is None:
        return 2
    with client:
        try:
            job = client.submit(args.device, config)
        except ServeError as exc:
            print(f"error: submit refused: {exc}", file=sys.stderr)
            return 2
        print(
            f"submitted {job['id']} ({job['device']}, "
            f"{config['iterations']} iterations)"
        )
        if args.watch:
            return _watch_stream(client, job["id"])
    return 0


def _cmd_status(args) -> int:
    from repro.core.serve import ServeError

    client = _serve_client(args)
    if client is None:
        return 2
    with client:
        try:
            if args.job is None:
                reply = client.list_jobs()
                jobs = reply["jobs"]
            else:
                reply = client.status(args.job)
                jobs = [reply["job"]]
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for job in jobs:
        _print_job_line(job)
    if not jobs:
        print("no jobs")
    daemon = reply.get("daemon") or {}
    print(
        f"\ndaemon: queue depth {daemon.get('queue_depth')}, "
        f"running {daemon.get('jobs_running')}, "
        f"rss {daemon.get('rss_bytes', 0) / 1e6:.0f} MB"
    )
    fleet = reply.get("fleet") or {}
    if fleet:
        print("fleet gauges:")
        for name in sorted(fleet):
            print(f"  {name} = {fleet[name]}")
    return 0


def _cmd_watch(args) -> int:
    client = _serve_client(args)
    if client is None:
        return 2
    with client:
        return _watch_stream(client, args.job)


def _cmd_cancel(args) -> int:
    from repro.core.serve import ServeError

    client = _serve_client(args)
    if client is None:
        return 2
    with client:
        try:
            job = client.cancel(args.job)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if job.get("cancelling"):
        print(
            f"{job['id']}: stop requested; the running iteration will "
            "finish and checkpoint before the job settles as cancelled"
        )
    else:
        print(f"{job['id']}: {job['status']}")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.export import (
        format_summary,
        load_trace_records,
        summarize_records,
    )

    try:
        records = load_trace_records(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.file!r}: {exc}",
              file=sys.stderr)
        return 2
    if not records:
        print(f"no spans in {args.file}")
        return 0
    print(format_summary(summarize_records(records)))
    return 0


def _cmd_info(_args) -> int:
    print("devices   :", ", ".join(sorted(DEVICE_REGISTRY)))
    print("methods   :", ", ".join(sorted(BASELINE_REGISTRY)))
    print("sampling  :", ", ".join(sorted(SAMPLING_STRATEGIES)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if any(tok.split("=", 1)[0] == "--precond-dtype" for tok in argv):
        parser.error(
            "--precond-dtype was removed: the preconditioner is always "
            "the float64 anchor LU (single precision measured "
            "1.12-1.20x slower); drop the flag"
        )
    args = parser.parse_args(argv)
    # One logging setup for every subcommand; configure_logging exports
    # the resolved level to REPRO_LOG_LEVEL so worker subprocesses
    # (`repro worker` spawns) inherit it.
    configure_logging(args.log_level)
    handlers = {
        "design": _cmd_design,
        "evaluate": _cmd_evaluate,
        "baseline": _cmd_baseline,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "watch": _cmd_watch,
        "cancel": _cmd_cancel,
        "trace": _cmd_trace,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
