"""Closed-loop design + Monte-Carlo benchmark of the BOSON-1 reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload isolator-direct --seed 1 \\
        --seconds 35 --trace 0

Each run repeats closed-loop *sets* (see ``workloads.py``: set-up, one
design job, one Monte-Carlo evaluation) until ``--seconds`` are spent,
checks every set's FoM trajectory and Monte-Carlo FoM vector against
``references.json``, and prints a report, a ``detail`` JSON line
(environment, sample counts, tail percentile) and, as the last line,
the result JSON.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced sets with sets run under the
outside-in layer wrappers of ``layers.py`` and reports the per-layer
metrics, each normalised per operation (one design iteration or one
Monte-Carlo sample; ``serve.*`` per job).

``post_fab_fom`` is the mean Monte-Carlo FoM oriented so that higher is
better: the isolator's contrast (lower is better) is reported as its
reciprocal; ``detail`` carries the raw mean and its better direction.

``--record`` re-runs one set per pool seed of each named workload and
rewrites ``references.json`` from the current code.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools pinned to one thread before numpy loads; the
#: serve workload's forked workers inherit the setting.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import socket  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "design_iter_s": "s",
    "design_iter_s_tail": "s",
    "mc_samples_per_s": "1/s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "post_fab_fom": "1",
    "ok_frac": "1",
}


def _counts_and_time(prefix: str) -> dict:
    return {prefix + ".calls": "count/op", prefix + ".self_s": "s/op"}


#: Per-layer metrics: name -> unit.
PER_LAYER = {
    **_counts_and_time("fab.apply"),
    **_counts_and_time("fab.apply_array"),
    **_counts_and_time("fab.litho"),
    **_counts_and_time("fdfd.assembly"),
    **_counts_and_time("fdfd.factorize"),
    "fdfd.factor_cache.misses": "count/op",
    "fdfd.calibration.self_s": "s/op",
    "linalg.solve.calls": "count/op",
    "linalg.solve.rhs_columns": "count/op",
    "linalg.solve.self_s": "s/op",
    "linalg.krylov.calls": "count/op",
    "linalg.krylov.iterations": "count/op",
    "linalg.krylov.self_s": "s/op",
    "linalg.krylov.wasted_frac": "1",
    "linalg.block.calls": "count/op",
    "linalg.block.sweeps": "count/op",
    "linalg.block.columns": "count/op",
    "linalg.block.self_s": "s/op",
    "linalg.fallback_frac": "1",
    **_counts_and_time("devices.port_powers"),
    **_counts_and_time("autodiff.backward"),
    "engine.loss.self_s": "s/op",
    "engine.step.self_s": "s/op",
    "executors.map.calls": "count/op",
    "executors.map.items": "count/op",
    "executors.map.wait_s": "s/op",
    "remote.frames": "count/op",
    "remote.bytes_sent": "B/op",
    "remote.bytes_received": "B/op",
    "remote.worker_cpu_s": "s/op",
    **_counts_and_time("checkpoint.save"),
    "checkpoint.save.bytes": "B/op",
    "serve.submit_s": "s/job",
    "serve.queue_wait_s": "s/job",
    "serve.finish_to_done_s": "s/job",
    "serve.watch_records": "count/job",
    "eval.mc.self_s": "s/op",
    "trace.overhead_frac": "1",
    "trace.unattributed_frac": "1",
    "failed_frac": "1",
}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "hostname": socket.gethostname(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(spec, seed: int, seconds: float, trace: bool, reference):
    """Run sets until ``seconds`` pass; returns (plain, traced, tracer).

    Untraced runs draw each set's Monte-Carlo seed from the run's seed
    order; traced runs give every set the order's first seed, so each
    set does the same work and the per-layer counters do not depend on
    how many sets fit in the time.
    """
    import layers
    import workloads

    workloads.warm_up(spec)
    order = workloads.mc_seed_order(seed)
    tracer = layers.LayerTracer() if trace else None
    min_sets = 2 if trace else 3
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        is_traced = trace and len(plain) > len(traced)
        mc_seed = order[0] if trace else order[len(plain) % len(order)]
        result = workloads.run_set(
            spec, mc_seed, tracer if is_traced else None, reference
        )
        if result.error is not None:
            print(result.error, file=sys.stderr)
        (traced if is_traced else plain).append(result)
        if (
            time.perf_counter() - start >= seconds
            and len(plain) >= min_sets
            and (not trace or len(traced) >= min_sets)
        ):
            return plain, traced, tracer


def tail(values) -> "tuple[float, float]":
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten or fewer samples it is the
    maximum.
    """
    ordered = sorted(values)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(spec, plain) -> "tuple[dict, dict]":
    """End-to-end metric values and their sample notes."""
    ok = [s for s in plain if s.ok]
    iters = [t for s in ok for t in s.iter_s[1:]]
    iter_median = median(iters)
    tail_value, percentile = tail(iters)
    foms = [f for s in ok for f in s.mc_foms]
    mean_fom = fmean(foms)
    attempted = sum(s.attempted for s in plain)
    failed = sum(s.failed for s in plain)
    values = {
        # Iteration 0 also pays the lazy set-up (calibration, modes).
        "setup_s": median(
            s.setup_s + max(0.0, s.iter_s[0] - iter_median) for s in ok
        ),
        "design_iter_s": iter_median,
        "design_iter_s_tail": tail_value,
        "mc_samples_per_s": median(
            spec.samples / spec.mc_calls / wall for s in ok for wall in s.mc_s
        ),
        "job_s": median(s.job_s for s in ok),
        # Per set, so a run's length cannot move it: the process's
        # sampled peak plus the fleet workers' own high-water marks.
        "peak_rss_mb": median(s.peak_mb for s in ok),
        "post_fab_fom": 1.0 / mean_fom if spec.fom_lower_is_better else mean_fom,
        "ok_frac": (attempted - failed) / attempted,
    }
    notes = {
        "samples": {
            "setup_s": len(ok), "design_iter_s": len(iters),
            "design_iter_s_tail": len(iters),
            "mc_samples_per_s": sum(len(s.mc_s) for s in ok),
            "job_s": len(ok), "peak_rss_mb": len(ok),
            "post_fab_fom": len(foms),
            "ok_frac": attempted,
        },
        "design_iter_s_tail_percentile": round(percentile, 1),
        "mean_mc_fom": mean_fom,
        "fom_better": "lower" if spec.fom_lower_is_better else "higher",
    }
    return values, notes


def per_layer(spec, plain, traced, tracer) -> dict:
    """Per-layer metric values from the traced sets."""
    ok = [s for s in traced if s.ok]
    ops = len(ok) * (spec.iterations + spec.samples)
    jobs = len(ok)
    counters = Counter()
    for s in ok:
        counters.update(s.counters)

    values = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and name.count(".") == 2:
            values[name] = tracer.value(layer, field) / ops
    everything = plain + traced
    values.update({
        "fdfd.factor_cache.misses": counters["factor_cache_misses"] / ops,
        "linalg.solve.rhs_columns": tracer.value("linalg.solve", "rhs_columns")
        / ops,
        "linalg.krylov.iterations": counters["iterations"] / ops,
        # Iterations burnt by solves that then fell back to a direct
        # factorization, over every Krylov iteration run.
        "linalg.krylov.wasted_frac": (
            counters["wasted_iterations"]
            / (counters["iterations"] + counters["wasted_iterations"])
            if counters["iterations"] + counters["wasted_iterations"]
            else 0.0
        ),
        "linalg.block.sweeps": counters["block_sweeps"] / ops,
        "linalg.block.columns": counters["block_columns"] / ops,
        "linalg.fallback_frac": (
            counters["fallbacks"] / counters["krylov_solves"]
            if counters["krylov_solves"] else 0.0
        ),
        "executors.map.items": tracer.value("executors.map", "items") / ops,
        "executors.map.wait_s": tracer.value("executors.map", "self_s") / ops,
        "remote.frames": (
            counters["metric.remote.frames_sent"]
            + counters["metric.remote.frames_received"]
        ) / ops,
        "remote.bytes_sent": counters["metric.remote.bytes_sent"] / ops,
        "remote.bytes_received": counters["metric.remote.bytes_received"]
        / ops,
        "remote.worker_cpu_s": counters["worker_cpu_s"] / ops,
        "checkpoint.save.bytes": tracer.value("checkpoint.save", "bytes")
        / ops,
        "serve.submit_s": counters["serve.submit_s"] / jobs,
        "serve.queue_wait_s": counters["serve.queue_wait_s"] / jobs,
        "serve.finish_to_done_s": counters["serve.finish_to_done_s"] / jobs,
        "serve.watch_records": counters["serve.watch_records"] / jobs,
        "trace.overhead_frac": median(s.work_s for s in ok)
        / median(s.work_s for s in plain if s.ok) - 1.0,
        "trace.unattributed_frac": max(
            0.0, 1.0 - tracer.self_total() / sum(s.work_s for s in ok)
        ),
        "failed_frac": sum(s.failed for s in everything)
        / sum(s.attempted for s in everything),
    })
    return values


def record(names) -> int:
    """Re-run one set per pool seed and rewrite the references."""
    import workloads

    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names:
        spec = workloads.WORKLOADS[name]
        workloads.warm_up(spec)
        entry = {"compare": spec.compare, "fom_trace": None, "mc": {}}
        for mc_seed in workloads.MC_SEED_POOL:
            result = workloads.run_set(spec, mc_seed)
            if result.error is not None:
                print(result.error, file=sys.stderr)
                return 1
            trace = [x.hex() for x in result.fom_trace]
            if entry["fom_trace"] is None:
                entry["fom_trace"] = trace
            elif workloads.count_mismatches(
                result.fom_trace, entry["fom_trace"], spec.compare
            ):
                print(f"{name}: design trajectory differs between sets",
                      file=sys.stderr)
                return 1
            entry["mc"][str(mc_seed)] = [x.hex() for x in result.mc_foms]
        refs[name] = entry
        print(f"recorded {name}: {len(entry['mc'])} Monte-Carlo seeds")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def _parser(choices) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=choices)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite references.json from the current code")
    return p


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = _parser(sorted(workloads.WORKLOADS)).parse_args(argv)
    if args.record:
        return record([args.workload] if args.workload
                      else sorted(workloads.WORKLOADS))
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCES.read_text())[spec.name]
    plain, traced, tracer = measure(
        spec, args.seed, args.seconds, bool(args.trace), reference
    )
    everything = plain + traced
    attempted = sum(s.attempted for s in everything)
    failed = sum(s.failed for s in everything)
    detail = {
        "workload": spec.name, "seed": args.seed, "trace": args.trace,
        "sets": len(plain), "traced_sets": len(traced),
        "env": environment(),
    }
    if not any(s.ok for s in plain) or (traced and not any(s.ok for s in traced)):
        print("error: every set failed", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        values, units = per_layer(spec, plain, traced, tracer), PER_LAYER
    else:
        values, notes = end_to_end(spec, plain)
        units = END_TO_END
        detail.update(notes)
    print(f"workload {spec.name}  seed {args.seed}  sets {len(plain)}"
          f"+{len(traced)} traced  failed {failed}/{attempted}")
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>14.6g} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
