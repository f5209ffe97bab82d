"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Each workload shrinks to two design iterations and two Monte-Carlo
samples (the in-process ones also to a coarse grid), references are
recorded for the tiny sizes into a temporary file, and the real
command-line entry point then runs against them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))
import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(spec: workloads.Workload) -> workloads.Workload:
    changes = {"iterations": 2, "samples": 2, "mc_calls": 2}
    if not spec.fleet:
        changes["dl"] = 0.1
    return dataclasses.replace(spec, **changes)


@pytest.fixture(scope="module")
def tiny_references(tmp_path_factory):
    """Tiny workloads with references recorded from the current code."""
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "MC_SEED_POOL", (0, 1))
    patch.setattr(
        workloads, "WORKLOADS",
        {name: _tiny(spec) for name, spec in workloads.WORKLOADS.items()},
    )
    patch.setattr(
        run, "REFERENCES", tmp_path_factory.mktemp("refs") / "refs.json"
    )
    assert run.record(sorted(workloads.WORKLOADS)) == 0
    yield
    patch.undo()


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == table
    assert BENCHMARK["paths"] == [HERE.name]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(
    tiny_references, capsys, name, trace
):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == table
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_traced_direct_set_is_bitwise_equal_and_leaves_no_wrappers():
    spec = _tiny(workloads.WORKLOADS["isolator-direct"])
    originals = {
        (module, owner, attr): layers.resolve_owner(module, owner).__dict__[attr]
        for _layer, module, owner, attr, _extra in layers.TARGETS
    }
    workloads.warm_up(spec)
    plain = workloads.run_set(spec, mc_seed=5)
    tracer = layers.LayerTracer()
    traced = workloads.run_set(spec, mc_seed=5, tracer=tracer)
    assert plain.ok and traced.ok, plain.error or traced.error
    assert [x.hex() for x in traced.fom_trace] == [
        x.hex() for x in plain.fom_trace
    ]
    assert [x.hex() for x in traced.mc_foms] == [
        x.hex() for x in plain.mc_foms
    ]
    assert tracer.value("fdfd.factorize", "calls") > 0
    for (module, owner, attr), original in originals.items():
        assert layers.resolve_owner(module, owner).__dict__[attr] is original


def test_refuses_to_run_without_the_library(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "isolator-direct"]) == 2
    assert capsys.readouterr().out == ""
