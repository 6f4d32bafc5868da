"""The benchmark's own test: smoke-size runs of every workload.

Checks that one command prints every metric ``BENCHMARK.json`` names,
with its unit, and that the correctness gate runs and catches a wrong
answer.  Smoke mode shrinks every workload to a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    diagnostics = json.loads(
        next(line for line in lines if line.startswith("diagnostics: "))[len("diagnostics: "):]
    )
    return json.loads(lines[-1]), diagnostics


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def test_spec_names_the_command_workloads():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == {
        name for name, _unit, _what in run.tracing.LAYER_METRICS
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_and_gate(workload):
    result, diagnostics = _run(workload, trace=0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert diagnostics["workload"] == workload
    assert diagnostics["op_list_digest"]
    if workloads.WORKLOADS[workload].kind == "cold":
        assert diagnostics["gate_checked"]  # one-shot cross-checks ran


def test_traced_run_reports_every_layer_metric():
    result, _diagnostics = _run("serve-lt-mutate", trace=1)
    _assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["service.call_s"]["value"] > 0
    assert metrics["dynamic.repair_s"]["value"] > 0


def test_gates_flag_wrong_answers():
    import repro

    w = workloads.smoke(workloads.WORKLOADS["cold-wc"])
    graph = repro.load_dataset(w.dataset, scale=w.scale, weights=w.weights)
    answer = repro.dssa(graph, w.ks[0], epsilon=w.epsilon, seed=5, kernel="batched")
    record = {"k": w.ks[0], "seed": 5, "kernel": "batched", "samples": int(answer.samples),
              "influence": float(answer.influence), "seeds": [int(s) for s in answer.seeds]}
    assert run.check_cold(repro, graph, w, [record]) == set()
    swapped = dict(record, seeds=record["seeds"][::-1])
    assert run.check_cold(repro, graph, w, [swapped]) == {0}
    repeated = dict(record, seeds=[record["seeds"][0]] * w.ks[0])
    assert run.check_cold(repro, graph, w, [record, repeated]) == {1}

    ops = [{"op": "maximize", "k": 2}, {"op": "estimate"}]
    want = [{"seeds": [1, 2], "elapsed_seconds": 0.1}, 3.5]
    got = [{"answer": {"seeds": [1, 2], "elapsed_seconds": 0.2}}, {"answer": 3.5}]
    assert run.check_serve(ops, got, want, n=10) == set()
    got[1] = {"answer": 3.25}
    assert run.check_serve(ops, got, want, n=10) == {1}
    got[0] = None
    assert run.check_serve(ops, got, want, n=10) == {0, 1}
