"""Self-test of the benchmark: a tiny run of each workload.

Run from the repository root with ``python3 -m pytest -q benchmarks``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result["metrics"]


def _assert_emits(metrics: dict, spec: list) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    metrics = _run(workload, trace=0)
    _assert_emits(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


def test_per_layer_metrics_and_cost_formulas():
    metrics = _run(WORKLOADS[0], trace=1)
    _assert_emits(metrics, SPEC["per_layer"])
    count = {name: m["value"] for name, m in metrics.items()}
    # BGW costs: encaps 1 pairing + 2 G exps + 1 GT exp, decaps 2 pairings
    # + 1 GT division, the header decode 2 subgroup checks; setup 3n + 1
    # G exps for n = 32.
    assert count["curve.pair.calls_per_op"] == 3
    assert count["curve.exp_g.calls_per_op"] == 2
    assert count["curve.exp_gt.calls_per_op"] == 1
    assert count["curve.mul_gt.calls_per_op"] == 1
    assert count["curve.inverse_gt.calls_per_op"] == 1
    assert count["curve.decode_g.calls_per_op"] == 2
    assert count["curve.exp_g.calls_per_setup"] == 3 * 32 + 1
    # cli-mock1024, n = 1024, |S| = 512: each key-file read decodes 2n + 1
    # public elements; decaps adds the share and the two header elements.
    assert count["mock.decode_g.calls_per_send"] == 2 * 1024 + 1
    assert count["mock.decode_g.calls_per_recv"] == 2 * 1024 + 4
    assert count["mock.mul_g.calls_per_op"] == 2 * 512 - 1
    assert count["primes.is_prime.calls_per_op"] == 3
