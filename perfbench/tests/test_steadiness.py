"""Steadiness self-test of the benchmark.

    python3 -m pytest perfbench/tests -q

Two traced runs of one workload at one seed must produce identical output
digests and identical per-layer work counts (slots, states, events, solves,
calls, ...), and a run at a seed with no recorded reference must pass every
invariant check. Runs take a few seconds each: one untraced and one traced
pass per run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def run_traced(workload: str, seed: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    digest = next(ln for ln in lines if ln.startswith(f"digest {workload} "))
    return digest.split(": ", 1)[1].split()[0], json.loads(lines[-1])


def counts(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(tracing.COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_digest_and_counts(workload):
    digest_a, first = run_traced(workload, 3)
    digest_b, second = run_traced(workload, 3)
    assert first["correct"] and second["correct"]
    assert digest_a == digest_b
    assert counts(first) == counts(second)
    assert any(counts(first).values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_unreferenced_seed_passes_every_invariant(workload):
    _, result = run_traced(workload, 1_000_003)
    assert result["correct"] and result["failed"] == 0, result


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
