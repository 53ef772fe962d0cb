"""Every workload end to end in ``--quick`` mode (2 laps at SF 0.01):
the driver's output contract, the correctness gate and the span files."""

import json
import subprocess
import sys

import pytest

from perfbench.harness import OUT_DIR, ROOT
from perfbench.metrics import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS, WORKLOADS
from perfbench.spans import SpanRecorder

SEED = 11


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run(workload):
    result = _run(workload, trace=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert tuple(result["metrics"]) == PER_LAYER_NAMES
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == UNITS[name]
        assert isinstance(entry["value"], float)
    spans = SpanRecorder.load(OUT_DIR / f"spans-{workload}-seed{SEED}.json")
    assert spans.spans and spans.problems() == []
    assert len({s.op for s in spans.spans if s.parent is None}) == sum(
        s.parent is None for s in spans.spans), "one id per op"


def test_untraced_run_reports_every_end_to_end_metric():
    result = _run("serving_closed", trace=0)
    assert result["correct"] is True
    assert tuple(result["metrics"]) == END_TO_END_NAMES
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_unknown_workload_is_refused():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nope", "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert done.returncode != 0
