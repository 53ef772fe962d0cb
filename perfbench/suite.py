"""The whole set, result files, ``compare`` and ``noise``.

A result file holds, per workload, every end-to-end and per-layer metric
as a list of values — one per repetition of the set — so a comparison
can tell a difference from run-to-run spread.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from perfbench.harness import OUT_DIR, ROOT
from perfbench.metrics import END_TO_END, EXACT, PER_LAYER, UNITS, WORKLOADS, median

RUN = Path(__file__).resolve().parent / "run.py"
#: a child that has not finished by then is killed and counted as failed
CHILD_TIMEOUT_S = 900


#: how long one run measures (``BENCHMARK.json``'s ``run_seconds``)
RUN_SECONDS = 8


def spec() -> dict:
    """``BENCHMARK.json``: the metric tables in the driver's schema."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def _child(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One workload in a fresh process; its last stdout line is the result."""
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "problems": [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]}
    result["problems"] = [line for line in lines if line.startswith("FAILED ")]
    return result


def run_once(seed: int, seconds: float, quick: bool) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    out = {}
    for workload in WORKLOADS:
        entry = {"attempted": 0, "failed": 0, "problems": [], "metrics": {}}
        for trace in (0, 1):
            result = _child(workload, seed, seconds, trace, quick)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["problems"] += result["problems"]
            entry["metrics"].update(
                {name: m["value"] for name, m in result["metrics"].items()})
        detail = OUT_DIR / f"detail-{workload}-seed{seed}-e2e.json"
        if detail.exists():
            info = json.loads(detail.read_text())
            entry["digests"], entry["provenance"] = info["digests"], info["provenance"]
        out[workload] = entry
        _print_workload(workload, entry)
    _cross_check(out)
    return out


def _cross_check(results: dict) -> None:
    """The native and parallel tiers must return what the fused tier does
    (each child also checks this in-process, against its own fused twin)."""
    base = results["analytics_fused"].get("digests")
    for workload in ("analytics_native", "analytics_parallel"):
        entry = results[workload]
        if base and entry.get("digests") and entry["digests"] != base:
            entry["failed"] += 1
            entry["problems"].append(f"FAILED {workload}: digests differ from analytics_fused")


def _print_workload(workload: str, entry: dict) -> None:
    print(f"== {workload}: {entry['attempted']} ops attempted, {entry['failed']} failed")
    for name, value in entry["metrics"].items():
        print(f"{workload} {name} {value:.6g} {UNITS[name]}")
    for problem in entry["problems"]:
        print(problem)


def _merge(runs: list[dict]) -> dict:
    """Repetitions of the set as one result: each metric a list of values."""
    merged = {}
    for workload in WORKLOADS:
        merged[workload] = {
            "attempted": sum(run[workload]["attempted"] for run in runs),
            "failed": sum(run[workload]["failed"] for run in runs),
            "provenance": runs[0][workload].get("provenance"),
            "metrics": {name: [run[workload]["metrics"][name] for run in runs
                               if name in run[workload]["metrics"]]
                        for name in runs[0][workload]["metrics"]},
        }
    return merged


def _write(result: dict, out: str | None, default: str) -> Path:
    path = Path(out) if out else OUT_DIR / default
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workloads": result}, indent=1) + "\n")
    print(f"wrote {path}")
    return path


def run_set(seed: int, seconds: float, quick: bool, out: str | None) -> int:
    result = _merge([run_once(seed, seconds, quick)])
    _write(result, out, f"result-seed{seed}.json")
    failed = sum(entry["failed"] for entry in result.values())
    print(f"{failed} failed ops")
    return 1 if failed else 0


# -- compare ------------------------------------------------------------------


def _spread(values: list[float]) -> float | None:
    """Run-to-run spread of one side as a share of its median (None when
    the side holds a single run: nothing to judge the spread from)."""
    if len(values) < 2:
        return None
    return (max(values) - min(values)) / median(values)


def compare(base: dict, head: dict) -> tuple[list[str], int]:
    """Per workload x end-to-end metric: both medians, the ratio head/base,
    the bound and a verdict.  ``worse``: the median moved past the bound in
    the bad direction.  ``unresolved``: either side's own runs spread wider
    than the bound, so the data cannot tell.  Exact-count rows must be equal."""
    lines, worse = [], 0
    lines.append(f"{'workload':20} {'metric':22} {'base':>12} {'head':>12} "
                 f"{'head/base':>9} {'bound':>6} {'spread':>7}  verdict")
    for workload in WORKLOADS:
        a, b = base[workload]["metrics"], head[workload]["metrics"]
        for metric in END_TO_END:
            if not a.get(metric.name) or not b.get(metric.name):
                continue
            left, right = median(a[metric.name]), median(b[metric.name])
            ratio = right / left
            loss = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
            spreads = [s for s in (_spread(a[metric.name]), _spread(b[metric.name]))
                       if s is not None]
            spread = max(spreads) if spreads else None
            if spread is not None and spread > metric.bound:
                verdict = "unresolved"
            elif loss > metric.bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            shown = "-" if spread is None else f"{spread:.3f}"
            lines.append(f"{workload:20} {metric.name:22} {left:12.5g} {right:12.5g} "
                         f"{ratio:9.3f} {metric.bound:6.2f} {shown:>7}  {verdict}")
        if workload == "serving_closed":
            continue  # two workers race: its counts are not exact
        for name in sorted(EXACT & a.keys() & b.keys()):
            if set(a[name]) != set(b[name]):
                worse += 1
                lines.append(f"{workload:20} {name:22} exact count differs: "
                             f"{sorted(set(a[name]))} vs {sorted(set(b[name]))}  worse")
    return lines, worse


def compare_files(base_path: str, head_path: str) -> int:
    base = json.loads(Path(base_path).read_text())["workloads"]
    head = json.loads(Path(head_path).read_text())["workloads"]
    lines, worse = compare(base, head)
    print("\n".join(lines))
    print(f"{worse} worse")
    return 1 if worse else 0


def noise(seed: int, seconds: float, quick: bool, out: str | None) -> int:
    """The whole set twice on the same code: the two must agree within
    the benchmark's own bounds, and the exact counts must be equal."""
    first = _merge([run_once(seed, seconds, quick)])
    second = _merge([run_once(seed, seconds, quick)])
    _write(first, None, f"noise-a-seed{seed}.json")
    _write(second, None, f"noise-b-seed{seed}.json")
    lines, worse = compare(first, second)
    # agreement is symmetric: the first set must not be worse than the second either
    _, worse_back = compare(second, first)
    print("\n".join(lines))
    print("\nper-metric spread between the two sets (|a - b| / mean):")
    for workload in WORKLOADS:
        for metric in END_TO_END:
            a = first[workload]["metrics"][metric.name][0]
            b = second[workload]["metrics"][metric.name][0]
            print(f"{workload:20} {metric.name:22} {abs(a - b) / ((a + b) / 2):.4f} "
                  f"(bound {metric.bound:.2f})")
    failed = sum(e["failed"] for e in (*first.values(), *second.values()))
    print(f"{worse + worse_back} disagreements, {failed} failed ops")
    return 1 if worse or worse_back or failed else 0
