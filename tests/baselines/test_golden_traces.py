"""Golden baseline traces: what the HyPeR-like and Ocelot-like baselines
charge, pinned per query, engine and device.

Each entry holds the query's ``CostReport.milliseconds`` and a sha256 of
every kernel's ``(fragment, extent, events)`` — so an evaluator change
that moves one ``TraceEvent`` field of one kernel shows here, where the
figure tests (``tests/bench/test_figures.py``) only check inequalities
between the systems.

Regenerate (only when a price is *meant* to move; say why in CHANGES.md)::

    PYTHONPATH=src python tests/baselines/test_golden_traces.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import HyperEngine, OcelotEngine
from repro.tpch import QUERIES, build, generate

GOLDEN = Path(__file__).with_name("golden_traces.json")
ENGINES = {"hyper": HyperEngine, "ocelot": OcelotEngine}
DEVICES = ("cpu-mt", "gpu")


def record(store, engine: str, device: str, number: int) -> dict:
    _, trace, report = ENGINES[engine](store, device=device).execute(build(store, number))
    kernels = [(k.fragment, k.extent, [dataclasses.astuple(e) for e in k.events])
               for k in trace]
    return {"milliseconds": report.milliseconds,
            "trace_sha256": hashlib.sha256(repr(kernels).encode()).hexdigest()}


def entries(store) -> dict[str, dict]:
    return {f"q{number}/{engine}/{device}": record(store, engine, device, number)
            for number in sorted(QUERIES) for engine in ENGINES for device in DEVICES}


@pytest.fixture(scope="module")
def store():
    return generate(0.005, seed=7)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_query_engine_and_device(golden):
    assert len(golden) == len(QUERIES) * len(ENGINES) * len(DEVICES) == 56


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("number", sorted(QUERIES))
def test_baseline_trace_and_price_unchanged(store, golden, number, engine, device):
    got = record(store, engine, device, number)
    expected = golden[f"q{number}/{engine}/{device}"]
    assert got["trace_sha256"] == expected["trace_sha256"]
    assert got["milliseconds"] == expected["milliseconds"]


if __name__ == "__main__":
    recorded = entries(generate(0.005, seed=7))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} entries to {GOLDEN}")
