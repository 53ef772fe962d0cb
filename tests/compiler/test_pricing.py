"""Golden prices: what the simulator charges, pinned entry by entry.

``golden_prices.json`` was written by this module's ``__main__`` at the
commit named in its ``commit`` field — the last one whose traced runs
executed on ``compiler/rt.py``, a second operator implementation that
emitted the trace on the way.  Since then the trace comes from
:mod:`repro.compiler.pricing`, a pass over the node runner's values; the
entries here are what keeps the two equal: per entry the kernel count,
``Trace.summary()`` (exact integers) and ``CostReport.breakdown()``
(relative 1e-9).  ``rerecorded`` names the entries written later than
that commit, and why.

The same entries carry the price-knob coverage: each of the six
``CompilerOptions`` variants leaves every output bit-identical and moves
the price the way ``tests/bench/test_figures.py::TestAblations`` asserts.

Regenerate (only when a price is *meant* to move; say why in CHANGES.md)::

    PYTHONPATH=src python tests/compiler/test_pricing.py "why they moved"

which rewrites every entry, keeps ``commit`` and records the reason in
``rerecorded`` for each entry that moved (it refuses without one).
"""

import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.bench import ablations, figure16, selection
from repro.compiler import CompilerOptions, ExecutionOptions, FragmentPlan, compile_program
from repro.core import Builder, Schema, StructuredVector, ops
from repro.relational import VoodooEngine
from repro.tpch import QUERIES, build, generate

GOLDEN = Path(__file__).with_name("golden_prices.json")
N = 1 << 17

VARIANTS = {
    "default": CompilerOptions(),
    "gpu": CompilerOptions(device="gpu"),
    "op-at-a-time": CompilerOptions(fuse=False),
    "branch-free": CompilerOptions(selection="branch-free"),
    "no-virtual-scatter": CompilerOptions(virtual_scatter=False),
    "no-slot-suppression": CompilerOptions(slot_suppression=False),
}


def measure(program, options, storage, scale=1.0, execution=None):
    """(outputs, golden record) of one traced run."""
    compiled = compile_program(program, options)
    outputs, trace = compiled.run(storage, scale=scale, execution=execution)
    report = compiled.price(trace, execution=execution)
    record = {
        "kernels": compiled.kernel_count(),
        "summary": {key: int(value) for key, value in trace.summary().items()},
        "breakdown": report.breakdown(),
    }
    return outputs, record


# -- the entries ---------------------------------------------------------------


def tpch_entries(store, number):
    """(program, {variant: (outputs, record)}) of one TPC-H query."""
    query = build(store, number)  # before translating: LIKE registers aux vectors
    with VoodooEngine(store) as engine:
        program = engine.translate(query)
        storage = engine.vectors()
    return program, {
        name: measure(program, options, storage) for name, options in VARIANTS.items()
    }


def micro_entries():
    """{key: record} of the figure and ablation micro programs at 2^17 rows,
    under the trace scale their figure uses, plus the ``workers`` rows."""
    out = {}
    store = selection.make_store(N)
    scale = selection.PAPER_N / N
    for variant in selection.VARIANTS:  # Figures 1 and 15
        for device in ("cpu-1t", "cpu-mt", "gpu"):
            for fraction in (0.01, 0.5, 1.0):
                program = selection.selection_program(N, fraction, variant)
                options = selection.variant_options(variant, device)
                key = f"selection/{variant}/{device}/{fraction}"
                out[key] = measure(program, options, store, scale)[1]
    program = selection.selection_program(N, 0.5, "Vectorized (BF)")
    options = selection.variant_options("Vectorized (BF)", "cpu-mt")
    out["selection/Vectorized (BF)/cpu-mt/0.5/workers=4"] = measure(
        program, options, store, scale, ExecutionOptions(workers=4))[1]

    store = figure16.make_store(N)
    scale = figure16.PAPER_N / N
    for implementation in figure16.IMPLEMENTATIONS:
        for device in ("cpu-mt", "gpu"):
            for fraction in (0.2, 1.0):
                program = figure16.program(implementation, fraction)
                key = f"figure16/{implementation}/{device}/{fraction}"
                out[key] = measure(program, CompilerOptions(device=device), store, scale)[1]

    store = ablations._store(N)
    scale = ablations.MODEL_N / N
    programs = {
        "filter-sum": ablations.filter_sum_program(),
        "grouped": ablations.grouped_aggregation_program(),
        "hierarchical-64": ablations.hierarchical_sum_program(64),
        "hierarchical-8192": ablations.hierarchical_sum_program(8192),
    }
    for name, program in programs.items():
        for variant, options in VARIANTS.items():
            out[f"ablations/{name}/{variant}"] = measure(program, options, store, scale)[1]
    out["ablations/grouped/default/workers=4"] = measure(
        programs["grouped"], CompilerOptions(), store, scale, ExecutionOptions(workers=4))[1]
    return out


# -- comparison ----------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["entries"]


@pytest.fixture(scope="module")
def store():
    return generate(0.01, seed=42)


def assert_matches(key, record, golden):
    expected = golden[key]
    assert record["kernels"] == expected["kernels"], key
    assert record["summary"] == expected["summary"], key
    for part, seconds in expected["breakdown"].items():
        assert record["breakdown"][part] == pytest.approx(seconds, rel=1e-9, abs=0.0), (key, part)


def assert_same_outputs(reference, other, label):
    assert set(reference) == set(other), label
    for name, ref in reference.items():
        got = other[name]
        assert len(ref) == len(got) and ref.paths == got.paths, (label, name)
        for path in ref.paths:
            assert np.array_equal(ref.present(path), got.present(path)), (label, name, str(path))
            a, b = ref.attr(path), got.attr(path)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (label, name, str(path))


def seconds(record):
    return sum(record["breakdown"].values())


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_tpch_prices(store, golden, number):
    program, entries = tpch_entries(store, number)
    reference = entries["default"][0]
    for variant, (outputs, record) in entries.items():
        assert_matches(f"tpch/q{number}/{variant}", record, golden)
        assert_same_outputs(reference, outputs, (number, variant))
    # the directions of TestAblations, on every query
    price = {variant: seconds(record) for variant, (_, record) in entries.items()}
    kernels = {variant: record["kernels"] for variant, (_, record) in entries.items()}
    assert kernels["op-at-a-time"] > kernels["default"]
    assert price["op-at-a-time"] > price["default"]
    assert price["no-slot-suppression"] >= price["default"]
    # a knob that changes nothing the program has changes no price (at this
    # scale a landed scatter is often the cheaper one: n writes once, not
    # n per aggregate — the direction is the ablation micro's, below)
    assert (price["no-virtual-scatter"] != price["default"]) == bool(
        FragmentPlan(program, VARIANTS["default"]).virtual_scatters)
    assert (price["branch-free"] != price["default"]) == any(
        isinstance(node, ops.FoldSelect) for node in program.order)
    assert price["gpu"] != price["default"]


def test_micro_prices(golden):
    entries = micro_entries()
    assert set(golden) == set(entries) | {
        f"tpch/q{number}/{variant}" for number in QUERIES for variant in VARIANTS
    }
    for key, record in entries.items():
        assert_matches(key, record, golden)
    price = {key: seconds(record) for key, record in entries.items()}
    assert price["ablations/filter-sum/default"] < price["ablations/filter-sum/op-at-a-time"]
    assert price["ablations/grouped/default"] < price["ablations/grouped/no-virtual-scatter"]
    assert (price["ablations/filter-sum/default"]
            <= price["ablations/filter-sum/no-slot-suppression"])
    # X100 chunk residency is per core: four cores' buffers cost more cache
    assert (price["selection/Vectorized (BF)/cpu-mt/0.5/workers=4"]
            != price["selection/Vectorized (BF)/cpu-mt/0.5"])


def test_reads_are_charged_per_kernel_and_per_stored_column():
    """What a kernel pays to read a column depends on the program, not on
    object identity: a loaded column read by two operators of one kernel
    (once through a re-projection) is charged once, read in two kernels
    twice, and a column computed inside the kernel never."""
    b = Builder({"t": Schema({".g": "int64", ".v": "float64"})})
    t = b.load("t")
    x = b.add(t.project(".v"), b.constant(1.0), out=".x")
    y = b.multiply(b.zip(t, x), x, out=".y", left_kp=".v", right_kp=".x")
    broken = b.break_(y)  # closes the first kernel; y now lives in memory
    z = b.add(b.zip(broken, t), t, out=".z", left_kp=".y", right_kp=".v")
    compiled = compile_program(b.build(y=broken, z=z))
    first, second = compiled.plan.fragments
    assert [node.opname for node in first.nodes] == ["Binary", "Zip", "Binary", "Break"]
    assert [node.opname for node in second.nodes] == ["Binary"]
    store = {"t": StructuredVector(8, {".g": np.arange(8), ".v": np.arange(8.0)})}
    reads = []
    for _ in range(2):  # the same charges from one run to the next
        _, trace = compiled.run(store)
        reads.append([(event.fragment, event.label, event.bytes_read_seq)
                      for event in trace.events() if event.label.startswith("read")])
    assert reads[0] == reads[1] == [(0, "read.v", 64), (1, "read.y", 64), (1, "read.v", 64)]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/compiler/test_pricing.py "why the moved entries moved"
    import sys

    before = json.loads(GOLDEN.read_text())
    tpch = generate(0.01, seed=42)
    recorded = micro_entries()
    for number in sorted(QUERIES):
        for variant, (_, record) in tpch_entries(tpch, number)[1].items():
            recorded[f"tpch/q{number}/{variant}"] = record
    recorded = json.loads(json.dumps(recorded))  # as the file holds them
    moved = [key for key, record in recorded.items() if before["entries"].get(key) != record]
    reason = " ".join(sys.argv[1:])
    if moved and not reason:
        sys.exit(f"{len(moved)} entries moved ({', '.join(moved)}): pass the reason")
    # the commit stays the one whose traced runs the unmoved entries pin
    GOLDEN.write_text(json.dumps({
        "commit": before["commit"], "entries": dict(sorted(recorded.items())),
        "rerecorded": {**before.get("rerecorded", {}), **dict.fromkeys(moved, reason)},
    }, indent=1) + "\n")
    print(f"wrote {len(recorded)} entries to {GOLDEN}, {len(moved)} moved: {moved}")
