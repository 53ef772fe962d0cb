"""Ablations of the compiler's design choices.

Quantifies what each backend mechanism buys by turning it off: fragment
fusion (→ operator-at-a-time), virtual scatter (→ materialized partition
scatter), empty-slot suppression (→ padded fold buffers), and the
declarative intent knob of Figures 3/4.
"""

import pytest

from repro.bench import ablations
from repro.compiler import CompilerOptions, compile_program


def test_ablation_fragment_fusion(benchmark, capsys):
    store = ablations._store(1 << 19)
    program = ablations.filter_sum_program()
    compiled = compile_program(program, CompilerOptions(fuse=True))
    benchmark.pedantic(lambda: compiled.simulate(store), rounds=3, iterations=1)

    results = ablations.ablate_fusion()
    with capsys.disabled():
        print(f"\nfragment fusion: fused={results['fused']:.3f}s "
              f"operator-at-a-time={results['operator-at-a-time']:.3f}s "
              f"({results['operator-at-a-time'] / results['fused']:.1f}x)")
    assert results["fused"] < results["operator-at-a-time"]


def test_ablation_virtual_scatter(benchmark, capsys):
    store = ablations._store(1 << 19)
    program = ablations.grouped_aggregation_program()
    compiled = compile_program(program, CompilerOptions(virtual_scatter=True))
    benchmark.pedantic(lambda: compiled.simulate(store), rounds=3, iterations=1)

    results = ablations.ablate_virtual_scatter()
    with capsys.disabled():
        print(f"\nvirtual scatter: virtual={results['virtual']:.3f}s "
              f"materialized={results['materialized']:.3f}s "
              f"({results['materialized'] / results['virtual']:.1f}x)")
    assert results["virtual"] < results["materialized"]


def test_ablation_slot_suppression(benchmark, capsys):
    store = ablations._store(1 << 19)
    program = ablations.filter_sum_program()
    compiled = compile_program(program, CompilerOptions(slot_suppression=True))
    benchmark.pedantic(lambda: compiled.simulate(store), rounds=3, iterations=1)

    results = ablations.ablate_slot_suppression()
    with capsys.disabled():
        print(f"\nslot suppression: suppressed={results['suppressed']:.3f}s "
              f"padded={results['padded']:.3f}s "
              f"({results['padded'] / results['suppressed']:.1f}x)")
    assert results["suppressed"] <= results["padded"]


@pytest.mark.parametrize("device", ["cpu-mt", "gpu"])
def test_ablation_intent_sweep(benchmark, device, capsys):
    store = ablations._store(1 << 19)
    program = ablations.hierarchical_sum_program(8192)
    compiled = compile_program(program, CompilerOptions(device=device))
    benchmark.pedantic(lambda: compiled.simulate(store), rounds=3, iterations=1)

    figure = ablations.intent_sweep(device=device)
    with capsys.disabled():
        print()
        print(figure.render(precision=4))
