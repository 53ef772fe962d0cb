"""The paper's Figure 4: re-targeting parallelism is a two-line diff.

The same hierarchical aggregation runs multithreaded (long runs, one per
core) or SIMD-style (round-robin lane ids) by changing only how the
control vector is generated — ``Divide`` by a partition size versus
``Modulo`` by a lane count.  In C this is a rewrite (the paper's Figures
5 vs 6); in Voodoo it is the two lines this script highlights.

The ``workers`` knob extends the same idea to *real* cores: the
partition-parallel backend splits the multithreaded program along its
control-vector runs and executes the chunks on a worker pool
(``ParallelInterpreter(storage, workers=N)``) once a plan carries enough
work to pay for the hand-off — this small input runs whole — while
``ExecutionOptions(workers=N)`` re-prices the compiled kernels' trace on
an N-core device profile.  Both are demonstrated below.

Run:  python examples/simd_vs_multicore.py
"""

import numpy as np

from repro.compiler import CompilerOptions, ExecutionOptions, compile_program
from repro.core import Builder, StructuredVector
from repro.core.printer import to_ssa
from repro.parallel import ParallelInterpreter


def multithreaded(b, inp):
    """Figure 3: contiguous runs of 1024 -> one partition per worker."""
    ids = b.range(inp)
    partition_size = b.constant(1024)                      # <- the knob
    pids = b.divide(ids, partition_size, out=".partition")  # <- the knob
    zipped = b.zip(inp, pids)
    psum = b.fold_sum(zipped, agg_kp=".val", fold_kp=".partition", out=".psum")
    return b.fold_sum(psum, agg_kp=".psum", out=".total")


def simd(b, inp):
    """Figure 4: circular lane ids -> round-robin scatter onto SIMD lanes."""
    ids = b.range(inp)
    lane_count = b.constant(8)                             # <- the knob
    lanes = b.modulo(ids, lane_count, out=".partition")    # <- the knob
    positions = b.partition(lanes, b.range(8, out=".pv"), out=".pos")
    zipped = b.zip(inp, lanes)
    scattered = b.scatter(zipped, positions, pos_kp=".pos")
    psum = b.fold_sum(scattered, agg_kp=".val", fold_kp=".partition", out=".psum")
    return b.fold_sum(psum, agg_kp=".psum", out=".total")


def main():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 1000, 1 << 18).astype(np.int64)
    store = {"input": StructuredVector.single(".val", values)}
    expected = values.sum()

    for label, builder_fn in (("multithreaded (Divide)", multithreaded),
                              ("SIMD lanes (Modulo)", simd)):
        b = Builder({"input": store["input"].schema})
        program = b.build(total=builder_fn(b, b.load("input")))
        print(f"=== {label} ===")
        print(to_ssa(program))
        compiled = compile_program(program, CompilerOptions(device="cpu-mt"))
        outputs, report = compiled.simulate(store)
        out = outputs["total"]
        got = out.attr(".total")[out.present(".total")][0]
        assert got == expected, (got, expected)
        print(f"result: {got} OK | fragments: {compiled.kernel_count()} | "
              f"simulated {report.milliseconds:.3f} ms\n")

    print("the two programs differ in two assignments — compare the paper's")
    print("Figure 5 (TBB) and Figure 6 (intrinsics), which share one line.")

    # -- the workers knob: same multithreaded program, real cores ---------
    b = Builder({"input": store["input"].schema})
    program = b.build(total=multithreaded(b, b.load("input")))
    parallel = ParallelInterpreter(store, workers=4)
    out = parallel.run(program)["total"]
    got = out.attr(".total")[out.present(".total")][0]
    assert got == expected, (got, expected)
    plan = parallel.last_plan
    if plan is not None and plan.parallel:
        how = f"chunks {plan.chunks} (boundaries on control-vector runs)"
    else:  # too little work to pay for the pool, or one core: the program ran whole
        how = f"ran whole ({plan.reason if plan is not None else 'one core'})"
    print(f"\nParallelInterpreter(workers=4): result {got} OK | {how}")

    compiled = compile_program(program, CompilerOptions(device="cpu-mt"))
    for w in (1, 4):
        _, report = compiled.simulate(store, execution=ExecutionOptions(workers=w))
        print(f"simulated on {w} core(s): {report.milliseconds:.3f} ms")


if __name__ == "__main__":
    main()
