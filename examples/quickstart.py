"""Quickstart: build, inspect and execute your first Voodoo program.

Reproduces the paper's Figure 3 — multithreaded hierarchical aggregation —
and shows every artifact of the stack: the SSA listing, the fragment plan
(extent/intent), the generated kernel source, the pseudo-OpenCL rendering,
and simulated performance across device profiles.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.compiler import CompilerOptions, compile_program
from repro.core import Builder, StructuredVector
from repro.core.printer import summarize, to_ssa
from repro.hardware import available_devices
from repro.interpreter import Interpreter


def build_hierarchical_sum(store):
    """Figure 3: partial sums per 1024-element partition, then a total."""
    b = Builder({"input": store["input"].schema})
    inp = b.load("input")                                  # 1  Load
    ids = b.range(inp)                                     # 2  Range
    partition_size = b.constant(1024)                      # 3  Constant
    pids = b.divide(ids, partition_size, out=".partition")  # 4 Divide
    with_parts = b.zip(inp, pids)                          # 6  Zip
    psum = b.fold_sum(with_parts, agg_kp=".val",
                      fold_kp=".partition", out=".psum")   # 8  FoldSum
    total = b.fold_sum(psum, agg_kp=".psum", out=".total")  # 9 FoldSum
    return b.build(total=total)


def main():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 100, 1 << 20).astype(np.int64)
    store = {"input": StructuredVector.single(".val", values)}

    program = build_hierarchical_sum(store)
    print("=== Voodoo program (SSA form, paper Figure 3) ===")
    print(to_ssa(program))
    print()
    print("summary:", summarize(program))

    # The reference interpreter: bulk-processing, every intermediate
    # materialized and inspectable (paper section 3.2).
    interp_out = Interpreter(store).run(program)["total"]
    got = interp_out.attr(".total")[interp_out.present(".total")][0]
    print(f"\ninterpreter result: {got}  (numpy check: {values.sum()})")

    # The compiling backend: control-vector metadata -> fragments, one
    # kernel each (paper section 3.1).
    compiled = compile_program(program)
    print("\n=== fragment plan (extent/intent) ===")
    print(compiled.plan.describe())
    print("\n=== kernels (pseudo-OpenCL rendering) ===")
    print(compiled.source)

    print("\n=== simulated performance across devices ===")
    for device in available_devices():
        dev_compiled = compile_program(program, CompilerOptions(device=device))
        outputs, report = dev_compiled.simulate(store)
        out = outputs["total"]
        result = out.attr(".total")[out.present(".total")][0]
        assert result == values.sum()
        print(f"  {device:8s}: {report.milliseconds:8.3f} ms "
              "(breakdown: "
          + ", ".join(f"{k}={v * 1e3:.3f}ms" for k, v in report.breakdown().items())
          + ")")


if __name__ == "__main__":
    main()
