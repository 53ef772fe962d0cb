"""Kernel code generation.

Turns a :class:`FragmentPlan` into executable Python source: one straight
line of runtime calls per operator, grouped into kernels by fragment, with
explicit seam materializations.  The source is genuinely generated text —
compiled with :func:`compile`, cached per program, and inspectable via
``CompiledProgram.source`` — mirroring the paper's JIT generation of
OpenCL kernels (a pseudo-OpenCL rendering of the same fragments is
available from :mod:`repro.compiler.opencl_emit`).

The generated code calls into :class:`repro.compiler.rt.Runtime`, which
computes results *and* emits the priced operation trace.  Untraced runs
need no generated code at all: :mod:`repro.compiler.runner` dispatches
the program node by node.
"""

from __future__ import annotations

from repro.compiler.fragments import FragmentPlan
from repro.core import ops
from repro.core.keypath import Keypath
from repro.core.program import Program
from repro.errors import CompilationError


def _kp(path: Keypath | None) -> str:
    return "None" if path is None else f"KP({str(path)!r})"


class CodeGenerator:
    """Emits the Python source of one compiled program."""

    def __init__(self, plan: FragmentPlan):
        self.plan = plan
        self.program: Program = plan.program
        self.names: dict[int, str] = {}
        self.lines: list[str] = []

    def generate(self) -> str:
        self.lines = [
            "def __voodoo_main__(rt):",
            "    # generated by repro.compiler.codegen — do not edit",
        ]
        current_fragment: int | None = None
        for index, node in enumerate(self.program.order):
            name = f"n{index}"
            self.names[id(node)] = name
            frag = self.plan.fragment_of.get(id(node))
            if frag is not None and frag != current_fragment:
                fragment = self.plan.fragments[frag]
                self._line(
                    f"rt.begin_kernel({frag}, intent={fragment.intent}, "
                    f"segmented={fragment.segmented})"
                )
                current_fragment = frag
            self._emit_node(name, node)
            if self.plan.is_materialized(node) and not isinstance(
                node, (ops.Load, ops.Persist, ops.Break, ops.Materialize)
            ):
                self._line(f"{name} = rt.seam({name})")
        for out_name, node in self.program.outputs.items():
            self._line(f"rt.output({out_name!r}, {self.names[id(node)]})")
        self._line("return rt.outputs")
        return "\n".join(self.lines)

    # -- helpers ------------------------------------------------------------

    def _line(self, text: str) -> None:
        self.lines.append("    " + text)

    def _ref(self, node: ops.Op) -> str:
        return self.names[id(node)]

    # -- per-operator emission --------------------------------------------------

    def _emit_node(self, name: str, node: ops.Op) -> None:
        emitter = getattr(self, f"_emit_{type(node).__name__.lower()}", None)
        if emitter is None:
            raise CompilationError(f"codegen does not support {node.opname}")
        emitter(name, node)

    def _emit_load(self, name: str, node: ops.Load) -> None:
        self._line(f"{name} = rt.load({node.name!r})")

    def _emit_persist(self, name: str, node: ops.Persist) -> None:
        self._line(f"{name} = {self._ref(node.source)}")
        self._line(f"rt.output({node.name!r}, {name})")

    def _emit_binary(self, name: str, node: ops.Binary) -> None:
        self._line(
            f"{name} = rt.binary({node.fn!r}, {_kp(node.out)}, "
            f"{self._ref(node.left)}, {_kp(node.left_kp)}, "
            f"{self._ref(node.right)}, {_kp(node.right_kp)})"
        )

    def _emit_unary(self, name: str, node: ops.Unary) -> None:
        self._line(
            f"{name} = rt.unary({node.fn!r}, {_kp(node.out)}, "
            f"{self._ref(node.source)}, {_kp(node.source_kp)}, {node.dtype!r})"
        )

    def _emit_zip(self, name: str, node: ops.Zip) -> None:
        self._line(
            f"{name} = rt.zip({self._ref(node.left)}, {_kp(node.kp1)}, {_kp(node.out1)}, "
            f"{self._ref(node.right)}, {_kp(node.kp2)}, {_kp(node.out2)})"
        )

    def _emit_project(self, name: str, node: ops.Project) -> None:
        self._line(
            f"{name} = rt.project({_kp(node.out)}, {self._ref(node.source)}, {_kp(node.kp)})"
        )

    def _emit_upsert(self, name: str, node: ops.Upsert) -> None:
        self._line(
            f"{name} = rt.upsert({self._ref(node.target)}, {_kp(node.out)}, "
            f"{self._ref(node.value)}, {_kp(node.kp)})"
        )

    def _emit_gather(self, name: str, node: ops.Gather) -> None:
        self._line(
            f"{name} = rt.gather({self._ref(node.source)}, "
            f"{self._ref(node.positions)}, {_kp(node.pos_kp)})"
        )

    def _emit_scatter(self, name: str, node: ops.Scatter) -> None:
        sizeref = node.sizeref if node.sizeref is not None else node.positions
        keep = self.plan.is_virtual_scatter(node)
        self._line(
            f"{name} = rt.scatter({self._ref(node.data)}, {self._ref(node.positions)}, "
            f"{_kp(node.pos_kp)}, size={self._ref(sizeref)}.length, keep_virtual={keep})"
        )

    def _emit_materialize(self, name: str, node: ops.Materialize) -> None:
        chunk = None
        if node.control is not None and node.control_kp is not None:
            chunk = self.plan.metadata.static_run_length(node.control, node.control_kp)
            if chunk == 0:
                chunk = None
        self._line(f"{name} = rt.materialize({self._ref(node.source)}, chunk={chunk!r})")

    def _emit_break(self, name: str, node: ops.Break) -> None:
        self._line(f"{name} = rt.break_({self._ref(node.source)})")

    def _emit_partition(self, name: str, node: ops.Partition) -> None:
        self._line(
            f"{name} = rt.partition({_kp(node.out)}, {self._ref(node.source)}, "
            f"{_kp(node.kp)}, {self._ref(node.pivots)}, {_kp(node.pivot_kp)})"
        )

    def _emit_foldselect(self, name: str, node: ops.FoldSelect) -> None:
        self._line(
            f"{name} = rt.fold_select({_kp(node.out)}, {self._ref(node.source)}, "
            f"{_kp(node.sel_kp)}, {_kp(node.fold_kp)})"
        )

    def _emit_foldaggregate(self, name: str, node: ops.FoldAggregate) -> None:
        self._line(
            f"{name} = rt.fold_aggregate({node.fn!r}, {_kp(node.out)}, "
            f"{self._ref(node.source)}, {_kp(node.agg_kp)}, {_kp(node.fold_kp)})"
        )

    def _emit_foldscan(self, name: str, node: ops.FoldScan) -> None:
        self._line(
            f"{name} = rt.fold_scan({_kp(node.out)}, {self._ref(node.source)}, "
            f"{_kp(node.s_kp)}, {_kp(node.fold_kp)}, inclusive={node.inclusive})"
        )

    def _emit_foldcount(self, name: str, node: ops.FoldCount) -> None:
        self._line(
            f"{name} = rt.fold_count({_kp(node.out)}, {self._ref(node.source)}, "
            f"{_kp(node.counted_kp)}, {_kp(node.fold_kp)})"
        )

    def _emit_range(self, name: str, node: ops.Range) -> None:
        length = f"{self._ref(node.sizeref)}.length" if node.sizeref is not None else str(node.size)
        self._line(
            f"{name} = rt.range_({_kp(node.out)}, {node.start}, {node.step}, {length})"
        )

    def _emit_constant(self, name: str, node: ops.Constant) -> None:
        self._line(
            f"{name} = rt.constant({_kp(node.out)}, {node.value!r}, {node.dtype!r})"
        )

    def _emit_cross(self, name: str, node: ops.Cross) -> None:
        self._line(
            f"{name} = rt.cross({_kp(node.kp1)}, {self._ref(node.left)}, "
            f"{_kp(node.kp2)}, {self._ref(node.right)})"
        )


def generate_source(plan: FragmentPlan) -> str:
    """The executable Python source for a fragment plan."""
    return CodeGenerator(plan).generate()


def compile_source(source: str):
    """Compile generated source into the kernel entry point."""
    namespace: dict = {"KP": Keypath.parse}
    code = compile(source, "<voodoo-kernel>", "exec")
    exec(code, namespace)
    return namespace["__voodoo_main__"]
