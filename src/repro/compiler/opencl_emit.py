"""Pseudo-OpenCL rendering of compiled fragments.

The paper's backend emits OpenCL C; this reproduction executes NumPy
kernels but renders the *same fragment structure* as OpenCL-style source
for inspection, documentation and tests.  One ``__kernel`` per fragment;
operators fused into a fragment appear as straight-line statements over
the work-item index; seams become ``__global`` buffer writes.
"""

from __future__ import annotations

from repro.compiler.clower import BINARY_C as _BINARY_C
from repro.compiler.clower import c_name as _c_name
from repro.compiler.clower import loop_header, unary_prefix
from repro.compiler.fragments import FragmentPlan
from repro.core import ops


class OpenCLEmitter:
    """Renders a fragment plan as pseudo-OpenCL C text."""

    def __init__(self, plan: FragmentPlan):
        self.plan = plan
        self.names: dict[int, str] = {}
        for i, node in enumerate(plan.program.order):
            self.names[id(node)] = f"v{i}"

    def emit(self) -> str:
        chunks = ["// pseudo-OpenCL emitted by repro.compiler.opencl_emit"]
        for fragment in self.plan.fragments:
            chunks.append(self._emit_fragment(fragment))
        return "\n\n".join(chunks)

    def _emit_fragment(self, fragment) -> str:
        header = self._signature(fragment)
        body, indent, needs_close = loop_header(fragment.intent)
        body = list(body)
        for node in fragment.nodes:
            body.extend(indent + line for line in self._emit_node(node))
            if self.plan.is_materialized(node):
                name = self.names[id(node)]
                body.append(f"{indent}out_{name}[i] = {name};  // fragment seam")
        if needs_close:
            body.append("  }")
        return header + " {\n" + "\n".join(body) + "\n}"

    def _signature(self, fragment) -> str:
        loads = sorted(
            {
                f"__global const void* {n.name}"
                for node in fragment.nodes
                for n in node.walk()
                if isinstance(n, ops.Load)
            }
        )
        params = ", ".join(loads + ["const size_t n"])
        return f"__kernel void fragment_{fragment.index}({params})"

    # -- statements -----------------------------------------------------------

    def _ref(self, node: ops.Op) -> str:
        if isinstance(node, ops.Constant):
            return repr(node.value)
        return self.names[id(node)]

    def _emit_node(self, node: ops.Op) -> list[str]:
        name = self.names[id(node)]
        if isinstance(node, ops.Binary):
            op = _BINARY_C[node.fn]
            return [
                f"auto {name} = {self._ref(node.left)}.{_c_name(node.left_kp)} "
                f"{op} {self._ref(node.right)}.{_c_name(node.right_kp)};"
            ]
        if isinstance(node, ops.Unary):
            operand = f"{self._ref(node.source)}.{_c_name(node.source_kp)}"
            if node.fn == "IsPresent":  # ε-ness has no C operator
                return [f"auto {name} = is_present({operand});"]
            return [f"auto {name} = {unary_prefix(node.fn, node.dtype)}{operand};"]
        if isinstance(node, ops.Gather):
            return [
                f"auto {name} = {self._ref(node.source)}"
                f"[{self._ref(node.positions)}.{_c_name(node.pos_kp)}];  // gather"
            ]
        if isinstance(node, ops.Scatter):
            virtual = " (virtual)" if self.plan.is_virtual_scatter(node) else ""
            return [
                f"// scatter{virtual}: {name}[{self._ref(node.positions)}."
                f"{_c_name(node.pos_kp)}] = {self._ref(node.data)};"
            ]
        if isinstance(node, ops.FoldSelect):
            return [
                f"if ({self._ref(node.source)}.{_c_name(node.sel_kp)}) "
                f"{name}[cursor++] = i;  // foldSelect"
            ]
        if isinstance(node, ops.FoldAggregate):
            op = {"sum": "+=", "max": "= max", "min": "= min"}[node.fn]
            return [
                f"{name} {op} {self._ref(node.source)}.{_c_name(node.agg_kp)};"
                f"  // fold{node.fn}"
            ]
        if isinstance(node, ops.FoldScan):
            return [f"{name} = scan_acc += {self._ref(node.source)}.{_c_name(node.s_kp)};"]
        if isinstance(node, ops.FoldCount):
            return [f"{name} += 1;  // foldCount"]
        if isinstance(node, ops.Partition):
            return [
                f"auto {name} = partition_position({self._ref(node.source)}."
                f"{_c_name(node.kp)}, pivots);"
            ]
        if isinstance(node, (ops.Break, ops.Materialize)):
            return [f"auto {name} = {self._ref(node.source)};  // pipeline breaker"]
        if isinstance(node, ops.Persist):
            return [f"persist(\"{node.name}\", {self._ref(node.source)});"]
        if isinstance(node, ops.Zip):
            return [
                f"auto {name} = zip({self._ref(node.left)}, {self._ref(node.right)});"
            ]
        if isinstance(node, (ops.Project, ops.Upsert, ops.Cross)):
            refs = ", ".join(self._ref(c) for c in node.inputs())
            return [f"auto {name} = {node.opname.lower()}({refs});"]
        return [f"// {node.opname}"]


def emit_opencl(plan: FragmentPlan) -> str:
    """Pseudo-OpenCL text for a fragment plan."""
    return OpenCLEmitter(plan).emit()
