"""Textual rendering of Voodoo programs.

The SSA form matches the paper's listings (Figure 3): one assignment per
node, operands referenced by their SSA names, parameters inline.
"""

from __future__ import annotations

from repro.core.program import Program


def to_ssa(program: Program) -> str:
    """Render the program one SSA assignment per line."""
    names: dict[int, str] = {}
    lines: list[str] = []
    for i, node in enumerate(program.order):
        name = f"v{i}"
        names[id(node)] = name
        args: list[str] = [names[id(child)] for child in node.inputs()]
        args += [f"{key}={val!s}" for key, val in node.params().items() if val is not None]
        lines.append(f"{name} := {node.opname}({', '.join(args)})")
    outs = ", ".join(f"{name}={names[id(node)]}" for name, node in program.outputs.items())
    lines.append(f"return {outs}")
    return "\n".join(lines)


def summarize(program: Program) -> str:
    """One-line-per-category statistics (used by examples and docs)."""
    counts: dict[str, int] = {}
    for node in program.order:
        counts[node.category] = counts.get(node.category, 0) + 1
    parts = [f"{cat}: {n}" for cat, n in sorted(counts.items())]
    breakers = sum(1 for n in program.order if n.pipeline_breaker)
    parts.append(f"pipeline breakers: {breakers}")
    return f"{len(program.order)} operators ({', '.join(parts)})"
