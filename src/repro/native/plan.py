"""Chain planning for the native tier.

Identifies the map operators worth running over raw arrays
(:func:`plan_raw_chains`: Binary/Unary over concrete columns and
constants, never symbolic control vectors) and groups consecutive ones
into :class:`NativeChain` specs — the unit one C kernel computes in a
single pass over its inputs.  Operators whose NumPy semantics cannot be
replicated exactly in portable C (``BitShift`` count overflow,
``IsPresent`` mask reification) split chains at plan time; dtype-level
exclusions happen later, at specialization time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.metadata import MetadataPass
from repro.core import ops
from repro.core.keypath import Keypath
from repro.core.program import Program

#: Binary ops the C emitter replicates bit-exactly (BitShift excluded:
#: NumPy's always-int64 result plus shift counts >= 64 are C UB).
SUPPORTED_BINARY = frozenset(
    {
        "Add", "Subtract", "Multiply", "Divide", "Modulo", "LogicalAnd",
        "LogicalOr", "Greater", "GreaterEqual", "Less", "LessEqual",
        "Equals", "NotEquals",
    }
)

#: Unary ops the C emitter handles (IsPresent reifies masks — Python's job).
SUPPORTED_UNARY = frozenset({"LogicalNot", "Negate", "Cast"})

#: Minimum operators per chain: a single operator gains nothing over the
#: already-raw Python statement, so it is not worth a kernel launch.
MIN_STEPS = 2


def _classify(metadata, src: ops.Op, kp: Keypath | None, raw: set[int]):
    """How a raw map operator reads one operand, or None if the
    operator must stay in the runtime's value world."""
    if kp is None:
        return None
    if isinstance(src, ops.Constant):
        return ("const", src)
    if id(src) in raw:
        # a raw producer exposes exactly its `out` attribute as locals
        return ("local", src) if kp == src.out else ("ext", src, kp)
    if metadata.is_virtual(src):
        return None  # keep Range/constant chains symbolic in the runtime
    if metadata.info(src, kp) is not None:
        return None  # control-vector metadata: the runtime derives it
    return ("ext", src, kp)


def plan_raw_chains(program: Program, metadata) -> dict[int, list[tuple]]:
    """The operand classes of every Binary/Unary of *program* that can
    run over bare ``(array, mask)`` pairs, keyed by node id."""
    raw: set[int] = set()
    raw_sides: dict[int, list[tuple]] = {}
    for node in program.order:
        if isinstance(node, ops.Binary):
            if metadata.is_virtual(node) or metadata.info(node, node.out) is not None:
                continue
            left = _classify(metadata, node.left, node.left_kp, raw)
            right = _classify(metadata, node.right, node.right_kp, raw)
            if left is None or right is None:
                continue
            if left[0] == "const" and right[0] == "const":
                continue  # length-1 results stay in the runtime
            raw.add(id(node))
            raw_sides[id(node)] = [left, right]
        elif isinstance(node, ops.Unary):
            if metadata.is_virtual(node):
                continue
            source = _classify(metadata, node.source, node.source_kp, raw)
            if source is None:
                continue
            raw.add(id(node))
            raw_sides[id(node)] = [source]
    return raw_sides


@dataclass
class Step:
    """One operator inside a chain.

    ``refs`` name the operands: ``("in", k)`` reads chain input *k*,
    ``("step", j)`` reads the result of step *j*, ``("const", dtype,
    value)`` is an inline literal.
    """

    fn: str
    kind: str  # "binary" | "unary"
    refs: list[tuple]
    dtype: str | None = None  # Cast target / Unary result dtype
    node: ops.Op = None


@dataclass
class NativeChain:
    """A maximal run of raw map operators servable by one C kernel."""

    steps: list[Step]
    #: deduplicated external reads: (source node, keypath)
    inputs: list[tuple]
    #: step indices whose results are consumed outside the chain
    outputs: list[int] = field(default_factory=list)

    @property
    def head(self) -> ops.Op:
        return self.steps[0].node


def plan_native_chains(
    program: Program, metadata: MetadataPass | None = None
) -> list[NativeChain]:
    """All native-servable chains of a program, in program order."""
    metadata = metadata or MetadataPass(program)
    raw_sides = plan_raw_chains(program, metadata)

    # maximal consecutive runs of supported raw nodes in program order
    groups: list[list[ops.Op]] = []
    current: list[ops.Op] = []
    for node in program.order:
        sides = raw_sides.get(id(node))
        supported = sides is not None and (
            node.fn in SUPPORTED_BINARY
            if isinstance(node, ops.Binary)
            else node.fn in SUPPORTED_UNARY
        )
        if supported:
            current.append(node)
        elif current:
            groups.append(current)
            current = []
    if current:
        groups.append(current)

    consumers: dict[int, list[ops.Op]] = {}
    for node in program.order:
        for child in node.inputs():
            consumers.setdefault(id(child), []).append(node)
    output_ids = {id(n) for n in program.outputs.values()}

    chains: list[NativeChain] = []
    for group in groups:
        if len(group) < MIN_STEPS:
            continue
        member_index = {id(n): j for j, n in enumerate(group)}
        inputs: list[tuple] = []
        input_index: dict[tuple, int] = {}

        def input_ref(src: ops.Op, kp) -> tuple:
            key = (id(src), kp)
            k = input_index.get(key)
            if k is None:
                k = input_index[key] = len(inputs)
                inputs.append((src, kp))
            return ("in", k)

        steps: list[Step] = []
        for node in group:
            refs: list[tuple] = []
            for side in raw_sides[id(node)]:
                if side[0] == "const":
                    const = side[1]
                    refs.append(("const", const.dtype, const.value))
                elif side[0] == "local":
                    src = side[1]
                    j = member_index.get(id(src))
                    if j is not None:
                        refs.append(("step", j))
                    else:
                        # raw producer in an earlier chain: external read
                        refs.append(input_ref(src, src.out))
                else:
                    refs.append(input_ref(side[1], side[2]))
            steps.append(
                Step(
                    fn=node.fn,
                    kind="binary" if isinstance(node, ops.Binary) else "unary",
                    refs=refs,
                    dtype=getattr(node, "dtype", None),
                    node=node,
                )
            )

        outputs = [
            j
            for j, node in enumerate(group)
            if id(node) in output_ids
            or any(
                id(c) not in member_index for c in consumers.get(id(node), ())
            )
        ]
        chains.append(NativeChain(steps=steps, inputs=inputs, outputs=outputs))
    return chains
