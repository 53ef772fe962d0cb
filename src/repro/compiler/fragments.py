"""Fragment assignment: the paper's extent/intent pipeline analysis.

The compiler traverses the DAG in dependency order and appends every
operator to a code *fragment* (section 3.1.1).  A fragment is a maximal
run of operators that execute in one kernel without a global barrier; all
values flowing between fragments are materialized ("result materialization
to memory only occurs at the seams between fragments").

Rules reproduced from the paper:

* data-parallel / maintenance / shape operators join the fragment of their
  inputs (aggressive inlining between pipeline breakers);
* a fold with runs of length 1 is fully data-parallel (case a);
* a fold with a single run spanning the vector is fully sequential and
  needs a fragment of extent 1 (case b — the global barrier of Figure 9);
* a fold with bounded runs (1 < L ≤ partition size) keeps the current
  fragment, locally reducing parallelism (case c — no global barrier);
* ``Break`` / ``Materialize`` / ``Persist`` close the producing fragment;
* ``Cross`` and ``Partition`` need whole-input knowledge and get fragments
  of their own;
* a virtual node (control vector) belongs to no fragment at all — it is
  metadata (the purple operators of Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.metadata import MetadataPass
from repro.compiler.options import CompilerOptions
from repro.compiler.runner import consumer_sets
from repro.core import ops
from repro.core.program import Program

#: intent value meaning "one run spans the whole vector" (fully sequential)
FULL = 0


@dataclass
class Fragment:
    """One generated kernel: a list of fused operators and its parallelism."""

    index: int
    intent: int = 1          # 1 = fully parallel; FULL = sequential; L = runs of L
    closed: bool = False
    nodes: list[ops.Op] = field(default_factory=list)

    def compatible_with_fold(self, run_length: int | None) -> bool:
        """Can a fold with this (static) run length join the fragment?"""
        if self.closed:
            return False
        if run_length is None:  # segmented fold: joins any open fragment
            return True
        if run_length == FULL:
            return self.intent == FULL
        if run_length == 1:
            return True
        return self.intent in (1, run_length)


class FragmentPlan:
    """The result of fragment assignment for one program."""

    def __init__(self, program: Program, options: CompilerOptions,
                 metadata: MetadataPass | None = None):
        self.program = program
        self.options = options
        self.metadata = metadata or MetadataPass(program)
        self.fragments: list[Fragment] = []
        self.fragment_of: dict[int, int] = {}
        self.materialized: set[int] = set()
        self.virtual_scatters: set[int] = set()
        self._assign()
        self._mark_materialized()

    # -- queries --------------------------------------------------------------

    def fragment_for(self, node: ops.Op) -> Fragment | None:
        idx = self.fragment_of.get(id(node))
        return self.fragments[idx] if idx is not None else None

    def is_materialized(self, node: ops.Op) -> bool:
        return id(node) in self.materialized

    def is_virtual_scatter(self, node: ops.Op) -> bool:
        return id(node) in self.virtual_scatters

    def kernel_count(self) -> int:
        return len(self.fragments)

    # -- assignment -----------------------------------------------------------------

    def _new_fragment(self, intent: int = 1) -> Fragment:
        frag = Fragment(index=len(self.fragments), intent=intent)
        self.fragments.append(frag)
        return frag

    def _candidate(self, node: ops.Op) -> Fragment | None:
        """The open fragment of the most recent fragment-bearing input."""
        best: Fragment | None = None
        for child in node.inputs():
            frag = self.fragment_for(child)
            if frag is not None and not frag.closed:
                if best is None or frag.index > best.index:
                    best = frag
        return best

    def _last_open(self) -> Fragment | None:
        for frag in reversed(self.fragments):
            if not frag.closed:
                return frag
        return None

    def _place(self, node: ops.Op, frag: Fragment) -> None:
        frag.nodes.append(node)
        self.fragment_of[id(node)] = frag.index

    def _assign(self) -> None:
        meta = self.metadata
        # (scatters only folds read, and no output: the runner's own set)
        fold_only = consumer_sets(self.program)[0]
        for node in self.program:
            if meta.is_virtual(node) or isinstance(node, ops.Load):
                continue  # no runtime fragment: metadata / storage input

            if not self.options.fuse:
                frag = self._new_fragment()
                self._place(node, frag)
                frag.closed = True
                continue

            if isinstance(node, (ops.Break, ops.Materialize, ops.Persist)):
                frag = self._candidate(node) or self._new_fragment()
                self._place(node, frag)
                frag.closed = True
                continue

            if isinstance(node, (ops.Cross, ops.Partition)):
                frag = self._new_fragment()
                self._place(node, frag)
                frag.closed = True
                continue

            if isinstance(node, ops.Scatter):
                if self.options.virtual_scatter and id(node) in fold_only:
                    self.virtual_scatters.add(id(node))
                    frag = self._candidate(node) or self._new_fragment()
                    self._place(node, frag)
                else:
                    frag = self._candidate(node) or self._new_fragment()
                    self._place(node, frag)
                    frag.closed = True
                continue

            if isinstance(node, ops.FoldOp):
                run_length = self._fold_run_length(node)
                frag = self._candidate(node)
                if frag is None:
                    last = self._last_open()
                    if last is not None and last.compatible_with_fold(run_length):
                        frag = last
                if frag is not None and frag.compatible_with_fold(run_length):
                    self._place(node, frag)
                    if run_length == FULL:
                        frag.intent = FULL
                    elif run_length is not None and run_length > 1 and frag.intent == 1:
                        frag.intent = run_length
                else:
                    frag = self._new_fragment(1 if run_length is None else run_length)
                    self._place(node, frag)
                continue

            # element-wise / gather / shape-with-runtime-size
            frag = self._candidate(node)
            if frag is None and isinstance(node, (ops.Zip, ops.Project, ops.Upsert)):
                # pure structural ops over loads are free renamings: defer
                # placement to their consumer instead of opening a kernel
                continue
            # independent data-parallel ops (e.g. predicates over different
            # columns of the same load) fuse into the open fragment rather
            # than launching kernels of their own
            frag = frag or self._last_open() or self._new_fragment()
            self._place(node, frag)

    def _fold_run_length(self, node: ops.FoldOp) -> int | None:
        """Static run length of the fold's control attribute (FULL, k, None)."""
        if node.fold_kp is None:
            return FULL
        return self.metadata.static_run_length(node.source, node.fold_kp)

    # -- seams --------------------------------------------------------------------------

    def _mark_materialized(self) -> None:
        for node in self.program:
            if self.metadata.is_virtual(node):
                continue  # virtual consumers (e.g. Range sizerefs) only
                          # need a length, never a materialized value
            frag = self.fragment_of.get(id(node))
            for child in node.inputs():
                child_frag = self.fragment_of.get(id(child))
                if child_frag is None:
                    continue  # loads and virtual nodes
                if child_frag != frag:
                    self.materialized.add(id(child))
        for out in self.program.outputs.values():
            if id(out) in self.fragment_of:
                self.materialized.add(id(out))

    # -- reporting ----------------------------------------------------------------------

    def describe(self) -> str:
        lines = []
        for frag in self.fragments:
            intent = {FULL: "sequential"}.get(frag.intent, f"intent={frag.intent}")
            names = ", ".join(n.opname for n in frag.nodes)
            lines.append(f"fragment {frag.index} ({intent}): {names}")
        return "\n".join(lines)
