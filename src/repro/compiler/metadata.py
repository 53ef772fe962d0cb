"""Static control-vector metadata inference (paper section 3.1.1).

Walks a program in topological order and derives, for every (node,
attribute) pair, the symbolic :class:`~repro.core.controlvector.RunInfo`
when the attribute is generated by ``Range`` arithmetic.  Nodes *all* of
whose attributes carry metadata are **virtual**: the backend never
materializes them — they exist purely to control parallelism (the purple
operators of the paper's Figure 8).
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from repro.core import ops
from repro.core.controlvector import RunInfo, constant_run, derive_runinfo
from repro.core.keypath import Keypath
from repro.core.program import Program


#: what a node without control-vector metadata carries
_NONE: MappingProxyType = MappingProxyType({})


class MetadataPass:
    """Infers RunInfo per (node, attribute) and the set of virtual nodes."""

    def __init__(self, program: Program):
        self.program = program
        #: id(node) -> {attribute: RunInfo}, for nodes carrying any
        self.runinfo: dict[int, dict[Keypath, RunInfo]] = {}
        #: id(node) -> scalar value, for Constant nodes
        self.constants: dict[int, int | float | bool] = {}
        #: ids of nodes that need no runtime representation
        self.virtual: set[int] = set()
        self._run()

    # -- queries --------------------------------------------------------------

    def info(self, node: ops.Op, path: Keypath) -> RunInfo | None:
        return self.runinfo.get(id(node), _NONE).get(path)

    def is_virtual(self, node: ops.Op) -> bool:
        return id(node) in self.virtual

    def static_run_length(self, node: ops.Op, path: Keypath) -> int | None:
        """Run length of a control attribute, independent of vector size.

        Returns ``None`` when unknown (data-derived control vector), a
        positive int for uniform runs, or ``0`` meaning "one run spanning
        the whole vector" (fully sequential).
        """
        info = self.info(node, path)
        if info is None:
            return None
        # (1 / step is whole exactly when the reduced step is 1 / d)
        whole = info.period <= 1 or info.step.numerator == 1
        return info.period if whole else None

    # -- inference ---------------------------------------------------------------

    def _run(self) -> None:
        for node in self.program:
            handler = getattr(self, f"_visit_{type(node).__name__.lower()}", None)
            if handler is not None:
                handler(node)

    def _set(self, node: ops.Op, path: Keypath, info: RunInfo) -> None:
        self.runinfo.setdefault(id(node), {})[path] = info

    def _visit_range(self, node: ops.Range) -> None:
        self._set(node, node.out, RunInfo(start=node.start, step=Fraction(node.step)))
        self.virtual.add(id(node))

    def _visit_constant(self, node: ops.Constant) -> None:
        if isinstance(node.value, (int, bool)):
            self._set(node, node.out, constant_run(int(node.value)))
        self.constants[id(node)] = node.value
        self.virtual.add(id(node))

    def _visit_binary(self, node: ops.Binary) -> None:
        info = self.info(node.left, node.left_kp)
        other = self.constants.get(id(node.right))
        if info is None or not isinstance(other, (int, bool)):
            return
        derived = derive_runinfo(node.fn, info, int(other))
        if derived is None:
            return
        self._set(node, node.out, derived)
        # A binary over a virtual vector and a constant is itself virtual.
        if id(node.left) in self.virtual:
            self.virtual.add(id(node))

    def _visit_zip(self, node: ops.Zip) -> None:
        self._propagate_side(node, node.left, node.kp1, node.out1)
        self._propagate_side(node, node.right, node.kp2, node.out2)

    def _propagate_side(
        self, node: ops.Op, source: ops.Op, kp: Keypath | None, out: Keypath | None
    ) -> None:
        for path, info in self.runinfo.get(id(source), _NONE).items():
            if kp is None:
                self._set(node, path, info)
            elif path == kp:
                self._set(node, out, info)
            elif path.startswith(kp):
                self._set(node, path.rebase(kp, out), info)

    def _visit_project(self, node: ops.Project) -> None:
        self._propagate_side(node, node.source, node.kp, node.out)

    def _visit_upsert(self, node: ops.Upsert) -> None:
        for path, info in self.runinfo.get(id(node.target), _NONE).items():
            if path != node.out:
                self._set(node, path, info)
        value_info = self.info(node.value, node.kp)
        if value_info is not None:
            self._set(node, node.out, value_info)

    def _visit_break(self, node: ops.Break) -> None:
        self._passthrough(node, node.source)

    def _visit_materialize(self, node: ops.Materialize) -> None:
        self._passthrough(node, node.source)

    def _visit_persist(self, node: ops.Persist) -> None:
        self._passthrough(node, node.source)

    def _passthrough(self, node: ops.Op, source: ops.Op) -> None:
        for path, info in self.runinfo.get(id(source), _NONE).items():
            self._set(node, path, info)
