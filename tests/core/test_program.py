"""Program structure: topological order, interning, validation."""

import pytest

from repro.core import Builder, Schema, kp
from repro.core import ops
from repro.core.program import Interner, Program
from repro.errors import ProgramError


def schema():
    return {"t": Schema({".v": "int64"})}


def simple_program():
    b = Builder(schema())
    t = b.load("t")
    doubled = b.add(t, t, out=".v2", left_kp=".v", right_kp=".v")
    total = b.fold_sum(doubled, agg_kp=".v2", out=".s")
    return b.build(total=total), b


class TestTopologicalOrder:
    def test_inputs_before_consumers(self):
        program, _ = simple_program()
        seen = set()
        for node in program:
            for child in node.inputs():
                assert id(child) in seen
            seen.add(id(node))

    def test_shared_nodes_appear_once(self):
        program, _ = simple_program()
        ids = [id(n) for n in program]
        assert len(ids) == len(set(ids))

    def test_deep_chain_no_recursion_error(self):
        b = Builder(schema())
        v = b.load("t")
        for _ in range(3000):
            v = b.add(v, b.constant(1), out=".v", left_kp=".v")
        program = b.build(out=v)
        assert len(program.order) > 3000


class TestInterning:
    def test_structurally_equal_nodes_shared(self):
        b = Builder(schema())
        t = b.load("t")
        x1 = b.add(t, b.constant(1), out=".x", left_kp=".v")
        x2 = b.add(t, b.constant(1), out=".x", left_kp=".v")
        assert x1.node is x2.node

    def test_different_params_not_shared(self):
        b = Builder(schema())
        t = b.load("t")
        x1 = b.add(t, b.constant(1), out=".x", left_kp=".v")
        x2 = b.add(t, b.constant(2), out=".x", left_kp=".v")
        assert x1.node is not x2.node

    def test_interner_len(self):
        interner = Interner()
        a = interner.intern(ops.Load(name="t"))
        b = interner.intern(ops.Load(name="t"))
        assert a is b
        assert len(interner) == 1


class TestProgram:
    def test_requires_outputs(self):
        with pytest.raises(ProgramError):
            Program({})

    def test_shared_load_feeds_both_sides(self):
        program, _ = simple_program()
        (load,) = program.loads()
        (add,) = [n for n in program if isinstance(n, ops.Binary)]
        # one Load node, read by both sides of the Add
        assert add.inputs() == (load, load)

    def test_duplicate_persist_rejected(self):
        b = Builder(schema())
        t = b.load("t")
        p1 = b.persist("x", t)
        # second persist with same name is a distinct node (different source)
        q = b.fold_sum(t, agg_kp=".v", out=".s")
        p2 = b.persist("x", q)
        with pytest.raises(ProgramError):
            b.build(a=p1, b=p2)


class TestOpBasics:
    def test_categories(self):
        assert ops.Load(name="x").category == "maintenance"
        assert ops.Range(out=kp(".i"), start=0, sizeref=None, size=5, step=1).category == "shape"

    def test_unknown_binary_rejected(self):
        with pytest.raises(ProgramError):
            ops.Binary(fn="Frobnicate", out=kp(".x"), left=ops.Load(name="t"),
                       left_kp=kp(".v"), right=ops.Load(name="t"), right_kp=kp(".v"))

    def test_range_requires_exactly_one_size(self):
        with pytest.raises(ProgramError):
            ops.Range(out=kp(".i"), start=0, sizeref=None, size=None, step=1)
        with pytest.raises(ProgramError):
            ops.Range(out=kp(".i"), start=0, sizeref=ops.Load(name="t"), size=3, step=1)

    def test_zip_requires_paired_out_kp(self):
        load = ops.Load(name="t")
        with pytest.raises(ProgramError):
            ops.Zip(out1=kp(".a"), left=load, kp1=None, out2=None, right=load, kp2=None)

    def test_walk_visits_once(self):
        program, _ = simple_program()
        root = list(program.outputs.values())[0]
        nodes = list(root.walk())
        assert len(nodes) == len({id(n) for n in nodes})
