"""The one-pass structural key against the field-by-field definition.

``Op.structural_key()`` builds the hash-consing key and splits off
``inputs()`` in one pass over a node's fields.  These tests restate the
key and the split the long way — ``params()`` for the key, a second walk
over the fields for the inputs — and check every node of the TPC-H
programs and of fuzzed programs against them, plus the merge count of
the Builder's interner, which keys on the one-pass split.
"""

import pytest

from repro.core import ops
from repro.core.keypath import Keypath
from repro.core.program import Program
from repro.relational import EngineConfig, VoodooEngine
from repro.testing.qgen import generate_case
from repro.tpch import QUERIES, build, generate


def reference_key(node: ops.Op) -> tuple:
    """Operator type plus ``params()`` in field order: keypaths, names
    and None as themselves, everything else by repr."""
    key: list[object] = [type(node).__name__]
    for value in node.params().values():
        plain = value is None or isinstance(value, (Keypath, str))
        key.append(value if plain else repr(value))
    return tuple(key)


def reference_inputs(node: ops.Op) -> tuple:
    found: list[ops.Op] = []
    for name in node.field_names():
        value = getattr(node, name)
        if isinstance(value, ops.Op):
            found.append(value)
        elif isinstance(value, tuple) and value and all(isinstance(v, ops.Op) for v in value):
            found.extend(value)
    return tuple(found)


def reference_cse_size(program: Program) -> int:
    """How many nodes hash-consing keeps, keyed on :func:`reference_key`."""
    canonical: dict[tuple, ops.Op] = {}
    replacement: dict[int, ops.Op] = {}
    for node in program:
        inputs = tuple(id(replacement[id(child)]) for child in reference_inputs(node))
        key = (reference_key(node), inputs)
        if key in canonical and not isinstance(node, ops.Persist):
            replacement[id(node)] = canonical[key]
        else:
            replacement[id(node)] = canonical[key] = node
    return len({id(node) for node in replacement.values()})


def interned_size(program: Program) -> int:
    """How many nodes the :class:`~repro.core.program.Interner` would keep:
    classes of the key and inputs each node split off when it was made
    (``_key``, ``_inputs``), inputs by their own class."""
    table: dict[tuple, ops.Op] = {}
    canonical: dict[int, ops.Op] = {}
    for node in program:
        key = (node._key, tuple(id(canonical[id(child)]) for child in node._inputs))
        canonical[id(node)] = table.setdefault(key, node)
    return len(table)


def doubled(first: Program, second: Program) -> Program:
    """One program over two independent translations of the same query:
    every pure node of *second* duplicates one of *first*."""
    def unwrap(node):
        return node.source if isinstance(node, ops.Persist) else node

    outputs = {f"a_{name}": unwrap(node) for name, node in first.outputs.items()}
    outputs.update({f"b_{name}": unwrap(node) for name, node in second.outputs.items()})
    return Program(outputs)


def check_program(program: Program) -> None:
    for node in program:
        assert node.structural_key() == reference_key(node), node.opname
        assert node.inputs() == reference_inputs(node), node.opname
        assert all(a is b for a, b in zip(node.inputs(), reference_inputs(node)))


def check_merges(make_program) -> None:
    """The interner's key merges what the reference key merges, on fresh
    nodes."""
    program = doubled(make_program(), make_program())
    expected = reference_cse_size(doubled(make_program(), make_program()))
    assert expected < len(program)  # the second translation is all duplicates
    assert interned_size(program) == expected


@pytest.fixture(scope="module")
def store():
    return generate(0.002, seed=3)


@pytest.fixture(scope="module")
def queries(store):
    # build before translating: LIKE queries register aux vectors
    return {number: build(store, number) for number in sorted(QUERIES)}


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_tpch_keys_match_the_reference(store, queries, number):
    def translate():
        with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
            return engine.translate(queries[number])

    check_program(translate())
    check_merges(translate)


@pytest.mark.parametrize("block", range(5))
def test_fuzzed_keys_match_the_reference(block):
    for index in range(block * 10, block * 10 + 10):
        case = generate_case(30, index)

        def translate():
            with VoodooEngine(case.store, config=EngineConfig(grain=case.grain)) as engine:
                return engine.translate(case.query)

        check_program(translate())
        check_merges(translate)


def test_numbers_key_apart_by_repr():
    val = Keypath(["val"])
    keys = {
        ops.Constant(out=val, value=value, dtype=dtype).structural_key()
        for value, dtype in ((1, "int64"), (1.0, "int64"), (True, "int64"),
                             (0.0, "float64"), (-0.0, "float64"))
    }
    assert len(keys) == 5


def test_inputs_first_then_key_agree():
    val = Keypath(["val"])
    load = ops.Load("t")
    one = ops.Constant(out=val, value=1, dtype="int64")
    node = ops.Binary("Add", val, load, val, one, val)
    assert node.inputs() == (load, one)
    assert node.structural_key() == reference_key(node) == ("Binary", "Add", val, val, val)
    assert node.inputs() == (load, one)
