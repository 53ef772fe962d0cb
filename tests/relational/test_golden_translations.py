"""Golden translations: the Voodoo program every pinned query lowers to,
and which of those queries share a plan-cache key.

Each entry holds a sha256 of ``to_ssa`` of the translated program — so a
front-end change that moves one node, one parameter or the order of the
nodes shows here — for all fourteen TPC-H queries over the ``tests/tpch``
fixture store and for 100 fuzzed conformance cases (seed 39).  The key
classes group every query, built twice, by ``engine.cache_key``: a
rebuilt query must key equal to its twin and apart from the others, so
every plan-cache hit and miss stays where it is.

Regenerate (only when a translation is *meant* to move; say why in
CHANGES.md)::

    PYTHONPATH=src python tests/relational/test_golden_translations.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.printer import to_ssa
from repro.relational import EngineConfig, VoodooEngine
from repro.testing.qgen import generate_case
from repro.tpch import QUERIES, build, generate

GOLDEN = Path(__file__).with_name("golden_translations.json")
QGEN_SEED = 39
QGEN_CASES = 100


def tpch_store():
    return generate(0.075 / 10, seed=7)  # the tests/tpch fixture store


def sha(program) -> str:
    return hashlib.sha256(to_ssa(program).encode()).hexdigest()


def tpch_entries(store) -> tuple[dict[str, str], list[tuple[str, tuple]]]:
    engine = VoodooEngine(store)
    ssa: dict[str, str] = {}
    keys: list[tuple[str, tuple]] = []
    for number in sorted(QUERIES):
        twins = build(store, number), build(store, number)
        ssa[f"tpch/q{number}"] = sha(engine.translate(twins[0]))
        keys += [(f"tpch/q{number}/{twin}", engine.cache_key(query))
                 for twin, query in zip("ab", twins)]
    return ssa, keys


def qgen_entry(index: int) -> tuple[str, list[tuple[str, tuple]]]:
    keys: list[tuple[str, tuple]] = []
    digest = None
    for twin in "ab":
        case = generate_case(QGEN_SEED, index)
        engine = VoodooEngine(case.store, config=EngineConfig(grain=case.grain))
        if digest is None:
            digest = sha(engine.translate(case.query))
        keys.append((f"qgen/{QGEN_SEED}/{index}/{twin}", engine.cache_key(case.query)))
    return digest, keys


def key_classes(keys: list[tuple[str, tuple]]) -> list[list[str]]:
    """Labels grouped by equal cache keys, sorted (hash and equality must
    agree, or equal keys land in different groups here)."""
    groups: dict[tuple, list[str]] = {}
    for label, key in keys:
        groups.setdefault(key, []).append(label)
    return sorted(sorted(labels) for labels in groups.values())


def record() -> dict:
    ssa, keys = tpch_entries(tpch_store())
    for index in range(QGEN_CASES):
        digest, case_keys = qgen_entry(index)
        ssa[f"qgen/{QGEN_SEED}/{index}"] = digest
        keys += case_keys
    return {"ssa_sha256": ssa, "key_classes": key_classes(keys)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def tpch(golden):
    return tpch_entries(tpch_store())


def test_golden_covers_every_query(golden):
    assert len(golden["ssa_sha256"]) == len(QUERIES) + QGEN_CASES == 114
    labels = [label for group in golden["key_classes"] for label in group]
    assert len(labels) == len(set(labels)) == 2 * 114


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_tpch_translation_unchanged(golden, tpch, number):
    assert tpch[0][f"tpch/q{number}"] == golden["ssa_sha256"][f"tpch/q{number}"]


@pytest.mark.parametrize("block", range(10))
def test_qgen_translations_unchanged(golden, block):
    for index in range(block * 10, block * 10 + 10):
        digest, _ = qgen_entry(index)
        assert digest == golden["ssa_sha256"][f"qgen/{QGEN_SEED}/{index}"], index


def test_cache_key_classes_unchanged(golden, tpch):
    keys = list(tpch[1])
    for index in range(QGEN_CASES):
        keys += qgen_entry(index)[1]
    assert key_classes(keys) == golden["key_classes"]


if __name__ == "__main__":
    recorded = record()
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded['ssa_sha256'])} translations to {GOLDEN}")
