"""Dataset seed provenance: every generated dataset names its seed.

Replayability contract: a benchmark or conformance result must carry
enough metadata to regenerate the exact dataset it measured.
"""

from repro.tpch import generate


def test_tpch_store_records_seed_and_scale():
    store = generate(0.002, seed=7)
    assert store.meta["seed"] == 7
    assert store.meta["scale_factor"] == 0.002
    assert store.meta["generator"] == "repro.tpch.datagen"


def test_conformance_store_records_generator_seed():
    from repro.testing import generate_case

    case = generate_case(11, 4)
    assert case.store.meta["seed"] == 11
    assert case.store.meta["index"] == 4
