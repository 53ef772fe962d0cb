"""Span trees: well-formedness and self time."""

import time

from perfbench.spans import Span, SpanRecorder


def _tree() -> SpanRecorder:
    spans = SpanRecorder()
    with spans.span("op", "q1#0"):
        with spans.span("relational.execute", "q1#0"):
            time.sleep(0.002)
        with spans.span("replay", "q1#0"):
            with spans.span("relational.cache_key", "q1#0"):
                time.sleep(0.001)
            with spans.span("compiler.run", "q1#0"):
                time.sleep(0.001)
    with spans.span("op", "q6#0"):
        with spans.span("relational.execute", "q6#0"):
            pass
    return spans


def test_recorded_tree_is_well_formed():
    spans = _tree()
    assert spans.problems() == []
    assert [s.parent for s in spans.spans] == [None, 0, 0, 2, 2, None, 5]
    assert {s.op for s in spans.spans[:5]} == {"q1#0"}


def test_self_time_is_span_minus_children():
    spans = _tree()
    root = spans.spans[0]
    children = sum(s.ms for s in spans.children(root.id))
    assert abs(spans.self_ms(root) - (root.ms - children)) < 1e-9
    assert all(spans.self_ms(s) >= 0 for s in spans.spans)


def test_normalisation_scales_whole_subtrees():
    spans = _tree()
    before = spans.spans[3].ms
    spans.scale_from(0, 0.5)
    assert abs(spans.spans[3].ms - before / 2) < 1e-9
    assert spans.problems() == []


def test_malformed_trees_are_reported():
    spans = SpanRecorder()
    spans.spans = [
        Span(0, "op", "a", None, 0.0, 1.0),
        Span(1, "child", "a", 0, 0.5, 1.5),        # leaves its parent
        Span(2, "child", "b", 0, 0.1, 0.2),        # another op's id
        Span(3, "op", "a", None, 2.0, 3.0),        # second root of op a
        Span(4, "big", "a", 3, 2.0, 3.0),
        Span(5, "big", "a", 3, 2.0, 3.0),          # children cover 2x the parent
    ]
    found = "\n".join(spans.problems())
    assert "leaves its parent" in found
    assert "!= parent's" in found
    assert "two root spans" in found
    assert "negative self time" in found


def test_dump_and_load_round_trip(tmp_path):
    spans = _tree()
    spans.dump(tmp_path / "spans.json")
    loaded = SpanRecorder.load(tmp_path / "spans.json")
    assert [(s.name, s.op, s.parent) for s in loaded.spans] == [
        (s.name, s.op, s.parent) for s in spans.spans]
    assert loaded.problems() == []
