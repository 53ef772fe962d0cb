"""Keypath parsing, combination and ordering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.keypath import Keypath, kp
from repro.errors import KeypathError

identifier = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
keypaths = st.lists(identifier, min_size=1, max_size=4).map(Keypath)


class TestParsing:
    def test_parse_with_leading_dot(self):
        assert Keypath.parse(".a.b").components == ("a", "b")

    def test_parse_without_leading_dot(self):
        assert Keypath.parse("a.b").components == ("a", "b")

    def test_str_roundtrip(self):
        assert str(Keypath.parse(".input.value")) == ".input.value"

    def test_empty_rejected(self):
        with pytest.raises(KeypathError):
            Keypath.parse("")

    def test_lone_dot_rejected(self):
        with pytest.raises(KeypathError):
            Keypath.parse(".")

    def test_bad_component_rejected(self):
        with pytest.raises(KeypathError):
            Keypath.parse(".a.1b")

    def test_empty_component_rejected(self):
        with pytest.raises(KeypathError):
            Keypath.parse(".a..b")

    def test_of_coerces_string(self):
        assert kp(".x") == Keypath(["x"])

    def test_kp_passes_through(self):
        path = Keypath(["x"])
        assert kp(path) is path

    def test_kp_rejects_other_types(self):
        with pytest.raises(KeypathError):
            kp(42)


class TestStructure:
    def test_leaf_and_root(self):
        path = Keypath.parse(".a.b.c")
        assert path.leaf == "c"
        assert path.root == "a"

    def test_concat(self):
        assert kp(".a.b").concat(kp(".c")) == kp(".a.b.c")

    def test_startswith(self):
        assert kp(".a.b.c").startswith(kp(".a.b"))
        assert not kp(".a.b").startswith(kp(".a.c"))
        assert not kp(".a").startswith(kp(".a.b"))

    def test_rebase(self):
        assert kp(".a.b.c").rebase(kp(".a"), kp(".x.y")) == kp(".x.y.b.c")

    def test_rebase_requires_prefix(self):
        with pytest.raises(KeypathError):
            kp(".a.b").rebase(kp(".c"), kp(".d"))

    def test_strip_prefix(self):
        assert kp(".a.b.c").strip_prefix(kp(".a")) == kp(".b.c")

    def test_strip_prefix_whole_path_rejected(self):
        with pytest.raises(KeypathError):
            kp(".a.b").strip_prefix(kp(".a.b"))

    def test_iteration_and_len(self):
        path = kp(".a.b.c")
        assert list(path) == ["a", "b", "c"]
        assert len(path) == 3


class TestEqualityAndOrdering:
    def test_hashable(self):
        assert {kp(".a"): 1}[Keypath(["a"])] == 1

    def test_ordering(self):
        assert kp(".a") < kp(".b")
        assert kp(".a") < kp(".a.b")

    def test_not_equal_to_string(self):
        assert kp(".a") != ".a"


@given(keypaths)
def test_parse_str_roundtrip_property(path):
    assert Keypath.parse(str(path)) == path


@given(keypaths, keypaths)
def test_rebase_roundtrip_property(prefix, rest):
    full = prefix.concat(rest)
    rebased = full.rebase(prefix, kp(".tmp"))
    assert rebased.rebase(kp(".tmp"), prefix) == full


@given(keypaths, keypaths)
def test_concat_startswith_property(a, b):
    assert a.concat(b).startswith(a)
