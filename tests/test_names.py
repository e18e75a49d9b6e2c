import pytest
from hypothesis import given, strategies as st

from fusioncalc.names import (
    ALL, EMPTY, NameSet, finite, index_set, is_suffix, parse_name,
    parse_nameset, residue, tag, untag, word, word_str,
)

from subst_reference import intersect

words = st.lists(st.sampled_from([1, 2]), max_size=4).map(tuple)
naturals = st.integers(min_value=0, max_value=10_000)


def small_namesets():
    return st.builds(
        NameSet,
        st.frozensets(st.integers(min_value=0, max_value=31), max_size=4),
        st.frozensets(words, max_size=3),
        st.booleans(),
        st.frozensets(st.integers(min_value=0, max_value=31), max_size=3),
    )


def test_tag_examples():
    assert tag(3, word("1")) == 7
    assert tag(3, word("2")) == 6
    assert tag(0, word("1.2")) == 2
    assert tag(1, word("1.2")) == 6  # innermost letter first: 2*(2*1+1)


@given(naturals, words)
def test_untag_inverts_tag(n, w):
    assert untag(tag(n, w), w) == n


@given(naturals, words, words)
def test_tag_composes_by_concatenation(n, u, v):
    assert tag(tag(n, u), v) == tag(n, u + v)


@given(words, words)
def test_residue_nesting_is_suffix_order(u, w):
    inside = all(untag(tag(n, w), u) is not None for n in range(32))
    assert is_suffix(u, w) == inside


def test_parse_name_dotted_sugar():
    assert parse_name("7") == 7
    assert parse_name("1.1.2") == tag(1, word("1.2"))
    assert parse_name("0.2") == 0


@pytest.mark.parametrize("text", ["-1", "+3", " 4", "4 ", "\u0663", "1.-1",
                                  "1.\uff12", "", "x"])
def test_parse_name_takes_only_ascii_naturals(text):
    """Bound names are negative in the multiset form, so a sign must not
    make a free name; int() would also take spaces and other numerals."""
    with pytest.raises(ValueError):
        parse_name(text)


@given(small_namesets(), small_namesets(),
       st.integers(min_value=0, max_value=255))
def test_union_membership(a, b, x):
    assert a.union(b).member(x) == (a.member(x) or b.member(x))


@given(small_namesets(), small_namesets(),
       st.integers(min_value=0, max_value=255))
def test_intersect_membership(a, b, x):
    assert intersect(a, b).member(x) == (a.member(x) and b.member(x))


@given(small_namesets(), st.integers(min_value=0, max_value=255))
def test_complement_membership(a, x):
    assert a.complement().member(x) == (not a.member(x))


@given(small_namesets(), words, st.integers(min_value=0, max_value=63))
def test_index_set_characterization(X, w, n):
    assert index_set(w, X).member(n) == X.member(tag(n, w))


def test_parse_nameset_forms():
    assert parse_nameset("{3,5}").member(3)
    assert not parse_nameset("{3,5}").member(4)
    odd = parse_nameset("@1")
    assert odd.member(7) and not odd.member(8)
    assert parse_nameset("all").is_all()
    both = parse_nameset("{0} + @1.2")
    assert both.member(0) and both.member(tag(5, word("1.2")))


def test_empty_and_all():
    assert EMPTY.is_empty_like()
    assert ALL.member(12345)
    assert ALL.complement().is_empty_like()


def test_str_roundtrip_on_surface_forms():
    for text in ["{3,5}", "@1", "@1.2", "all"]:
        ns = parse_nameset(text)
        assert parse_nameset(str(ns)).member(6) == ns.member(6)
