import pytest
from hypothesis import given, strategies as st

from fusioncalc.names import NameSet, finite, residue, tag, untag, word
from fusioncalc.subst import (
    Substitution, SubstitutionError, finite_subst, remap_subst,
)
from subst_reference import compose, equivalent_via, parse_subst, restrict_away

words = st.lists(st.sampled_from([1, 2]), min_size=0, max_size=3).map(tuple)


def substs():
    def build(fm_items, remap_items):
        remaps = []
        for u, v in remap_items:
            if not any(len(u) <= len(u2) and u2[len(u2) - len(u):] == u
                       or len(u2) <= len(u) and u[len(u) - len(u2):] == u2
                       for u2, _ in remaps):
                remaps.append((u, v))
        return Substitution(tuple(fm_items), frozenset(remaps))

    return st.builds(
        build,
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                 max_size=4),
        st.lists(st.tuples(words, words), max_size=2),
    )


probes = st.integers(min_value=0, max_value=200)


def test_apply_precedence_of_finite_entries():
    sigma = Substitution(((1, 9),), frozenset({((1,), (2,))}))
    assert sigma.apply(1) == 9       # finite entry wins over the remap
    assert sigma.apply(3) == 2       # 3 = tag(1, "1") -> tag(1, "2")
    assert sigma.apply(4) == 4


def test_overlapping_remap_domains_rejected():
    with pytest.raises(SubstitutionError):
        remap_subst([((1,), (2,)), ((1, 1), (2, 2))])


@given(substs(), substs(), probes)
def test_compose_is_pointwise_composition(sigma, tau, x):
    assert compose(sigma, tau).apply(x) == sigma.apply(tau.apply(x))


@given(substs(), probes)
def test_compose_identity(sigma, x):
    identity = Substitution()
    assert compose(sigma, identity).apply(x) == sigma.apply(x)
    assert compose(identity, sigma).apply(x) == sigma.apply(x)


@st.composite
def namesets(draw):
    return NameSet(
        draw(st.frozensets(st.integers(0, 31), max_size=3)),
        draw(st.frozensets(words, max_size=2)),
        draw(st.booleans()),
        draw(st.frozensets(st.integers(0, 31), max_size=2)),
    )


@given(substs(), namesets(), probes)
def test_restrict_away_pointwise(sigma, X, x):
    carved = restrict_away(sigma, X)
    if X.member(x):
        assert carved.apply(x) == x
    else:
        assert carved.apply(x) == sigma.apply(x)


def test_equivalent_via_renaming():
    sigma = finite_subst({0: 1})
    tau = finite_subst({2: 3})
    assert equivalent_via(sigma, tau, {0: 2, 1: 3, 2: 0, 3: 1})
    assert not equivalent_via(sigma, tau, {0: 3, 1: 2, 2: 0, 3: 1})


def test_parse_and_str_roundtrip():
    sigma = parse_subst("{0:=3, 1:=2 ; 1 -> 1.2}")
    assert sigma.apply(0) == 3
    assert sigma.apply(1) == 2
    assert sigma.apply(3) == tag(1, (1, 2))
    again = parse_subst(str(sigma))
    assert all(again.apply(x) == sigma.apply(x) for x in range(64))
