import contextlib
import itertools
from collections import Counter
from unittest import mock

import pytest
from hypothesis import (assume, example, find, given, settings,
                        strategies as st)

from fusioncalc import fusion
from fusioncalc.fusion import (
    DELTA, ClassBudgetError, Fusion, InvalidFusionError, NotRepresentableError,
    _affine,
    _classes, class_of, equal, family_partition,
    fusion_str, identity_I, join, join_all, map_fusion, meet, parse_fusion, phi,
    presentation, psi, related, remove, restrict, second_rep, sigma_tau,
    validate,
)
from fusioncalc.names import (ALL, NameSet, finite, parse_nameset, residue,
                              tag, untag)
from fusioncalc.process import NIL, Act
from fusioncalc.pwf import Pwf, realizer_catalog, sigma_node
from fusioncalc.subst import finite_subst, remap_subst
from fusioncalc.terms import multiset_form

from caches import fresh_caches
from fusion_reference import (canonical_subst, sampled_equal, sampled_meet,
                              sampled_validate, scanning_restrict,
                              sufficient_bound)
from subst_reference import compose


@st.composite
def small_fusions(draw, max_name=15, max_class=4):
    """A finite fusion with classes of size <= max_class over [0, max_name]."""
    names = list(range(max_name + 1))
    pairs = []
    used: set[int] = set()
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(2, max_class))
        cls = draw(st.permutations(
            [n for n in names if n not in used]))[:size]
        used.update(cls)
        pairs.extend(zip(cls, cls[1:]))
    return Fusion(frozenset(tuple(sorted(p)) for p in pairs))


def test_combinator_classes():
    assert class_of(DELTA, 7) == {7}
    assert class_of(identity_I(), 5) == {4, 5}
    assert class_of(phi(), 1) == {0, 1, 2}
    assert class_of(phi(), 3) == {3, 4, 6}
    assert related(phi(), 3, 4)
    assert not related(identity_I(), 1, 2)


def test_representatives():
    e = parse_fusion("{0~1~2}")
    assert min(class_of(e, 2)) == 0
    assert second_rep(e, 0) == 1
    assert second_rep(DELTA, 5) == 5
    assert min(class_of(phi(), 3)) == 3
    assert second_rep(phi(), 4) == 3


def test_validate_rejects_infinite_class():
    bad = Fusion(families=frozenset({((), (2,))}))
    assert not validate(bad)


def test_join_of_combinators():
    i_squared = sigma_tau(remap_subst([((1, 2), (2, 2))]))
    assert equal(join(psi(), i_squared), phi())


@given(small_fusions(), small_fusions(), small_fusions())
@settings(max_examples=50, deadline=None)
def test_lattice_laws(e, f, g):
    assert equal(join(e, f), join(f, e))
    assert equal(join(join(e, f), g), join(e, join(f, g)))
    assert equal(join(e, e), e)
    assert equal(join(e, DELTA), e)
    assert equal(meet(e, f), meet(f, e))
    assert equal(meet(e, e), e)
    assert equal(meet(e, DELTA), DELTA)
    # absorption ties the two operations together
    assert equal(meet(e, join(e, f)), e)
    assert equal(join(e, meet(e, f)), e)


def test_semi_distributivity_fails_in_general():
    e = parse_fusion("{0~1}")
    f = parse_fusion("{1~2}")
    g = parse_fusion("{0~2}")
    assert related(meet(join(e, f), g), 0, 2)
    assert equal(join(meet(e, g), meet(f, g)), DELTA)


def test_restrict_goldens():
    assert equal(restrict(parse_fusion("{0~1~2}"), finite([0, 2])),
                 parse_fusion("{0~2}"))
    assert equal(restrict(identity_I(), parse_nameset("@2")), DELTA)
    assert equal(remove(parse_fusion("{1~3, 5~4}"), parse_nameset("@1")),
                 DELTA)


@given(small_fusions())
@settings(max_examples=30, deadline=None)
def test_restrict_by_everything_is_identity(e):
    assert equal(restrict(e, ALL), e)
    assert equal(remove(e, NameSet()), e)


@st.composite
def small_namesets(draw):
    words = st.lists(st.sampled_from([1, 2]), max_size=2).map(tuple)
    return NameSet(
        draw(st.frozensets(st.integers(0, 20), max_size=4)),
        draw(st.frozensets(words, max_size=2)),
        False,
    )


@given(small_fusions(), small_namesets(), small_namesets())
@settings(max_examples=50, deadline=None)
def test_iterated_removal_merges(e, X, Y):
    assert equal(remove(remove(e, X), Y), remove(e, X.union(Y)))


@given(small_fusions(), small_namesets())
@settings(max_examples=50, deadline=None)
def test_restrict_keeps_only_inside_pairs(e, X):
    r = restrict(e, X)
    for a in range(22):
        for b in range(a + 1, 22):
            expect = related(e, a, b) and X.member(a) and X.member(b)
            assert related(r, a, b) == expect


@given(small_fusions(), st.integers(0, 15))
@settings(max_examples=50, deadline=None)
def test_canonical_subst_after_removal(e, x):
    """Removing one name commutes with canonicalization through x*."""
    star = second_rep(e, x)
    swap = finite_subst({x: star})
    lhs = compose(canonical_subst(remove(e, finite([x]))), swap)
    rhs = compose(swap, canonical_subst(e))
    assert all(lhs.apply(n) == rhs.apply(n) for n in range(24))


def test_map_fusion_basics():
    e = parse_fusion("{0~1}")
    assert equal(map_fusion(e, finite_subst({0: 5})), parse_fusion("{5~1}"))
    assert equal(map_fusion(e, finite_subst({})), e)


def test_canonical_subst_of_combinator():
    sigma = canonical_subst(identity_I())
    for n in range(20):
        assert sigma.apply(2 * n + 1) == 2 * n
        assert sigma.apply(2 * n) == 2 * n


def _inject(e, letter):
    return map_fusion(e, remap_subst([((), (letter,))]))


@given(small_fusions(), small_fusions())
@settings(max_examples=25, deadline=None)
def test_injection_identities(e, f):
    odd = parse_nameset("@1")
    e1, e2 = _inject(e, 1), _inject(e, 2)
    f2 = _inject(f, 2)
    e12 = map_fusion(e, remap_subst([((), (1, 2))]))
    i2 = sigma_tau(remap_subst([((1, 2), (2, 2))]))

    lhs = remove(join_all([e1, f2, phi()]), odd)
    rhs = join_all([e12, f2, i2])
    assert equal(lhs, rhs)

    lhs = remove(join_all([e1, f2, identity_I()]), odd)
    rhs = join(e2, f2)
    assert equal(lhs, rhs)

    lhs = remove(join(e1, phi()), odd)
    rhs = join(e12, i2)
    assert equal(lhs, rhs)


def test_single_family_instance_removal_is_not_representable():
    with pytest.raises(NotRepresentableError):
        remove(identity_I(), finite([5]))


def test_literal_roundtrip():
    for text in ["{}", "{0~1~2}", "{1~3, 5~4}", "{[1 <-> 1.2], [1.2 <-> 2.2]}",
                 "{0~1, [1 <-> 2]}"]:
        e = parse_fusion(text)
        assert fusion_str(parse_fusion(fusion_str(e))) == fusion_str(e)
    assert fusion_str(parse_fusion("{2~0~1}")) == "{0~1~2}"
    assert fusion_str(DELTA) == "{}"


# ---------------------------------------------------------------------------
# class walks against the per-name reference

def reference_class_of(e, x):
    """The per-name BFS that `_classes` replaces: a fresh adjacency map on
    every call, and family steps through untag/tag."""
    budget = fusion._CLASS_BUDGET
    adj: dict[int, set[int]] = {}
    for a, b in e.pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = {x}
    frontier = [x]
    while frontier:
        y = frontier.pop()
        neighbors = set(adj.get(y, ()))
        for w1, w2 in e.families:
            n = untag(y, w1)
            if n is not None:
                neighbors.add(tag(n, w2))
            n = untag(y, w2)
            if n is not None:
                neighbors.add(tag(n, w1))
        for z in neighbors:
            if z not in seen:
                if len(seen) >= budget:
                    raise ClassBudgetError(
                        f"class of {x} exceeds budget {budget}", budget)
                seen.add(z)
                frontier.append(z)
    return frozenset(seen)


def reference_classes(e):
    return lambda x: reference_class_of(e, x)


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # compared, not swallowed
        return "raised", type(exc), str(exc)


@contextlib.contextmanager
def class_budget(budget):
    """A context in which every class walk stops at `budget` members.  The
    caches of `fusion` start empty in it, and what it cached is dropped
    on exit, so no analysis walked under one budget is read under
    another."""
    with fresh_caches(fusion), \
            mock.patch.object(fusion, "_CLASS_BUDGET", budget):
        yield


def reference_outcome(fn, *args):
    """outcome(fn, *args) with every class computed by the reference; the
    caches start empty, so nothing cached by an earlier call (σ) stands
    in for the reference's walks."""
    with fresh_caches(fusion), mock.patch.object(fusion, "_classes",
                                                  reference_classes):
        return outcome(fn, *args)


FAMILY_SOURCES = sorted(identity_I().families | psi().families
                        | phi().families)
SHORT_WORDS = st.lists(st.sampled_from([1, 2]), max_size=2).map(tuple)


@st.composite
def mixed_fusions(draw):
    """Finite pairs plus family generators of I, psi and phi, each
    injected by a short word (tag(n, w + v) = tag(tag(n, w), v)); now and
    then a raw word pair, whose classes may be infinite."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                          max_size=6))
    families = set()
    for w1, w2 in draw(st.lists(st.sampled_from(FAMILY_SOURCES),
                                max_size=3)):
        v = draw(SHORT_WORDS)
        families.add((w1 + v, w2 + v))
    if draw(st.integers(0, 5)) == 0:
        families.add((draw(SHORT_WORDS), draw(SHORT_WORDS)))
    return Fusion(frozenset(pairs), frozenset(families))


budgets = st.sampled_from([2, 4, 1024, 1024])


@given(mixed_fusions(), budgets, st.lists(st.integers(0, 80), max_size=30))
@settings(max_examples=150, deadline=None)
def test_classes_match_reference(e, budget, xs):
    with class_budget(budget):
        classes = _classes(e)
        for x in xs:
            expected = outcome(reference_class_of, e, x)
            assert outcome(classes, x) == expected
            assert outcome(class_of, e, x) == expected


@given(mixed_fusions(), mixed_fusions(), budgets)
@settings(max_examples=150, deadline=None)
def test_operations_match_reference(e, f, budget):
    """The decided operations against the sampled ones at a bound where
    those decide (`fusion_reference`); equality and meet are compared on
    fusions whose classes are within the budget, where they are defined.
    The meet is compared by relation, below a bound that also covers its
    own words."""
    with class_budget(budget):
        # the probes only fail where the endpoint walks or the partition
        # do, so the sampled verdict is the same at every bound
        assert validate(e) == sampled_validate(e, 256)
        for fn in (canonical_subst, presentation):
            assert outcome(fn, e) == reference_outcome(fn, e)
        if not (validate(e) and validate(f)):
            return
        bound = sufficient_bound(e, f)
        assert equal(e, f) == sampled_equal(e, f, bound)
        assert equal(e, e)
        m = meet(e, f)
        assert validate(m)
        bound = sufficient_bound(e, f, m)
        assert [class_of(m, x) for x in range(bound)] == \
            sampled_meet(e, f, bound)


def assert_sigma_node_reads_the_reference_sigma(e):
    """`sigma_node` of a one-action term on x against the σ that the
    reference builds as a `Substitution`.  The names probed are those
    below 64, the endpoints, and for each class W of the family
    partition every tag(n, w), w in W, with n up to the largest
    tag(0, w): where the reference has its explicit entries."""
    sigma = canonical_subst(e)
    names = set(range(64)) | e.endpoints()
    for _, W in family_partition(e.families):
        top = max(tag(0, w) for w in W)
        names |= {tag(n, w) for w in W for n in range(top + 1)}
    for x in sorted(names):
        assert sigma_node(Pwf(Act(x, "up", (), NIL), e)) == \
            multiset_form(Act(sigma.apply(x), "up", (), NIL))[0], x


@given(mixed_fusions())
@settings(max_examples=100, deadline=None)
def test_sigma_node_matches_the_reference_sigma(e):
    assume(validate(e))
    assert_sigma_node_reads_the_reference_sigma(e)


@pytest.mark.parametrize("label", sorted(realizer_catalog()))
def test_sigma_node_matches_the_reference_sigma_on_the_catalog(label):
    e = realizer_catalog()[label]
    assert_sigma_node_reads_the_reference_sigma(e)
    assert_sigma_node_reads_the_reference_sigma(
        join(e, parse_fusion("{0~5, 3~12}")))


@st.composite
def re_presentations(draw, e):
    """e's relation under other generators: one to three rewrites, each
    of which splits a family generator by its leading letter, adds the
    generator implied by a chain of two, or adds a family instance as a
    pair."""
    pairs, families = set(e.pairs), set(e.families)
    for _ in range(draw(st.integers(1, 3))):
        if not families:
            break
        w1, w2 = gen = draw(st.sampled_from(sorted(families)))
        move = draw(st.integers(0, 2))
        if move == 0:
            families.discard(gen)
            families |= {((b,) + w1, (b,) + w2) for b in (1, 2)}
        elif move == 1:
            ends = set(gen) ^ set(draw(st.sampled_from(sorted(families))))
            if len(ends) == 2:
                families.add(tuple(ends))
        else:
            n = draw(st.integers(0, 9))
            pairs.add((tag(n, w1), tag(n, w2)))
    return Fusion(frozenset(pairs), frozenset(families))


@given(mixed_fusions(), mixed_fusions(), st.data())
@settings(max_examples=150, deadline=None)
def test_presentation_is_a_normal_form(e, g, data):
    """A re-presentation of e has e's presentation, and presentations
    are equal exactly when the relations are, by the sampled test."""
    if not validate(e):
        return
    f = data.draw(re_presentations(e))
    assert presentation(f) == presentation(e)
    assert sampled_equal(e, f, sufficient_bound(e, f))
    if validate(g):
        assert (presentation(e) == presentation(g)) == \
            sampled_equal(e, g, sufficient_bound(e, g))


@given(mixed_fusions(), mixed_fusions(), st.data())
@settings(max_examples=100, deadline=None)
def test_meet_of_re_presentations_is_the_meet(e, f, data):
    if not (validate(e) and validate(f)):
        return
    g, h = data.draw(re_presentations(e)), data.draw(re_presentations(f))
    assert equal(meet(g, h), meet(e, f))


@given(mixed_fusions(), small_namesets(), budgets)
@settings(max_examples=150, deadline=None)
def test_restrict_matches_reference(e, X, budget):
    with class_budget(budget):
        assert outcome(restrict, e, X) == reference_outcome(restrict, e, X)


@st.composite
def built_namesets(draw):
    """Singletons, residues of words of length 0 to 3 and `all`, joined
    by unions, each part and the whole complemented now and then, so
    that exclusions occur."""
    words = st.lists(st.sampled_from([1, 2]), max_size=3).map(tuple)
    parts = st.one_of(
        st.frozensets(st.integers(0, 40), min_size=1, max_size=3).map(finite),
        words.map(residue), st.just(ALL))
    X = NameSet()
    for part in draw(st.lists(parts, min_size=1, max_size=3)):
        X = X.union(part.complement() if draw(st.booleans()) else part)
    return X.complement() if draw(st.booleans()) else X


@given(mixed_fusions(), built_namesets())
@settings(max_examples=300, deadline=None)
def test_restriction_matches_the_scanning_reference(e, X):
    """Testing only the indices that X names singly gives the value, or
    the error, of also testing every index of a walked concrete name."""
    assert outcome(restrict, e, X) == outcome(scanning_restrict, e, X)
    assert outcome(remove, e, X) == \
        outcome(scanning_restrict, e, X.complement())


def test_the_restriction_draws_reach_an_unrepresentable_restriction():
    def unrepresentable(draw):
        e, X = draw
        return any(outcome(fn, e, X)[1:2] == (NotRepresentableError,)
                   for fn in (restrict, remove))

    find(st.tuples(mixed_fusions(), built_namesets()), unrepresentable,
         settings=settings(database=None))


def test_budget_error_names_the_queried_name():
    e = Fusion(frozenset({(0, 1), (1, 2), (2, 3)}))
    with class_budget(3):
        classes = _classes(e)
        for x in (2, 0):
            with pytest.raises(InvalidFusionError,
                               match=f"^class of {x} exceeds budget 3$"):
                classes(x)
        assert classes(7) == {7}


def test_equal_walks_no_class_for_a_coinciding_family_instance():
    """tag(0, ()) = tag(0, (2,)) = 0, so the instance n = 0 relates 0 to
    itself, but every other class of e is infinite.  Equal values are
    equal without a walk; otherwise e's presentation is built, and it
    exceeds the budget, as `validate` does."""
    e = Fusion(families=frozenset({((), (2,))}))
    f = Fusion(frozenset({(0, 1)}), e.families)
    walked = []

    def recording_classes(g):
        classes = _classes(g)
        return lambda x: walked.append((g, x)) or classes(x)

    with mock.patch.object(fusion, "_classes", recording_classes):
        assert equal(e, Fusion(families=e.families))
    assert walked == []
    assert not validate(e) and not validate(f)
    for left, right in ((e, f), (f, e)):
        with pytest.raises(ClassBudgetError):
            equal(left, right)


def test_equal_decides_instances_past_any_sample():
    e = parse_fusion("{[1 <-> 2]}")
    f = Fusion(frozenset((2 * n, 2 * n + 1) for n in range(256)))
    assert not equal(e, f) and not equal(f, e)
    assert related(e, 512, 513) and not related(f, 512, 513)
    assert equal(join(e, f), e)


def test_equal_compares_family_parts_by_region():
    """A generator split by its leading letter, or implied by a longer
    chain, is the same relation; dropping one half of the split is not."""
    e = parse_fusion("{[1 <-> 2]}")
    split = parse_fusion("{[1.1 <-> 1.2], [2.1 <-> 2.2]}")
    assert equal(e, split)
    assert not equal(e, parse_fusion("{[1.1 <-> 1.2]}"))
    assert equal(phi(), parse_fusion("{[1 <-> 2.2], [1.2 <-> 2.2]}"))
    # finite pairs that are family instances add nothing
    assert equal(parse_fusion("{0~1, 4~5, [1 <-> 2]}"), e)


def test_meet_relates_chains_that_are_no_single_instance():
    """Both sides relate tag(n, 1.1) and tag(n, 2.1) for every n, through
    different middle words, and share no family: the meet's family part
    is the intersection of the word classes, which no shared family
    presents."""
    e = parse_fusion("{[1.1 <-> 1.2], [1.2 <-> 2.1]}")
    f = parse_fusion("{[1.1 <-> 2.2], [2.2 <-> 2.1]}")
    assert related(e, 3, 1) and related(f, 3, 1)
    for left, right, expected in (
            (e, f, "{[1.1 <-> 2.1]}"),
            (parse_fusion("{[1 <-> 2]}"), f, "{[2.1 <-> 2.2]}")):
        m = meet(left, right)
        assert equal(m, parse_fusion(expected))
        for x in range(64):
            for y in range(64):
                assert related(m, x, y) == \
                    (related(left, x, y) and related(right, x, y))


def test_meet_keeps_finitely_many_exceptions():
    """The shared family plus the endpoint pairs both sides relate."""
    e = parse_fusion("{0~5, 3~4, [1.2 <-> 2.2]}")
    f = parse_fusion("{0~5, 4~7, [1.2 <-> 2.2]}")
    m = meet(e, f)
    assert m.families == e.families
    assert equal(m, parse_fusion("{0~5, [1.2 <-> 2.2]}"))
    for x in range(40):
        for y in range(40):
            assert related(m, x, y) == (related(e, x, y) and related(f, x, y))


def test_meet_walks_the_index_zero_names_of_each_region():
    """e relates 2n+1 and 4n, f relates 4n+1 and 4n: the word classes
    meet only in their own words, but at n = 0 both name 1 and 0."""
    e, f = parse_fusion("{[1 <-> 2.2]}"), parse_fusion("{[2.1 <-> 2.2]}")
    assert meet(e, f) == parse_fusion("{0~1}")


def test_class_budget_errors_name_the_budget():
    """An exhausted budget reaches the caller as ClassBudgetError, still an
    InvalidFusionError, with its message; a decided invalid input keeps
    the operation's message."""
    chain = [parse_fusion("{0~1}"), parse_fusion("{1~2}")]
    joined = join(*chain)
    message = r"^class of \d+ exceeds budget 2$"
    with class_budget(2):
        for op, args in ((join, chain), (join_all, (chain,)),
                         (map_fusion, (parse_fusion("{0~1~2}"),
                                       finite_subst({}))),
                         (restrict, (parse_fusion("{0~1~2}"),
                                     finite([0, 1, 2])))):
            with pytest.raises(ClassBudgetError, match=message) as info:
                op(*args)
            assert info.value.budget == 2
        with pytest.raises(ClassBudgetError, match="^family class of @"):
            join(identity_I(), psi())
        assert not validate(joined)


WORDS = [w for k in range(6) for w in itertools.product((1, 2), repeat=k)]


def test_affine_step_is_untag_then_tag():
    """Each word w1 of length <= 5 against every y < 1024, with w2 cycling
    through all those words, so every (w1, w2) pair is met."""
    for i, w1 in enumerate(WORDS):
        for y in range(1024):
            w2 = WORDS[(i + y) % len(WORDS)]
            offset, mask, shift_in, shift_out, offset_out = _affine(w1, w2)
            d = y - offset
            n = untag(y, w1)
            if n is None:
                assert d & mask
            else:
                assert not d & mask
                assert (d >> shift_in << shift_out) + offset_out == tag(n, w2)


def test_the_stores_leave_fusion_values_unchanged():
    e = join(parse_fusion("{0~1, 5~9}"), phi())
    f = join(parse_fusion("{0~1}"), identity_I())
    before = (e.pairs, e.families)
    class_of(e, 3)
    validate(e)
    equal(e, f)
    meet(e, f)
    restrict(e, parse_nameset("{0,1,5}"))
    presentation(e)
    assert (e.pairs, e.families) == before


def test_family_partition_is_remembered_and_failures_raise_each_time():
    families = parse_fusion("{[1.1 <-> 1.2], [2.1 <-> 2.2]}").families
    with class_budget(1):
        for _ in range(2):
            misses = family_partition.cache_info().misses
            with pytest.raises(
                    ClassBudgetError,
                    match=r"^family class of @1\.1 exceeds budget 1$"):
                family_partition(families)
            assert family_partition.cache_info().misses == misses + 1
    first = family_partition(families)
    assert family_partition(families) is first
    assert first == (((1, 1), ((1, 1), (1, 2))), ((2, 1), ((2, 1), (2, 2))))


# ---------------------------------------------------------------------------
# the caches of analyses

two_budgets = st.sampled_from([4, 1024])


@given(mixed_fusions(), mixed_fusions(), small_namesets(),
       st.integers(0, 80), two_budgets)
@example(parse_fusion("{[ <-> 1.1.1]}"), parse_fusion("{[2 <-> 1.2.2]}"),
         NameSet(), 0, 1024)
@settings(max_examples=100, deadline=None)
def test_remembered_analyses_give_the_outcome_of_empty_stores(e, f, X, x,
                                                              budget):
    """Each operation as it comes out with empty stores, and again after
    the others warmed the stores on the same values (the explicit
    example is the next test's).  X is finite plus residues, so
    `remove` restricts to a complement with exclusions."""
    calls = [(validate, e), (equal, e, f), (meet, e, f), (restrict, e, X),
             (remove, e, X), (presentation, e), (class_of, e, x)]
    cold = []
    for call in calls:
        with class_budget(budget):
            cold.append(outcome(*call))
    for i, call in enumerate(calls):
        with class_budget(budget):
            for other in calls[i + 1:] + calls[:i]:
                outcome(*other)
            assert outcome(*call) == cold[i]
            assert outcome(*call) == cold[i]


def test_equal_stops_at_the_first_region_that_fails():
    """Neither side is a fusion: a region of each family part exceeds the
    budget, on every walk.  `equal` raises as `validate` rejects, before
    and after such walks, since a failed walk is not remembered."""
    e, f = parse_fusion("{[ <-> 1.1.1]}"), parse_fusion("{[2 <-> 1.2.2]}")
    with fresh_caches(fusion):
        assert not validate(e) and not validate(f)
        for _ in range(2):
            for left, right in ((e, f), (f, e)):
                with pytest.raises(ClassBudgetError):
                    equal(left, right)
            with pytest.raises(ClassBudgetError,
                               match="^family class of @1.2 "):
                fusion._regions(f.families, ())
            with pytest.raises(ClassBudgetError):
                family_partition(f.families)
            with pytest.raises(ClassBudgetError):
                meet(e, f)


def test_budget_errors_are_not_remembered_and_the_stores_stay_bounded():
    e = Fusion(frozenset({(0, 1), (1, 2), (2, 3)}))
    with class_budget(3):
        assert not validate(e)
        for _ in range(2):
            for x in (2, 0):
                with pytest.raises(ClassBudgetError,
                                   match=f"^class of {x} exceeds budget 3$"):
                    class_of(e, x)
            misses = presentation.cache_info().misses
            with pytest.raises(ClassBudgetError, match="^class of 0 "):
                presentation(e)
            assert presentation.cache_info().misses == misses + 1
        assert class_of(e, 7) == {7}
    with fresh_caches(fusion):
        assert class_of(e, 2) == {0, 1, 2, 3}
        assert validate(e)
        assert presentation(e) is presentation(Fusion(e.pairs))
        for n in range(fusion._STORE_CAP + 10):
            v = (2,) * n  # identity_I injected by 2.2...2
            families = frozenset({((1,) + v, (2,) + v)})
            assert validate(Fusion(frozenset({(n, n + 1)}), families))
        for cache in (fusion._analysis, family_partition,
                      fusion._suffix_rules):
            info = cache.cache_info()
            assert info.currsize == info.maxsize == fusion._STORE_CAP
        misses = fusion._analysis.cache_info().misses
        assert class_of(e, 3) == {0, 1, 2, 3}
        assert fusion._analysis.cache_info().misses == misses + 1


def test_restrictions_are_remembered_per_set_and_failures_raise_each_time():
    # psi relates tag(n, 1) and tag(n, 1.2), so no multiple of 4 above
    # e's concrete class is in a class of two
    e = Fusion(frozenset({(0, 1), (1, 2), (2, 3)}), psi().families)
    restricted = fusion._restrict.cache_info
    with class_budget(3):
        for _ in range(2):
            misses = restricted().misses
            with pytest.raises(ClassBudgetError, match="^class of 0 "):
                restrict(e, finite([0, 1]))
            assert restricted().misses == misses + 1
        assert restricted().currsize == 0
    with fresh_caches(fusion):
        for _ in range(2):
            misses = restricted().misses
            with pytest.raises(NotRepresentableError,
                               match=r"single instances .*\(index 0\)$"):
                remove(identity_I(), finite([1]))
            assert restricted().misses == misses + 1
        assert restricted().currsize == 0
        first = remove(e, finite([8]))
        assert remove(e, finite([8])) is first
        for n in range(fusion._RESTRICT_CAP + 5):
            remove(e, finite([4 * n + 12]))
        for cache in (fusion._restrict, fusion._family_restriction):
            info = cache.cache_info()
            assert info.currsize == info.maxsize == fusion._RESTRICT_CAP
        assert remove(e, finite([8])) == first


def test_a_fusion_and_its_family_set_share_one_analysis(monkeypatch):
    """The family-only classes of a fusion are those of the pure-family
    fusion on its family set, read from that fusion's one analysis: a
    presentation builds no second analysis of `identity_I()`."""
    built = Counter()
    init = fusion._Analysis.__init__

    def counting(self, e):
        built[e] += 1
        init(self, e)

    monkeypatch.setattr(fusion._Analysis, "__init__", counting)
    with fresh_caches(fusion):
        class_of(identity_I(), 0)
        e = parse_fusion("{0~3, [1 <-> 2]}")
        assert e.families == identity_I().families
        presentation(e)
    assert built == {identity_I(): 1, e: 1}


# ---------------------------------------------------------------------------
# work that follows the answer

def test_restriction_tests_no_index_per_concrete_name():
    """The indices that `restrict` tests are those X names singly, so its
    `untag` calls do not grow with e's endpoints."""
    X = finite([0, 3, 5, 40])
    calls = []
    for pairs in ({(0, 3)}, {(0, 3), (5, 40), (7, 100), (9, 11), (13, 60)}):
        e = Fusion(frozenset(pairs), psi().families)
        with fresh_caches(fusion), \
                mock.patch.object(fusion, "untag", wraps=untag) as counted:
            restrict(e, X)
        calls.append(counted.call_count)
    assert calls[1] <= calls[0]


def test_a_word_class_is_walked_once_per_family_set():
    """phi's one word class {1, 1.2, 2.2} is reached from each of its
    words, and `family_partition` walks it once: it looks up as many
    rewrites as one walk from 1 does."""
    lookups = []

    class Rules(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    rules = fusion._suffix_rules

    def counted(families):
        system = rules(families)
        return (Rules(system[0]),) + system[1:]

    walks = []
    for run in (lambda: fusion._word_class(counted(phi().families), (1,)),
                lambda: family_partition(phi().families)):
        with fresh_caches(fusion), \
                mock.patch.object(fusion, "_suffix_rules", counted):
            run()
        walks.append(len(lookups))
        lookups.clear()
    assert walks[1] == walks[0] > 0


def test_presentations_that_share_a_family_set_merge_its_classes_once():
    e, f = parse_fusion("{0~3, [1 <-> 2]}"), parse_fusion("{4~9, [1 <-> 2]}")
    with fresh_caches(fusion), mock.patch.object(
            fusion, "family_partition", wraps=family_partition) as read:
        presentation(e)
        presentation(f)
    assert read.call_count == 1
