import itertools
import random
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import canonical_reference
from caches import cached, fresh_caches
from canonical_reference import (_orderings, reference_canonical,
                                 reference_key, struct_eq)
from congruence_oracle import (
    _all_rewrites, alpha_key, congruence_key, count_actions,
    enumerate_universe, oracle_partition,
)
from fusioncalc.process import (
    NIL, Act, Nu, Par, ProcessError, all_names, canonical, free_names,
    parse_process, process_str, substitute,
)
from fusioncalc import process
from fusioncalc.fusion import DELTA
from fusioncalc.pwf import Pwf, equal_pwf, parse_pwf, pwf_str
from fusioncalc.reduction import step
from fusioncalc.subst import Substitution, finite_subst, remap_subst
from fusioncalc.terms import (_binds_nothing, _nodes, _sorted, canonical_form,
                              form_str, multiset_form, node_key, skeleton)
from subst_reference import reference_substitute, scoped_processes


def test_parse_basic_forms():
    assert parse_process("1") == NIL
    assert parse_process("0!()") == Act(0, "up", (), NIL)
    assert parse_process("0?(1).1!()") == \
        Act(0, "down", (1,), Act(1, "up", (), NIL))
    assert parse_process("new 2. 2!() | 2?()") == \
        Nu(2, Par(Act(2, "up", (), NIL), Act(2, "down", (), NIL)))
    assert parse_process("(new 2. 2!()) | 0?()") == \
        Par(Nu(2, Act(2, "up", (), NIL)), Act(0, "down", (), NIL))


def test_parse_rejects_garbage():
    for text in ["", "0!(", "new . 1", "0!() |", "2!!()", "0?(1,1)"]:
        with pytest.raises((ProcessError, ValueError)):
            parse_process(text)


def test_free_names():
    assert free_names(parse_process("0!(1).1!().2?()")) == {0, 2}
    assert free_names(parse_process("new 3. 3!(0)")) == set()
    assert free_names(parse_process("new 3. 0!(3)")) == {0}


def test_substitute_renames_free_only():
    p = parse_process("0!().new 0. 0?()")
    q = substitute(p, finite_subst({0: 7}))
    assert struct_eq(q, parse_process("7!().new 0. 0?()"))


def test_substitute_avoids_capture():
    p = parse_process("new 1. 1!().0!()")
    q = substitute(p, finite_subst({0: 1}))
    assert struct_eq(q, parse_process("new 9. 9!().1!()"))


def test_substitute_word_remap():
    p = parse_process("0!() | 1?().2!()")
    q = substitute(p, remap_subst([((), (1,))]))
    assert q == parse_process("1!() | 3?().5!()")


def _substitutions(p):
    """Finite maps from free names of p to names of p, most of them
    binders, alone and beside the word remaps that `relabel_word`
    (epsilon -> w) and `unrelabel` (i -> epsilon) build, and a pair of
    remaps."""
    remaps = st.sampled_from([
        (), (((), (1,)),), (((), (2, 1)),), (((1,), ()),), (((2,), ()),),
        (((1,), (2,)), ((2,), (1, 1)))])
    return st.builds(
        lambda fm, rm: Substitution(tuple(fm.items()), frozenset(rm)),
        st.dictionaries(st.sampled_from(sorted(free_names(p) | {0})),
                        st.sampled_from(sorted(all_names(p) | {0})),
                        min_size=1, max_size=3),
        remaps)


@given(scoped_processes(), st.data())
@settings(max_examples=500, deadline=None)
def test_substitute_matches_the_reference(p, data):
    """The one-pass substitution returns what the per-binder one did,
    binder names included, on shadowed binders and forced and nested
    captures."""
    sigma = data.draw(_substitutions(p))
    assert substitute(p, sigma) == reference_substitute(p, sigma)


@pytest.mark.parametrize("text, mapping, renamed", [
    # 0 moves onto the binder 1, and inside it onto the binder 2
    ("new 1. 1!().0!().new 2. 2?(3).0!(1).1?()", {0: 1, 3: 2}, True),
    ("0?(1).(1!() | 0!(2).2?().0!())", {0: 2}, True),
    # the moved name is shadowed where its image is bound
    ("0!().new 0. 0?(1).1!()", {0: 1}, False),
])
def test_captures_rename_as_the_reference_does(text, mapping, renamed):
    def binders(p):
        if isinstance(p, Par):
            return binders(p.left) + binders(p.right)
        if isinstance(p, Act):
            return [p.bound] + binders(p.body)
        if isinstance(p, Nu):
            return [(p.name,)] + binders(p.body)
        return []

    p = parse_process(text)
    sigma = finite_subst(mapping)
    out = substitute(p, sigma)
    assert out == reference_substitute(p, sigma)
    assert (binders(out) != binders(p)) == renamed


def test_substitute_without_a_capture_builds_no_substitution(monkeypatch):
    p = parse_process("0!(1).1?().(new 2. 2!(3).0?()) | 4?(0).0!() | 1?()")
    sigma, unmoved = finite_subst({0: 5, 1: 6, 4: 7}), finite_subst({9: 0})
    expected = reference_substitute(p, sigma)
    built = []
    init = Substitution.__init__
    monkeypatch.setattr(Substitution, "__init__", lambda self, *a, **kw:
                        built.append(self) or init(self, *a, **kw))
    assert substitute(p, sigma) == expected
    assert substitute(p, unmoved) is p
    assert built == []


def test_struct_eq_laws():
    pairs = [
        ("(1!() | 2?()) | 3!()", "3!() | (2?() | 1!())"),
        ("0!() | 1", "0!()"),
        ("new 5. 1!()", "1!()"),
        ("new 4. 4!().4?(9)", "new 7. 7!().7?(0)"),
        ("new 0.(0!() | 1?())", "1?() | new 0. 0!()"),
        ("new 3. new 4. (3!() | 4?())", "new 4. new 3. (4!() | 3?())"),
        ("new 0 1. (0!().1!() | 1!().0!())",
         "new 5 6. (6!().5!() | 5!().6!())"),
    ]
    for left, right in pairs:
        assert struct_eq(parse_process(left), parse_process(right)), \
            f"{left} vs {right}"


def test_struct_eq_distinguishes():
    pairs = [
        ("0!()", "0?()"),
        ("0!().1!()", "1!().0!()"),
        ("new 0. 0!()", "1!()"),
        ("0!(1).1!()", "0!(1).2!()"),
        ("0!() | 0!()", "0!()"),
    ]
    for left, right in pairs:
        assert not struct_eq(parse_process(left), parse_process(right))


def test_printer_parser_roundtrip_examples():
    for text in ["1", "0!()", "0?(1,2).(1!() | 2!())",
                 "new 1. 1!() | (new 0. 0?().1?() | 0!())",
                 "2?(0).(new 1. 1!() | 0!(3).1?())"]:
        p = parse_process(text)
        assert parse_process(process_str(p)) == p


def _canonical_str(text):
    return process_str(canonical(parse_process(text)))


def _step_listing(text):
    return [pwf_str(r) for r in step(parse_pwf(text))]


# Exact printed results, fresh-name numbering included; the congruence
# tests above and the oracle only check canonical forms up to renaming.
@pytest.mark.parametrize("render, text, expected", [
    # an input binder shadowing an outer input binder of the same name
    (_canonical_str, "0?(1).1?(1).1!()", "0?(1).1?(2).2!()"),
    # a restriction shadowing an outer restriction
    (_canonical_str, "new 1. (1!() | new 1. 1?().1!())",
     "(new 0. 0?().0!()) | (new 1. 1!())"),
    # an input binder shadowing a restriction
    (_canonical_str, "new 0. 0?(0).0!()", "new 0. 0?(1).1!()"),
    # bound arguments re-using free names
    (_canonical_str, "1!() | 0?(1).1!()", "1!() | 0?(2).2!()"),
    (_canonical_str, "0!(2).2?() | 2!(3).3?(2)", "2!(1).1?(3) | 0!(4).4?()"),
    # nested restrictions, one of them shadowed by an output binder
    (_canonical_str, "new 0. new 1. (0!(1) | 1?().0?())",
     "new 1. 1!(2) | (new 0. 0?().1?())"),
    (_canonical_str, "new 2 3. (3?().2?() | 2!(3) | 4!())",
     "4!() | (new 1. 1!(2) | (new 0. 0?().1?()))"),
    # input binders under parallel composition
    (_canonical_str, "0?(1).1!() | 0?(1).1?() | 1!()",
     "1!() | 0?(2).2?() | 0?(3).3!()"),
    (_canonical_str, "0?(1,2).(new 1. (1!(2) | 2?()) | 1?())",
     "0?(1,2).(2?() | (new 3. 3?() | 3!(4)))"),
    # one communication of arity 2; a reduct is printed from its
    # σ-normal node, binders numbered from one above its free names
    (_step_listing, "<0!(1,2).(1!() | 2?()) | 0?(3,4).4!().3?() | 1?() ; {}>",
     ["<new 2 3. 3?() | 3!().2?() | 2!() | 1?() ; {}>"]),
    # subjects fused by the fusion: σ renames 1 to 0 before the step,
    # so the reduct's only free name is 0 and its binder is numbered 1
    (_step_listing, "<0!(2).2!() | 1?(2).2?() ; {0~1}>",
     ["<new 1. 1?() | 1!() ; {0~1}>"]),
])
def test_exact_output(render, text, expected):
    assert render(text) == expected


def _associations(leaves):
    """Left-nested, right-nested and balanced parallel compositions."""
    def balanced(xs):
        if len(xs) == 1:
            return xs[0]
        mid = len(xs) // 2
        return Par(balanced(xs[:mid]), balanced(xs[mid:]))
    left = leaves[0]
    for leaf in leaves[1:]:
        left = Par(left, leaf)
    right = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        right = Par(leaf, right)
    return [left, right, balanced(leaves)]


@pytest.mark.parametrize("k", [9, 10, 11, 12])
def test_identical_siblings_in_any_association(k):
    terms = _associations([Act(0, "up", (), NIL)] * k)
    for p in terms:
        assert process_str(canonical(p)) == " | ".join(["0!()"] * k)
    assert equal_pwf(Pwf(terms[0], DELTA), Pwf(terms[2], DELTA))
    assert equal_pwf(Pwf(terms[1], DELTA), Pwf(terms[2], DELTA))


# Groups with identical and distinct siblings of one skeleton, printed
# in the sibling order of their congruence keys.
@pytest.mark.parametrize("text, expected", [
    ("new 5 6. (5!() | 6!() | 5!() | 0!() | 6?() | 6!() | 0!() | 5?() "
     "| 1?())",
     "1?() | 0!() | 0!() | (new 2. 2?() | 2!() | 2!()) "
     "| (new 3. 3?() | 3!() | 3!())"),
    ("new 7. (0!() | 0!() | 0!() | 7!() | 7!().0!() | 0!())",
     "0!() | 0!() | 0!() | 0!() | (new 1. 1!() | 1!().0!())"),
    ("0!() | 0!() | 1!() | 0!() | 0?()", "0?() | 0!() | 0!() | 0!() | 1!()"),
    ("new 5 6. (5!() | 6!() | 5!() | 6!() | 5!() | 6!() | 0!() | 0!())",
     "0!() | 0!() | (new 1. 1!() | 1!() | 1!()) "
     "| (new 2. 2!() | 2!() | 2!())"),
])
def test_mixed_sibling_groups(text, expected):
    assert _canonical_str(text) == expected


@pytest.mark.parametrize("text, candidates", [
    (" | ".join(["0!()"] * 9), 1),
    # 6! / (3! 3!) orders of the bound-subject outputs, one of the 0!()s
    ("new 5 6. (5!() | 6!() | 5!() | 6!() | 5!() | 6!() | 0!() | 0!())", 20),
])
def test_one_candidate_per_distinct_order(text, candidates):
    node, _ = multiset_form(parse_process(text))
    assert sum(1 for _ in _orderings(node, frozenset())) == candidates


def test_candidate_budget_is_counted_before_enumerating():
    # nine siblings x!().0?().z?() that no single swap maps onto
    # themselves: the search gives up once its states pass the budget,
    # long before all 9! orders are listed
    term = _nine("{x}!().0?().{z}?()",
                 "".join(f" {x}" for x in range(11, 20)))
    with pytest.raises(ProcessError, match="search space too large") as err:
        canonical(term)
    held = int(str(err.value).split(": ")[1].split()[0])
    assert 40320 < held < 362880


def _processes(max_depth=3):
    names = st.integers(0, 4)
    return st.recursive(
        st.just(NIL) | st.builds(
            Act, names, st.sampled_from(["up", "down"]),
            st.sampled_from([(), (3,), (3, 4)]), st.just(NIL)),
        lambda inner: st.builds(Par, inner, inner)
        | st.builds(Nu, names, inner)
        | st.builds(Act, names, st.sampled_from(["up", "down"]),
                    st.sampled_from([(), (3,)]), inner),
        max_leaves=max_depth,
    )


@given(_processes())
@settings(max_examples=60, deadline=None)
def test_canonical_idempotent(p):
    c = canonical(p)
    assert canonical(c) == c


@given(_processes())
@settings(max_examples=60, deadline=None)
def test_canonical_preserves_free_names(p):
    assert free_names(canonical(p)) == free_names(p)


@given(_processes())
@settings(max_examples=60, deadline=None)
def test_canonical_roundtrips_through_text(p):
    c = canonical(p)
    assert parse_process(process_str(c)) == c


@given(_processes(), _processes())
@settings(max_examples=40, deadline=None)
def test_par_commutes_and_associates(p, q):
    assert struct_eq(Par(p, q), Par(q, p))
    assert struct_eq(Par(Par(p, q), NIL), Par(p, q))


def test_oracle_agreement_small_universe():
    universe = enumerate_universe(max_actions=2, names=range(3))
    partition_canon = {}
    partition_oracle = {}
    for p in universe:
        partition_canon.setdefault(alpha_key(canonical(p)), set()).add(
            alpha_key(p))
        partition_oracle.setdefault(congruence_key(p), set()).add(
            alpha_key(p))
    assert set(map(frozenset, partition_canon.values())) == \
        set(map(frozenset, partition_oracle.values()))


# -- the congruence key ------------------------------------------------------

def _keyed_processes():
    """Terms over names 0..5, restrictions binding 3..5 and prefixes
    binding 4 and 5: restrictions shared by siblings or private to one,
    nested restrictions, input binders, and identical siblings."""
    names = st.integers(0, 5)
    pol = st.sampled_from(["up", "down"])
    leaf = st.just(NIL) | st.builds(Act, names, pol, st.just(()),
                                    st.just(NIL))
    return st.recursive(
        leaf,
        lambda inner: st.builds(Par, inner, inner)
        | inner.map(lambda p: Par(p, p))
        | st.builds(Nu, st.integers(3, 5), inner)
        | st.builds(Act, names, pol, st.sampled_from([(), (4,), (4, 5)]),
                    inner),
        max_leaves=7,
    )


def _congruent_copy(rng, p, fresh=None):
    """A term congruent to p: parallel components commuted and
    reassociated, bound names renamed, restrictions moved across
    components that do not use them, unit components added."""
    fresh = fresh or itertools.count(100)
    if isinstance(p, Par):
        left = _congruent_copy(rng, p.left, fresh)
        right = _congruent_copy(rng, p.right, fresh)
        if rng.random() < 0.5:
            left, right = right, left
        if isinstance(left, Par) and rng.random() < 0.5:
            return Par(left.left, Par(left.right, right))
        if isinstance(left, Nu) and left.name not in free_names(right) \
                and rng.random() < 0.5:
            return Nu(left.name, Par(left.body, right))
        return Par(left, right)
    if isinstance(p, Nu):
        x = next(fresh)
        body = _congruent_copy(
            rng, substitute(p.body, finite_subst({p.name: x})), fresh)
        if isinstance(body, Par) and x not in free_names(body.left) \
                and rng.random() < 0.5:
            return Par(body.left, Nu(x, body.right))
        if rng.random() < 0.2:
            return Par(NIL, Nu(x, body))
        return Nu(x, body)
    if isinstance(p, Act):
        xs = tuple(next(fresh) for _ in p.bound)
        body = substitute(p.body, finite_subst(dict(zip(p.bound, xs))))
        return Act(p.subject, p.polarity, xs,
                   _congruent_copy(rng, body, fresh))
    return p


@given(_keyed_processes(), _keyed_processes(), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_congruence_key_and_canonical_induce_one_equivalence(p, r, fuse,
                                                             rng):
    terms = [p, _congruent_copy(rng, p), r, _congruent_copy(rng, r)]
    if fuse:
        # fused subjects under σ: 1 and 2 get the representative 0
        sigma = finite_subst({1: 0, 2: 0})
        terms += [substitute(t, sigma) for t in terms]
    keys = [canonical_reference.congruence_key(t) for t in terms]
    forms = [canonical(t) for t in terms]
    assert keys[0] == keys[1] and keys[2] == keys[3]
    for i, key in enumerate(keys):
        for j in range(i):
            assert (key == keys[j]) == (forms[i] == forms[j]), \
                (process_str(terms[i]), process_str(terms[j]))


def _printed_processes():
    """Terms over names 0..7: `new`s of one to three names out of 3..7,
    prefixes binding vectors 6 and 6, 7 that the continuation may use as
    subjects, nested parallels and identical siblings."""
    names = st.integers(0, 7)
    pol = st.sampled_from(["up", "down"])
    leaf = st.builds(Act, names, pol, st.just(()), st.just(NIL))
    return st.recursive(
        leaf,
        lambda inner: st.builds(Par, inner, inner)
        | inner.map(lambda p: Par(p, p))
        | st.builds(lambda xs, p: reduce(lambda q, x: Nu(x, q), xs, p),
                    st.lists(st.integers(3, 7), min_size=1, max_size=3),
                    inner)
        | st.builds(Act, names, pol, st.sampled_from([(), (6,), (6, 7)]),
                    inner),
        max_leaves=9,
    )


def _rewritten(rng, p, steps=6):
    """p after up to `steps` rewrites, each drawn from those that the
    congruence oracle's rules allow on the current term."""
    for _ in range(steps):
        options = list(_all_rewrites(p, range(8)))
        if not options:
            break
        p = rng.choice(options)
    return p


@given(_keyed_processes() | _printed_processes(),
       _keyed_processes() | _printed_processes(),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_nodes_with_one_key_have_one_skeleton(p, r, rng):
    """The skeleton (`terms.skeleton`) is a congruence invariant: nodes
    with equal `node_key`s have equal skeletons, on random terms, on
    their copies with components commuted and reassociated, bound names
    renamed and restrictions moved, and on terms that the oracle's rules
    rewrite them to."""
    family = [t for q in (p, r)
              for t in (q, _congruent_copy(rng, q), _rewritten(rng, q))]
    nodes = [multiset_form(t)[0] for t in family]
    keys = [node_key(node) for node in nodes]
    assert len(set(keys[:3])) == len(set(keys[3:])) == 1
    for i, j in itertools.combinations(range(len(nodes)), 2):
        if keys[i] == keys[j]:
            assert skeleton(nodes[i], {}) == skeleton(nodes[j], {}), \
                (process_str(family[i]), process_str(family[j]))


_TIED = parse_process("new 8 9. (8!().9?() | 9!().8?())")


@given(_printed_processes(), _printed_processes(),
       st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_canonical_matches_the_enumerating_reference(p, r, rng):
    """`canonical` induces the partition of the reference's least
    renderings on random terms and their congruent copies, on every term
    whose orders the reference enumerates within 7! candidates (eight
    siblings equal up to their own binders take it 2 s to enumerate at
    the full budget, and the search 1 ms).  Each form parses back to a
    term of the same key, and a term that binds no name prints as its
    sorted node, the reference's form.  The form runs no search of its
    own: under a budget of no state, where every search raises, it
    raises exactly where the key does, on these terms and beside two
    siblings whose restricted names tie (`_TIED`), which are searched."""
    family = [p, _congruent_copy(rng, p), r, _congruent_copy(rng, r)]
    nodes = [multiset_form(t)[0] for t in family]
    forms, references = [], []
    for t, node in zip(family, nodes):
        form = canonical(t)
        assert node_key(multiset_form(form)[0]) == node_key(node)
        if _binds_nothing(node):
            assert process_str(form) == form_str(_sorted(node))
        with mock.patch.object(canonical_reference, "_MAX_CANDIDATES", 5040):
            try:
                reference = reference_canonical(t)
            except process.SearchBudgetError:
                continue
        if _binds_nothing(node):
            assert form == reference
        forms.append(form)
        references.append(reference)
    for i, j in itertools.combinations(range(len(forms)), 2):
        assert (forms[i] == forms[j]) == (references[i] == references[j])
    tied = [multiset_form(Par(t, _TIED))[0] for t in family]
    outcomes = []
    with fresh_caches(), mock.patch("fusioncalc.terms._MAX_CANDIDATES", 0):
        for node in nodes + tied:
            raised = []
            for fn in (node_key, canonical_form):
                node_key.cache_clear()
                try:
                    fn(node)
                except process.SearchBudgetError:
                    raised.append(fn)
            outcomes.append(raised)
    assert all(raised in ([], [node_key, canonical_form])
               for raised in outcomes)
    assert all(outcomes[len(nodes):])


@given(_printed_processes(), _printed_processes(),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_key_and_reference_key_induce_one_equivalence(p, r, rng):
    terms = [p, _congruent_copy(rng, p), r, _congruent_copy(rng, r)]
    keys = [canonical_reference.congruence_key(t) for t in terms]
    references = [reference_key(t) for t in terms]
    for i in range(len(terms)):
        for j in range(i):
            assert (keys[i] == keys[j]) == (references[i] == references[j])


def _bound_free_processes():
    """Terms over names 0..3 with no restriction and no vector, so with
    no bound name: nested parallels, continuations, units and identical
    siblings."""
    names = st.integers(0, 3)
    pol = st.sampled_from(["up", "down"])
    leaf = st.just(NIL) | st.builds(Act, names, pol, st.just(()),
                                    st.just(NIL))
    return st.recursive(
        leaf,
        lambda inner: st.builds(Par, inner, inner)
        | inner.map(lambda p: Par(p, p))
        | st.builds(Act, names, pol, st.just(()), inner),
        max_leaves=8,
    )


@given(_bound_free_processes(), _bound_free_processes(),
       _keyed_processes() | _printed_processes(),
       st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_a_term_that_binds_no_name_is_keyed_by_its_printed_form(p, r, other,
                                                                rng):
    """A term with no bound name is keyed by its printed form, the text
    that `node_key` caches and that parses back to a term of the same key;
    two such keys are equal exactly when the reference keys are.  A term
    that binds a name is keyed by a code tuple, which equals no text."""
    family = [p, _congruent_copy(rng, p), r, _congruent_copy(rng, r)]
    nodes = [multiset_form(t)[0] for t in family]
    keys = []
    for t, node in zip(family, nodes):
        key = node_key(node)
        assert key == cached(node_key, node) == process_str(canonical(t))
        assert node_key(multiset_form(parse_process(key))[0]) == key
        keys.append(key)
    references = [reference_key(t) for t in family]
    for i, j in itertools.combinations(range(len(family)), 2):
        assert (keys[i] == keys[j]) == (references[i] == references[j])
    node = multiset_form(other)[0]
    binds = any(q[0] == "act" and (q[1] < 0 or q[3]) for q in _nodes(node))
    assert isinstance(node_key(node), str) is not binds
    if binds:
        assert node_key(node) not in keys


# Pairs that pin the parts of the key: a restriction under a prefix
# against one at the top (the group's name count); a name first met
# inside a sibling's continuation, which later siblings must see (the
# labels an inner search hands back); siblings that hold names the
# enclosing search has yet to number (one search for all of them).
@pytest.mark.parametrize("left, right, congruent", [
    ("new 1. 1!().(new 2. 2!().1!())", "new 1 2. 1!().2!().1!()", False),
    ("new 1 2. (0?().(1!() | 2?()) | 1?())",
     "new 1 2. (0?().(1!() | 2?()) | 2?())", False),
    ("new 1 2 3. (3?().(1?() | 2!()) | 2!().1?())",
     "new 4 5 6. (5!().4?() | 6?().(5!() | 4?()))", True),
    ("new 1 2 3. (3?().(1?() | 2!()) | 2!().1?())",
     "new 1 2 3. (3?().(1?() | 2!()) | 1!().2?())", False),
])
def test_congruence_key_on_names_met_inside_siblings(left, right, congruent):
    p, q = parse_process(left), parse_process(right)
    assert (canonical(p) == canonical(q)) is congruent
    assert struct_eq(p, q) is congruent


def _nine(pattern, extra=""):
    names = " ".join(str(x) for x in range(1, 10))
    return parse_process(f"new 0 {names}{extra}. (" + " | ".join(
        pattern.format(x=x, y=x % 9 + 1, z=x + 10)
        for x in range(1, 10)) + ")")


# Terms on which enumerating the orders of equal-skeleton siblings gives
# up (9! orders).  Swap pruning and colour refinement decide the first
# four.  In the last one every x!().0?().z?() is another's with two
# pairs of names swapped, and no single swap maps the siblings onto
# themselves, so the key's search holds 9 * 8 * 7 * 6 * 5 * 4 = 60,480
# orders, and the printed form, read from the key, has none either.
@pytest.mark.parametrize("term, decided", [
    (_nine("{x}!()"), True),
    (_nine("{x}!().{x}?()"), True),
    (_nine("{x}!().{y}?()"), True),
    (_nine("{x}!().{y}!()"), True),
    (_nine("{x}!().0?().{z}?()",
           "".join(f" {x}" for x in range(11, 20))), False),
])
def test_congruence_key_exceeds_the_budget_only_where_canonical_does(
        term, decided):
    with pytest.raises(process.SearchBudgetError, match="budget 40320"):
        reference_canonical(term)
    if decided:
        copy = _congruent_copy(random.Random(0), term)
        assert canonical(term) == canonical(copy)
        assert canonical_reference.congruence_key(term) == \
            canonical_reference.congruence_key(copy)
    else:
        for search in (canonical, canonical_reference.congruence_key):
            with pytest.raises(process.SearchBudgetError,
                               match="budget 40320"):
                search(term)


def test_oracle_agreement_through_struct_eq():
    """Criterion 06 decided by `struct_eq`: members of one oracle class
    are congruent, and representatives of distinct classes have
    distinct keys."""
    classes = oracle_partition(3, range(4))
    for members in classes:
        for a, b in zip(members, members[1:]):
            assert struct_eq(a, b)
    keys = {canonical_reference.congruence_key(members[0])
            for members in classes}
    assert len(keys) == len(classes)
