import contextlib
import io
import math
from collections import Counter
from functools import reduce
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from caches import cached, clear_caches, fresh_caches
from canonical_reference import congruence_key
from fusioncalc import fusion, reduction, terms
from fusioncalc.cli import main
from fusioncalc.fusion import DELTA, fusion_str, parse_fusion
from fusioncalc.process import (NIL, Act, Nu, Par, form_str, free_names,
                                process_str)
from fusioncalc.pwf import (Pwf, equal_pwf, normalize, nu_all, parse_pwf,
                            pwf_str, sigma_node)
from fusioncalc.reduction import pole_regular_on, reach, reduces_within, step
from fusioncalc.terms import (_NIL_NODE, SearchBudgetError, _nodes,
                             _to_process, canonical_form, invariant,
                             node_key)
from fusion_reference import canonical_subst
from reduction_reference import (reference_listing, reference_reducts,
                                 reference_reduces_within, reference_step)

UNIT = parse_pwf("<1 ; {}>")


def test_step_basic_communication():
    outs = step(parse_pwf("<0!() | 0?() ; {}>"))
    assert len(outs) == 1 and equal_pwf(outs[0], UNIT)


def test_step_through_fused_subjects():
    outs = step(parse_pwf("<0!(2).2!() | 1?(2).2?() ; {0~1}>"))
    assert len(outs) == 1
    assert equal_pwf(outs[0], parse_pwf("<new 2.(2!() | 2?()) ; {0~1}>"))


def test_step_requires_related_subjects():
    assert step(parse_pwf("<0!() | 1?() ; {}>")) == []


def test_step_requires_matching_arity():
    assert step(parse_pwf("<0!(1) | 0?() ; {}>")) == []


def test_step_under_restriction():
    outs = step(parse_pwf("<new 3.(3!() | 3?()) ; {}>"))
    assert len(outs) == 1 and equal_pwf(outs[0], UNIT)


def test_bound_subjects_match_only_themselves():
    # 3 is restriction-bound: the ambient fusion must not identify it
    assert step(parse_pwf("<new 3.(3!() | 0?()) ; {0~3}>")) == []
    # nor may a family identify two bound subjects, whatever their names
    assert step(parse_pwf("<new 3 4.(3!() | 4?()) ; {[1 <-> 2]}>")) == []
    assert step(parse_pwf("<new 2 3.(2!() | 3?()) ; {[1 <-> 2]}>")) == []


def test_step_not_under_prefix():
    assert step(parse_pwf("<2?().(0!() | 0?()) ; {}>")) == []


def test_step_preserves_fusion():
    for text in ["<0!() | 0?() ; {0~9}>", "<0!(2).2!() | 1?(2).2?() ; {0~1}>"]:
        p = parse_pwf(text)
        for q in step(p):
            assert q.fus == p.fus


def test_step_respects_equal_pwf():
    p = parse_pwf("<0!() | 0?() ; {0~1}>")
    q = parse_pwf("<1!() | 0?() ; {0~1}>")
    outs_p, outs_q = step(p), step(q)
    assert len(outs_p) == len(outs_q) == 1
    assert equal_pwf(outs_p[0], outs_q[0])


def test_reduces_within():
    p = parse_pwf("<0!() | 0?() ; {}>")
    assert reduces_within(p, p, 0)
    assert reduces_within(p, UNIT, 1)
    assert not reduces_within(p, UNIT, 0)
    assert not reduces_within(parse_pwf("<0!() ; {}>"), UNIT, 5)


def test_reduces_within_two_steps():
    p = parse_pwf("<0!().1!() | 0?().1?() ; {}>")
    assert reduces_within(p, UNIT, 2)
    assert not reduces_within(p, UNIT, 1)


def _small_universe():
    out = [UNIT, parse_pwf("<0!() ; {}>"), parse_pwf("<0?() ; {}>"),
           parse_pwf("<0!().1!() ; {}>"), parse_pwf("<1?().0?() ; {}>"),
           parse_pwf("<0!() | 0?() ; {}>"),
           parse_pwf("<0!() | 1?() ; {0~1}>")]
    return out


def test_pole_regular_examples():
    """A pole decides the σ-node of a closed composite, whose fusion is
    Δ."""
    universe = _small_universe()
    assert pole_regular_on(lambda node: True, universe)
    assert pole_regular_on(lambda node: reduces_within(
        Pwf(terms._to_process(node), DELTA), UNIT, 8), universe)
    # the bare singleton pole is not regular: a redex is not literally 1
    assert not pole_regular_on(lambda node: node == _NIL_NODE, universe)


def test_reduces_within_under_a_fusion_compares_up_to_the_fusion():
    p = parse_pwf("<0!().1!() | 1?() ; {0~1}>")
    assert reduces_within(p, parse_pwf("<0!() ; {0~1}>"), 1)
    assert reduces_within(p, parse_pwf("<1!() ; {0~1}>"), 1)
    assert not reduces_within(p, parse_pwf("<0!() ; {0~1}>"), 0)
    # reduction keeps the fusion, so a target under another one is unreachable
    assert not reduces_within(p, parse_pwf("<0!() ; {}>"), 3)


def _count_calls(monkeypatch, name: str, computed: bool = False) -> list:
    """Record the argument of every call of `terms.<name>` or
    `process.<name>`, in every module that binds it; when `computed`,
    only of the calls that miss the function's cache.  The caches start
    empty, so the counts are those of a fresh process."""
    from fusioncalc import cli, process, pwf, realizability
    clear_caches()
    calls = []
    original = getattr(terms, name, None) or getattr(process, name)

    def counting(p, *args):
        misses = original.cache_info().misses if computed else None
        out = original(p, *args)
        if not computed or original.cache_info().misses > misses:
            calls.append(p)
        return out

    for module in (cli, process, pwf, realizability, reduction, terms):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_reduces_within_canonicalises_each_term_once(monkeypatch):
    """The search to an action-free target keys each distinct reduct at
    most once, keys neither the start nor NIL, which it matches unkeyed,
    and prints nothing, so it makes no `canonical` call; with or without
    bound vectors."""
    printed = _count_calls(monkeypatch, "canonical")
    keyed = _count_calls(monkeypatch, "node_key")
    for literal in ("<0!().1?() | 2?().3!() | 1!() | 3?() | 2!() | 0?()"
                    " ; {0~2, 1~3}>",
                    "<0!(5).5?() | 2?(6).6!() | 1!(7).7!() | 3?(8).8?()"
                    " ; {0~2, 1~3}>"):
        p = nu_all(parse_pwf(literal))
        keyed.clear()
        assert reduces_within(p, UNIT, 4)
        assert keyed and len(keyed) == len(set(keyed))
        assert _NIL_NODE not in keyed and sigma_node(p) not in keyed
    assert printed == []


@pytest.mark.parametrize("literal, depth, nodes", [
    # seven identical senders that each bind a name, beside seven
    # identical receivers: C(7, j)² node values at depth j, and
    # C(14, 7) = 3,432 expanded by value
    ("<new 0. (" + " | ".join(["0!(5).5!()"] * 7 + ["0?(6).7?()"] * 7)
     + ") ; {}>", 7, 8),
    # twelve copies of one pair, each under its own restriction, with no
    # vector: the multiset form gives each copy its own binder, so
    # C(12, j) node values at depth j, and 2^12 = 4,096 expanded by value
    ("<" + " | ".join(f"new {x}. ({x}!().0!() | {x}?().1?())"
                      for x in range(5, 17)) + " ; {}>", 12, 13),
], ids=["binding", "restricted"])
def test_sibling_search_keys_its_nodes(monkeypatch, literal, depth, nodes):
    """Siblings that do not reach NIL reach many node values of one
    class at each depth: the NIL search keys its nodes, so it expands
    one node per depth, to the given bound and unbounded."""
    p = parse_pwf(literal)
    expanded = []
    expand = reduction._expand
    clear_caches()
    monkeypatch.setattr(reduction, "_expand",
                        lambda q: expanded.append(q) or expand(q))
    assert not reduces_within(p, UNIT, 2 * depth)
    assert len(expanded) == nodes
    expanded.clear()
    assert not reduction._reaches_nil(sigma_node(p), math.inf)
    assert len(expanded) == nodes


def _binds_no_name(node) -> bool:
    return all(q[1] >= 0 and not q[3] for q in _nodes(node) if q[0] == "act")


@pytest.mark.parametrize("literal, steps, distinct", [
    ("<0!().1?() | 2?().3!() | 1!() | 3?() | 2!() | 0?() ; {0~2, 1~3}>",
     4, 13),
    ("<0!() | 2?() | 1?().3!() | 3!().1?() | 4!() ; {0~2, 1~3}>", 3, 5),
    ("<0!(1).1!() | 0?(2).2?() | 3!() | 3?() ; {}>", 3, 5),
])
def test_cli_reduce_canonicalises_each_term_once(monkeypatch, capsys,
                                                  literal, steps, distinct):
    """The search computes the key of every distinct reduct once, and
    not that of the start term; here each keyed reduct is a listed
    class.  Each line is printed once: a class that binds no name from
    its key, which is its printed form, with no `canonical_form` call,
    and any other class by one `canonical_form` of its node, which
    reads the node's key from the cache.  No `Process` is built for a
    line."""
    printed = _count_calls(monkeypatch, "canonical_form")
    keyed = _count_calls(monkeypatch, "node_key", computed=True)
    rebuilt = _count_calls(monkeypatch, "_to_process")
    canonicalised = _count_calls(monkeypatch, "canonical")
    assert main(["reduce", literal, "--steps", str(steps)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(keyed) == len(set(keyed)) == distinct == len(lines)
    binding = [node for node in keyed if not _binds_no_name(node)]
    assert len(printed) == len(set(printed)) == len(binding)
    assert set(printed) == set(binding)
    fus = fusion_str(parse_pwf(literal).fus)
    texts = {f"<{cached(node_key, node)} ; {fus}>" for node in keyed
             if _binds_no_name(node)}
    assert texts <= set(lines) and len(texts) == len(lines) - len(binding)
    assert rebuilt == canonicalised == []


def test_cli_reduce_walks_no_class_per_redex(monkeypatch, capsys):
    """Inside `reach` the free subjects are σ-representatives, so a redex
    is matched on equal subjects without walking the fusion's classes."""
    walks = []
    class_of = fusion.class_of
    monkeypatch.setattr(fusion, "class_of", lambda *args: walks.append(
        args[1]) or class_of(*args))
    literal = ("<0!().1?() | 2?().3!() | 1!() | 3?() | 2!() | 0?()"
               " ; {0~2, 1~3}>")
    assert main(["reduce", literal, "--steps", "4"]) == 0
    assert walks == []


_FUSIONS = ("{}", "{0~1}", "{0~2, 1~3}", "{[1 <-> 2]}", "{0~1, [1 <-> 2]}")


@st.composite
def _pwfs(draw, scoped=False):
    """One or two action chains over subjects 0..3, each possibly with a
    partner of opposite polarity and equal arity on a subject that some
    fusion relates to it.  A prefix may bind 5, which the continuation may
    use as its subject (a bound output); chains and the whole term may sit
    under a restriction.  With `scoped`, a continuation may also be two
    parallel actions, possibly under a restriction of 6."""
    subject = st.integers(0, 3)
    polarity = st.sampled_from(["up", "down"])
    tail = st.just(NIL) | st.builds(Act, st.integers(0, 6 if scoped else 5),
                                    polarity, st.just(()), st.just(NIL))
    if scoped:
        pair = st.builds(Par, st.builds(Act, st.just(6), polarity,
                                        st.just(()), tail), tail)
        tail = tail | pair | st.builds(Nu, st.just(6), pair)
    comps = []
    for _ in range(draw(st.integers(1, 2))):
        act = draw(st.builds(Act, subject, polarity,
                             st.sampled_from([(), (5,)]), tail))
        chains = [act]
        if draw(st.booleans()):
            partner = draw(st.sampled_from([0, 1, 2]))
            flip = "down" if act.polarity == "up" else "up"
            chains.append(Act(act.subject ^ partner, flip, act.bound,
                              draw(tail)))
        comps.extend(Nu(draw(subject), c) if draw(st.booleans()) else c
                     for c in chains)
    if len(comps) == 1:
        comps.append(draw(st.builds(Act, subject, polarity, st.just(()),
                                    st.just(NIL))))
    term = reduce(Par, comps)
    if draw(st.booleans()):
        term = Nu(draw(subject), term)
    return Pwf(term, parse_fusion(draw(st.sampled_from(_FUSIONS))))


@given(_pwfs(scoped=True), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_reach_matches_the_raw_reduct_searches(p, k):
    sigma = canonical_subst(p.fus)
    for x in free_names(p.proc):
        assert sigma.apply(sigma.apply(x)) == sigma.apply(x)
    found = list(reach(p, k))
    keys = [key for key, _ in found]
    assert len(set(keys)) == len(keys)
    # p's own class is not reached
    assert congruence_key(normalize(p).proc) not in keys
    # each key is its node's key up to the fusion, and each node is in
    # σ-normal form: its printed form is the one normalize prints
    for key, node in found:
        base = max((q[1] for q in _nodes(node) if q[0] == "act"),
                   default=0) + 1
        q = Pwf(_to_process(node, base), p.fus)
        assert congruence_key(normalize(q).proc) == key == node_key(node)
        assert form_str(canonical_form(node)) == process_str(normalize(q).proc)
    listing = sorted(f"<{form_str(canonical_form(node))} ; "
                     f"{fusion_str(p.fus)}>" for _, node in found)
    assert listing == reference_listing(p, k)
    # the action-free targets include one that is not literally NIL and
    # one under a fusion other than p's
    targets = [Pwf(NIL, p.fus), Pwf(NIL, DELTA), Pwf(Nu(9, NIL), p.fus),
               Pwf(Nu(9, Par(NIL, NIL)), parse_fusion("{2~3}"))] + step(p)[:2]
    for target in targets:
        for j in range(k + 1):
            expected = reference_reduces_within(p, target, j)
            assert reduces_within(p, target, j) == expected


@given(_pwfs(scoped=True), st.booleans())
@settings(max_examples=200, deadline=None)
def test_reducts_fire_each_pair_of_component_values_once(p, doubled):
    """The distinct reducts of a level are the all-pairs reference's, in
    the order it first yields them: on σ-nodes (`_expand`), and in
    `step`, whose reducts keep their values and order.  A `doubled` term
    has each of its unrestricted components twice, so that pairs of
    component values repeat."""
    if doubled:
        p = Pwf(Par(p.proc, p.proc), p.fus)

    def distinct(found):
        return tuple(dict.fromkeys(r for _, _, r in found))

    node = sigma_node(p)
    with fresh_caches(terms, reduction):
        assert reduction._expand(node) == distinct(
            reference_reducts(*reduction._level(node)))
    found = step(p)
    with fresh_caches(terms, reduction), \
            mock.patch.object(reduction, "_reducts", reference_reducts):
        assert found == step(p)


_ACTION_FREE = st.recursive(
    st.just(NIL), lambda t: st.builds(Par, t, t) | st.builds(
        Nu, st.integers(0, 9), t), max_leaves=6)


@given(_pwfs(scoped=True), st.integers(1, 3), _ACTION_FREE)
@settings(max_examples=150, deadline=None)
def test_the_only_action_free_node_is_nil(p, k, term):
    """An action-free target is matched on NIL, unkeyed: the σ-form of
    an action-free term is NIL, and so is every action-free node that
    `reach` yields."""
    assert sigma_node(Pwf(term, p.fus)) == _NIL_NODE
    for _, node in reach(Pwf(Par(p.proc, term), p.fus), k):
        assert invariant(node) or node == _NIL_NODE


def _without_vectors(p):
    """p with every bound vector dropped; the names it bound are free."""
    if isinstance(p, Act):
        return Act(p.subject, p.polarity, (), _without_vectors(p.body))
    if isinstance(p, Par):
        return Par(_without_vectors(p.left), _without_vectors(p.right))
    if isinstance(p, Nu):
        return Nu(p.name, _without_vectors(p.body))
    return p


@st.composite
def _dual_pairs(draw):
    """One to three chains of one to three actions over subjects 0..2,
    each beside its dual, the chain with every polarity flipped, and
    possibly one action left over; so that many terms reach NIL, some
    only by firing in the right order, at depth half their prefixes.  A
    prefix may pass a name, which the next action of its chain then has
    as its subject."""
    spec = st.lists(st.tuples(st.integers(0, 2), st.booleans(),
                              st.booleans()), min_size=1, max_size=3)

    def chain(actions, flip, offset):
        body = NIL
        for t in reversed(range(len(actions))):
            subject, up, passes = actions[t]
            if t and actions[t - 1][2]:
                subject = offset + t - 1
            body = Act(subject, "up" if up != flip else "down",
                       (offset + t,) if passes else (), body)
        return body

    comps = []
    for c, actions in enumerate(draw(st.lists(spec, min_size=1,
                                              max_size=3))):
        comps += [chain(actions, False, 10 * c + 10),
                  chain(actions, True, 10 * c + 15)]
    if draw(st.booleans()):
        comps.append(Act(draw(st.integers(0, 2)), "up", (), NIL))
    return Pwf(reduce(Par, draw(st.permutations(comps))), DELTA)


@given(_pwfs(scoped=True) | _dual_pairs(), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_depth_first_nil_search_matches_the_reference(p, k):
    """The depth-first NIL search on closed terms, with their bound
    vectors and without them, at depth k and unbounded, agrees with the
    level-by-level reference search on `Process` terms, which the
    unbounded search matches at half the term's prefix count."""
    for term in (p.proc, _without_vectors(p.proc)):
        closed = nu_all(Pwf(term, p.fus))
        node = sigma_node(closed)
        with fresh_caches(terms, reduction):
            assert reduction._reaches_nil(node, k) == \
                reference_reduces_within(closed, UNIT, k)
            prefixes = sum(count for _, count in invariant(node))
            assert reduction._reaches_nil(node, math.inf) == \
                reference_reduces_within(closed, UNIT, prefixes // 2)


@given(_pwfs(scoped=True) | _dual_pairs())
@settings(max_examples=150, deadline=None)
def test_an_unbalanced_term_reaches_nil_in_no_number_of_steps(p):
    """Where some name that no vector binds has unequal up and down
    prefix counts of one arity (a nonempty `reduction._signature`), the
    reference search does not reach NIL under the term's fusion (<1 ; Δ>
    for a term under Δ) in 4 steps, nor in half the term's prefix count,
    where every search from it ends; so in no number of steps."""
    for term in (p.proc, _without_vectors(p.proc)):
        closed = nu_all(Pwf(term, p.fus))
        node = sigma_node(closed)
        if reduction._signature(node):
            prefixes = sum(count for _, count in invariant(node))
            assert not reference_reduces_within(
                closed, Pwf(NIL, p.fus), max(4, prefixes // 2))


@given(_pwfs(scoped=True))
# firing 0?(5) with 2!(5) or with 0!(5) leaves one PWF under {0~2}
@example(parse_pwf("<0?(5) | 2!(5) | 0!(5) ; {0~2}>"))
@settings(max_examples=200, deadline=None)
def test_step_matches_the_process_level_reference(p):
    """Firing on the multiset form gives the reducts that firing on
    `Process` terms with capture-avoiding substitution gives, each class
    up to the fusion once, and each reduct's binders capture none of its
    free names, so it reads back as itself."""
    def keys(reducts):
        return Counter(node_key(sigma_node(r)) for r in reducts)

    found = step(p)
    assert keys(found) == keys(reference_step(p))
    for r in found:
        assert equal_pwf(parse_pwf(pwf_str(r)), r)


def _outcomes(p: Pwf, k: int) -> tuple:
    """What the search gives on p: `reach` in order, the `reduces_within`
    verdicts of four targets at 0..k steps, and the `fusioncalc reduce`
    listing."""
    targets = [Pwf(NIL, p.fus), Pwf(NIL, DELTA), nu_all(p)] + step(p)[:1]
    verdicts = [reduces_within(p, target, j)
                for target in targets for j in range(k + 1)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["reduce", pwf_str(p), "--steps", str(k)])
    return list(reach(p, k)), verdicts, code, out.getvalue()


@given(_pwfs(scoped=True), st.lists(_pwfs(scoped=True), max_size=3),
       st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_warm_node_stores_give_the_outcome_of_empty_ones(p, others, k):
    """The stored keys and reducts depend on the node alone: searches
    from other terms, from p beside each of them (nodes that share
    components with p's), and a deeper one from p leave p's outcomes as
    they are with empty stores."""
    with fresh_caches(terms, reduction):
        cold = _outcomes(p, k)
    with fresh_caches(terms, reduction):
        for q in others:
            _outcomes(q, k)
            list(reach(Pwf(Par(p.proc, q.proc), p.fus), k))
        list(reach(p, k + 1))
        assert _outcomes(p, k) == cold
        assert _outcomes(p, k) == cold


def test_an_infinite_class_no_free_name_is_in_is_undecided(capsys):
    """[1 <-> 2.1] and [2.1 <-> 2.2.2.1] make an infinite class, while
    the free name 4 is alone in its class: σ reads only the free names'
    classes, so the fusion is checked as a whole first.  On
    `reduces_within(p, p, 1)` the two fusions are one value, which
    `equal` takes as equal unwalked."""
    text = "<4!() ; {[1 <-> 2.1], [2.1 <-> 2.2.2.1]}>"
    p = parse_pwf(text)
    assert fusion.class_of(p.fus, 4) == {4}
    for command in ("normalize", "reduce"):
        assert main([command, text]) == 3
        out = capsys.readouterr().out
        assert out.startswith("undecided: ") and "class_budget" in out
    for call in (lambda: sigma_node(p), lambda: list(reach(p, 1)),
                 lambda: reduces_within(p, p, 1), lambda: step(p)):
        with pytest.raises(fusion.ClassBudgetError):
            call()


def test_budget_errors_are_not_stored_and_the_node_stores_stay_bounded():
    # the double-swap star: nine siblings x!().0?().z?(), each another's
    # with two pairs of names swapped, whose orders exceed the candidate
    # budget; lowered here, so that the search gives up at once.  The
    # start is not keyed, so the star is the reduct of one more pair.
    names = " ".join(str(x) for x in range(1, 20))
    star = " | ".join(f"{x}!().0?().{x + 10}?()" for x in range(1, 10))
    p = parse_pwf(f"<new 0 {names}. ({star} | 30!() | 30?()) ; {{}}>")
    clear_caches()
    with mock.patch.object(terms, "_MAX_CANDIDATES", 5040):
        for _ in range(2):
            misses = node_key.cache_info().misses
            with pytest.raises(SearchBudgetError, match="budget 5040$"):
                list(reach(p, 1))
            assert node_key.cache_info().misses == misses + 1
            # no key is stored; the one expansion stored is the start's,
            # which completed before its reduct, the star, was keyed
            assert node_key.cache_info().currsize == 0
            assert reduction._expand.cache_info().currsize == 1
            cached(reduction._expand, sigma_node(p))
        # each search keys and expands a distinct node: x!()
        for x in range(max(terms._KEY_CAP, reduction._REDUCT_CAP) + 10):
            assert reduces_within(parse_pwf(f"<{x}!().{x}!() | {x}?() ; {{}}>"),
                                  parse_pwf(f"<{x}!() ; {{}}>"), 1)
        for cache, cap in ((node_key, terms._KEY_CAP),
                           (reduction._expand, reduction._REDUCT_CAP)):
            info = cache.cache_info()
            assert info.currsize == info.maxsize == cap
        assert reduces_within(parse_pwf("<0!() | 0?() ; {}>"), UNIT, 1)


def test_identical_binding_pairs_expand_one_node_per_class_and_level(
        monkeypatch):
    """n identical pairs that bind a name reach C(n, j)² distinct nodes
    at level j, of only a few classes: the search deduplicates each level
    by key, so it expands one node per class."""
    n, k = 4, 3
    p = parse_pwf("<" + " | ".join(["0!(1).1!()", "0?(2).2?()"] * n)
                  + " ; {}>")
    expanded = []
    expand = reduction._expand
    clear_caches()
    monkeypatch.setattr(reduction, "_expand",
                        lambda q: expanded.append(q) or expand(q))
    found = list(reach(p, k))

    def level(node):
        return (4 * n - sum(count for _, count in invariant(node))) // 2

    start = sigma_node(p)
    assert [level(q) for q in expanded] == sorted(level(q) for q in expanded)
    assert expanded[0] == start
    # every class of the levels below k, and nothing else, is expanded once
    assert Counter(level(q) for q in expanded[1:]) == Counter(
        level(node) for _, node in found if level(node) < k)
    assert len({node_key(q) for q in expanded[1:]}) == len(expanded) - 1
    # levels 1 and 2 hold 16 and 52 distinct nodes
    assert Counter(level(q) for q in expanded) == {0: 1, 1: 1, 2: 2}
