import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fusioncalc import pwf, realizability, reduction, terms
from fusioncalc.fusion import (DELTA, InvalidFusionError, _classes,
                               identity_I, join, parse_fusion)
from fusioncalc.names import ALL
from fusioncalc.process import NIL, Act, Nu, Par, canonical, substitute
from fusioncalc.pwf import (UNIT, Pwf, PwfError, bullet, equal_pwf, nu_all,
                            par, parse_pwf, star)
from fusioncalc.realizability import (Universe, check_laws, default_universe,
                                      make_pole_done, parse_pole, pole_always)
from fusioncalc.reduction import pole_regular_on
from fusioncalc.terms import multiset_form
from caches import clear_caches
from fusion_reference import canonical_subst
from reduction_reference import (reference_pole_regular_on,
                                 reference_reduces_within)
from test_reduction import _small_universe


def small_universe(pole=pole_always, n=40):
    members = default_universe(max_actions=2, names=3,
                               fusions=[DELTA, parse_fusion("{0~1}")],
                               limit=n)
    return Universe(members, pole)


def test_default_universe_is_deterministic_and_deduplicated():
    a = default_universe(limit=180)
    b = default_universe(limit=180)
    assert len(a) == len(b) == 180
    assert [str(p) for p in a] == [str(p) for p in b]
    u = Universe(a, pole_always)
    assert u.clip(a) == u.full_mask  # members are pairwise distinct
    # under {0~1}, <1!() ; {0~1}> equals <0!() ; {0~1}>: one is kept
    fused = parse_fusion("{0~1}")
    # two family sets of one relation: the second fusion adds nothing
    split = [parse_fusion("{[1 <-> 2]}"),
             parse_fusion("{[1.1 <-> 1.2], [2.1 <-> 2.2]}")]
    for members, last in ((default_universe(1, 2, [DELTA, fused], 30), fused),
                          (default_universe(2, 3, [fused], 60), fused),
                          (default_universe(1, 1, split, 100), split[0])):
        assert members[-1].fus == last
        for i, p in enumerate(members):
            for q in members[:i]:
                assert not equal_pwf(p, q), (p, q)
        u = Universe(members, pole_always)
        assert u.clip(members) == u.full_mask
    assert len(default_universe(1, 1, split, 100)) == 6


def test_default_universe_rejects_bounds_out_of_range():
    """limit 0 or below would still return a member, and max_actions
    above 2 was capped at 2 without a word."""
    for kwargs, message in (({"limit": 0}, "limit must be at least 1"),
                            ({"limit": -5}, "limit must be at least 1"),
                            ({"names": -1}, "names must be at least 0"),
                            ({"max_actions": 3}, "max_actions must be 0, 1"),
                            ({"max_actions": -1}, "max_actions must be 0, 1")):
        with pytest.raises(ValueError, match=message):
            default_universe(**kwargs)
    assert default_universe(limit=1) == [UNIT]
    assert default_universe(0, 4, [DELTA, identity_I()]) == \
        [UNIT, Pwf(NIL, identity_I())]
    assert default_universe(2, 0) == [UNIT]


def closed(p: Pwf) -> tuple:
    """The σ-node of ν(p), every name of p bound: the closed composite
    that a pole decides."""
    return pwf.sigma_node(nu_all(p))


def test_parse_pole():
    assert parse_pole("always") is pole_always
    pole = parse_pole("done:2")
    assert pole(closed(UNIT))
    assert not pole(closed(parse_pwf("<0!() ; {}>")))
    # the exact pole searches each term to its last step
    exact = parse_pole("done")
    deep = closed(parse_pwf("<" + " | ".join(
        f"{x}!().{x}?() | {x}?().{x}!()" for x in range(5)) + " ; {}>"))
    assert exact(deep) and not pole(deep)
    assert exact(closed(UNIT))
    assert not exact(closed(parse_pwf("<0!() | 1?() ; {}>")))
    with pytest.raises(ValueError):
        parse_pole("sometimes")


def test_bounds_that_decide_nothing_are_rejected():
    """A negative k would put even <1 ; Δ> outside the pole, and with
    no sample no law would be checked."""
    for text in ("done:-1", "done:x", "done:", "done:1.5", "done:+2",
                 "done:٣"):
        with pytest.raises(ValueError, match="unknown pole"):
            parse_pole(text)
    with pytest.raises(ValueError, match="k >= 0"):
        make_pole_done(-1)
    assert make_pole_done(0)(closed(UNIT))
    u = small_universe(n=4)
    for samples in (0, -2):
        with pytest.raises(ValueError, match="samples >= 1"):
            check_laws(u, samples=samples)
    assert [ok for _, ok, _ in check_laws(u, samples=1)] == [True] * 7


def test_done_pole_searches_and_caches_no_unbalanced_composite(
        monkeypatch):
    """A composite in which some name that no vector binds has more up
    than down prefixes of one arity, or fewer, is outside the pole,
    even where its invariant would pass; vector names are not counted.
    A universe builds no such composite, so its matrix searches none
    (see also `_merged_exactly_the_balanced_pairs`)."""
    unbalanced = [parse_pwf(text) for text in (
        "<0!() | 1?() ; {}>", "<new 2. (2!() | 2?().0!()) | 1?() ; {}>",
        "<0!(5).5!() | 0?(6).1?() ; {}>")]
    # 5 and 6 become one name in the step, so only 0 is counted
    passing = parse_pwf("<0!(5).5!() | 0?(6).6?() ; {}>")
    for pole in (make_pole_done(2), make_pole_done(math.inf)):
        for p in unbalanced:
            assert not pole(closed(p))
        assert pole(closed(passing))
    members = [parse_pwf(text) for text in (
        "<0!() ; {}>", "<1?() ; {}>", "<new 2. (2!() | 2?().0!()) ; {}>",
        "<0!(5).5!() ; {}>", "<0?(6).1?() ; {}>", "<0?(6).6?() ; {}>")]
    searched = []
    reaches_nil = realizability._reaches_nil
    monkeypatch.setattr(realizability, "_reaches_nil",
                        lambda node, k: searched.append(node)
                        or reaches_nil(node, k))
    for pole in (make_pole_done(2), make_pole_done(math.inf)):
        searched.clear()
        assert Universe(members, pole).matrix()[3] == 1 << 5
        assert searched and not any(map(reduction._signature, searched))


def _count_keys(monkeypatch) -> list:
    """Record the argument of every `node_key` call, in every module
    that binds it: each congruence key is computed through it.  The
    caches start empty, so the counts are those of a fresh process."""
    from fusioncalc import reduction, terms
    clear_caches()
    calls = []
    original = terms.node_key

    def counting(node):
        calls.append(node)
        return original(node)

    for module in (terms, pwf, reduction):
        monkeypatch.setattr(module, "node_key", counting)
    return calls


def test_done_pole_canonicalises_a_term_once(monkeypatch):
    """The pole keys no composite and matches the goal NIL unkeyed, so a
    term one step from NIL keys nothing; a longer search keys each
    distinct reduct at most once, with or without bound vectors."""
    one_step = [closed(parse_pwf(text)) for text in (
        "<0!() | 0?() ; {}>", "<1!() | 1?() ; {}>",
        "<new 2. 2!() | 2?() ; {}>")]
    longer = [closed(parse_pwf(text)) for text in (
        "<new 2. 2!().2?() | 2?().2!() ; {}>",
        "<new 0. (0!(1).1!().0!() | 0?(2).2?().0?()"
        " | 0!(3).3?() | 0?(4).4!()) ; {}>")]
    calls = _count_keys(monkeypatch)
    poles = (make_pole_done(5), make_pole_done(math.inf))
    for pole in poles:
        for node in one_step:
            assert pole(node)
    assert calls == []
    for node in longer:
        for pole in poles:
            calls.clear()
            assert pole(node)
            assert calls and len(calls) == len(set(calls))
            assert ("nil",) not in calls
            assert node not in calls


def test_done_pole_rejects_unbalanced_terms_without_canonicalising(
        monkeypatch):
    nodes = [closed(parse_pwf(text)) for text in (
        "<0!() | 0!() ; {}>", "<0!() | 0?(1) ; {}>",
        "<0!().0?() | 0?().0!() ; {}>")]
    calls = _count_keys(monkeypatch)
    pole = make_pole_done(1)
    for node in nodes:
        assert not pole(node)
    assert calls == []


def test_orthogonal_of_empty_is_everything():
    u = small_universe()
    assert u.orthogonal_mask(0) == u.full_mask


def test_orthogonal_is_antitone():
    u = small_universe(make_pole_done(4), 30)
    some = u.clip([parse_pwf("<0!() ; {}>"), UNIT])
    assert u.orthogonal_mask(u.full_mask) & u.orthogonal_mask(some) == \
        u.orthogonal_mask(u.full_mask)


def test_orthogonal_finds_communicating_partner():
    u = small_universe(make_pole_done(4), 30)
    out = u.orthogonal([parse_pwf("<0!() ; {}>")])
    assert any(str(m) == str(parse_pwf("<0?() ; {}>")) for m in out)
    assert all(str(m) != str(parse_pwf("<1?() ; {}>")) for m in out)


def test_biorthogonal_closure_properties():
    u = small_universe(make_pole_done(4), 30)
    rng = random.Random(3)
    for _ in range(10):
        a = rng.getrandbits(len(u.members)) & u.full_mask
        bi = u.biorthogonal_mask(a)
        assert a & bi == a
        assert u.biorthogonal_mask(bi) == bi
        # an orthogonal is a behaviour: closed under the biorthogonal
        ortho = u.orthogonal_mask(a)
        assert u.biorthogonal_mask(ortho) == ortho


def test_one_contains_unit():
    u = small_universe(make_pole_done(4), 30)
    assert u.op_one() & u.clip([UNIT]) == u.clip([UNIT])


def test_tensor_monotone_under_argument_closure():
    # the reverse inclusion needs composition witnesses outside the
    # finite member list, so only monotonicity is universe-relative
    u = small_universe(make_pole_done(4), 30)
    rng = random.Random(5)
    for _ in range(6):
        a = rng.getrandbits(len(u.members)) & u.full_mask
        b = rng.getrandbits(len(u.members)) & u.full_mask
        closed = u.op_tensor(u.biorthogonal_mask(a), u.biorthogonal_mask(b))
        assert u.op_tensor(a, b) & closed == u.op_tensor(a, b)


def test_parr_is_the_dual_of_tensor():
    # on single members, where the orthogonals are large enough for the
    # images to vary
    u = small_universe(make_pole_done(4), 30)
    orth = u.orthogonal_mask
    images = set()
    for i in range(len(u.members)):
        for j in range(len(u.members)):
            a, b = 1 << i, 1 << j
            images.add(u.op_parr(a, b))
            assert u.op_parr(a, b) == orth(u.op_tensor(orth(a), orth(b)))
    assert len(images) > 2


def test_arrow_star_adjunction_on_behaviours():
    u = small_universe(make_pole_done(4), 30)
    rng = random.Random(7)
    for _ in range(6):
        a = u.biorthogonal_mask(rng.getrandbits(len(u.members)) & u.full_mask)
        b = u.biorthogonal_mask(rng.getrandbits(len(u.members)) & u.full_mask)
        c = u.biorthogonal_mask(rng.getrandbits(len(u.members)) & u.full_mask)
        applied = u.op_star(1, c, a)
        assert (applied & b == applied) == (c & u.op_arrow(a, b) == c)
    # as `pwf.star`, the table rejects an index that names no injection
    for index in (0, 3):
        with pytest.raises(PwfError, match="star index"):
            u.op_star(index, u.full_mask, u.full_mask)


@pytest.mark.parametrize("pole_text", ["always", "done:6"])
def test_check_laws_passes_on_small_universe(pole_text):
    u = small_universe(parse_pole(pole_text), 30)
    report = check_laws(u, samples=10)
    assert len(report) == 7
    for name, ok, witness in report:
        assert ok, (name, witness)


def test_done_pole_is_regular_on_small_universe():
    members = default_universe(max_actions=2, names=3,
                               fusions=[DELTA], limit=40)
    assert pole_regular_on(make_pole_done(8), members)


def mixed_members():
    """Δ members over names 0, 1; {0~1} members with subject 0 only, so an
    image such as <1!() ; {0~1}> is a member only up to the fusion; and
    two members under the family fusion [1 <-> 2], which fuses 0~1 and
    2~3, so that their joins with <1 ; {0~1}> or <1 ; {2~3}> are members
    only through the family fallback."""
    family = identity_I()
    members = (default_universe(1, 2, [DELTA], 100)
               + default_universe(1, 1, [parse_fusion("{0~1}")], 100)
               + [Pwf(NIL, parse_fusion("{2~3}")), Pwf(NIL, family),
                  Pwf(Act(0, "up", (), NIL), family)])
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            assert not equal_pwf(a, b)
    return members


TABLE_OPS = {
    "par": (Universe.op_par, par),
    "bullet": (Universe.op_bullet, bullet),
    "star1": (lambda u, a, b: u.op_star(1, a, b),
              lambda p, q: star(1, p, q)),
    "star2": (lambda u, a, b: u.op_star(2, a, b),
              lambda p, q: star(2, p, q)),
}


@pytest.mark.parametrize("label", sorted(TABLE_OPS))
def test_table_cells_match_a_scan_with_equal_pwf(label):
    members = mixed_members()
    u = Universe(members, pole_always)
    op_mask, op = TABLE_OPS[label]
    hits = 0
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            try:
                image = op(a, b)
            except PwfError:
                image = None
            expected = 0
            if image is not None:
                for k, m in enumerate(members):
                    if equal_pwf(image, m):
                        expected = 1 << k
                        break
            hits += expected != 0
            assert op_mask(u, 1 << i, 1 << j) == expected, (label, a, b)
    assert hits


def test_fast_path_covers_fused_and_family_images():
    members = mixed_members()
    u = Universe(members, pole_always)
    fused = members.index(parse_pwf("<0!() ; {0~1}>"))
    # <1!() ; {0~1}> is not a member, but equals one under the fusion
    image = par(parse_pwf("<1 ; {0~1}>"), parse_pwf("<1!() ; {}>"))
    assert u.clip([image]) == 1 << fused
    # the family subsumes the pair; the keys differ, the PWFs do not, and
    # no member shares the signature of the second image
    for pair in ("{0~1}", "{2~3}"):
        image = par(members[-1], parse_pwf(f"<1 ; {pair}>"))
        assert image.fus.pairs and image.fus.families
        assert u.clip([image]) == 1 << (len(members) - 1)


def test_clip_makes_one_multiset_form_per_image(monkeypatch):
    """Building and keying a universe makes one multiset form per
    member, which its invariant, its key and its images all read; once
    the members are keyed, clip builds one node per image, whose σ-image
    `pwf_key` keys."""
    from fusioncalc import reduction
    calls = []
    original = terms.multiset_form
    for module in (terms, pwf, realizability, reduction):
        monkeypatch.setattr(module, "multiset_form",
                            lambda p: calls.append(p) or original(p))
    members = mixed_members()
    calls.clear()
    u = Universe(members, pole_always)
    u.clip([])  # the members' keys
    assert calls == [m.proc for m in members]
    for text, member in (("<1!() ; {0~1}>", True), ("<0?() ; {}>", True),
                         ("<1!().1!() ; {0~1}>", False)):
        p = parse_pwf(text)
        calls.clear()
        assert bool(u.clip([p])) == member
        assert calls == [p.proc]


def test_clip_reads_one_class_function_per_image_and_none_under_delta(
        monkeypatch):
    """σ of a non-Δ image, for its key, reads the fusion's class
    function once; under Δ, where every name is its class's least
    member, σ reads none."""
    u = Universe(mixed_members(), pole_always)
    u.clip([])  # the members' keys
    calls = []
    classes = pwf._classes
    monkeypatch.setattr(pwf, "_classes",
                        lambda e: calls.append(e) or classes(e))
    for text, member, read in (("<1!() ; {0~1}>", True, 1),
                               ("<0?() ; {}>", True, 0),
                               ("<1!().1!() ; {0~1}>", False, 1),
                               ("<1!().1!() ; {}>", False, 0)):
        calls.clear()
        assert bool(u.clip([parse_pwf(text)])) == member
        assert len(calls) == read, text


def invariant(p):
    """Action prefixes of a process counted by (polarity, arity)."""
    if isinstance(p, Act):
        return Counter({(p.polarity, len(p.bound)): 1}) + invariant(p.body)
    if isinstance(p, Par):
        return invariant(p.left) + invariant(p.right)
    if isinstance(p, Nu):
        return invariant(p.body)
    return Counter()


def reaches_nil_possibly(counts, k):
    """Up and down actions pair off per arity, in at most k pairs."""
    ups = {a: c for (pol, a), c in counts.items() if pol == "up"}
    downs = {a: c for (pol, a), c in counts.items() if pol == "down"}
    return ups == downs and sum(ups.values()) <= k


def _record_merges(monkeypatch) -> list:
    """The node of every image and composite a universe builds: each is
    one `_merge` of two member nodes."""
    built = []
    merge = realizability._merge

    def recording(*args):
        built.append(merge(*args))
        return built[-1]

    monkeypatch.setattr(realizability, "_merge", recording)
    return built


def _count_joins(monkeypatch) -> list:
    """The operands of every fusion join a universe computes: one pair
    per pair of member fusions in each op table and in the matrix."""
    joins = []

    def counting(e, f):
        joins.append((e, f))
        return join(e, f)

    monkeypatch.setattr(realizability, "join", counting)
    return joins


def test_universes_on_one_member_list_share_the_tables(monkeypatch):
    clear_caches()
    joins = _count_joins(monkeypatch)
    built = _record_merges(monkeypatch)
    members = default_universe(1, 2, [DELTA], 10)
    n = len(members)
    full = (1 << n) - 1
    possible = [invariant(m.proc) for m in members]
    fitting = sum(1 for a in members for b in members
                  if invariant(a.proc) + invariant(b.proc) in possible)
    assert 0 < fitting < n * n
    # each fitting pair's image built once, and one join for the one
    # pair of fusions
    images = []
    for pole in (pole_always, make_pole_done(2)):
        images.append(Universe(members, pole).op_par(full, full))
        assert len(built) == fitting and len(joins) == 1
    assert images[0] == images[1]
    for limit in range(2, 9):
        Universe(default_universe(1, 2, [DELTA], limit), pole_always)
    info = realizability._shared_tables.cache_info()
    assert info.currsize == info.maxsize == realizability._SHARED_LISTS


def test_always_matrix_equals_the_pairwise_rows():
    members = mixed_members()
    n = len(members)
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if pole_always(nu_all(par(members[i], members[j]))):
                rows[i] |= 1 << j
    assert Universe(members, pole_always).matrix() == rows


def sandbox_members():
    return default_universe(2, 3, [DELTA, parse_fusion("{0~1}")], 48)


def fused_first_members():
    """{0~1} members before Δ ones, so that the first fusion group is a
    fused one."""
    return default_universe(1, 2, [parse_fusion("{0~1}"), DELTA], 40)


def binding_members():
    """Members whose reducts keep restricted names, and a vector that
    becomes one: a reduct that reused its member's binders, or some
    other side's, would fuse them with a partner's names."""
    return [parse_pwf("<0?() ; {}>"), parse_pwf("<0!() ; {}>"),
            parse_pwf("<new 5. (5!() | 5?().5!()) ; {}>"),
            parse_pwf("<0!(5).5!() | 0?(6).6?() ; {}>"),
            parse_pwf("<0!(5).5!() | 0?(6).0!() ; {}>"),
            parse_pwf("<0!().1?(6).6?() | 0?() | 1!(5).5!() ; {}>"),
            parse_pwf("<5?() ; {}>"), UNIT, *BINDING_MEMBERS]


REGULAR_UNIVERSES = {"sandbox": sandbox_members, "mixed": mixed_members,
                     "small": _small_universe,
                     "fused-first": fused_first_members,
                     "binding": binding_members}
REGULAR_POLES = {"true": lambda node: True,
                 "reduces": lambda node: reference_reduces_within(
                     Pwf(terms._to_process(node), DELTA), UNIT, 8),
                 "unit": lambda node: node == ("nil",)}


@pytest.mark.parametrize("pole_text", ["always", "done:1", "done:2",
                                       "done:8", "done", *REGULAR_POLES])
@pytest.mark.parametrize("universe", sorted(REGULAR_UNIVERSES))
def test_pole_regular_on_matches_the_reference_loop(universe, pole_text):
    """The node check gives the verdict of the loop over `Process`
    terms, under the `done` poles, which carry their k, and under plain
    callables."""
    members = REGULAR_UNIVERSES[universe]()
    pole = REGULAR_POLES.get(pole_text) or parse_pole(pole_text)
    assert pole_regular_on(pole, members) == \
        reference_pole_regular_on(pole, members)


def _recorded(monkeypatch, method: str) -> list:
    """Each item that the `Universe` generator `method` yields."""
    out = []
    original = getattr(Universe, method)

    def recording(self, *args, **kwargs):
        for item in original(self, *args, **kwargs):
            out.append(item)
            yield item

    monkeypatch.setattr(Universe, method, recording)
    return out


@pytest.mark.parametrize("universe", sorted(REGULAR_UNIVERSES))
def test_pole_regular_on_builds_only_the_rows_of_members_that_step(
        monkeypatch, universe):
    """Under a `done` pole, `pole_regular_on` merges only composites
    whose left operand is a member that steps or a σ-reduct of its node,
    and runs no PWF operator.  Each row it builds holds exactly the
    members r for which the pole holds of ν(left | r) built as a
    `Process`."""
    members = REGULAR_UNIVERSES[universe]()
    pole = make_pole_done(8)
    expected = reference_pole_regular_on(pole, members)
    lefts, stepping = list(members), set()
    for i, m in enumerate(members):
        for q in reduction._expand(pwf.sigma_node(m)):
            stepping.add(i)
            base = max(realizability._names(q)[0], default=0) + 1
            lefts.append(Pwf(terms._to_process(q, base), m.fus))
    assert 0 < len(stepping) < len(members)
    rows = [(i, j) for i, left in enumerate(lefts)
            if i in stepping or i >= len(members)
            for j, r in enumerate(members) if pole(closed(par(left, r)))]
    images = _recorded(monkeypatch, "_images")
    in_pole = _recorded(monkeypatch, "_in_pole")
    built = _record_merges(monkeypatch)
    for name in ("nu_all", "par"):
        monkeypatch.setattr(pwf, name, lambda *args, name=name:
                            pytest.fail(f"pwf.{name} ran"))
    assert pole_regular_on(make_pole_done(8), members) == expected
    assert len(built) == len(images) > 0
    assert {i for i, *_ in images if i < len(members)} <= stepping
    assert all(i < len(lefts) for i, *_ in images)
    assert sorted(in_pole) == rows


BINDING_MEMBERS = [parse_pwf("<0?(5).5!() ; {}>"),
                   parse_pwf("<new 2. 2!(3) | 1?(4).4?() ; {0~1}>")]
INVARIANT_POOL = (default_universe(2, 3, [DELTA, parse_fusion("{0~1}")], 160)
                  + mixed_members() + BINDING_MEMBERS)
INVARIANT_OPS = {label: op for label, (_, op) in TABLE_OPS.items()}


@given(st.sampled_from(INVARIANT_POOL), st.sampled_from(INVARIANT_POOL),
       st.sampled_from(sorted(INVARIANT_OPS)))
@settings(max_examples=150, deadline=None)
def test_images_have_the_summed_invariant(a, b, label):
    expected = invariant(a.proc) + invariant(b.proc)
    try:
        image = INVARIANT_OPS[label](a, b)
    except PwfError:
        return
    sigma = canonical_subst(image.fus)
    for p in (image.proc, canonical(image.proc), substitute(image.proc, sigma),
              nu_all(image).proc):
        assert invariant(p) == expected
        assert terms.invariant(multiset_form(p)[0]) == \
            tuple(sorted(expected.items()))


def without_k(pole):
    """The pole as a plain callable, without its k: the matrix then
    builds and hands it every composite."""
    return lambda node: pole(node)


def _matrix_composites(monkeypatch, members, pole) -> list:
    """(i, j, node) of every composite that the matrix of a universe on
    the members builds under the pole."""
    with monkeypatch.context() as patch:
        images = _recorded(patch, "_images")
        Universe(members, pole).matrix()
    return [(i, j, node) for i, j, _, node in images]


def _fitting_composites(monkeypatch, members, k) -> list:
    """(i, j, node) of every composite of the members whose prefixes can
    pair off in k steps (`reduction._may_reach`), as the matrix of a
    plain callable builds them."""
    return [(i, j, node) for i, j, node in _matrix_composites(
        monkeypatch, members, without_k(make_pole_done(k)))
        if reduction._may_reach(terms.invariant(node), (), k)]


def _merged_exactly_the_balanced_pairs(monkeypatch, members, k) -> list:
    """Under `done:k`, the matrix merges a pair exactly when its
    invariants fit and its composite is balanced (its
    `reduction._signature` is empty), once each, with one join per pair
    of member fusions, and searches each merged composite once, in the
    order it is built; every other pair whose invariants fit is outside
    the pole by the reference search.  Returns the merged nodes."""
    fitting = _fitting_composites(monkeypatch, members, k)
    joins = _count_joins(monkeypatch)
    built = _record_merges(monkeypatch)
    searched = []
    reaches_nil = realizability._reaches_nil
    monkeypatch.setattr(realizability, "_reaches_nil",
                        lambda node, k: searched.append(node)
                        or reaches_nil(node, k))
    merged = _matrix_composites(monkeypatch, members, make_pole_done(k))
    assert len(built) == len(merged)
    assert searched == built
    fusions = len({m.fus for m in members})
    assert len(joins) == fusions * (fusions + 1) // 2
    assert sorted((i, j) for i, j, _ in merged) == sorted(
        (i, j) for i, j, node in fitting if not reduction._signature(node))
    assert 0 < len(merged) < len(fitting)
    for i, j, node in fitting:
        if reduction._signature(node):
            assert not reference_reduces_within(
                nu_all(par(members[i], members[j])), UNIT, k), (i, j)
    return built


def test_done_matrix_builds_only_balanced_composites(monkeypatch):
    """The pairs of the `done:2` matrix whose invariants fit are those
    whose actions can pair off in two steps; of these, only the pairs
    whose composite is balanced are merged."""
    members = sandbox_members()
    fitting = _fitting_composites(monkeypatch, members, 2)
    assert sorted((i, j) for i, j, _ in fitting) == [
        (i, j) for i, a in enumerate(members) for j in range(i, len(members))
        if reaches_nil_possibly(invariant(Par(a.proc, members[j].proc)), 2)]
    _merged_exactly_the_balanced_pairs(monkeypatch, members, 2)


def test_tables_key_only_images_of_a_member_skeleton(monkeypatch):
    """An op-table image is keyed only when its skeleton is a member's:
    congruent nodes have one skeleton, so no other image can be a
    member."""
    clear_caches()
    members = sandbox_members()
    u = Universe(members, pole_always)
    u.clip([])  # the members' keys
    keyed = []
    sigma_key = realizability.sigma_key
    monkeypatch.setattr(realizability, "sigma_key", lambda e, node:
                        keyed.append(node) or sigma_key(e, node))
    built = _record_merges(monkeypatch)
    for op_mask, _ in TABLE_OPS.values():
        op_mask(u, u.full_mask, u.full_mask)
    skeletons = {terms.skeleton(pwf.sigma_node(m), {}) for m in members}
    matching = [node for node in built
                if terms.skeleton(node, {}) in skeletons]
    assert keyed == matching
    assert (len(keyed), len(built)) == (167, 524)


def test_done_matrix_searches_only_balanced_composites(monkeypatch):
    """As under `done:2`, on the `sandbox` members and on members of
    several fusions, whose pairs of fusion groups rename each side
    through J's classes."""
    for members in (sandbox_members(), mixed_members()):
        with monkeypatch.context() as patch:
            _merged_exactly_the_balanced_pairs(patch, members, 8)


@pytest.mark.parametrize("members", [sandbox_members, mixed_members])
def test_a_plain_callable_gives_the_rows_and_verdict_of_its_pole(members):
    """A callable that wraps a `done` pole and hides its k, as a traced
    benchmark round wraps it, builds every composite and gives the
    pole's own matrix rows and regularity verdict."""
    members = members()
    pole = make_pole_done(8)
    u, plain = Universe(members, pole), Universe(members, without_k(pole))
    assert plain.matrix() == u.matrix()
    assert plain.regular() == u.regular()


@pytest.mark.parametrize("members", sorted(REGULAR_UNIVERSES))
def test_matrix_composites_are_closed_and_under_delta(members):
    """Every composite ν(p | q) that `_images` yields binds all its
    names, so its fusion is Δ and its node has no free name: the pole
    decides the node alone."""
    u = Universe(REGULAR_UNIVERSES[members](), pole_always)
    images = list(u._images(((), (), ALL, ()), lambda a, b: True))
    assert len(images) == len(u.members) ** 2
    for i, j, fus, node in images:
        assert fus == DELTA, (i, j)
        assert not realizability._names(node)[0], (i, j)


@given(st.sampled_from(INVARIANT_POOL), st.sampled_from(INVARIANT_POOL))
@settings(max_examples=200, deadline=None)
def test_side_signatures_cancel_exactly_on_balanced_composites(a, b):
    """Two renamed sides share no vector name, so their balance
    signatures add up in the composite: they cancel exactly when the
    merged node is balanced, for two members and for one member on both
    sides."""
    u = Universe([a, b], pole_always)
    joined = join(pwf.tag_fusion(a.fus, ()), pwf.tag_fusion(b.fus, ()))
    side = realizability._sides(u._nodes, _classes(joined), ((), (), ALL, ()))
    for i, j in ((0, 1), (1, 0), (0, 0), (1, 1)):
        left, right = side(i, 0), side(j, 1)
        cancel = reduction._signature(("par", left[1])) == \
            reduction._negated(reduction._signature(("par", right[1])))
        assert cancel == (not reduction._signature(
            realizability._merge(left, right))), (i, j)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_done_pole_is_empty_off_balanced_small_terms(k):
    members = sandbox_members()
    pole = make_pole_done(k)
    inside = 0
    for i, a in enumerate(members):
        for b in members[i:]:
            q = nu_all(par(a, b))
            verdict = reference_reduces_within(q, UNIT, k)
            assert pole(pwf.sigma_node(q)) == verdict, (a, b)
            if verdict:
                inside += 1
                assert reaches_nil_possibly(invariant(q.proc), k), (a, b)
    assert inside


def reference_cells(members, op):
    """The all-pairs loop: every image built and clipped."""
    u = Universe(members, pole_always)
    cells = {}
    for a in members:
        for b in members:
            try:
                image = u.clip([op(a, b)])
            except PwfError:
                image = 0
            cells[a, b] = members[image.bit_length() - 1] if image else None
    return cells


def reference_orthogonal(members, k):
    """The all-pairs matrix loop under a pole with no invariant test."""
    pairs = set()
    for i, a in enumerate(members):
        for b in members[i:]:
            if reference_reduces_within(nu_all(par(a, b)), UNIT, k):
                pairs |= {(a, b), (b, a)}
    return pairs


def reordered(members, seed):
    out = list(members)
    random.Random(seed).shuffle(out)
    return out


@pytest.mark.parametrize("universe", ["sandbox", "mixed"])
def test_tables_and_matrix_match_the_all_pairs_loops(universe):
    members = sandbox_members() if universe == "sandbox" else mixed_members()
    orders = ([reordered(members, 11), reordered(members, 12)]
              if universe == "sandbox" else [members])
    cells = {label: reference_cells(members, op)
             for label, op in INVARIANT_OPS.items()}
    orthogonal = reference_orthogonal(members, 8)
    for order in orders:
        u = Universe(order, make_pole_done(8))
        index = {m: 1 << i for i, m in enumerate(order)}
        for label, (op_mask, _) in TABLE_OPS.items():
            for a in order:
                for b in order:
                    expected = cells[label][a, b]
                    assert op_mask(u, index[a], index[b]) == \
                        (index[expected] if expected else 0), (label, a, b)
        rng = random.Random(len(order))
        for label, (op_mask, _) in TABLE_OPS.items():
            for _ in range(20):
                mask_a = rng.getrandbits(len(order))
                mask_b = rng.getrandbits(len(order))
                expected = 0
                for a in u.subset_of(mask_a):
                    for b in u.subset_of(mask_b):
                        image = cells[label][a, b]
                        expected |= index[image] if image else 0
                assert op_mask(u, mask_a, mask_b) == expected, label
        rows = u.matrix()
        for i, a in enumerate(order):
            assert rows[i] == sum(index[b] for b in order
                                  if (a, b) in orthogonal)


def test_matrix_on_interleaved_fusions_matches_the_all_pairs_loop():
    """Members of different fusions interleaved, so that one pair of
    fusion groups holds member pairs in both index orders."""
    members = mixed_members()
    orthogonal = reference_orthogonal(members, 8)
    order = reordered(members, 13)
    fusions = [m.fus for m in order]
    assert any(fusions.index(a.fus) > fusions.index(b.fus)
               for i, a in enumerate(order) for b in order[i + 1:]
               if (a, b) in orthogonal)
    index = {m: 1 << i for i, m in enumerate(order)}
    rows = Universe(order, make_pole_done(8)).matrix()
    for i, a in enumerate(order):
        assert rows[i] == sum(index[b] for b in order
                              if (a, b) in orthogonal), a


def test_fusion_errors_raise_where_the_invariants_skip_every_pair(
        monkeypatch):
    clear_caches()
    members = [parse_pwf("<0!() ; {}>"), parse_pwf("<1!() ; {}>"),
               parse_pwf("<0!() ; {0~1}>")]
    possible = [invariant(m.proc) for m in members]
    assert not any(invariant(a.proc) + invariant(b.proc) in possible
                   for a in members for b in members)
    assert Universe(members, pole_always).op_par(7, 7) == 0

    def failing_join(e, f):
        raise InvalidFusionError("join produced an infinite class")

    clear_caches()
    monkeypatch.setattr(realizability, "join", failing_join)
    with pytest.raises(InvalidFusionError):
        Universe(members, pole_always).op_par(7, 7)
    with pytest.raises(InvalidFusionError):
        Universe(members, make_pole_done(1)).matrix()


def test_matrix_and_tables_build_no_process_for_a_pair(monkeypatch):
    """No PWF operator runs: each table and the matrix read their image
    fusions from the operation's shape, with one join per pair of member
    fusions (ordered for a table, unordered for the matrix), and no
    pair's term is put through `multiset_form`."""
    clear_caches()
    members = mixed_members()
    u = Universe(members, make_pole_done(8))
    joins = _count_joins(monkeypatch)
    for name in ("_to_process", "_balanced"):
        assert not hasattr(realizability, name), name
    for name in ("par", "bullet", "star", "nu_all", "nu_set", "relabel_word",
                 "unrelabel"):
        assert not hasattr(realizability, name), name
        monkeypatch.setattr(pwf, name, lambda *args, name=name:
                            pytest.fail(f"pwf.{name} ran"))
    monkeypatch.setattr(realizability, "multiset_form",
                        lambda p: pytest.fail("a pair's term was walked"))
    u.matrix()
    for label, (op_mask, _) in TABLE_OPS.items():
        op_mask(u, u.full_mask, u.full_mask)
    fusions = len({m.fus for m in members})
    assert fusions > 1
    assert len(joins) == len(TABLE_OPS) * fusions ** 2 + \
        fusions * (fusions + 1) // 2


PWF_OPS = {"par": par, "bullet": bullet,
           "star1": lambda p, q: star(1, p, q),
           "star2": lambda p, q: star(2, p, q)}


@given(st.sampled_from(INVARIANT_POOL), st.sampled_from(INVARIANT_POOL),
       st.sampled_from(sorted(PWF_OPS)))
@settings(max_examples=200, deadline=None)
def test_node_images_and_composites_match_the_process_terms(a, b, label):
    """A universe holding a, b and op(a, b) maps the pair to op(a, b)'s
    member, as `clip` of the term built as a `Process` does; its matrix
    cell is the pole's verdict on ν(a | b) built as a `Process`, for the
    `done:k` poles and for a plain callable that hides the k."""
    try:
        image = PWF_OPS[label](a, b)
    except PwfError:
        image = None
    # a member equal to an earlier one is harmless: clip maps it to the
    # earlier one
    members = [a, b] + ([image] if image is not None else [])
    u = Universe(members, pole_always)
    bit_a, bit_b = u.clip([a]), u.clip([b])
    op_mask, _ = TABLE_OPS[label]
    expected = u.clip([image]) if image is not None else 0
    assert op_mask(u, bit_a, bit_b) == expected
    composite = closed(par(a, b))
    row = bit_a.bit_length() - 1
    for k in (2, 8):
        pole = make_pole_done(k)
        rows = Universe(members, pole).matrix()
        assert bool(rows[row] & bit_b) == pole(composite), k
        if k == 8:
            assert Universe(members, without_k(pole)).matrix() == rows


def reference_orthogonal_mask(rows, mask):
    """The row scan: member i is orthogonal to mask when row i holds
    every bit of mask."""
    out = 0
    for i, row in enumerate(rows):
        if row & mask == mask:
            out |= 1 << i
    return out


@pytest.mark.parametrize("pole_text", ["always", "done:2", "done:8"])
@pytest.mark.parametrize("universe", ["sandbox", "mixed"])
def test_orthogonal_mask_matches_the_row_scan(universe, pole_text):
    """Computed and stored orthogonals alike equal the row scan, on
    random masks, singletons, the empty and the full mask."""
    members = sandbox_members() if universe == "sandbox" else mixed_members()
    u = Universe(members, parse_pole(pole_text))
    rows, n = u.matrix(), len(members)
    rng = random.Random(n)
    masks = [0, u.full_mask] + [1 << i for i in range(n)] + [
        rng.getrandbits(n) & rng.getrandbits(n) for _ in range(100)] + [
        rng.getrandbits(n) for _ in range(100)]
    for mask in masks + masks[::-1]:
        assert u.orthogonal_mask(mask) == \
            reference_orthogonal_mask(rows, mask), mask


def test_orthogonal_store_is_bounded(monkeypatch):
    """A universe keeps the orthogonals of its last `_ORTHOGONAL_CAP`
    masks; a kept one is not computed again, a dropped one is, to the
    same mask."""
    monkeypatch.setattr(realizability, "_ORTHOGONAL_CAP", 8)
    u = small_universe(make_pole_done(8))
    rows = u.matrix()
    scans = []
    matrix = Universe.matrix
    monkeypatch.setattr(Universe, "matrix",
                        lambda self: scans.append(1) or matrix(self))
    kept = u.orthogonal_mask.cache_info
    assert kept().maxsize == 8
    for mask in range(1, 41):
        assert u.orthogonal_mask(mask) == reference_orthogonal_mask(rows, mask)
        assert kept().currsize <= 8
    assert len(scans) == 40 and kept().currsize == 8
    for mask in range(33, 41):
        assert u.orthogonal_mask(mask) == reference_orthogonal_mask(rows, mask)
    assert len(scans) == 40
    assert u.orthogonal_mask(1) == reference_orthogonal_mask(rows, 1)
    assert len(scans) == 41 and kept().currsize == 8


@pytest.mark.parametrize("universe", ["sandbox", "mixed"])
def test_each_member_is_renamed_once_per_side_and_fusion_group_pair(
        monkeypatch, universe):
    """A table or the matrix renames a member's node at most once as
    the left operand and once as the right one for each pair of fusion
    groups, however many pairs it joins, and merges each fitting pair
    from the two renamed sides."""
    clear_caches()
    members = sandbox_members() if universe == "sandbox" else mixed_members()
    u = Universe(members, make_pole_done(8))
    renamed, current, group_pairs = [], [], []
    sides, relabel = realizability._sides, realizability._relabel

    def counting_sides(nodes, classes, shape):
        side = sides(nodes, classes, shape)
        group_pairs.append(shape)
        pair = len(group_pairs)

        def counted(i, s):
            current[:] = [(pair, i, s)]
            return side(i, s)
        return counted

    monkeypatch.setattr(realizability, "_sides", counting_sides)
    monkeypatch.setattr(realizability, "_relabel", lambda node, ids:
                        renamed.append(current[0]) or relabel(node, ids))
    built = _record_merges(monkeypatch)
    groups = len({m.fus for m in members})
    for label, (op_mask, _) in TABLE_OPS.items():
        op_mask(u, u.full_mask, u.full_mask)
    u.matrix()
    assert len(group_pairs) == len(TABLE_OPS) * groups ** 2 + \
        groups * (groups + 1) // 2
    assert renamed and len(renamed) == len(set(renamed))
    assert len(renamed) < len(built)
