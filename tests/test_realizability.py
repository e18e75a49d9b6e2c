import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fusioncalc import pwf, realizability, terms
from fusioncalc.config import DEFAULT, Config
from fusioncalc.fusion import (DELTA, InvalidFusionError, canonical_subst,
                               identity_I, parse_fusion)
from fusioncalc.process import NIL, Act, Nu, Par, canonical, substitute
from fusioncalc.pwf import (UNIT, Pwf, PwfError, bullet, equal_pwf, nu_all,
                            par, parse_pwf, star)
from fusioncalc.realizability import (Universe, check_laws, default_universe,
                                      make_pole_done, parse_pole, pole_always)
from fusioncalc.reduction import pole_regular_on, reduces_within
from fusioncalc.terms import multiset_form


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


def test_parse_pole():
    assert parse_pole("always") is pole_always
    pole = parse_pole("done:2")
    assert pole(UNIT)
    assert not pole(parse_pwf("<0!() ; {}>"))
    with pytest.raises(ValueError):
        parse_pole("sometimes")


def test_done_pole_cache_keys_on_the_fusion():
    pole = make_pole_done(1)
    assert not pole(parse_pwf("<0!() | 0?() ; {0~1}>"))
    assert pole(parse_pwf("<0!() | 0?() ; {}>"))


def _count_keys(monkeypatch) -> list:
    """Record the argument of every `node_key` call, in every module
    that binds it: each congruence key is computed through it."""
    from fusioncalc import reduction, terms
    calls = []
    original = terms.node_key

    def counting(node):
        calls.append(node)
        return original(node)

    for module in (terms, reduction, realizability):
        monkeypatch.setattr(module, "node_key", counting)
    return calls


def test_done_pole_canonicalises_a_term_once(monkeypatch):
    calls = _count_keys(monkeypatch)
    q, q2, q3 = (parse_pwf(t) for t in (
        "<0!() | 0?() ; {}>", "<1!() | 1?() ; {}>",
        "<new 2. 2!() | 2?() ; {}>"))
    pole = make_pole_done(1)
    for composite in (q, q2, q3):
        assert pole(composite)
    composite, goal = (multiset_form(t.proc)[0] for t in (q, UNIT))
    # the composite is keyed once, for the cache key and as the start
    # of the search; the goal key is kept per pole and config, so only
    # the first cache miss keys NIL as the goal; each search then keys
    # its one reduct, NIL
    assert calls[:3] == [composite, goal, ("nil",)]
    assert calls[3:] == [multiset_form(q2.proc)[0], ("nil",),
                         multiset_form(q3.proc)[0], ("nil",)]


def test_done_pole_rejects_unbalanced_terms_without_canonicalising(
        monkeypatch):
    calls = _count_keys(monkeypatch)
    pole = make_pole_done(1)
    for text in ("<0!() | 0!() ; {}>", "<0!() | 0?(1) ; {}>",
                 "<0!().0?() | 0?().0!() ; {}>"):
        assert not pole(parse_pwf(text))
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
        assert u.is_behaviour(u.orthogonal(u.subset_of(a)))


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
    """clip keys σ's image of the node that it builds for the invariant;
    the members' nodes are built with the universe."""
    from fusioncalc import reduction
    u = Universe(mixed_members(), pole_always)
    calls = []
    original = terms.multiset_form
    for module in (terms, pwf, realizability, reduction):
        monkeypatch.setattr(module, "multiset_form",
                            lambda p: calls.append(p) or original(p))
    for text, member in (("<1!() ; {0~1}>", True), ("<0?() ; {}>", True),
                         ("<1!().1!() ; {0~1}>", False)):
        p = parse_pwf(text)
        calls.clear()
        assert bool(u.clip([p])) == member
        assert calls == [p.proc]


def test_clip_builds_sigma_once_per_image_and_none_under_delta(monkeypatch):
    """σ is built once for a non-Δ image, for its signature and its key,
    and not at all under Δ, where it is the identity."""
    u = Universe(mixed_members(), pole_always)
    u.clip([])  # the members' keys
    calls = []
    for module in (pwf, realizability):
        monkeypatch.setattr(module, "canonical_subst",
                            lambda e, config: calls.append(e) or
                            canonical_subst(e, config))
    for text, member, built in (("<1!() ; {0~1}>", True, 1),
                                ("<0?() ; {}>", True, 0),
                                ("<1!().1!() ; {0~1}>", False, 1),
                                ("<1!().1!() ; {}>", False, 0)):
        calls.clear()
        assert bool(u.clip([parse_pwf(text)])) == member
        assert len(calls) == built, text


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


def test_universes_on_one_member_list_share_the_tables(monkeypatch):
    monkeypatch.setattr(realizability, "_TABLES", {})
    calls = []

    def counting_par(p, q, config=DEFAULT):
        calls.append(config)
        return par(p, q, config)

    monkeypatch.setattr(realizability, "par", counting_par)
    members = default_universe(1, 2, [DELTA], 10)
    n = len(members)
    full = (1 << n) - 1
    possible = [invariant(m.proc) for m in members]
    fitting = sum(1 for a in members for b in members
                  if invariant(a.proc) + invariant(b.proc) in possible)
    assert 0 < fitting < n * n
    # the fitting pairs, and one fusion half for the one pair of fusions
    built = fitting + 1
    images = []
    for pole in (pole_always, make_pole_done(2)):
        images.append(Universe(members, pole).op_par(full, full))
        assert len(calls) == built
    other = Config(class_budget=2048)
    images.append(Universe(members, pole_always, other).op_par(full, full))
    assert len(calls) == 2 * built and calls[-1] is other
    assert images[0] == images[1] == images[2]
    for limit in range(2, 9):
        Universe(default_universe(1, 2, [DELTA], limit), pole_always)
    assert len(realizability._TABLES) == realizability._SHARED_LISTS


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


def test_done_matrix_builds_only_balanced_composites(monkeypatch):
    built = []

    def recording_nu_all(p, config=DEFAULT):
        built.append(p)
        return nu_all(p, config)

    monkeypatch.setattr(realizability, "nu_all", recording_nu_all)
    members = sandbox_members()
    Universe(members, make_pole_done(2)).matrix()
    balanced = sum(1 for i, a in enumerate(members) for b in members[i:]
                   if reaches_nil_possibly(invariant(Par(a.proc, b.proc)), 2))
    # each balanced pair once, and one NIL stand-in for the fusion half of
    # the skipped pairs: all 48 members are under Δ
    assert {m.fus for m in members} == {DELTA}
    assert len(built) == balanced + 1
    assert balanced < len(members) ** 2 // 4
    assert all(reaches_nil_possibly(invariant(p.proc), 2) for p in built)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_done_pole_is_empty_off_balanced_small_terms(k):
    members = sandbox_members()
    pole = make_pole_done(k)
    inside = 0
    for i, a in enumerate(members):
        for b in members[i:]:
            q = nu_all(par(a, b))
            verdict = reduces_within(q, UNIT, k)
            assert pole(q) == verdict, (a, b)
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
            if reduces_within(nu_all(par(a, b)), UNIT, k):
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


def test_fusion_errors_raise_where_the_invariants_skip_every_pair(
        monkeypatch):
    monkeypatch.setattr(realizability, "_TABLES", {})
    members = [parse_pwf("<0!() ; {}>"), parse_pwf("<1!() ; {}>"),
               parse_pwf("<0!() ; {0~1}>")]
    possible = [invariant(m.proc) for m in members]
    assert not any(invariant(a.proc) + invariant(b.proc) in possible
                   for a in members for b in members)
    assert Universe(members, pole_always).op_par(7, 7) == 0

    def failing_join(e, f, config=DEFAULT):
        raise InvalidFusionError("join produced an infinite class")

    monkeypatch.setattr(realizability, "_TABLES", {})
    monkeypatch.setattr(pwf, "join", failing_join)
    with pytest.raises(InvalidFusionError):
        Universe(members, pole_always).op_par(7, 7)
    with pytest.raises(InvalidFusionError):
        Universe(members, make_pole_done(1)).matrix()
