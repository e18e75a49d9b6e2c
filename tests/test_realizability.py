import random

import pytest

from fusioncalc import realizability
from fusioncalc.config import DEFAULT, Config
from fusioncalc.fusion import DELTA, identity_I, parse_fusion
from fusioncalc.process import NIL, Act
from fusioncalc.pwf import (Pwf, PwfError, bullet, equal_pwf, nu_all, par,
                            parse_pwf, star)
from fusioncalc.realizability import (UNIT_PWF, Universe, check_laws,
                                      default_universe, make_pole_done,
                                      parse_pole, pole_always)
from fusioncalc.reduction import pole_regular_on


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
    assert pole(UNIT_PWF)
    assert not pole(parse_pwf("<0!() ; {}>"))
    with pytest.raises(ValueError):
        parse_pole("sometimes")


def test_done_pole_cache_keys_on_the_fusion():
    pole = make_pole_done(1)
    assert not pole(parse_pwf("<0!() | 0?() ; {0~1}>"))
    assert pole(parse_pwf("<0!() | 0?() ; {}>"))


def test_done_pole_canonicalises_a_term_once(monkeypatch):
    from fusioncalc import process, reduction
    calls = []
    original = process.canonical

    def counting(p):
        calls.append(p)
        return original(p)

    for module in (process, reduction, realizability):
        monkeypatch.setattr(module, "canonical", counting)
    q = parse_pwf("<0!() | 0?() ; {}>")
    pole = make_pole_done(1)
    assert pole(q)
    # the cache key, then the target; the start of the search reuses
    # the key
    assert calls[:2] == [q.proc, UNIT_PWF.proc]
    assert calls.count(q.proc) == 1


def test_orthogonal_of_empty_is_everything():
    u = small_universe()
    assert u.orthogonal_mask(0) == u.full_mask


def test_orthogonal_is_antitone():
    u = small_universe(make_pole_done(4), 30)
    some = u.clip([parse_pwf("<0!() ; {}>"), UNIT_PWF])
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
    assert u.op_one() & u.clip([UNIT_PWF]) == u.clip([UNIT_PWF])


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
    images = []
    for pole in (pole_always, make_pole_done(2)):
        images.append(Universe(members, pole).op_par(full, full))
        assert len(calls) == n * n
    other = Config(class_budget=2048)
    images.append(Universe(members, pole_always, other).op_par(full, full))
    assert len(calls) == 2 * n * n and calls[-1] is other
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
