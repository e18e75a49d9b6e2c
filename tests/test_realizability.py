import random

import pytest

from fusioncalc.fusion import DELTA, parse_fusion
from fusioncalc.pwf import parse_pwf
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
