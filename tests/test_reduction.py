import pytest
from hypothesis import given, settings, strategies as st

from fusioncalc.fusion import DELTA, Fusion
from fusioncalc.process import NIL, Act
from fusioncalc.pwf import Pwf, equal_pwf, nu_all, par, parse_pwf, pwf_str
from fusioncalc.reduction import pole_regular_on, reduces_within, step

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
    universe = _small_universe()
    assert pole_regular_on(lambda q: True, universe)
    assert pole_regular_on(lambda q: reduces_within(q, UNIT, 8), universe)
    # the bare singleton pole is not regular: a redex is not literally 1
    assert not pole_regular_on(lambda q: equal_pwf(q, UNIT), universe)


def test_reduces_within_under_a_fusion_compares_up_to_the_fusion():
    p = parse_pwf("<0!().1!() | 1?() ; {0~1}>")
    assert reduces_within(p, parse_pwf("<0!() ; {0~1}>"), 1)
    assert reduces_within(p, parse_pwf("<1!() ; {0~1}>"), 1)
    assert not reduces_within(p, parse_pwf("<0!() ; {0~1}>"), 0)
    # reduction keeps the fusion, so a target under another one is unreachable
    assert not reduces_within(p, parse_pwf("<0!() ; {}>"), 3)


def test_reduces_within_canonicalises_each_term_once(monkeypatch):
    from fusioncalc import process, reduction
    calls = []
    original = process.canonical

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(process, "canonical", counting)
    monkeypatch.setattr(reduction, "canonical", counting)
    p = nu_all(parse_pwf("<0!().1?() | 2?().3!() | 1!() | 3?() | 2!() | 0?()"
                         " ; {0~2, 1~3}>"))
    assert reduces_within(p, UNIT, 4)
    # the start term, the target and 27 distinct reducts, each once
    assert len(calls) == len(set(calls)) == 29
    assert calls[:2] == [UNIT.proc, p.proc]
