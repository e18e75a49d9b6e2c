import pytest

from fusioncalc import hy_encodings
from fusioncalc.hy_encodings import (NOT_ENCODABLE, NotEncodableError,
                                     check_hy_reductions, encode)
from fusioncalc.pwf import equal_pwf, parse_pwf, par
from fusioncalc.reduction import step


def test_encode_goldens():
    assert equal_pwf(encode("M", (0, 1)), parse_pwf("<0!(1) ; {}>"))
    assert equal_pwf(encode("K", (0,)), parse_pwf("<0?(1) ; {}>"))
    assert equal_pwf(encode("F", (0, 2)), parse_pwf("<0?(3).2!(4) ; {}>"))
    assert equal_pwf(encode("D", (0, 1, 2)),
                     parse_pwf("<0?(3).(1!(4) | 2!(5)) ; {}>"))


def test_encode_collapses_bound_argument():
    # the transmitted name is a binder occurrence, so it never matters
    assert equal_pwf(encode("M", (0, 1)), parse_pwf("<0!(9) ; {}>"))


def test_encode_rejects_unsupported_labels():
    for label in NOT_ENCODABLE:
        with pytest.raises(NotEncodableError):
            encode(label, (0, 1))
    with pytest.raises(NotEncodableError):
        encode("Z", (0,))


def test_k_reduction():
    outs = step(par(encode("K", (0,)), encode("M", (0, 2))))
    assert len(outs) == 1 and equal_pwf(outs[0], parse_pwf("<1 ; {}>"))


def test_f_reduction():
    outs = step(par(encode("F", (0, 1)), encode("M", (0, 2))))
    assert len(outs) == 1 and equal_pwf(outs[0], encode("M", (1, 0)))


def test_d_reduction():
    outs = step(par(encode("D", (0, 1, 2)), encode("M", (0, 3))))
    assert len(outs) == 1
    assert equal_pwf(outs[0], par(encode("M", (1, 0)), encode("M", (2, 0))))


def test_report():
    report = check_hy_reductions()
    verdicts = {label: verdict for label, verdict, _ in report}
    assert verdicts == {"M": "pass", "K": "pass", "F": "pass", "D": "pass",
                        "Bl": "not-encodable", "Br": "not-encodable",
                        "S": "not-encodable"}
    for label, verdict, detail in report:
        if verdict == "not-encodable":
            assert "not encodable in the fragment as defined" in detail


def reference_reduces_to(p, target) -> bool:
    """The check as it was: some one-step reduct equals the target."""
    return any(equal_pwf(q, target) for q in step(p))


def test_report_verdicts_match_the_one_step_reference(monkeypatch):
    """Each check asks `reduces_within` for one step, and gets the
    verdict of the loop over `step`'s reducts; so does each composite
    against the other checks' targets, which it does not reach."""
    asked = []
    reduces_within = hy_encodings.reduces_within

    def recording(p, target, k):
        asked.append((p, target, k))
        return reduces_within(p, target, k)

    monkeypatch.setattr(hy_encodings, "reduces_within", recording)
    report = check_hy_reductions()
    assert len(asked) == 4 and {k for *_, k in asked} == {1}
    verdicts = [verdict for _, verdict, _ in report[:4]]
    assert verdicts == ["pass" if reference_reduces_to(p, target)
                        else "fail" for p, target, _ in asked]
    misses = 0
    for p, _, _ in asked:
        for _, target, _ in asked:
            ok = reduces_within(p, target, 1)
            assert ok == reference_reduces_to(p, target), (p, target)
            misses += not ok
    assert misses
