"""Candidate process-level encodings of the message-passing combinators
and their reduction tests.

Only M, K, F, D are expressible here: the remaining combinators need the
received name to stay free in the continuation, but communication closes
the transmitted names under a restriction and action arguments are
binder occurrences, so the fragment cannot express them.  The checker
reports that finding instead of a verdict.
"""

from __future__ import annotations

from .fusion import DELTA
from .process import NIL, Act, Par
from .pwf import UNIT, Pwf, par
from .reduction import reduces_within


class NotEncodableError(Exception):
    pass


NOT_ENCODABLE = ("Bl", "Br", "S")
_NOT_ENCODABLE_DETAIL = (
    "not encodable in the fragment as defined: the received name must "
    "remain free in the continuation, but communicated names are closed "
    "under a restriction and action arguments are binder occurrences")


def _fresh(*names: int) -> int:
    return max(names) + 1


def encode(label: str, params: tuple[int, ...]) -> Pwf:
    if label == "M":
        a, b = params
        return Pwf(Act(a, "up", (b,), NIL), DELTA)
    if label == "K":
        (a,) = params
        return Pwf(Act(a, "down", (_fresh(a),), NIL), DELTA)
    if label == "F":
        a, b = params
        x = _fresh(a, b)
        return Pwf(Act(a, "down", (x,), Act(b, "up", (_fresh(a, b, x),), NIL)),
                   DELTA)
    if label == "D":
        a, b, c = params
        x = _fresh(a, b, c)
        y = _fresh(a, b, c, x)
        z = _fresh(a, b, c, x, y)
        return Pwf(Act(a, "down", (x,),
                       Par(Act(b, "up", (y,), NIL), Act(c, "up", (z,), NIL))),
                   DELTA)
    if label in NOT_ENCODABLE:
        raise NotEncodableError(f"{label} is {_NOT_ENCODABLE_DETAIL}")
    raise NotEncodableError(f"unknown combinator label {label!r}")


def check_hy_reductions() -> list[tuple[str, str, str]]:
    """One (label, verdict, detail) entry per combinator; verdicts are
    'pass', 'fail', or 'not-encodable'.  Each check has one pair of
    prefixes to consume, under Δ, so it asks `reduces_within` for one
    step."""
    checks = (
        ("M", par(encode("M", (0, 1)), encode("K", (0,))), UNIT,
         "M(0,1) | K(0) steps to the terminated process"),
        ("K", par(encode("K", (0,)), encode("M", (0, 2))), UNIT,
         "K(0) | M(0,x) steps to the terminated process"),
        ("F", par(encode("F", (0, 1)), encode("M", (0, 3))),
         encode("M", (1, 5)),
         "F(0,1) | M(0,x) steps to M(1,y) up to renaming"),
        ("D", par(encode("D", (0, 1, 2)), encode("M", (0, 4))),
         par(encode("M", (1, 7)), encode("M", (2, 8))),
         "D(0,1,2) | M(0,x) steps to M(1,y) | M(2,z)"))
    report = [(label, "pass" if reduces_within(p, target, 1) else "fail",
               detail) for label, p, target, detail in checks]
    report.extend((label, "not-encodable", _NOT_ENCODABLE_DETAIL)
                  for label in NOT_ENCODABLE)
    return report
