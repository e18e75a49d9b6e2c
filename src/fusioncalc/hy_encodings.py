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
from .pwf import UNIT, Pwf, equal_pwf, par
from .reduction import step


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


def _reduces_to(p: Pwf, target: Pwf) -> bool:
    return any(equal_pwf(q, target) for q in step(p))


def check_hy_reductions() -> list[tuple[str, str, str]]:
    """One (label, verdict, detail) entry per combinator; verdicts are
    'pass', 'fail', or 'not-encodable'."""
    report: list[tuple[str, str, str]] = []

    ok = _reduces_to(par(encode("M", (0, 1)), encode("K", (0,))), UNIT)
    report.append(("M", "pass" if ok else "fail",
                   "M(0,1) | K(0) steps to the terminated process"))

    ok = _reduces_to(par(encode("K", (0,)), encode("M", (0, 2))), UNIT)
    report.append(("K", "pass" if ok else "fail",
                   "K(0) | M(0,x) steps to the terminated process"))

    ok = _reduces_to(par(encode("F", (0, 1)), encode("M", (0, 3))),
                     encode("M", (1, 5)))
    report.append(("F", "pass" if ok else "fail",
                   "F(0,1) | M(0,x) steps to M(1,y) up to renaming"))

    ok = _reduces_to(par(encode("D", (0, 1, 2)), encode("M", (0, 4))),
                     par(encode("M", (1, 7)), encode("M", (2, 8))))
    report.append(("D", "pass" if ok else "fail",
                   "D(0,1,2) | M(0,x) steps to M(1,y) | M(2,z)"))

    for label in NOT_ENCODABLE:
        report.append((label, "not-encodable", _NOT_ENCODABLE_DETAIL))
    return report
