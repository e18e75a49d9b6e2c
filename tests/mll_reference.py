"""Reference MLL semantics over carrier elements, for differential tests
of `mll.interpret`, `mll.interpret_sequent` and `mll.check_soundness`.

These are the functions as they stood before formulas were evaluated
as tables over carrier positions: `interpret` walks the formula once
per assignment, reads the model through its element-level `perp` and
`tensor` dicts and `join2`, and folds an existential's body with
`FinModel.join` (from bottom, in carrier order), evaluating the body
once per carrier element as it goes.  `check_soundness` interprets the
whole conclusion once per assignment, in `itertools.product` order.
"""

import itertools

from calgebra_reference import join, parr
from fusioncalc.calgebra import Element, FinModel
from fusioncalc.mll import (MAX_ASSIGNMENTS, Formula, MllError, One, Perp,
                            Proof, Sequent, Tensor, Join, Var, check_proof,
                            free_vars)
from fusioncalc.process import SearchBudgetError


def interpret(f: Formula, m: FinModel,
              assign: dict[str, Element]) -> Element:
    if isinstance(f, One):
        return m.unit
    if isinstance(f, Var):
        try:
            return assign[f.name]
        except KeyError:
            raise MllError(f"unbound formula variable {f.name}") from None
    if isinstance(f, Perp):
        return m.perp[interpret(f.body, m, assign)]
    if isinstance(f, Tensor):
        return m.tensor[interpret(f.left, m, assign),
                        interpret(f.right, m, assign)]
    if isinstance(f, Join):
        return m.join2(interpret(f.left, m, assign),
                       interpret(f.right, m, assign))
    return join(m, (interpret(f.body, m, {**assign, f.var: b})
                    for b in m.carrier))


def interpret_sequent(seq: Sequent, m: FinModel,
                      assign: dict[str, Element]) -> Element:
    if not seq:
        raise MllError("cannot interpret an empty sequent")
    out = interpret(seq[-1], m, assign)
    for f in reversed(seq[:-1]):
        out = parr(m, interpret(f, m, assign), out)
    return out


def check_soundness(p: Proof, m: FinModel) -> list[tuple[str, bool, str]]:
    conclusion = check_proof(p)
    vars_ = sorted(set().union(*(free_vars(f) for f in conclusion))
                   if conclusion else set())
    count = len(m.carrier) ** len(vars_)
    if count > MAX_ASSIGNMENTS:
        raise SearchBudgetError(
            f"soundness check needs {count} assignments, budget "
            f"{MAX_ASSIGNMENTS}")
    report: list[tuple[str, bool, str]] = []
    for values in itertools.product(m.carrier, repeat=len(vars_)):
        assign = dict(zip(vars_, values))
        value = interpret_sequent(conclusion, m, assign)
        ok = value in m.separator
        report.append((f"assignment {assign}", ok,
                       "" if ok else f"interpretation {value} outside the "
                       "separator"))
    return report
