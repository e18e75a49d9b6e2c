"""Multiplicative linear logic with joins and existentials: formula and
proof syntax, sequent checking, interpretation into finite conjunctive
models, and extraction of fusion-combinator realizers.

Extraction maps each proof rule to a fixed expression over the realizer
catalog.  The result is total and deterministic and always evaluates to
a pure fusion (a PWF whose process part is the terminated process);
semantic membership in the infinite model is not claimed here — the
constants' defining identities are checked at the process level, and
soundness is checked against finite models.

A formula is interpreted bottom-up, each subformula once, into a table
over the carrier positions of its own free variables (as CTL model
checking labels states).  An existential folds joins from bottom over
its variable's axis, in carrier order.
"""

from __future__ import annotations

import itertools
from importlib import resources
from typing import Optional, Union

from .calgebra import Element, FinModel, _no_join
from .names import Tokens, natural
from .process import SearchBudgetError
from .pwf import UNIT, Pwf, as_pwf, realizer_catalog, star
from .record import Record, Report


class MllError(Exception):
    pass


class ProofError(MllError):
    pass


# ---------------------------------------------------------------------------
# formulas


class One(Record):
    __slots__ = ()


class Var(Record):
    __slots__ = ("name",)  # str


class Perp(Record):
    __slots__ = ("body",)  # Formula


class Tensor(Record):
    __slots__ = ("left", "right")  # Formula, Formula


class Join(Record):
    __slots__ = ("left", "right")  # Formula, Formula


class Exists(Record):
    __slots__ = ("var", "body")  # str, Formula


Formula = Union[One, Var, Perp, Tensor, Join, Exists]
Sequent = tuple[Formula, ...]


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, One):
        return frozenset()
    if isinstance(f, Var):
        return frozenset({f.name})
    if isinstance(f, Perp):
        return free_vars(f.body)
    if isinstance(f, (Tensor, Join)):
        return free_vars(f.left) | free_vars(f.right)
    return free_vars(f.body) - {f.var}


def subst_formula(f: Formula, x: str, b: Formula) -> Formula:
    if isinstance(f, One):
        return f
    if isinstance(f, Var):
        return b if f.name == x else f
    if isinstance(f, Perp):
        return Perp(subst_formula(f.body, x, b))
    if isinstance(f, Tensor):
        return Tensor(subst_formula(f.left, x, b),
                      subst_formula(f.right, x, b))
    if isinstance(f, Join):
        return Join(subst_formula(f.left, x, b),
                    subst_formula(f.right, x, b))
    if f.var == x:
        return f
    if f.var in free_vars(b):
        fresh = f.var
        taken = free_vars(b) | free_vars(f.body) | {x}
        while fresh in taken:
            fresh += "_"
        renamed = subst_formula(f.body, f.var, Var(fresh))
        return Exists(fresh, subst_formula(renamed, x, b))
    return Exists(f.var, subst_formula(f.body, x, b))


def formula_str(f: Formula) -> str:
    def atom(g: Formula) -> str:
        text = formula_str(g)
        if isinstance(g, (Tensor, Join, Exists)):
            return f"({text})"
        return text

    if isinstance(f, One):
        return "1"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Perp):
        return f"{atom(f.body)}^"
    if isinstance(f, Tensor):
        left = formula_str(f.left)
        if isinstance(f.left, (Join, Exists)):
            left = f"({left})"
        return f"{left} * {atom(f.right)}"
    if isinstance(f, Join):
        left = formula_str(f.left)
        if isinstance(f.left, Exists):
            left = f"({left})"
        right = formula_str(f.right)
        if isinstance(f.right, (Join, Exists)):
            right = f"({right})"
        return f"{left} v {right}"
    return f"ex {f.var}. {formula_str(f.body)}"


def sequent_str(seq: Sequent) -> str:
    return "|- " + ", ".join(formula_str(f) for f in seq)


# ---------------------------------------------------------------------------
# formulas and proof trees read the tokens of `names.Tokens`: `1` is a
# name token, a variable a word token that starts with a letter and is
# no keyword, and punctuation one character each

_KEYWORDS = {"v", "ex", "ax", "sub", "cut", "one", "tensor", "exists"}


def _variable(ts: Tokens) -> str:
    kind, text, _ = ts.peek()
    if kind != "word" or text in _KEYWORDS or text.startswith("_"):
        raise ts.fail("expected a variable")
    ts.take()
    return text


def _formula(ts: Tokens) -> Formula:
    if ts.take("ex"):
        var = _variable(ts)
        ts.expect(".")
        return Exists(var, _formula(ts))
    return _join(ts)


def _join(ts: Tokens) -> Formula:
    left = _tensor(ts)
    while ts.take("v"):
        if ts.peek()[1] == "ex":
            return Join(left, _formula(ts))
        left = Join(left, _tensor(ts))
    return left


def _tensor(ts: Tokens) -> Formula:
    left = _postfix(ts)
    while ts.take("*"):
        left = Tensor(left, _postfix(ts))
    return left


def _postfix(ts: Tokens) -> Formula:
    out = _primary(ts)
    while ts.take("^"):
        out = Perp(out)
    return out


def _primary(ts: Tokens) -> Formula:
    if ts.take("1"):
        return One()
    if ts.take("("):
        inner = _formula(ts)
        ts.expect(")")
        return inner
    return Var(_variable(ts))


def parse_formula(text: str) -> Formula:
    ts = Tokens(text, MllError)
    return ts.end(_formula(ts))


def parse_assignment(text: str) -> dict[str, str]:
    """Grammar: `X=element` items joined with `,`, empty items skipped;
    each X is one variable, assigned once, and each element is the rest
    of its item, stripped."""
    assign: dict[str, str] = {}
    for item in filter(None, text.split(",")):
        if "=" not in item:
            raise MllError(f"assignments look like X=element: {item!r}")
        ts = Tokens(item, MllError)
        var = _variable(ts)
        if var in assign:
            raise MllError(f"variable {var} is assigned twice")
        ts.expect("=")
        assign[var] = item[ts.peek()[2]:].strip()
    return assign


# ---------------------------------------------------------------------------
# proofs


class Ax(Record):
    __slots__ = ("formula",)  # Formula


class Ex(Record):
    __slots__ = ("perm", "sub")  # tuple[int, ...], Proof


class SubRule(Record):
    __slots__ = ("sub", "extension")  # Proof, Formula


class Cut(Record):
    __slots__ = ("left", "right", "formula")  # Proof, Proof, Formula


class OneIntro(Record):
    __slots__ = ()


class TensorIntro(Record):
    __slots__ = ("left", "right")  # Proof, Proof


class ExistsIntro(Record):
    __slots__ = ("sub", "var", "body",
                 "witness")  # Proof, str, Formula, Formula


Proof = Union[Ax, Ex, SubRule, Cut, OneIntro, TensorIntro, ExistsIntro]


def _proof(ts: Tokens) -> Proof:
    ts.expect("(")
    if ts.take("ax"):
        out: Proof = Ax(_formula(ts))
    elif ts.take("ex"):
        ts.expect("(")
        perm: list[int] = []
        while not ts.take(")"):
            perm.append(ts.read(lambda t: natural(t, "a permutation entry")))
        out = Ex(tuple(perm), _proof(ts))
    elif ts.take("sub"):
        out = SubRule(_proof(ts), _formula(ts))
    elif ts.take("cut"):
        out = Cut(_proof(ts), _proof(ts), _formula(ts))
    elif ts.take("one"):
        out = OneIntro()
    elif ts.take("tensor"):
        out = TensorIntro(_proof(ts), _proof(ts))
    elif ts.take("exists"):
        out = ExistsIntro(_proof(ts), _variable(ts), _formula(ts),
                          _formula(ts))
    else:
        raise ts.fail("expected a proof rule")
    ts.expect(")")
    return out


def parse_proof(text: str) -> Proof:
    ts = Tokens(text, MllError)
    return ts.end(_proof(ts))


def check_proof(p: Proof) -> Sequent:
    if isinstance(p, Ax):
        return (Perp(p.formula), p.formula)
    if isinstance(p, OneIntro):
        return (One(),)
    if isinstance(p, Ex):
        premise = check_proof(p.sub)
        k = len(premise)
        if sorted(p.perm) != list(range(1, k + 1)):
            raise ProofError(
                f"(ex): {p.perm} is not a permutation of 1..{k}")
        return tuple(premise[i - 1] for i in p.perm)
    if isinstance(p, SubRule):
        premise = check_proof(p.sub)
        if not premise:
            raise ProofError("(sub): premise sequent is empty")
        return premise[:-1] + (Join(premise[-1], p.extension),)
    if isinstance(p, Cut):
        left = check_proof(p.left)
        right = check_proof(p.right)
        if not left or left[-1] != p.formula:
            raise ProofError(
                f"(cut): left premise must end with {formula_str(p.formula)}")
        if not right or right[0] != Perp(p.formula):
            raise ProofError(
                "(cut): right premise must start with "
                f"{formula_str(Perp(p.formula))}")
        return left[:-1] + right[1:]
    if isinstance(p, TensorIntro):
        left = check_proof(p.left)
        right = check_proof(p.right)
        if not left or not right:
            raise ProofError("(tensor): premises must be nonempty")
        return left[:-1] + (Tensor(left[-1], right[0]),) + right[1:]
    premise = check_proof(p.sub)
    expected = subst_formula(p.body, p.var, p.witness)
    if not premise or premise[-1] != expected:
        raise ProofError(
            f"(exists): premise must end with {formula_str(expected)}")
    return premise[:-1] + (Exists(p.var, p.body),)


# ---------------------------------------------------------------------------
# interpretation in finite models

# a table: a formula's open free variables, sorted, and the position of
# its value at each of their positions (the first variable slowest)
Table = tuple[tuple[str, ...], list[int]]


def _spread(t: Table, vs: tuple[str, ...], n: int) -> list[int]:
    """The cells of table t indexed over `vs`, a superset of its own."""
    tv, cells = t
    if tv == vs:
        return cells
    index = [0]
    for v in vs:
        stride = n ** (len(tv) - 1 - tv.index(v)) if v in tv else 0
        index = [i + p * stride for i in index for p in range(n)]
    return [cells[i] for i in index]


def _combine(m: FinModel, op, left: Table, right: Table) -> Table:
    """The table of `op`, cell by cell, over both tables' variables."""
    n, vs = len(m.carrier), tuple(sorted({*left[0], *right[0]}))
    a, b = _spread(left, vs, n), _spread(right, vs, n)
    out = [op[i][j] for i, j in zip(a, b)]
    if None in out:  # a missing join
        k = out.index(None)
        raise _no_join(m.carrier[a[k]], m.carrier[b[k]])
    return vs, out


def _table(f: Formula, m: FinModel, scope: dict[str, Optional[int]]
           ) -> Table:
    """f's table over the variables `scope` leaves open (None); the
    others are at the positions it gives."""
    if isinstance(f, One):
        return (), [m._pos[m.unit]]
    if isinstance(f, Var):
        if f.name not in scope:
            raise MllError(f"unbound formula variable {f.name}")
        at, n = scope[f.name], len(m.carrier)
        return ((), [at]) if at is not None else ((f.name,), list(range(n)))
    if isinstance(f, Perp):
        vs, cells = _table(f.body, m, scope)
        return vs, [m._perp[c] for c in cells]
    if isinstance(f, (Tensor, Join)):
        op = m._join if isinstance(f, Join) else m._tensor
        return _combine(m, op, _table(f.left, m, scope),
                        _table(f.right, m, scope))
    bottom = m._pos[m.bottom()]  # raises before the body is evaluated
    inner = {**scope, f.var: None}
    if free_vars(f.body) - inner.keys():
        inner[f.var] = 0  # the body raises, as at the first element
    body = _table(f.body, m, inner)
    vs = tuple(sorted(set(body[0]) - {f.var}))
    cells = _spread(body, (f.var, *vs), len(m.carrier))
    size = len(cells) // len(m.carrier)
    out = vs, [bottom] * size
    for k in range(0, len(cells), size):  # f.var at each position in turn
        out = _combine(m, m._join, out, (vs, cells[k:k + size]))
    return out


def _sequent_table(seq: Sequent, m: FinModel,
                   scope: dict[str, Optional[int]]) -> Table:
    """par folded from the right, the last formula evaluated first."""
    if not seq:
        raise MllError("cannot interpret an empty sequent")
    out = _table(seq[-1], m, scope)
    for f in reversed(seq[:-1]):
        out = _combine(m, m._parr, _table(f, m, scope), out)
    return out


def interpret_sequent(seq: Sequent, m: FinModel,
                      assign: dict[str, Element]) -> Element:
    for var, value in assign.items():
        if value not in m._pos:
            raise MllError(f"value {value!r} of {var} is not in the carrier")
    scope = {var: m._pos[value] for var, value in assign.items()}
    return m.carrier[_sequent_table(seq, m, scope)[1][0]]


def interpret(f: Formula, m: FinModel,
              assign: dict[str, Element]) -> Element:
    return interpret_sequent((f,), m, assign)


# assignments one soundness check may enumerate: 3 variables over 2^4
MAX_ASSIGNMENTS = 4096


def check_soundness(p: Proof, m: FinModel) -> Report:
    """Conclusion interpretation lies in the separator for every
    assignment over the carrier, one report row per assignment, in
    `itertools.product` order.  Raises `SearchBudgetError` when there are
    more than MAX_ASSIGNMENTS."""
    conclusion = check_proof(p)
    vars_ = sorted(set().union(*(free_vars(f) for f in conclusion))
                   if conclusion else set())
    count = len(m.carrier) ** len(vars_)
    if count > MAX_ASSIGNMENTS:
        raise SearchBudgetError(
            f"soundness check needs {count} assignments, budget "
            f"{MAX_ASSIGNMENTS}")
    cells = _sequent_table(conclusion, m, dict.fromkeys(vars_))[1]
    E, sep = m.carrier, m._sep
    # each row is named by the repr of its assignment, built from items
    names = itertools.product(*([f"{v!r}: {e!r}" for e in E] for v in vars_))
    return [(f"assignment {{{', '.join(name)}}}", sep[c], "" if sep[c] else
             f"interpretation {E[c]} outside the separator")
            for name, c in zip(names, cells)]


# ---------------------------------------------------------------------------
# realizer extraction


class Const(Record):
    __slots__ = ("label",)  # a realizer-catalog label, or "UNIT" (1, Δ)


class Star1(Record):
    __slots__ = ("func", "arg")  # RealizerExpr, RealizerExpr


RealizerExpr = Union[Const, Star1]


def _compose(r1: RealizerExpr, r2: RealizerExpr) -> RealizerExpr:
    return Star1(Star1(Const("COMP"), r1), r2)


def _lift(r: RealizerExpr) -> RealizerExpr:
    """Transport a realizer one formula deeper into the sequent fold:
    contrapose, extend with a tensor context, contrapose back."""
    return Star1(Const("CONTRA"), Star1(Const("CTX"),
                                        Star1(Const("CONTRA"), r)))


def _transposition(i: int) -> RealizerExpr:
    out: RealizerExpr = Const("COMM")
    for _ in range(i):
        out = _lift(out)
    return out


_TENSOR_SCHEME = _compose(Const("ASSOC_R"),
                          _compose(Const("COMM"), Const("ASSOC_L")))


def extract_realizer(p: Proof) -> RealizerExpr:
    check_proof(p)
    return _extract(p)


def _extract(p: Proof) -> RealizerExpr:
    if isinstance(p, Ax):
        return Const("ID")
    if isinstance(p, OneIntro):
        return Const("UNIT")
    if isinstance(p, (SubRule, ExistsIntro)):
        return Star1(Const("ID"), _extract(p.sub))
    if isinstance(p, Cut):
        return _compose(_extract(p.left), _extract(p.right))
    if isinstance(p, TensorIntro):
        return Star1(Star1(_TENSOR_SCHEME, _extract(p.left)),
                     _extract(p.right))
    # exchange: decompose the permutation into adjacent transpositions
    # (bubble sort), compose their realizers left to right
    perm = list(p.perm)
    swaps: list[int] = []
    for limit in range(len(perm) - 1, 0, -1):
        for i in range(limit):
            if perm[i] > perm[i + 1]:
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                swaps.append(i)
    out: RealizerExpr = Const("ID")
    for i in swaps:
        out = _compose(out, _transposition(i))
    return Star1(out, _extract(p.sub))


def evaluate_realizer(r: RealizerExpr) -> Pwf:
    catalog = realizer_catalog()

    def value(e: RealizerExpr) -> Pwf:
        if isinstance(e, Const):
            if e.label == "UNIT":
                return UNIT
            try:
                return as_pwf(catalog[e.label])
            except KeyError:
                raise MllError(f"unknown realizer constant {e.label}") \
                    from None
        return star(1, value(e.func), value(e.arg))

    return value(r)


# ---------------------------------------------------------------------------
# shipped proof corpus


def load_corpus() -> dict[str, Proof]:
    path = resources.files("fusioncalc") / "proofs" / "corpus.proofs"
    text = path.read_text(encoding="utf-8")
    out: dict[str, Proof] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MllError(f"corpus lines look like `name = (proof)`:"
                           f" {line!r}")
        label, body = line.split("=", 1)
        label = label.strip()
        if label in out:
            raise MllError(f"duplicate corpus entry {label!r}")
        out[label] = parse_proof(body)
    return out
