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
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Union

from .calgebra import Element, FinModel, _no_join
from .config import DEFAULT, Config
from .process import SearchBudgetError
from .pwf import UNIT, Pwf, as_pwf, realizer_catalog, star


class MllError(Exception):
    pass


class ProofError(MllError):
    pass


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Perp:
    body: "Formula"


@dataclass(frozen=True)
class Tensor:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Join:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


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
# tokenizer shared by formulas and proof trees

_KEYWORDS = {"v", "ex", "ax", "sub", "cut", "one", "tensor", "exists"}
_PUNCT = "()^*.,"


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCT:
            out.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise MllError(f"unexpected character {ch!r}")
    return out


class _Tokens:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise MllError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise MllError(f"expected {tok!r}, found {got!r}")


def _is_ident(tok: Optional[str]) -> bool:
    return (tok is not None and tok not in _KEYWORDS and tok != "1"
            and tok[0].isalpha())


def _parse_formula(ts: _Tokens) -> Formula:
    if ts.peek() == "ex":
        ts.next()
        var = ts.next()
        if not _is_ident(var):
            raise MllError(f"invalid bound variable {var!r}")
        ts.expect(".")
        return Exists(var, _parse_formula(ts))
    return _parse_join(ts)


def _parse_join(ts: _Tokens) -> Formula:
    left = _parse_tensor(ts)
    while ts.peek() == "v":
        ts.next()
        if ts.peek() == "ex":
            return Join(left, _parse_formula(ts))
        left = Join(left, _parse_tensor(ts))
    return left


def _parse_tensor(ts: _Tokens) -> Formula:
    left = _parse_postfix(ts)
    while ts.peek() == "*":
        ts.next()
        left = Tensor(left, _parse_postfix(ts))
    return left


def _parse_postfix(ts: _Tokens) -> Formula:
    out = _parse_primary(ts)
    while ts.peek() == "^":
        ts.next()
        out = Perp(out)
    return out


def _parse_primary(ts: _Tokens) -> Formula:
    tok = ts.next()
    if tok == "1":
        return One()
    if tok == "(":
        inner = _parse_formula(ts)
        ts.expect(")")
        return inner
    if _is_ident(tok):
        return Var(tok)
    raise MllError(f"unexpected token {tok!r} in formula")


def parse_formula(text: str) -> Formula:
    ts = _Tokens(_tokenize(text))
    out = _parse_formula(ts)
    if ts.peek() is not None:
        raise MllError(f"trailing tokens after formula: {ts.peek()!r}")
    return out


# ---------------------------------------------------------------------------
# proofs


@dataclass(frozen=True)
class Ax:
    formula: Formula


@dataclass(frozen=True)
class Ex:
    perm: tuple[int, ...]
    sub: "Proof"


@dataclass(frozen=True)
class SubRule:
    sub: "Proof"
    extension: Formula


@dataclass(frozen=True)
class Cut:
    left: "Proof"
    right: "Proof"
    formula: Formula


@dataclass(frozen=True)
class OneIntro:
    pass


@dataclass(frozen=True)
class TensorIntro:
    left: "Proof"
    right: "Proof"


@dataclass(frozen=True)
class ExistsIntro:
    sub: "Proof"
    var: str
    body: Formula
    witness: Formula


Proof = Union[Ax, Ex, SubRule, Cut, OneIntro, TensorIntro, ExistsIntro]


def _parse_proof(ts: _Tokens) -> Proof:
    ts.expect("(")
    rule = ts.next()
    if rule == "ax":
        out: Proof = Ax(_parse_formula(ts))
    elif rule == "ex":
        ts.expect("(")
        perm: list[int] = []
        while ts.peek() != ")":
            tok = ts.next()
            if not tok.isdigit():
                raise MllError(f"permutation entries are numbers: {tok!r}")
            perm.append(int(tok))
        ts.expect(")")
        out = Ex(tuple(perm), _parse_proof(ts))
    elif rule == "sub":
        sub = _parse_proof(ts)
        out = SubRule(sub, _parse_formula(ts))
    elif rule == "cut":
        left = _parse_proof(ts)
        right = _parse_proof(ts)
        out = Cut(left, right, _parse_formula(ts))
    elif rule == "one":
        out = OneIntro()
    elif rule == "tensor":
        left = _parse_proof(ts)
        out = TensorIntro(left, _parse_proof(ts))
    elif rule == "exists":
        sub = _parse_proof(ts)
        var = ts.next()
        if not _is_ident(var):
            raise MllError(f"invalid bound variable {var!r}")
        out = ExistsIntro(sub, var, _parse_formula(ts), _parse_formula(ts))
    else:
        raise MllError(f"unknown proof rule {rule!r}")
    ts.expect(")")
    return out


def parse_proof(text: str) -> Proof:
    ts = _Tokens(_tokenize(text))
    out = _parse_proof(ts)
    if ts.peek() is not None:
        raise MllError(f"trailing tokens after proof: {ts.peek()!r}")
    return out


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


def check_soundness(p: Proof, m: FinModel) -> list[tuple[str, bool, str]]:
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


@dataclass(frozen=True)
class Const:
    label: str  # a realizer-catalog label, or "UNIT" for (1, Delta)


@dataclass(frozen=True)
class Star1:
    func: "RealizerExpr"
    arg: "RealizerExpr"


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


def evaluate_realizer(r: RealizerExpr, config: Config = DEFAULT) -> Pwf:
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
        return star(1, value(e.func), value(e.arg), config)

    return value(r)


# ---------------------------------------------------------------------------
# shipped proof corpus


def load_corpus(name: str = "corpus") -> dict[str, Proof]:
    root = resources.files("fusioncalc") / "proofs"
    text = (root / f"{name}.proofs").read_text(encoding="utf-8")
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
