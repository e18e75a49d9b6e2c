"""The literal readers as they were before one tokenizer served them, for
a differential test of `process.parse_process`, `pwf.parse_pwf`,
`fusion.parse_fusion`, `cli._parse_universe_spec`, `names.parse_nameset`
and `mll.parse_formula` and `mll.parse_proof`.

Each reader scans characters: the process parser skips whitespace one
character at a time and backtracks at a `1` to tell nil from a subject,
a PWF literal splits at its last `;` outside braces, a fusion literal
splits at every comma, a universe spec splits at the commas outside
`{...}` and `[...]`, a name set splits at every `+` and its braces at
every comma, and the mll readers keep their own tokenizer, whose
identifiers are runs of letters, digits and `_` that start with a
letter, and whose permutation entries are read by `int()`.  `word`
strips its text, so `parse_name` read `1.` as 1 and `1. 2` as 2.

One difference is kept out of the reference: a universe spec size is
`int()` of ASCII digits with an optional `-`, as the new reader takes
it.  `int()` also took other numerals, underscores and a `+`;
`test_readers.py` asserts that difference on its own.
"""

import re
from typing import Optional

from fusioncalc import realizability
from fusioncalc.fusion import DELTA, Fusion, _fam_pair, _name_pair
from fusioncalc.mll import (Ax, Cut, Ex, Exists, ExistsIntro, Formula, Join,
                            MllError, One, OneIntro, Perp, Proof, SubRule,
                            Tensor, TensorIntro, Var)
from fusioncalc.names import (ALL, EMPTY, EPSILON, Name, NameSet, Word,
                              finite, residue, tag)
from fusioncalc.process import NIL, Act, Nu, Par, Process, ProcessError
from fusioncalc.pwf import Pwf, PwfError


def word(text: str) -> Word:
    text = text.strip()
    if not text:
        return EPSILON
    letters = text.split(".")
    if any(letter not in ("1", "2") for letter in letters):
        raise ValueError(f"word letters must be 1 or 2: {text!r}")
    return tuple(map(int, letters))


def parse_name(text: str) -> Name:
    head, dot, rest = text.partition(".")
    if not (head.isascii() and head.isdigit()):
        raise ValueError(f"a name is a decimal natural: {text!r}")
    return tag(int(head), word(rest)) if dot else int(head)


_NAME_TEXT = re.compile(r"\d+(?:\.\d+)*")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> ProcessError:
        return ProcessError(f"{msg} at position {self.pos} in {self.text!r}")

    def skip(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, token: str) -> None:
        self.skip()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def try_eat(self, token: str) -> bool:
        self.skip()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def name(self, binder: bool = False) -> Name:
        self.skip()
        start = self.pos
        match = _NAME_TEXT.match(self.text, start)
        if not match:
            raise self.error("expected a name")
        end = self.pos = match.end()
        if binder and self.peek() != "." and not self.peek().isdigit():
            dot = self.text.rfind(".", start, end)
            while dot > start:
                try:
                    x = parse_name(self.text[start:dot])
                except ValueError:
                    dot = self.text.rfind(".", start, dot)
                    continue
                self.pos = dot
                return x
        try:
            return parse_name(self.text[start:end])
        except ValueError as exc:
            self.pos = start
            raise self.error(str(exc)) from None

    def parse(self) -> Process:
        p = self.process()
        self.skip()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return p

    def process(self) -> Process:
        out = self.term()
        while self.try_eat("|"):
            out = Par(out, self.term())
        return out

    def term(self) -> Process:
        self.skip()
        if self.try_eat("("):
            inner = self.process()
            self.eat(")")
            return inner
        if self.text.startswith("new", self.pos):
            self.pos += 3
            binders = [self.name(binder=True)]
            while self.peek().isdigit():
                binders.append(self.name(binder=True))
            self.eat(".")
            body = self.process()
            for x in reversed(binders):
                body = Nu(x, body)
            return body
        if self.peek() == "1" and not self._looks_like_action():
            self.pos += 1
            return NIL
        return self.action()

    def _looks_like_action(self) -> bool:
        save = self.pos
        try:
            self.name()
            return self.peek() in ("!", "?")
        finally:
            self.pos = save

    def action(self) -> Process:
        subject = self.name()
        self.skip()
        if self.peek() == "!":
            polarity = "up"
            self.eat("!")
        elif self.peek() == "?":
            polarity = "down"
            self.eat("?")
        else:
            raise self.error("expected '!' or '?'")
        self.eat("(")
        bound: list[Name] = []
        if self.peek() != ")":
            bound.append(self.name())
            while self.try_eat(","):
                bound.append(self.name())
        self.eat(")")
        body: Process = NIL
        if self.try_eat("."):
            body = self.term()
        return Act(subject, polarity, tuple(bound), body)


def parse_process(text: str) -> Process:
    return _Parser(text).parse()


def parse_fusion(text: str) -> Fusion:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"fusion literal must be braced: {text!r}")
    pairs: set[tuple[Name, Name]] = set()
    families: set = set()
    for item in text[1:-1].split(","):
        item = item.strip()
        if not item:
            continue
        if item.startswith("["):
            if not item.endswith("]"):
                raise ValueError(f"unterminated family literal: {item!r}")
            lhs, sep, rhs = item[1:-1].partition("<->")
            if not sep:
                raise ValueError(f"family literal needs '<->': {item!r}")
            families.add(_fam_pair(word(lhs), word(rhs)))
        else:
            chain = [parse_name(part.strip()) for part in item.split("~")]
            if len(chain) < 2:
                raise ValueError(f"chain needs at least two names: {item!r}")
            pairs.update(_name_pair(a, b) for a, b in zip(chain, chain[1:]))
    return Fusion(frozenset(pairs), frozenset(families))


def parse_pwf(text: str) -> Pwf:
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise PwfError(f"PWF literal must look like < P ; F >: {text!r}")
    inner = text[1:-1]
    depth = 0
    split = -1
    for idx, ch in enumerate(inner):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == ";" and depth == 0:
            split = idx
    if split < 0:
        raise PwfError(f"PWF literal needs a ';' separator: {text!r}")
    return Pwf(parse_process(inner[:split]), parse_fusion(inner[split + 1:]))


def _top_level_items(spec: str) -> list[str]:
    items, depth, start = [], 0, 0
    for i, ch in enumerate(spec):
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        elif ch == "," and not depth:
            items.append(spec[start:i])
            start = i + 1
    items.append(spec[start:])
    return items


def parse_universe_spec(spec: str):
    max_actions, names, limit = 2, 3, 160
    fusions = [DELTA, parse_fusion("{0~1}")]
    for part in filter(None, (s.strip() for s in _top_level_items(spec))):
        if "=" not in part:
            raise ValueError(f"universe spec entries look like key=value:"
                             f" {part!r}")
        key, value = (s.strip() for s in part.split("=", 1))
        if key == "max_actions":
            max_actions = _size(value)
        elif key == "names":
            names = _size(value)
        elif key == "limit":
            limit = _size(value)
        elif key == "fusions":
            fusions = [parse_fusion(f) for f in value.split("|")]
        else:
            raise ValueError(f"unknown universe spec key {key!r}")
    return realizability.default_universe(max_actions, names, fusions, limit)


_SIZE = re.compile(r"-?[0-9]+")


def _size(value: str) -> int:
    if not _SIZE.fullmatch(value):
        raise ValueError(f"universe sizes are decimal integers: {value!r}")
    return int(value)


def parse_nameset(text: str) -> NameSet:
    result = EMPTY
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty name-set component")
        if chunk == "all":
            part = ALL
        elif chunk.startswith("@"):
            part = residue(word(chunk[1:]))
        elif chunk.startswith("{") and chunk.endswith("}"):
            inner = chunk[1:-1].strip()
            part = finite(parse_name(p.strip()) for p in inner.split(",")
                          if inner)
        else:
            raise ValueError(f"bad name-set component: {chunk!r}")
        result = result.union(part)
    return result


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
