"""The literal readers as they were before one tokenizer served them, for
a differential test of `process.parse_process`, `pwf.parse_pwf`,
`fusion.parse_fusion` and `cli._parse_universe_spec`.

Each reader scans characters: the process parser skips whitespace one
character at a time and backtracks at a `1` to tell nil from a subject,
a PWF literal splits at its last `;` outside braces, a fusion literal
splits at every comma, and a universe spec splits at the commas outside
`{...}` and `[...]`.
"""

import re

from fusioncalc import realizability
from fusioncalc.fusion import DELTA, Fusion, _fam_pair, _name_pair
from fusioncalc.names import Name, parse_name, word
from fusioncalc.process import NIL, Act, Nu, Par, Process, ProcessError
from fusioncalc.pwf import Pwf, PwfError

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
            max_actions = int(value)
        elif key == "names":
            names = int(value)
        elif key == "limit":
            limit = int(value)
        elif key == "fusions":
            fusions = [parse_fusion(f) for f in value.split("|")]
        else:
            raise ValueError(f"unknown universe spec key {key!r}")
    return realizability.default_universe(max_actions, names, fusions, limit)
