"""Printed forms of process terms, and their text grammar.

`canonical` is the printed form of a congruence class,
`terms.canonical_form` of the term's multiset form: the class's
congruence key (`terms.node_key`) written out as a term, in the key's
sibling order, with bound names numbered by first occurrence.
`terms.form_str` writes such a form from its node.  Congruence itself
is decided by the key of the multiset form; the term classes,
substitution and `form_str` are re-exported here.
"""

from __future__ import annotations

import re

from .names import Name, parse_name
from .terms import (NIL, Act, Nil, Nu, Par, Process, ProcessError,
                    SearchBudgetError, _to_process, all_names, canonical_form,
                    form_str, free_names, multiset_form, substitute)

__all__ = ["NIL", "Act", "Nil", "Nu", "Par", "Process", "ProcessError",
           "SearchBudgetError", "all_names", "canonical", "form_str",
           "free_names", "parse_process", "process_str", "substitute",
           "tidy"]


# ---------------------------------------------------------------------------
# printed forms


def canonical(p: Process) -> Process:
    """The printed form of p's congruence class (`terms.canonical_form`
    of its multiset form)."""
    return _to_process(canonical_form(multiset_form(p)[0]))


def tidy(p: Process) -> Process:
    """Drop unit components and vacuous binders without renaming anything.

    Unlike canonical, this keeps the names and the component order of the
    input, so results of the binder operators print with their original
    names."""
    if isinstance(p, Par):
        left, right = tidy(p.left), tidy(p.right)
        if isinstance(left, Nil):
            return right
        if isinstance(right, Nil):
            return left
        return Par(left, right)
    if isinstance(p, Act):
        return Act(p.subject, p.polarity, p.bound, tidy(p.body))
    if isinstance(p, Nu):
        body = tidy(p.body)
        if p.name not in free_names(body):
            return body
        return Nu(p.name, body)
    return p


# ---------------------------------------------------------------------------
# text grammar

def process_str(p: Process) -> str:
    if isinstance(p, Nil):
        return "1"
    if isinstance(p, Par):
        parts = []
        for side in _par_list(p):
            text = process_str(side)
            if isinstance(side, (Par, Nu)):
                text = f"({text})"
            parts.append(text)
        return " | ".join(parts)
    if isinstance(p, Act):
        mark = "!" if p.polarity == "up" else "?"
        args = ",".join(str(x) for x in p.bound)
        head = f"{p.subject}{mark}({args})"
        if isinstance(p.body, Nil):
            return head
        body = process_str(p.body)
        if isinstance(p.body, (Par, Nu)):
            body = f"({body})"
        return f"{head}.{body}"
    if isinstance(p, Nu):
        binders = [p.name]
        body = p.body
        while isinstance(body, Nu):
            binders.append(body.name)
            body = body.body
        return f"new {' '.join(str(x) for x in binders)}. {process_str(body)}"
    raise ProcessError(f"unknown process node {p!r}")


def _par_list(p: Process) -> list[Process]:
    if isinstance(p, Par):
        return _par_list(p.left) + [p.right]
    return [p]


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
        """A name, read greedily.  A `binder` that neither "." nor another
        binder follows also read the body's subject, as in `new 0.1!()`:
        it ends at its last "." with a name before it (a longer subject
        meets the same input after it, so no other split parses)."""
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
        """At a "1": whether a name and then "!" or "?" follow, or the "1"
        is nil.  A bad name raises, since nil is followed by no name
        characters either."""
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
