"""Printed forms of process terms, and their text grammar.

`canonical` is the printed form of a congruence class,
`terms.canonical_form` of the term's multiset form: the class's
congruence key (`terms.node_key`) written out as a term, in the key's
sibling order, with bound names numbered by first occurrence.
`terms.form_str` is the one term printer: it writes such a form from
its node, and a `Process` as the node read from it without renaming
(`process_str`).  The parser reads the tokens of `names.Tokens`.
Congruence itself is decided by the key of the multiset form; the term
classes, substitution and `form_str` are re-exported here.
"""

from __future__ import annotations

from .names import Name, Tokens, parse_name
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
    """p's text: `form_str` of its node, read without renaming."""
    return form_str(_node(p))


def _node(p: Process) -> tuple:
    """The node of p with its own names.  The left spine of a `Par` is
    one level, as the grammar reads `a | b | c`, and each `Nu` is one
    restriction, so that `form_str` keeps the binders' order."""
    kind = type(p)
    if kind is Act:
        return ("act", p.subject, p.polarity, p.bound, _node(p.body))
    if kind is Nu:
        return ("nu", frozenset([p.name]), _node(p.body))
    if kind is Par:
        comps = []
        while type(p) is Par:
            comps.append(_node(p.right))
            p = p.left
        comps.append(_node(p))
        return ("par", tuple(reversed(comps)))
    return ("nil",)


class _Parser(Tokens):
    """A process read from the tokens of its text; `1` is nil unless `!`
    or `?` follows."""

    __slots__ = ()

    def name(self) -> Name:
        if self.peek()[0] != "name":
            raise self.fail("expected a name")
        return self.read(parse_name)

    def binder(self) -> Name:
        """A binder name.  One that neither "." nor another binder follows
        also holds the body's subject, as in `new 0.1!()`: it ends at its
        last "." with a name before it (a longer subject meets the same
        input after it, so no other split parses)."""
        kind, text, at = self.peek()
        dot = -1
        if kind == "name":
            kind, after, _ = self.tokens[self.i + 1]
            if after != "." and kind != "name":
                dot = text.rfind(".")
        while dot > 0:
            try:
                x = parse_name(text[:dot])
            except ValueError:
                dot = text.rfind(".", 0, dot)
                continue
            self.tokens[self.i:self.i + 1] = [
                ("op", ".", at + dot), ("name", text[dot + 1:], at + dot + 1)]
            return x
        return self.name()

    def process(self) -> Process:
        out = self.term()
        while self.take("|"):
            out = Par(out, self.term())
        return out

    def term(self) -> Process:
        text = self.peek()[1]
        if self.take("("):
            inner = self.process()
            self.expect(")")
            return inner
        if self.take("new"):
            binders = [self.binder()]
            while self.peek()[0] == "name":
                binders.append(self.binder())
            self.expect(".")
            body = self.process()
            for x in reversed(binders):
                body = Nu(x, body)
            return body
        subject = self.name()
        polarity = _POLARITY.get(self.peek()[1])
        if polarity is None:
            if text == "1":
                return NIL
            raise self.fail("expected '!' or '?'")
        self.take()
        self.expect("(")
        bound = [] if self.peek()[1] == ")" else [self.name()]
        while bound and self.take(","):
            bound.append(self.name())
        self.expect(")")
        body = self.term() if self.take(".") else NIL
        return Act(subject, polarity, tuple(bound), body)


_POLARITY = {"!": "up", "?": "down"}


def parse_process(text: str) -> Process:
    parser = _Parser(text, ProcessError)
    return parser.end(parser.process())
