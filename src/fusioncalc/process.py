"""Printed forms of process terms, and their text grammar.

`canonical` is the printed form of a congruence class: bound names are
renumbered by traversal order while backtracking over orderings of
structurally ambiguous parallel siblings, the lexicographically least
rendering wins, and a deterministic scope-minimization pass shapes the
result.  Congruence itself is decided by `congruence_key` (in `terms`,
re-exported here with the term classes and substitution); `canonical`
runs only where a form is printed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterator, Optional

from .names import Name, parse_name
from .terms import (_MAX_CANDIDATES, NIL, Act, Nil, Nu, Par, Process,
                    ProcessError, SearchBudgetError, _fresh_names, _simplify,
                    _to_process, all_names, congruence_key, free_names,
                    struct_eq, substitute)

__all__ = ["NIL", "Act", "Nil", "Nu", "Par", "Process", "ProcessError",
           "SearchBudgetError", "all_names", "canonical", "congruence_key",
           "free_names", "parse_process", "process_str", "struct_eq",
           "substitute", "tidy"]


# ---------------------------------------------------------------------------
# canonicalization


def _node_free(node) -> frozenset[Name]:
    kind = node[0]
    if kind == "nil":
        return frozenset()
    if kind == "act":
        _, subj, _, bound, body = node
        return (_node_free(body) - frozenset(bound)) | {subj}
    if kind == "par":
        out: frozenset[Name] = frozenset()
        for child in node[1]:
            out |= _node_free(child)
        return out
    _, names, body = node
    return _node_free(body) - names


def _skeleton(node, bound: frozenset[Name]):
    """Erase bound names, keep free ones: the ordering invariant."""
    kind = node[0]
    if kind == "nil":
        return ("nil",)
    if kind == "act":
        _, subj, pol, bnd, body = node
        subj_part = ("bound",) if subj in bound else ("free", subj)
        return ("act", subj_part, pol, len(bnd),
                _skeleton(body, bound | frozenset(bnd)))
    if kind == "par":
        return ("par", tuple(sorted(_skeleton(c, bound) for c in node[1])))
    _, names, body = node
    return ("nu", len(names), _skeleton(body, bound | names))


def _orderings(node, bound: frozenset[Name]):
    """All admissible ordered variants (permuting ambiguous par siblings)."""
    kind = node[0]
    if kind == "nil":
        yield node
        return
    if kind == "act":
        _, subj, pol, bnd, body = node
        for b in _orderings(body, bound | frozenset(bnd)):
            yield ("act", subj, pol, bnd, b)
        return
    if kind == "nu":
        _, names, body = node
        for b in _orderings(body, bound | names):
            yield ("nu", names, b)
        return
    _, children = node
    variants = {c: list(_orderings(c, bound)) for c in set(children)}
    keyed = sorted(children, key=lambda c: _skeleton(c, bound))
    groups: list[list] = []
    for c in keyed:
        if groups and _skeleton(groups[-1][0], bound) == _skeleton(c, bound):
            groups[-1].append(c)
        else:
            groups.append([c])
    # identical siblings are interchangeable, so each group is arranged
    # as a multiset: len(g)! / prod(multiplicity!) distinct orders
    count = 1
    for g in groups:
        count *= math.factorial(len(g))
        for multiplicity in Counter(g).values():
            count //= math.factorial(multiplicity)
    for c in children:
        count *= len(variants[c])
    if count > _MAX_CANDIDATES:
        raise SearchBudgetError(
            f"canonicalization search space too large: {count} candidate "
            f"orders, budget {_MAX_CANDIDATES}")
    group_orders = [list(_distinct_orders(g)) for g in groups]
    for arrangement in itertools.product(*group_orders):
        order = [c for grp in arrangement for c in grp]
        for choice in itertools.product(*(variants[c] for c in order)):
            yield ("par", tuple(choice))


def _distinct_orders(nodes: list) -> Iterator[tuple]:
    """Each distinct sequence of the multiset `nodes` once, in the order
    in which itertools.permutations first reaches it."""
    if not nodes:
        yield ()
        return
    tried = set()
    for i, c in enumerate(nodes):
        if c not in tried:
            tried.add(c)
            for rest in _distinct_orders(nodes[:i] + nodes[i + 1:]):
                yield (c,) + rest


def _render(node, assign: dict[Name, Name], fresh: list[Name],
            bound: frozenset[Name]) -> tuple:
    """Token stream with bound names numbered by first occurrence."""
    def name_token(x: Name) -> tuple:
        if x in bound:
            if x not in assign:
                assign[x] = fresh.pop(0)
            return ("name", assign[x])
        return ("name", x)

    kind = node[0]
    if kind == "nil":
        return (("sym", "1"),)
    if kind == "act":
        _, subj, pol, bnd, body = node
        toks = [name_token(subj), ("sym", "!" if pol == "up" else "?"),
                ("sym", "(")]
        inner_bound = bound | frozenset(bnd)
        for x in bnd:
            if x not in assign:
                assign[x] = fresh.pop(0)
            toks.append(("name", assign[x]))
        toks.append(("sym", ")"))
        toks.extend(_render(body, assign, fresh, inner_bound))
        return tuple(toks)
    if kind == "par":
        toks = []
        for i, child in enumerate(node[1]):
            if i:
                toks.append(("sym", "|"))
            toks.extend(_render(child, assign, fresh, bound))
        return tuple(toks)
    _, names, body = node
    body_toks = _render(body, assign, fresh, bound | names)
    binder = sorted(assign[x] for x in names)
    toks = [("sym", "new")]
    toks.extend(("name", v) for v in binder)
    toks.append(("sym", "."))
    toks.extend(body_toks)
    return tuple(toks)


def _apply_assignment(node, assign: dict[Name, Name]):
    kind = node[0]
    if kind == "nil":
        return node
    if kind == "act":
        _, subj, pol, bnd, body = node
        return ("act", assign.get(subj, subj), pol,
                tuple(assign.get(x, x) for x in bnd),
                _apply_assignment(body, assign))
    if kind == "par":
        return ("par", tuple(_apply_assignment(c, assign) for c in node[1]))
    _, names, body = node
    return ("nu", frozenset(assign.get(x, x) for x in names),
            _apply_assignment(body, assign))


def _minimize(node):
    """Push nu binders onto the sub-multisets that use them."""
    kind = node[0]
    if kind in ("nil",):
        return node
    if kind == "act":
        _, subj, pol, bnd, body = node
        return ("act", subj, pol, bnd, _minimize(body))
    if kind == "par":
        return ("par", tuple(_minimize(c) for c in node[1]))
    _, names, body = node
    if body[0] != "par":
        return ("nu", names, _minimize(body))
    comps = list(body[1])
    for x in sorted(names):
        users = [c for c in comps if x in _node_free(c)]
        if len(users) == len(comps):
            continue
        kept = []
        used = []
        remaining = list(users)
        for c in comps:
            if c in remaining:
                remaining.remove(c)
                used.append(c)
            else:
                kept.append(c)
        sub = used[0] if len(used) == 1 else ("par", tuple(used))
        kept.append(("nu", frozenset({x}), sub))
        names = names - {x}
        comps = kept
    inner = comps[0] if len(comps) == 1 else ("par", tuple(comps))
    if names:
        return ("nu", names, _minimize(inner))
    return _minimize(inner)


def canonical(p: Process) -> Process:
    counter = itertools.count(-1, -1)
    node, free = _simplify(p, {}, counter)
    pool_template = _fresh_names(set(free), ~next(counter))
    best: Optional[tuple] = None
    best_node = None
    best_assign = None
    for candidate in _orderings(node, frozenset()):
        assign: dict[Name, Name] = {}
        toks = _render(candidate, assign, list(pool_template), frozenset())
        if best is None or toks < best:
            best = toks
            best_node = candidate
            best_assign = assign
    renamed = _apply_assignment(best_node, best_assign)
    return _to_process(_minimize(renamed))


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

    def name(self) -> Name:
        self.skip()
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isdigit():
                self.pos += 1
            elif ch == "." and self.pos + 1 < len(self.text) and \
                    self.text[self.pos + 1].isdigit():
                self.pos += 2
            else:
                break
        if start == self.pos:
            raise self.error("expected a name")
        return parse_name(self.text[start:self.pos])

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
            binders = [self.name()]
            while self.peek().isdigit():
                binders.append(self.name())
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
        except ProcessError:
            return False
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
