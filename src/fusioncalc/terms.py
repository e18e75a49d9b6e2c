"""Process terms: the pi-term fragment (nil, parallel, binding actions,
restriction), free names, capture-avoiding substitution, and structural
congruence.

Congruence is decided on a multiset form: one pass (`_simplify`) renames
every binder apart and brings the term to scope-maximal form, with the
restrictions of each level gathered into one set and its parallel
components into one tuple.  `congruence_key` labels that form bottom-up
(sorted subtree codes, Aho-Hopcroft-Ullman), searching sibling orders
only where siblings share a restricted name.  The reduction search
works on that form too (`multiset_form`) and keys its nodes directly
(`node_key`), without building a `Process` per reduct.  The printed
form of a term, `process.canonical`, is computed apart from the key,
only for output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .names import Name, NameSet
from .subst import Substitution, finite_subst, restrict_away


class ProcessError(Exception):
    pass


class SearchBudgetError(ProcessError):
    """A valid term whose key or canonical search exceeds the candidate
    budget."""


class Process:
    __slots__ = ()


@dataclass(frozen=True)
class Nil(Process):
    __slots__ = ()


@dataclass(frozen=True)
class Par(Process):
    left: Process
    right: Process
    __slots__ = ("left", "right")


@dataclass(frozen=True)
class Act(Process):
    subject: Name
    polarity: str  # "up" (output, !) or "down" (input, ?)
    bound: tuple[Name, ...]
    body: Process
    __slots__ = ("subject", "polarity", "bound", "body")

    def __post_init__(self) -> None:
        if self.polarity not in ("up", "down"):
            raise ProcessError(f"bad polarity {self.polarity!r}")
        if len(set(self.bound)) != len(self.bound):
            raise ProcessError("bound vector has duplicates")


@dataclass(frozen=True)
class Nu(Process):
    name: Name
    body: Process
    __slots__ = ("name", "body")


NIL = Nil()


def free_names(p: Process) -> frozenset[Name]:
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, Par):
        return free_names(p.left) | free_names(p.right)
    if isinstance(p, Act):
        return (free_names(p.body) - frozenset(p.bound)) | {p.subject}
    if isinstance(p, Nu):
        return free_names(p.body) - {p.name}
    raise ProcessError(f"unknown process node {p!r}")


def all_names(p: Process) -> frozenset[Name]:
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, Par):
        return all_names(p.left) | all_names(p.right)
    if isinstance(p, Act):
        return all_names(p.body) | frozenset(p.bound) | {p.subject}
    if isinstance(p, Nu):
        return all_names(p.body) | {p.name}
    raise ProcessError(f"unknown process node {p!r}")


def _fresh_names(avoid: set[Name], count: int) -> list[Name]:
    out: list[Name] = []
    candidate = 0
    while len(out) < count:
        if candidate not in avoid:
            out.append(candidate)
        candidate += 1
    return out


def substitute(p: Process, sigma: Substitution) -> Process:
    if isinstance(p, Nil):
        return p
    if isinstance(p, Par):
        return Par(substitute(p.left, sigma), substitute(p.right, sigma))
    if isinstance(p, Act):
        body, bound = _avoid_capture(p.body, p.bound, sigma)
        inner = restrict_away(sigma, NameSet(singletons=frozenset(bound)))
        return Act(sigma.apply(p.subject), p.polarity, bound,
                   substitute(body, inner))
    if isinstance(p, Nu):
        body, bound = _avoid_capture(p.body, (p.name,), sigma)
        inner = restrict_away(sigma, NameSet(singletons=frozenset(bound)))
        return Nu(bound[0], substitute(body, inner))
    raise ProcessError(f"unknown process node {p!r}")


def _avoid_capture(body: Process, bound: tuple[Name, ...],
                   sigma: Substitution) -> tuple[Process, tuple[Name, ...]]:
    outer_free = free_names(body) - set(bound)
    images = {sigma.apply(x) for x in outer_free}
    if not images & set(bound):
        return body, bound
    avoid = set(images) | set(outer_free) | set(bound) | all_names(body)
    fresh = _fresh_names(avoid, len(bound))
    renamed = substitute(body, finite_subst(dict(zip(bound, fresh))))
    return renamed, tuple(fresh)


# ---------------------------------------------------------------------------
# the multiset form
#
# Nodes: ("nil",) | ("act", subj, pol, bound, node)
#      | ("par", (nodes...)) | ("nu", frozenset, node)

_MAX_CANDIDATES = 40320
_NIL_NODE = ("nil",)


def _simplify(p: Process, env: dict[Name, Name], counter: Iterator[Name]):
    """Scope-maximal multiset form with every binder renamed apart, and
    its free names.

    Binders take the next counter name in pre-order; `env` maps the
    binders in scope to their new names, so free names stay as they are."""
    kind = type(p)
    if kind is Act:
        subject = env.get(p.subject, p.subject)
        if p.bound:
            fresh = tuple(next(counter) for _ in p.bound)
            inner = {**env, **dict(zip(p.bound, fresh))}
            body, free = _simplify(p.body, inner, counter)
            free = free.difference(fresh)
        else:
            fresh = ()
            body, free = _simplify(p.body, env, counter)
        return ("act", subject, p.polarity, fresh, body), free | {subject}
    if kind is Par:
        # the leaves of the whole parallel tree, left to right
        leaves = []
        stack = [p]
        while stack:
            q = stack.pop()
            if type(q) is Par:
                stack += (q.right, q.left)
            else:
                leaves.append(q)
        comps: list = []
        names: set[Name] = set()
        free: set[Name] = set()
        for side in leaves:
            node, side_free = _simplify(side, env, counter)
            free |= side_free
            if node[0] == "nu":
                names |= node[1]
                node = node[2]
            if node[0] == "par":
                comps.extend(node[1])
            elif node[0] != "nil":
                comps.append(node)
        if not comps:
            return _NIL_NODE, frozenset()
        inner = comps[0] if len(comps) == 1 else ("par", tuple(comps))
        if names:
            return ("nu", frozenset(names), inner), frozenset(free - names)
        return inner, frozenset(free)
    if kind is Nu:
        fresh = next(counter)
        body, free = _simplify(p.body, {**env, p.name: fresh}, counter)
        names = {fresh}
        if body[0] == "nu":
            # the unwrapped binders are free in the inner body
            names |= body[1]
            free |= body[1]
            body = body[2]
        names &= free
        if not names:
            return body, free
        return ("nu", frozenset(names), body), free - names
    if kind is Nil:
        return _NIL_NODE, frozenset()
    raise ProcessError(f"unknown process node {p!r}")


def multiset_form(p: Process):
    """`_simplify` of p with negative binders, the form that the key and
    the reduction search work on, and its free names."""
    return _simplify(p, {}, itertools.count(-1, -1))


def _to_process(node, base: Name = 0) -> Process:
    """The term of a multiset-form node.  A negative (bound) name x
    becomes base + ~x; a base above every free name keeps them apart."""
    kind = node[0]
    if kind == "nil":
        return NIL
    if kind == "act":
        _, subj, pol, bnd, body = node
        if subj < 0:
            subj = base + ~subj
        return Act(subj, pol, tuple(base + ~x if x < 0 else x for x in bnd),
                   _to_process(body, base))
    if kind == "par":
        out = _to_process(node[1][0], base)
        for child in node[1][1:]:
            out = Par(out, _to_process(child, base))
        return out
    _, names, body = node
    out = _to_process(body, base)
    for x in sorted((base + ~x if x < 0 else x for x in names),
                    reverse=True):
        out = Nu(x, out)
    return out


def struct_eq(p: Process, q: Process) -> bool:
    return congruence_key(p) == congruence_key(q)


# ---------------------------------------------------------------------------
# congruence key
#
# Codes:  level = sorted tuple of group codes
#         group = (m, tuple of act codes): m restricted names and the
#                 siblings that share them
#         act   = (subject label, is output, arity, level code of body)
# A free name x is labelled ~x.  A bound name is labelled by its position
# among the names bound on the path from the root (a de Bruijn level):
# input-bound names by their place in the prefix, restricted names by
# first occurrence in their group's least code.  Sibling subtrees reuse
# positions, but never share a name.


def congruence_key(p: Process) -> tuple:
    """An exact invariant: `congruence_key(p) == congruence_key(q)`
    exactly when `canonical(p) == canonical(q)`.

    It works on the `_simplify` multiset form.  Siblings that share no
    restricted name, and share no name that an enclosing search has yet
    to number, are placed by their codes alone.  Only the siblings of
    one such connected group are searched: ordered by skeleton (bound
    names erased) as `canonical` orders them, trying every order of equal
    skeletons position by position and keeping the orders whose codes
    are least so far.  Raises `SearchBudgetError` when one search holds
    more than `_MAX_CANDIDATES` orders; `canonical` exceeds that budget
    on such a term too."""
    return node_key(multiset_form(p)[0])


def node_key(node) -> tuple:
    """`congruence_key` of a `multiset_form` node: binders negative and
    pairwise distinct, free names natural."""
    return _KeySearch().level(node, 0, {})[0]


_NO_HOLES = ((),)


class _KeySearch:
    """The state of one `congruence_key` call.  `dom` maps each name of
    a group under search to (the group's names, its first position).
    Bound names are negative, free ones natural (see `congruence_key`).

    `level` and `act` return (code, outcomes): each outcome is a tuple
    of (name, label) pairs, the labels that the least code gives to
    names that enclosing searches have not numbered yet."""

    def __init__(self) -> None:
        self.dom: dict = {}
        self.frees: dict = {}
        self.shapes: dict = {}

    def free(self, node) -> frozenset:
        """The bound names of enclosing scopes that occur in node."""
        out = self.frees.get(id(node))
        if out is None:
            kind = node[0]
            if kind == "nil":
                out = frozenset()
            elif kind == "act":
                _, subj, _, bound, body = node
                out = self.free(body).difference(bound)
                if subj < 0:
                    out = out | {subj}
            elif kind == "par":
                out = frozenset().union(*map(self.free, node[1]))
            else:
                out = self.free(node[2]) - node[1]
            self.frees[id(node)] = out
        return out

    def shape(self, node) -> tuple:
        """The skeleton of an act node: its code with bound names erased."""
        out = self.shapes.get(id(node))
        if out is None:
            _, subj, pol, bound, body = node
            names = 0
            if body[0] == "nu":
                names, body = len(body[1]), body[2]
            kids = body[1] if body[0] == "par" else \
                () if body[0] == "nil" else (body,)
            out = (~subj if subj >= 0 else 0, pol == "up", len(bound),
                   names, tuple(sorted(map(self.shape, kids))))
            self.shapes[id(node)] = out
        return out

    def act(self, node, base: int, lab: dict):
        _, subj, pol, bound, body = node
        first = ()
        if subj >= 0:
            label = ~subj
        else:
            label = lab.get(subj)
            if label is None:
                group, start = self.dom[subj]
                label = start + sum(1 for x in group if x in lab)
                first = ((subj, label),)
                lab = {**lab, subj: label}
        if body is _NIL_NODE:
            return ((label, pol == "up", len(bound), ()),
                    [first] if first else _NO_HOLES)
        if bound:
            lab = {**lab, **{x: base + i for i, x in enumerate(bound)}}
            base += len(bound)
        code, outcomes = self.level(body, base, lab)
        if first:
            outcomes = [first + o for o in outcomes]
        return (label, pol == "up", len(bound), code), outcomes

    def level(self, node, base: int, lab: dict):
        names: frozenset = frozenset()
        if node[0] == "nu":
            _, names, node = node
        if node[0] == "nil":
            return (), _NO_HOLES
        kids = node[1] if node[0] == "par" else (node,)
        holes = [x for x in self.free(node) if x not in lab] \
            if names or any(x not in lab for x in self.dom) else ()
        if not holes:
            return tuple(sorted((0, (self.act(c, base, lab)[0],))
                                for c in kids)), _NO_HOLES
        # connected groups: siblings sharing a restricted name of this
        # level, and every sibling holding a name still to be numbered
        watch = frozenset(holes)
        root: dict = {}

        def find(x):
            while root.setdefault(x, x) != x:
                x = root[x]
            return x

        uses = [self.free(c) & watch for c in kids]
        for i, used in enumerate(uses):
            for x in used:
                root[find(x if x in names else "hole")] = find(i)
        members: dict = {}
        for i in range(len(kids)):
            members.setdefault(find(i), []).append(i)
        codes = []
        outcomes = _NO_HOLES
        for group in members.values():
            own = frozenset().union(*(uses[i] for i in group)) & names
            for x in own:
                self.dom[x] = (own, base)
            code, found = self.search([kids[i] for i in group],
                                      base + len(own), lab, own)
            for x in own:
                del self.dom[x]
            codes.append((len(own), code))
            if found is not _NO_HOLES:
                outcomes = found
        return tuple(sorted(codes)), outcomes

    def search(self, kids: list, base: int, lab: dict, own: frozenset):
        """The least code of the sibling sequence over the orders of
        equal skeletons, and its outcomes on the names outside `own`."""
        shapes = [self.shape(c) for c in kids]
        order = sorted(range(len(kids)), key=shapes.__getitem__)
        classes = [[order[0]]]
        for i in order[1:]:
            if shapes[i] == shapes[classes[-1][0]]:
                classes[-1].append(i)
            else:
                classes.append([i])
        ident: dict = {}
        same = [ident.setdefault(c, len(ident)) for c in kids]
        codes = []
        states = [(lab, ())]
        for cls in classes:
            pending = [(lab_, acc, tuple(cls)) for lab_, acc in states]
            for _ in cls:
                best = None
                states_next: list = []
                seen = set()
                for lab_, acc, rest in pending:
                    tried = set()
                    for pos, i in enumerate(rest):
                        if same[i] in tried:
                            continue
                        tried.add(same[i])
                        code, outs = self.act(kids[i], base, lab_)
                        if code != best:
                            if best is not None and best < code:
                                continue
                            best = code
                            states_next = []
                            seen = set()
                        left = rest[:pos] + rest[pos + 1:]
                        for o in outs:
                            key = (frozenset(acc + o),
                                   tuple(sorted(same[j] for j in left)))
                            if key not in seen:
                                seen.add(key)
                                states_next.append(
                                    ({**lab_, **dict(o)} if o else lab_,
                                     acc + o, left))
                if len(states_next) > _MAX_CANDIDATES:
                    raise SearchBudgetError(
                        f"canonicalization search space too large: "
                        f"{len(states_next)} candidate orders, budget "
                        f"{_MAX_CANDIDATES}")
                codes.append(best)
                pending = states_next
            states = [(lab_, acc) for lab_, acc, _ in pending]
        outcomes = {tuple(pair for pair in acc if pair[0] not in own)
                    for _, acc in states}
        return tuple(codes), (_NO_HOLES if outcomes == {()}
                              else sorted(outcomes))

