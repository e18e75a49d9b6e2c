"""Reference printed form and congruence key, for differential tests of
`process.canonical` and `terms.node_key`.

`reference_canonical` is the least rendering of a congruence class: it
enumerates every admissible ordering of structurally ambiguous parallel
siblings (each distinct order of equal-skeleton siblings once), renders
each candidate with bound names numbered by first occurrence, keeps the
least token stream and shapes it with the scope-minimization pass.
`process.canonical` prints a class that binds a name from its key
instead, so the two agree on the partition of terms, and on the forms
of terms that bind no name.  The reference gives up
(`SearchBudgetError`) when the candidates, counted as a product of
multinomials before any is built, exceed the budget.

`reference_key` is the congruence key as it was before restricted names
were numbered by colour refinement: the restricted names of a connected
group of siblings are labelled by first occurrence in the group's least
code, found by trying every order of equal skeletons position by
position (bound names negative, free names natural; a free name x is
labelled ~x).  It induces the same equivalence as `node_key`, with other
values.

`congruence_key` and `struct_eq` are `node_key` read on `Process`
terms, which only the tests need: the library keys multiset-form nodes.
"""

import itertools
import math
from collections import Counter
from typing import Iterator, Optional

from fusioncalc.names import Name
from fusioncalc.terms import (_MAX_CANDIDATES, _NIL_NODE, Process,
                              SearchBudgetError, _fresh_names, _simplify,
                              _to_process, invariant, multiset_form,
                              node_key)


def congruence_key(p: Process) -> tuple:
    """`node_key` of p's multiset form: equal for p and q exactly when
    `canonical(p) == canonical(q)`."""
    return node_key(multiset_form(p)[0])


def struct_eq(p: Process, q: Process) -> bool:
    """Structural congruence: action invariants first, then the keys."""
    p_node, q_node = multiset_form(p)[0], multiset_form(q)[0]
    return invariant(p_node) == invariant(q_node) and \
        node_key(p_node) == node_key(q_node)


def reference_key(p: Process) -> tuple:
    """The congruence key of p as the group order search computed it."""
    return ReferenceKeySearch().level(multiset_form(p)[0], 0, {})[0]


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


def reference_canonical(p: Process) -> Process:
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


_NO_HOLES = ((),)


class ReferenceKeySearch:
    """The state of one `reference_key` call.  `dom` maps each name of
    a group under search to (the group's names, its first position).
    Bound names are negative, free ones natural (see the module docstring).

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

