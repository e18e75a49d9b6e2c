"""Process terms: the pi-term fragment (nil, parallel, binding actions,
restriction), free names, capture-avoiding substitution, and structural
congruence.

Substitution is one pass that applies σ once to each free name; the
binders in scope map to themselves.  Only a binder holding the image of
a moved name can capture, so only there is its body scanned, and renamed
apart (`_rename_apart`) when a free name of it moves onto the binder.

Congruence is decided on a multiset form: one pass (`_simplify`) renames
every binder apart and brings the term to scope-maximal form, with the
restrictions of each level gathered into one set and its parallel
components into one tuple.  The reduction search works on that form too
(`multiset_form`).  One sibling-order search, with colour refinement
and swap pruning, gives the exact equality key (`node_key`, AHU codes);
terms whose action invariants differ are told apart before it.  The
printed form (`canonical_form`) is that key written out as a term, so
it runs no search of its own.  A node that binds no name needs no
search: its siblings sorted are its printed form, and that text
(`form_str`) is its key.  A node's key depends on the node value alone,
so `node_key` is cached by the node, and a search that exceeds the
budget stores nothing.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterator

from .names import Name
from .record import Record
from .subst import Substitution


class ProcessError(Exception):
    pass


class SearchBudgetError(ProcessError):
    """A valid term whose key search exceeds the candidate budget."""


class Process(Record):
    __slots__ = ()


class Nil(Process):
    __slots__ = ()


class Par(Process):
    __slots__ = ("left", "right")

    def __init__(self, left: Process, right: Process) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Act(Process):
    __slots__ = ("subject", "polarity", "bound", "body")

    def __init__(self, subject: Name, polarity: str, bound: tuple[Name, ...],
                 body: Process) -> None:
        # polarity: "up" (output, !) or "down" (input, ?)
        if polarity not in ("up", "down"):
            raise ProcessError(f"bad polarity {polarity!r}")
        if len(set(bound)) != len(bound):
            raise ProcessError("bound vector has duplicates")
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "polarity", polarity)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "body", body)


class Nu(Process):
    __slots__ = ("name", "body")

    def __init__(self, name: Name, body: Process) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "body", body)


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
    """p with each free name x replaced by sigma(x), in one pass (see
    above); p itself when none moves."""
    moved = {}
    for x in free_names(p):
        y = sigma.apply(x)
        if y != x:
            moved[x] = y
    if not moved:
        return p
    return _substitute(p, moved, frozenset(moved.values()), frozenset())


def _substitute(p: Process, moved: dict, images: frozenset,
                hidden: frozenset) -> Process:
    """p with each name of `moved` (whose values are `images`) replaced
    where it is free, but not where `hidden`, the moved names bound in
    scope, holds it; unchanged subterms are kept as they are."""
    kind = type(p)
    if kind is Par:
        left = _substitute(p.left, moved, images, hidden)
        right = _substitute(p.right, moved, images, hidden)
        return p if left is p.left and right is p.right else Par(left, right)
    if kind is Nil:
        return p
    bound, body = p.bound if kind is Act else (p.name,), p.body
    if not images.isdisjoint(bound):
        body, bound = _rename_apart(body, bound, moved, hidden)
    body = _substitute(body, moved, images,
                       hidden.union(x for x in bound if x in moved))
    if kind is Nu:
        return p if body is p.body and bound[0] == p.name else \
            Nu(bound[0], body)
    subject = p.subject if p.subject in hidden else \
        moved.get(p.subject, p.subject)
    return p if subject == p.subject and bound is p.bound and \
        body is p.body else Act(subject, p.polarity, bound, body)


def _rename_apart(body: Process, bound: tuple[Name, ...], moved: dict,
                  hidden: frozenset) -> tuple[Process, tuple[Name, ...]]:
    """(body, bound), with the binders renamed when a free name of body
    moves onto one of them: to the least names that are no free name of
    body, no image of one and no name in body, renaming body first."""
    outer_free = free_names(body) - set(bound)
    images = {x if x in hidden else moved.get(x, x) for x in outer_free}
    if images.isdisjoint(bound):
        return body, bound
    avoid = images | outer_free | set(bound) | all_names(body)
    fresh = tuple(_fresh_names(avoid, len(bound)))
    # fresh names occur nowhere in body, so renaming to them captures none
    return _substitute(body, dict(zip(bound, fresh)), frozenset(fresh),
                       frozenset()), fresh


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


def _relabel(node, ids: dict):
    """node with every name in `ids` renamed, binders included; binders
    are apart, so no renaming can be captured."""
    kind = node[0]
    if kind == "act":
        _, subj, pol, bound, body = node
        return ("act", ids.get(subj, subj), pol,
                tuple(ids.get(x, x) for x in bound), _relabel(body, ids))
    if kind == "par":
        return ("par", tuple(_relabel(c, ids) for c in node[1]))
    if kind == "nu":
        return ("nu", frozenset(ids.get(x, x) for x in node[1]),
                _relabel(node[2], ids))
    return node


def _nodes(node) -> Iterator[tuple]:
    """The nodes of a multiset-form node."""
    stack = [node]
    while stack:
        q = stack.pop()
        yield q
        if q[0] == "act":
            stack.append(q[4])
        elif q[0] == "par":
            stack.extend(q[1])
        elif q[0] == "nu":
            stack.append(q[2])


def invariant(node) -> tuple:
    """The multiset of a multiset-form node's action prefixes by
    (polarity, arity), as sorted ((polarity, arity), count) items.
    Congruence and substitution keep it."""
    counts = Counter((q[2], len(q[3])) for q in _nodes(node)
                     if q[0] == "act")
    return tuple(sorted(counts.items()))


def skeleton(node, memo: dict) -> tuple:
    """A multiset-form node with its bound names erased, the siblings of
    each level sorted and the restricted names of each level counted: a
    congruence invariant, since congruent nodes differ only in the
    numbers of their binders and the order of their siblings.  `memo`
    holds the skeletons of the nodes of one term, by node identity."""
    out = memo.get(id(node))
    if out is None:
        kind = node[0]
        if kind == "act":
            _, subj, pol, bound, body = node
            out = ("act", ("bound",) if subj < 0 else ("free", subj),
                   pol, len(bound), skeleton(body, memo))
        elif kind == "par":
            out = ("par", tuple(sorted(skeleton(c, memo) for c in node[1])))
        elif kind == "nu":
            out = ("nu", len(node[1]), skeleton(node[2], memo))
        else:
            out = node
        memo[id(node)] = out
    return out


# ---------------------------------------------------------------------------
# congruence key
#
# Codes:  level = sorted tuple of group codes
#         group = (m, tuple of act codes): m restricted names and the
#                 siblings that share them
#         act   = (subject label, is output, arity, level code of body)
# A free name x is labelled ~x.  A bound name is labelled by its position
# among the names bound on the path from the root (a de Bruijn level):
# input-bound names by their place in the prefix, a group's restricted
# names by the rank of their colour, and names that share a colour by
# first occurrence in the group's least code.  Sibling subtrees reuse
# positions, but never share a name.
#
# The search places the siblings of a group in skeleton order (bound
# names erased) and tries, position by position, every sibling of the
# current skeleton class in every state kept so far.  A sibling is not
# tried when an interchangeable one was: one equal up to the names it
# binds itself, or one that a swap of two unnumbered names of the group
# turns into it, where the swap maps the siblings onto themselves (a
# checked automorphism; McKay and Piperno, "Practical graph isomorphism
# II", 2014).  A search holding more than _MAX_CANDIDATES states raises
# `SearchBudgetError`; each state is a distinct prefix of one order, so
# there are never more states than orders.


_KEY_CAP = 1024  # node keys kept


@functools.lru_cache(maxsize=_KEY_CAP)
def node_key(node) -> tuple | str:
    """The congruence key of a `multiset_form` node (binders negative and
    pairwise distinct, free names natural): an exact invariant, equal
    for the nodes of p and q exactly when `canonical(p) ==
    canonical(q)`.

    A node that binds no name (`_binds_nothing`) is keyed by its printed
    form, the text `form_str(_sorted(node))`.  With no binder,
    congruence is equality of the sorted siblings at each level (the
    tree code of Aho, Hopcroft and Ullman), and the printed form writes
    that sorted node injectively, since the grammar reads it back.  A
    text never equals a code tuple, so the two kinds of key are apart.

    Any other node is keyed by a code tuple.  Siblings that share no
    restricted name, and hold no name that an enclosing search has yet
    to number, are placed by their codes alone.
    The restricted names of a connected group are numbered by one round
    of colour refinement: a name's colour is the multiset of the
    skeleton paths from the siblings it occurs in down to each
    occurrence, and a name whose colour is unique is labelled by the
    colour's rank.  A group whose names are all labelled so is placed by
    its codes too; the others are searched (see above), keeping the
    orders whose codes are least so far.

    The key depends on the node value alone, so it is cached by the
    node.  A search that exceeds the candidate budget stores nothing, so
    it raises on every call."""
    if _binds_nothing(node):
        return form_str(_sorted(node))
    return _KeySearch().level(node, 0, {})[0]


_NO_HOLES = ((),)


class _KeySearch:
    """The state of one `node_key` search: memos over the nodes of one
    term, by node identity (bound names are negative, free ones
    natural), and `dom`, which maps each tied name of a group under
    search to (its colour class, the class's first label).

    `level` and `act` return (code, outcomes): each outcome is a tuple
    of (name, label) pairs, the labels that the least code gives to
    names that enclosing searches have not numbered yet."""

    def __init__(self) -> None:
        self.frees: dict = {}
        self.skeletons: dict = {}
        self.alphas: dict = {}
        self.paths: dict = {}
        self.dom: dict = {}

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

    def alpha(self, node):
        """node with the names it binds itself numbered by first
        occurrence."""
        out = self.alphas.get(id(node))
        if out is None:
            inner = set()
            for q in _nodes(node):
                if q[0] == "act":
                    inner.update(x for x in (q[1], *q[3]) if x < 0)
                elif q[0] == "nu":
                    inner |= q[1]
            inner -= self.free(node)
            ids: dict = {}
            for q in _nodes(node):
                if q[0] == "act":
                    for x in (q[1], *q[3]):
                        if x in inner and x not in ids:
                            ids[x] = ("#", len(ids))
            out = self.alphas[id(node)] = _relabel(node, ids)
        return out

    def twins(self, kids, j: int, i: int, known, own: frozenset,
              memo: dict) -> bool:
        """Whether kids[i] is kids[j] with two names of `own` swapped that
        are not in `known` (so occur in no placed sibling), by a swap
        that maps the siblings onto themselves."""
        if (j, i) not in memo:
            a, b = self.free(kids[j]), self.free(kids[i])
            memo[j, i] = None
            if len(a - b) == len(b - a) == 1 and (a ^ b) <= own:
                (x,), (y,) = a - b, b - a
                swap = {x: y, y: x}
                moved = [self.alpha(c) for c in kids
                         if x in self.free(c) or y in self.free(c)]
                if _relabel(self.alpha(kids[j]), swap) == \
                        self.alpha(kids[i]) and Counter(
                            _relabel(c, swap) for c in moved) == \
                        Counter(moved):
                    memo[j, i] = (x, y)
        pair = memo[j, i]
        return pair is not None and pair[0] not in known and \
            pair[1] not in known

    def occurrences(self, node) -> list:
        """(name, path) for each bound subject in an act node: the path is
        the skeletons of the acts from node down to the occurrence."""
        out = self.paths.get(id(node))
        if out is None:
            _, subj, _, _, body = node
            here = (skeleton(node, self.skeletons),)
            out = [(subj, here)] if subj < 0 else []
            if body[0] == "nu":
                body = body[2]
            for c in body[1] if body[0] == "par" else \
                    () if body[0] == "nil" else (body,):
                out += [(x, here + path) for x, path in self.occurrences(c)]
            self.paths[id(node)] = out
        return out

    def refine(self, kids, names: frozenset, base: int, lab: dict):
        """Label each restricted name of a group whose colour is unique by
        the colour's rank; a tied name maps to (its class, the first label
        of the class) for the search to number."""
        if len(names) < 2:
            return {**lab, **dict.fromkeys(names, base)}, {}
        paths: dict = {x: [] for x in names}
        for c in kids:
            for x, path in self.occurrences(c):
                if x in paths:
                    paths[x].append(path)
        colour = {x: sorted(p) for x, p in paths.items()}
        lab = dict(lab)
        tied: dict = {}
        start = base
        for _, cls in itertools.groupby(sorted(names, key=colour.get),
                                        key=colour.get):
            cls = frozenset(cls)
            if len(cls) == 1:
                lab.update(dict.fromkeys(cls, start))
            else:
                tied.update(dict.fromkeys(cls, (cls, start)))
            start += len(cls)
        return lab, tied

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
        if len(kids) == 1 and not names:
            # a lone sibling: its outcomes are the level's
            code, outs = self.act(kids[0], base, lab)
            outs = set(outs)
            return ((0, (code,)),), (_NO_HOLES if outs == {()}
                                     else sorted(outs))
        # connected groups: siblings sharing a restricted name of this
        # level, and every sibling holding a name still to be numbered
        watch = frozenset(holes)
        uses = [self.free(c) & watch for c in kids]
        groups: list = []
        for i, used in enumerate(uses):
            keys = {x if x in names else "hole" for x in used}
            joined = [g for g in groups if g[0] & keys]
            groups = [g for g in groups if not g[0] & keys]
            groups.append((keys.union(*(g[0] for g in joined)),
                           [j for g in joined for j in g[1]] + [i]))
        codes = []
        outcomes = _NO_HOLES
        for _, group in groups:
            used = frozenset().union(*(uses[i] for i in group))
            own = used & names
            group = [kids[i] for i in group]
            glab, tied = self.refine(group, own, base, lab)
            if used <= own and not tied:
                code = tuple(sorted(self.act(c, base + len(own), glab)[0]
                                    for c in group))
            else:
                self.dom.update(tied)
                code, found = self.search(group, base + len(own), glab,
                                          frozenset(tied))
                for x in tied:
                    del self.dom[x]
                if found is not _NO_HOLES:
                    outcomes = found
            codes.append((len(own), code))
        return tuple(sorted(codes)), outcomes

    def search(self, kids: list, base: int, lab: dict, own: frozenset):
        """The least code of the sibling sequence over the orders of
        equal skeletons, and its outcomes on the names outside `own`.  A
        state is (labels, outcome pairs, codes, positions still to
        place); of the states whose last code is least, one is kept per
        outcome set and multiset of the siblings still to place."""
        ids: dict = {}
        same = [ids.setdefault(self.alpha(c), len(ids)) for c in kids]
        shapes = [skeleton(c, self.skeletons) for c in kids]
        order = sorted(range(len(kids)), key=shapes.__getitem__)
        memo: dict = {}
        states = [(lab, (), ())]
        while order:
            cls = tuple(i for i in order if shapes[i] == shapes[order[0]])
            order = order[len(cls):]
            pending = [(*state, cls) for state in states]
            for _ in cls:
                found: list = []
                for lab_, acc, codes, rest in pending:
                    tried: list = []
                    for pos, i in enumerate(rest):
                        if any(same[i] == same[j] or
                               self.twins(kids, j, i, lab_, own, memo)
                               for j in tried):
                            continue
                        tried.append(i)
                        left = rest[:pos] + rest[pos + 1:]
                        code, outs = self.act(kids[i], base, lab_)
                        found += [({**lab_, **dict(o)} if o else lab_,
                                   acc + o, codes + (code,), left)
                                  for o in outs]
                best = min(state[2][-1] for state in found)
                seen: dict = {}
                for state in found:
                    if state[2][-1] == best:
                        seen.setdefault((frozenset(state[1]), tuple(
                            sorted(same[j] for j in state[3]))), state)
                pending = list(seen.values())
                if len(pending) > _MAX_CANDIDATES:
                    raise SearchBudgetError(
                        f"canonicalization search space too large: "
                        f"{len(pending)} candidate orders, budget "
                        f"{_MAX_CANDIDATES}")
            states = [state[:-1] for state in pending]
        outcomes = {tuple(pair for pair in acc if pair[0] not in own)
                    for _, acc, _ in states}
        return states[0][2], (_NO_HOLES if outcomes == {()}
                              else sorted(outcomes))


# ---------------------------------------------------------------------------
# printed form


def canonical_form(node):
    """The printed form of a `multiset_form` node's congruence class, as
    a node with natural names.  A node that binds no name prints as its
    siblings sorted, the text of its key.  Any other prints as its key
    written out as a term (`_decode`), with its bound names numbered by
    first occurrence from the least naturals that are no free subject,
    and its binders then pushed onto the sub-multisets that use them
    (`_minimize`).  So a class whose key is cached prints with no
    search, and a node whose key exceeds the budget has no form."""
    if _binds_nothing(node):
        return _sorted(node)
    frees = {q[1] for q in _nodes(node) if q[0] == "act" and q[1] >= 0}
    pool = (x for x in itertools.count() if x not in frees)
    return _minimize(_decode(node_key(node), (), pool))


def _decode(code, path: tuple, pool: Iterator[Name]):
    """The node of a level code, in the code's sibling order.  `path`
    holds the names bound on the path from the root by de Bruijn level,
    each as a one-item list that takes the next name of `pool` at the
    name's first occurrence."""
    names: list = []
    kids: list = []
    for m, acts in code:
        own = tuple([None] for _ in range(m))
        inner = path + own
        for label, out, arity, body in acts:
            if label < 0:
                subj = ~label
            else:
                cell = inner[label]
                if cell[0] is None:
                    cell[0] = next(pool)
                subj = cell[0]
            bound = tuple(next(pool) for _ in range(arity))
            kids.append(("act", subj, "up" if out else "down", bound,
                         _decode(body, inner + tuple([x] for x in bound),
                                 pool)))
        names += [cell[0] for cell in own]
    if not kids:
        return _NIL_NODE
    inner = kids[0] if len(kids) == 1 else ("par", tuple(kids))
    return ("nu", frozenset(names), inner) if names else inner


def _binds_nothing(node) -> bool:
    """Whether a multiset-form node has no bound name: every subject is
    free and every vector empty, and so no restriction is left."""
    return all(q[1] >= 0 and not q[3] for q in _nodes(node) if q[0] == "act")


def _sorted(node):
    """A node that binds nothing with each level's siblings sorted: their
    skeleton order, which on such nodes is the order of the nodes."""
    if node[0] == "act":
        return node[:4] + (_sorted(node[4]),)
    if node[0] == "par":
        return ("par", tuple(sorted(map(_sorted, node[1]))))
    return node


def form_str(node) -> str:
    """The text of a node with natural names, such as a `canonical_form`
    or a `Process` read as a node (`process.process_str`): the one term
    printer.  A `par` or `nu` inside a level or under a prefix is
    bracketed, and a `nu` directly under a `nu` joins its `new`."""
    kind = node[0]
    if kind == "nil":
        return "1"
    if kind == "par":
        return " | ".join(f"({form_str(c)})" if c[0] in ("par", "nu")
                          else form_str(c) for c in node[1])
    if kind == "act":
        _, subj, pol, bound, body = node
        head = f"{subj}{'!' if pol == 'up' else '?'}" \
               f"({','.join(str(x) for x in bound)})"
        if body[0] == "nil":
            return head
        text = form_str(body)
        return f"{head}.({text})" if body[0] in ("par", "nu") \
            else f"{head}.{text}"
    names = sorted(node[1])
    body = node[2]
    while body[0] == "nu":
        names += sorted(body[1])
        body = body[2]
    return f"new {' '.join(str(x) for x in names)}. {form_str(body)}"


# ---------------------------------------------------------------------------
# scope minimization


def _minimize(node):
    """Push nu binders onto the sub-multisets that use them, a name
    pushed onto a component that holds pushed names joining them, so
    that each `new` prints its binders in ascending order.  node has
    natural names, each bound one bound once, so a restricted name is
    free in a component exactly when it is a subject there."""
    kind = node[0]
    if kind == "act":
        return node[:4] + (_minimize(node[4]),)
    if kind == "par":
        return ("par", tuple(_minimize(c) for c in node[1]))
    if kind == "nil":
        return node
    _, names, body = node
    if body[0] != "par":
        return ("nu", names, _minimize(body))
    comps = list(body[1])
    for x in sorted(names):
        uses = [any(q[0] == "act" and q[1] == x for q in _nodes(c))
                for c in comps]
        if all(uses):
            continue
        used = [c for c, u in zip(comps, uses) if u]
        comps = [c for c, u in zip(comps, uses) if not u]
        if len(used) == 1 and used[0][0] == "nu":
            comps.append(("nu", used[0][1] | {x}, used[0][2]))
        else:
            comps.append(("nu", frozenset({x}), used[0] if len(used) == 1
                          else ("par", tuple(used))))
        names = names - {x}
    inner = comps[0] if len(comps) == 1 else ("par", tuple(comps))
    return ("nu", names, _minimize(inner)) if names else _minimize(inner)
