"""One-step reduction of processes with fusions, and the search over it.

A redex is a pair of parallel components, possibly under restriction
binders but never under a prefix, with opposite polarities, equal
arities, and subjects identified by the ambient fusion (restricted
subjects only match themselves).  Firing rewrites the pair to its
continuations under a shared bound vector; the fusion is untouched.
Redexes are found and fired on the multiset form (`terms.multiset_form`):
there is no replication, so firing only consumes prefixes, and binders
renamed apart once stay apart for the whole search.

`reach` searches in σ-normal form: each free name of the start's
multiset form is replaced once by σ of it, the least member of its
class in the fusion (`pwf.sigma_node`), and σ fixes every name of every
reduct.  So a reduct's `terms.node_key` is both the search's dedup key
and its key up to the fusion, and its class's line in the `fusioncalc
reduce` listing is printed without building a `Process`: from the key
itself when the node binds no name, as the key is then the printed
form, and otherwise from `terms.canonical_form` of the node, which
writes out the key that the search has cached.

A search keys only the reducts.  A step consumes one up and one down
prefix, so a reduct is never congruent to the start nor to a node of
another level: keys are needed only to deduplicate a level, and the
start is not keyed.  A level does need them: n identical siblings that
bind names reach C(n, j)² distinct nodes of a few classes at level j.
`reduces_within` first compares action invariants (`_may_reach`), so a
target whose actions p cannot consume down to is rejected unsearched;
it keys p only when p has the target's invariant, the one case where p
itself can match.

An action-free target needs no key and no level: the multiset form of
an action-free term is NIL, and so is every action-free reduct, and a
term reaches NIL, if at all, at the one depth where all its prefixes are
consumed.  So `_reaches_nil`, which the `done` poles call directly,
searches depth first and stops at the first NIL, as explicit-state
model checkers search for a deadlock (Holzmann, "The Model Checker
SPIN", IEEE TSE 1997).  It deduplicates reducts by key, as the
binding siblings above need, and so do copies of one term each under
its own restriction: `multiset_form` gives each copy its own binder, so
firing j of n copies reaches C(n, j) node values of one class.  `reach`,
which lists every class, keeps its level search.

A node reaches NIL only if every name that no bound vector binds has,
for each arity, as many up prefixes as down ones.  A step consumes one
up and one down prefix of equal arity on one name, and it renames only
vector names: the paper's emissions and receptions both bind the names
they pass, so the receiver's vector, a binder, is renamed onto the
sender's, a binder too.  So every other name keeps its counts through
every step, as a place of a Petri net keeps an invariant (Murata,
"Petri nets: properties, analysis and applications", Proc. IEEE 1989),
and NIL has no prefix.  The nonzero counts form a node's `_signature`;
nodes that share no vector name add their signatures when put in
parallel, so under a `done` pole `realizability.Universe` builds a
composite only when its two members' signatures cancel.
`_reaches_nil` is exact on any node and does not test the counts.

`pole_regular_on` asks whether ν(q | r) in the pole implies ν(p | r) in
it, for every member p, reduct q of p and member r.  It builds a
`realizability.Universe` on the members and reads the σ-reducts of each
member's σ-node from `_expand`: only the members that step get rows,
and the pole decides each composite on its node, with no `Process`.

With no replication, the reducts of a σ-normal node depend on the node
alone, so `_expand` is cached by the node.  With `node_key`'s cache, a
process that runs many searches (`laws`, `pole-laws`, library batches)
keys and expands each node value once; a single `fusioncalc reduce`
run already keys each class once.  `step` is `reach` one level deep,
each class printed as a term under p's fusion, so it reads both
caches too.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterator

from .fusion import equal
from .names import Name
from .pwf import Pwf, sigma_form, sigma_node
from .terms import (_NIL_NODE, _nodes, _relabel, _to_process, invariant,
                    multiset_form, node_key)


def step(p: Pwf) -> list[Pwf]:
    """All one-step reducts, deduplicated up to structural congruence:
    the classes `reach(p, 1)` yields, in its order, under p's fusion,
    binders numbered from one above the σ-node's free names."""
    node, free = sigma_form(multiset_form(p.proc), p.fus)
    base = max(free, default=-1) + 1
    return [Pwf(_to_process(r, base), p.fus) for _, r in _search(node, 1)]


def _level(node) -> tuple[frozenset, tuple]:
    """The restricted names and the parallel components of a level."""
    names: frozenset = frozenset()
    if node[0] == "nu":
        _, names, node = node
    return names, (node[1] if node[0] == "par" else
                   () if node[0] == "nil" else (node,))


def _reducts(names: frozenset, comps: tuple):
    """Each redex (sender a, receiver b) of the σ-normal level (names,
    comps), with the multiset form of the level after it fires: the
    receiver's bound names become the sender's, the continuations are
    spliced into the level, and the level keeps the restricted names
    that still occur.  Subjects match only when equal: free names are
    σ-representatives, fused only with themselves, and bound (negative)
    names are apart.

    Each (sender, receiver) pair of component values fires once, at its
    first redex: equal components leave equal levels, and whether two
    subjects match depends on the components alone (on one round of the
    benchmark's `reduce` workload, 2,123 redexes have 909 such pairs)."""
    fired = set()
    for i, j in itertools.combinations(range(len(comps)), 2):
        for a, b in ((i, j), (j, i)):
            _, u, pol, xs, left = comps[a]
            _, v, pol_b, ys, right = comps[b]
            if pol != "up" or pol_b != "down" or len(xs) != len(ys) or \
                    u != v or (comps[a], comps[b]) in fired:
                continue
            fired.add((comps[a], comps[b]))
            if xs:
                right = _relabel(right, dict(zip(ys, xs)))
            top = set(names).union(xs)
            out: list = []
            for part in (left, right):
                if part[0] == "nu":
                    top |= part[1]
                    part = part[2]
                if part[0] == "par":
                    out.extend(part[1])
                elif part[0] == "act":
                    out.append(part)
            out += (c for k, c in enumerate(comps) if k != a and k != b)
            # only the consumed subjects and the vector can have lost
            # their last occurrence
            top -= {x for x in {u, v, *xs} & top
                    if not any(_occurs(x, c) for c in out)}
            # sorted, so that most reducts that differ only in the order
            # of their components meet in the search's key memo
            inner = _NIL_NODE if not out else out[0] if len(out) == 1 \
                else ("par", tuple(sorted(out)))
            yield a, b, ("nu", frozenset(top), inner) if top else inner


def _occurs(x: Name, node) -> bool:
    """Whether the bound name x is a subject in node; binders are apart,
    so no occurrence is shadowed."""
    kind = node[0]
    if kind == "act":
        return node[1] == x or _occurs(x, node[4])
    if kind == "par":
        return any(_occurs(x, c) for c in node[1])
    return kind == "nu" and _occurs(x, node[2])


_REDUCT_CAP = 1024  # σ-normal nodes whose reducts are kept


@functools.lru_cache(maxsize=_REDUCT_CAP)
def _expand(q) -> tuple:
    """The distinct reducts of a σ-normal node, in the order `_reducts`
    first yields them.  With no replication they depend on the node
    alone, so they are cached by the node."""
    return tuple(dict.fromkeys(r for _, _, r in _reducts(*_level(q))))


def _search(node, k: int) -> Iterator[tuple[tuple, tuple]]:
    """(key, node) of each class reachable from a σ-normal node in 1..k
    steps, once, breadth first.  The start is not keyed, and each level
    is deduplicated on its own.  The caches of `node_key` and `_expand`
    carry keys and reducts within a search and from one to the next."""
    frontier = [node]
    for _ in range(k):
        level: dict = {}
        for q in frontier:
            for r in _expand(q):
                key = node_key(r)
                if key not in level:
                    level[key] = r
                    yield key, r
        frontier = list(level.values())


def reach(p: Pwf, k: int) -> Iterator[tuple[tuple, tuple]]:
    """Each congruence class reachable from p in 1..k steps, once, as
    (congruence key, node), in breadth-first order; p's own class is
    not among them.  The nodes are in σ-normal multiset form (binders
    negative, free names σ-representatives): `terms.canonical_form` of
    one is the class's form up to the fusion."""
    return _search(sigma_node(p), k)


def reduces_within(p: Pwf, target: Pwf, k: int) -> bool:
    """Whether p reaches a PWF equal to the target in at most k steps.

    Reduction never changes the fusion, so the fusion half of `equal_pwf`
    is decided once.  p is keyed only when it has the target's action
    invariant, and an action-free target (node NIL) is not keyed."""
    if not equal(p.fus, target.fus):
        return False
    node, goal = sigma_node(p), sigma_node(target)
    inv, goal_inv = invariant(node), invariant(goal)
    if not _may_reach(inv, goal_inv, k):
        return False
    if not goal_inv:
        return _reaches_nil(node, k)
    if inv == goal_inv:
        return node_key(node) == node_key(goal)
    goal = node_key(goal)
    return any(key == goal for key, _ in _search(node, k))


def _reaches_nil(node, k) -> bool:
    """Whether a σ-normal node reaches NIL in at most k steps (k may be
    `math.inf`), searched depth first up to the first NIL.  A node's
    depth is fixed by its prefixes, so a class seen once is not expanded
    again: reducts are deduplicated by `node_key`, as separately
    restricted or bound names make α-variants that node values tell
    apart.  Neither the start nor NIL is keyed."""
    if node == _NIL_NODE:
        return True
    if k < 1:
        return False
    seen = set()
    stack = [(node, k)]
    while stack:
        q, left = stack.pop()
        reducts = _expand(q)
        if _NIL_NODE in reducts:
            return True
        if left == 1:
            continue
        for r in reducts:
            key = node_key(r)
            if key not in seen:
                seen.add(key)
                stack.append((r, left - 1))
    return False


def _may_reach(inv: tuple, goal: tuple, k: int) -> bool:
    """Whether a term with the action invariant `inv` (`terms.invariant`)
    can reach one with the invariant `goal` in k steps: a step consumes
    one up and one down action of equal arity, so for every arity the up
    and down counts must drop by one number d >= 0, and the d add up to
    at most k."""
    drop = Counter(dict(inv))
    drop.subtract(dict(goal))
    return sum(drop.values()) <= 2 * k and all(
        d >= 0 and drop["down" if polarity == "up" else "up", arity] == d
        for (polarity, arity), d in list(drop.items()))


def _signature(node) -> frozenset:
    """The balance signature of a node: ((name, arity), up - down) for
    each name that no bound vector binds and each arity at which its up
    and down prefix counts differ.  Two nodes that share no vector name
    add their counts when put in parallel, so their composite's
    signature is empty exactly when the two cancel (`_negated`)."""
    vectors: set = set()
    counts: dict = {}
    for q in _nodes(node):
        if q[0] == "act":
            _, subject, polarity, bound, _ = q
            vectors.update(bound)
            key = subject, len(bound)
            counts[key] = counts.get(key, 0) + (1 if polarity == "up" else -1)
    return frozenset(item for item in counts.items()
                     if item[1] and item[0][0] not in vectors)


def _negated(signature: frozenset) -> frozenset:
    return frozenset((key, -d) for key, d in signature)


def pole_regular_on(pole, universe) -> bool:
    """Anti-reduction closure of singleton orthogonals, checked over the
    given finite universe: whenever p steps to q, everything orthogonal
    to q is orthogonal to p.  The pole decides the σ-node of a closed
    composite (see `realizability`).  Decided on the members' σ-nodes
    by `realizability.Universe.regular`."""
    # realizability imports this module
    from .realizability import Universe
    return Universe(universe, pole).regular()
