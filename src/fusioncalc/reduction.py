"""One-step reduction of processes with fusions, and the search over it.

A redex is a pair of parallel components, possibly under restriction
binders but never under a prefix, with opposite polarities, equal
communication arities, and subjects identified by the ambient fusion
(restriction-bound subjects only match themselves).  Firing rewrites
the pair to the communicated continuation under a shared bound vector;
the fusion component is untouched.  Redexes are found and fired on the
multiset form (`terms.multiset_form`), not on `Process` terms: there is
no replication, so firing only consumes prefixes, and binders renamed
apart once stay apart for the whole search.  Each reduct is keyed by
`terms.node_key`; a `Process` is built only for what `step` and `reach`
return.

`reach` searches in σ-normal form.  It substitutes the representatives
of the fusion's classes (`canonical_subst`, σ) into the start term once;
σ fixes every representative, so σ(σ(x)) = σ(x).  Fused subjects then
have equal representatives, and a reduct's free names are among the
start's, which σ already fixes.  So the key of a reduct is at once the
search's dedup key and its key up to the fusion (the key of
`pwf.sigma_process`), and `canonical` of the term is its line in the
`fusioncalc reduce` listing.  The search computes no printed form: the
listing canonicalises each class it prints, once.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from .config import DEFAULT, Config
from .fusion import _classes, equal
from .names import Name
from .pwf import Pwf, nu_all, par, sigma_process
from .terms import (_NIL_NODE, _to_process, all_names, congruence_key,
                    multiset_form, node_key)


def step(p: Pwf, config: Config = DEFAULT) -> list[Pwf]:
    """All one-step reducts, deduplicated up to structural congruence.

    A reduct is the pair's continuations under the communicated vector,
    beside the other components, under p's top-level restrictions; the
    binders are numbered apart above p's names, the vector above all."""
    node = multiset_form(p.proc)[0]
    names, comps = _level(node)
    base = max(all_names(p.proc) | {0}) + 1
    fresh = max(all_names(_to_process(node, base)) | {0}) + 1
    seen = set()
    out = []
    for a, b, r in _reducts(names, comps, _classes(p.fus, config)):
        key = node_key(r)
        if key not in seen:
            seen.add(key)
            (_, _, _, xs, left), (_, _, _, ys, right) = comps[a], comps[b]
            # negative names that _to_process numbers fresh, fresh + 1, ...
            vector = [base + ~fresh - i for i in range(len(xs))]
            pair = ("par", (_rename(left, dict(zip(xs, vector))),
                            _rename(right, dict(zip(ys, vector)))))
            rest = (c for k, c in enumerate(comps) if k != a and k != b)
            reduct = ("nu", names, ("par", (
                ("nu", frozenset(vector), pair), *rest)))
            out.append(Pwf(_to_process(reduct, base), p.fus))
    return out


def _level(node) -> tuple[frozenset, tuple]:
    """The restricted names and the parallel components of a level."""
    names: frozenset = frozenset()
    if node[0] == "nu":
        _, names, node = node
    return names, (node[1] if node[0] == "par" else
                   () if node[0] == "nil" else (node,))


def _reducts(names: frozenset, comps: tuple,
             classes: Optional[Callable[[Name], frozenset]] = None):
    """Each redex (sender a, receiver b) of the level (names, comps), with
    the multiset form of the level after it fires: the receiver's bound
    names become the sender's, the continuations are spliced into the
    level, and the level keeps the restricted names that still occur.
    `classes` is the fusion's class function (`fusion._classes`), which
    matches distinct free subjects; None when the free names are
    σ-representatives, which are fused only when equal.  Bound
    (negative) subjects match only themselves."""
    for i, j in itertools.combinations(range(len(comps)), 2):
        for a, b in ((i, j), (j, i)):
            _, u, pol, xs, left = comps[a]
            _, v, pol_b, ys, right = comps[b]
            if pol != "up" or pol_b != "down" or len(xs) != len(ys) or (
                    u != v and (classes is None or u < 0 or v < 0
                                or v not in classes(u))):
                continue
            if xs:
                right = _rename(right, dict(zip(ys, xs)))
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


def _rename(node, names: dict):
    """node with the subjects in `names` renamed; binders are apart, so
    no renaming can be captured."""
    kind = node[0]
    if kind == "act":
        _, subj, pol, bound, body = node
        return ("act", names.get(subj, subj), pol, bound,
                _rename(body, names))
    if kind == "par":
        return ("par", tuple(_rename(c, names) for c in node[1]))
    if kind == "nu":
        return ("nu", node[1], _rename(node[2], names))
    return node


def _search(node, key: tuple, k: int) -> Iterator[tuple[tuple, tuple]]:
    """(key, node) of each class reachable from a σ-normal node in at
    most k steps, once, breadth first from the start's.  `keys`
    memoises `node_key` on the node tuples."""
    yield key, node
    frontier = [node]
    seen = {key}
    keys = {node: key}
    for _ in range(k):
        next_frontier = []
        for q in frontier:
            for _, _, r in _reducts(*_level(q)):
                key = keys.get(r)
                if key is None:
                    key = keys[r] = node_key(r)
                if key not in seen:
                    seen.add(key)
                    next_frontier.append(r)
                    yield key, r
        frontier = next_frontier


def _start(p: Pwf, config: Config):
    """The multiset form of p's σ-normal process, and its free names."""
    return multiset_form(p.proc if p.fus.is_delta()
                         else sigma_process(p, config))


def reach(p: Pwf, k: int, config: Config = DEFAULT
          ) -> Iterator[tuple[tuple, Pwf]]:
    """Each congruence class reachable from p in at most k steps, once,
    as (congruence key, term), in breadth-first order starting with p's.
    The terms are in σ-normal form: `canonical` of one is the class's
    form up to the fusion."""
    node, free = _start(p, config)
    base = max(free, default=-1) + 1
    for key, r in _search(node, node_key(node), k):
        yield key, Pwf(_to_process(r, base), p.fus)


def reduces_within(p: Pwf, target: Pwf, k: int,
                   config: Config = DEFAULT) -> bool:
    """Whether p reaches a PWF equal to the target in at most k steps.

    Reduction never changes the fusion, so the fusion half of `equal_pwf`
    is decided once, and the target's key is computed once."""
    return _reduces_within(p, target, k, config)


def _reduces_within(p: Pwf, target: Pwf, k: int, config: Config,
                    start: Optional[tuple] = None,
                    goal: Optional[tuple] = None) -> bool:
    """`reduces_within`, given `start = (node, node_key(node))` for
    `node = multiset_form(p.proc)[0]` (used under Δ only) and
    `goal = congruence_key(sigma_process(target, config))` when the
    caller has already computed them."""
    if not equal(p.fus, target.fus, config):
        return False
    if goal is None:
        goal = congruence_key(sigma_process(target, config))
    if start is None or not p.fus.is_delta():
        node = _start(p, config)[0]
        start = node, node_key(node)
    return any(key == goal for key, _ in _search(*start, k))


def pole_regular_on(pole, universe, config: Config = DEFAULT) -> bool:
    """Anti-reduction closure of singleton orthogonals, checked over the
    given finite universe: whenever p steps to q, everything orthogonal
    to q is orthogonal to p."""
    for p in universe:
        for q in step(p, config):
            for r in universe:
                if pole(nu_all(par(q, r, config), config)) and \
                        not pole(nu_all(par(p, r, config), config)):
                    return False
    return True
