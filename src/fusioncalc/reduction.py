"""One-step reduction of processes with fusions, and the search over it.

A redex is a pair of parallel components, possibly under restriction
binders but never under a prefix, with opposite polarities, equal
communication arities, and subjects identified by the ambient fusion
(restriction-bound subjects only match themselves).  Firing rewrites
the pair to the communicated continuation under a shared bound vector;
the fusion component is untouched.  Redexes are looked up on the
components of `process.spine`, whose binders are renamed apart.

`reach` searches in σ-normal form.  It substitutes the representatives
of the fusion's classes (`canonical_subst`, σ) into the start term once;
σ fixes every representative, so σ(σ(x)) = σ(x).  Fused subjects then
have equal representatives, and a reduct's free names are among the
start's, which σ already fixes.  So `congruence_key` of a reduct is at
once the search's dedup key and its key up to the fusion (the key of
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
from .process import (Act, Nu, Par, Process, all_names, congruence_key,
                      spine, substitute)
from .pwf import Pwf, nu_all, par, sigma_process
from .subst import finite_subst


def step(p: Pwf, config: Config = DEFAULT) -> list[Pwf]:
    """All one-step reducts, deduplicated up to structural congruence."""
    return [r for _, r in _keyed_reducts(p, {}, _classes(p.fus, config))]


def _keyed_reducts(p: Pwf, keys: dict[Process, tuple],
                   classes: Optional[Callable[[Name], frozenset]] = None):
    """Yield (congruence key, reduct) once per congruence class.  `keys`
    memoises `congruence_key` on the raw reduct terms.  `classes` is the
    fusion's class function (`fusion._classes`), which matches distinct
    free subjects; None when the free names are σ-representatives, which
    are fused only when equal."""
    bound, comps = spine(p.proc)
    seen = set()
    for i, j in itertools.combinations(range(len(comps)), 2):
        for a, b in ((i, j), (j, i)):
            sender, receiver = comps[a], comps[b]
            if not (isinstance(sender, Act) and isinstance(receiver, Act)):
                continue
            if sender.polarity != "up" or receiver.polarity != "down":
                continue
            if len(sender.bound) != len(receiver.bound):
                continue
            u, v = sender.subject, receiver.subject
            if u != v and (classes is None or u in bound or v in bound
                           or v not in classes(u)):
                continue
            reduct = _fire(bound, comps, a, b, p)
            key = keys.get(reduct.proc)
            if key is None:
                key = keys[reduct.proc] = congruence_key(reduct.proc)
            if key not in seen:
                seen.add(key)
                yield key, reduct


def _fire(bound, comps: list[Process], a: int, b: int, p: Pwf) -> Pwf:
    sender, receiver = comps[a], comps[b]
    left, right = sender.body, receiver.body
    fresh: list = []
    if sender.bound:
        avoid = set(bound)
        for c in comps:
            avoid |= all_names(c)
        candidate = max(avoid | {0}) + 1
        fresh = list(range(candidate, candidate + len(sender.bound)))
        left = substitute(left, finite_subst(dict(zip(sender.bound, fresh))))
        right = substitute(right,
                           finite_subst(dict(zip(receiver.bound, fresh))))
    out: Process = Par(left, right)
    for x in reversed(fresh):
        out = Nu(x, out)
    for k, q in enumerate(comps):
        if k not in (a, b):
            out = Par(out, q)
    for x in sorted(bound, reverse=True):
        out = Nu(x, out)
    return Pwf(out, p.fus)


def reach(p: Pwf, k: int, config: Config = DEFAULT,
          start: Optional[tuple] = None) -> Iterator[tuple[tuple, Pwf]]:
    """Each congruence class reachable from p in at most k steps, once,
    as (congruence key, term), in breadth-first order starting with p's.
    The terms are in σ-normal form: `canonical` of one is the class's
    form up to the fusion.

    Under Δ, `start = congruence_key(p.proc)` may be passed when the
    caller has already computed it; under any other fusion it is
    ignored."""
    if not p.fus.is_delta():
        p = Pwf(sigma_process(p, config), p.fus)
        start = None
    if start is None:
        start = congruence_key(p.proc)
    yield start, p
    frontier = [p]
    seen = {start}
    keys = {p.proc: start}
    for _ in range(k):
        next_frontier = []
        for q in frontier:
            for key, r in _keyed_reducts(q, keys):
                if key not in seen:
                    seen.add(key)
                    next_frontier.append(r)
                    yield key, r
        frontier = next_frontier


def reduces_within(p: Pwf, target: Pwf, k: int,
                   config: Config = DEFAULT) -> bool:
    """Whether p reaches a PWF equal to the target in at most k steps.

    Reduction never changes the fusion, so the fusion half of `equal_pwf`
    is decided once, and the target's key is computed once."""
    return _reduces_within(p, target, k, config)


def _reduces_within(p: Pwf, target: Pwf, k: int, config: Config,
                    start: Optional[tuple] = None,
                    goal: Optional[tuple] = None) -> bool:
    """`reduces_within`, given `start = congruence_key(p.proc)` (used
    under Δ only) and `goal = congruence_key(sigma_process(target,
    config))` when the caller has already computed them."""
    if not equal(p.fus, target.fus, config):
        return False
    if goal is None:
        goal = congruence_key(sigma_process(target, config))
    return any(key == goal for key, _ in reach(p, k, config, start))


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
