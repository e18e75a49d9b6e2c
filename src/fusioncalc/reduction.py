"""One-step reduction of processes with fusions.

A redex is a pair of parallel components, possibly under restriction
binders but never under a prefix, with opposite polarities, equal
communication arities, and subjects identified by the ambient fusion
(restriction-bound subjects only match themselves).  Firing rewrites
the pair to the communicated continuation under a shared bound vector;
the fusion component is untouched.  Redexes are looked up on the
components of `process.spine`, whose binders are renamed apart.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .config import DEFAULT, Config
from .fusion import canonical_subst, equal, related
from .process import (Act, Nu, Par, Process, all_names, canonical, spine,
                      substitute)
from .pwf import Pwf, nu_all, par
from .subst import finite_subst


def step(p: Pwf, config: Config = DEFAULT) -> list[Pwf]:
    """All one-step reducts, deduplicated up to structural congruence."""
    return [r for _, r in _keyed_reducts(p, config, {})]


def _keyed_reducts(p: Pwf, config: Config, keys: dict[Process, Process]):
    """Yield (canonical process, reduct) once per congruence class.  `keys`
    memoises `canonical` on the raw reduct terms."""
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
            if u in bound or v in bound:
                if u != v:
                    continue
            elif not related(p.fus, u, v, config):
                continue
            reduct = _fire(bound, comps, a, b, p)
            key = keys.get(reduct.proc)
            if key is None:
                key = keys[reduct.proc] = canonical(reduct.proc)
            if key not in seen:
                seen.add(key)
                yield key, reduct


def _fire(bound, comps: list[Process], a: int, b: int, p: Pwf) -> Pwf:
    sender, receiver = comps[a], comps[b]
    avoid = set(bound)
    for c in comps:
        avoid |= all_names(c)
    candidate = max(avoid | {0}) + 1
    fresh = list(range(candidate, candidate + len(sender.bound)))
    left = substitute(sender.body,
                      finite_subst(dict(zip(sender.bound, fresh))))
    right = substitute(receiver.body,
                       finite_subst(dict(zip(receiver.bound, fresh))))
    merged: Process = Par(left, right)
    for x in reversed(fresh):
        merged = Nu(x, merged)
    out = merged
    for k, q in enumerate(comps):
        if k not in (a, b):
            out = Par(out, q)
    for x in sorted(bound, reverse=True):
        out = Nu(x, out)
    return Pwf(out, p.fus)


def reduces_within(p: Pwf, target: Pwf, k: int,
                   config: Config = DEFAULT) -> bool:
    """Whether p reaches a PWF equal to the target in at most k steps.

    Reduction never changes the fusion, so the fusion half of `equal_pwf`
    is decided once, and the target's canonical form is computed once.
    Under Δ a term's dedup key is its equality form as well."""
    return _reduces_within(p, target, k, config)


def _reduces_within(p: Pwf, target: Pwf, k: int, config: Config,
                    start: Optional[Process] = None,
                    goal: Optional[Process] = None) -> bool:
    """`reduces_within`, given `start = canonical(p.proc)` and
    `goal = _form(target, config)` when the caller has already computed
    them."""
    if not equal(p.fus, target.fus, config):
        return False
    sigma = canonical_subst(p.fus, config)
    if goal is None:
        goal = _form(target, config)
    if start is None:
        start = canonical(p.proc)
    frontier = [(start, p)]
    seen = {start}
    keys = {p.proc: start}
    for _ in range(k + 1):
        next_frontier = []
        for key, q in frontier:
            form = key if p.fus.is_delta() else canonical(
                substitute(q.proc, sigma))
            if form == goal:
                return True
            for rkey, r in _keyed_reducts(q, config, keys):
                if rkey not in seen:
                    seen.add(rkey)
                    next_frontier.append((rkey, r))
        if not next_frontier:
            return False
        frontier = next_frontier
    return False


def _form(p: Pwf, config: Config) -> Process:
    """The canonical process of p under its fusion's representatives."""
    return canonical(substitute(p.proc, canonical_subst(p.fus, config)))


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
