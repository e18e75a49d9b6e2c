"""Reference reduction over `Process` terms, for differential tests of
`reduction.step` and `reduction.reach`.

`reference_step` finds redexes on `Process` components and fires them
with capture-avoiding substitution into fresh names, as the library did
before its search moved onto the multiset form.  The two searches
expand the terms that `reference_step` returns as they are, without
first substituting the fusion's representatives, and both compute a
term's form up to the fusion separately from its dedup key:

- `reference_listing` is a breadth-first search keyed by each raw
  reduct's printed normal form, the listing of `fusioncalc reduce`;
- `reference_reduces_within` dedups on the raw canonical process and
  compares the form up to the fusion with the target's at each level.

`reference_reducts` is the redex loop of `reduction._reducts` as it was
before each pair of component values fired once: every ordered pair of
components is tried, and repeated pairs fire again.

`reference_pole_regular_on` is the anti-reduction check as a loop over
`Process` terms: every reduct of every member against every member,
each composite built with `pwf.nu_all` and `pwf.par`, and handed to the
pole as its σ-node (`pwf.sigma_node`) only at the end.
"""

import itertools

from canonical_reference import congruence_key
from fusion_reference import canonical_subst
from fusioncalc.fusion import _classes, equal
from fusioncalc.process import Act, Nu, Par, all_names, canonical, substitute
from fusioncalc.pwf import Pwf, nu_all, par, pwf_str, sigma_node
from fusioncalc.reduction import _occurs, step
from fusioncalc.subst import finite_subst
from fusioncalc.terms import _NIL_NODE, _relabel, _simplify, _to_process


def _spine(p):
    """The top-level restricted names and parallel components of the
    scope-maximal form of p, with all binders renamed apart."""
    node, _ = _simplify(p, {}, itertools.count(max(all_names(p) | {0}) + 1))
    bound = frozenset()
    if node[0] == "nu":
        _, bound, node = node
    comps = node[1] if node[0] == "par" else (node,)
    return bound, [_to_process(c) for c in comps]


def _fire(bound, comps, a, b, p):
    sender, receiver = comps[a], comps[b]
    avoid = set(bound)
    for c in comps:
        avoid |= all_names(c)
    candidate = max(avoid | {0}) + 1
    fresh = list(range(candidate, candidate + len(sender.bound)))
    out = Par(substitute(sender.body,
                         finite_subst(dict(zip(sender.bound, fresh)))),
              substitute(receiver.body,
                         finite_subst(dict(zip(receiver.bound, fresh)))))
    for x in reversed(fresh):
        out = Nu(x, out)
    for k, q in enumerate(comps):
        if k not in (a, b):
            out = Par(out, q)
    for x in sorted(bound, reverse=True):
        out = Nu(x, out)
    return Pwf(out, p.fus)


def reference_step(p: Pwf) -> list[Pwf]:
    """All one-step reducts, deduplicated up to structural congruence
    under p's fusion: two reducts whose terms differ only in names that
    the fusion identifies are one PWF."""
    classes = _classes(p.fus)
    sigma = canonical_subst(p.fus)
    bound, comps = _spine(p.proc)
    seen = set()
    out = []
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
            if u != v and (u in bound or v in bound
                           or v not in classes(u)):
                continue
            reduct = _fire(bound, comps, a, b, p)
            key = congruence_key(substitute(reduct.proc, sigma))
            if key not in seen:
                seen.add(key)
                out.append(reduct)
    return out


def _form(p: Pwf):
    return canonical(substitute(p.proc, canonical_subst(p.fus)))


def reference_listing(p: Pwf, k: int) -> list[str]:
    """Sorted normal forms of the classes reached in 1..k steps."""
    def key(q: Pwf) -> str:
        return pwf_str(Pwf(_form(q), q.fus))

    frontier = [p]
    seen = {key(p)}
    reached = []
    for _ in range(k):
        next_frontier = []
        for q in frontier:
            for r in reference_step(q):
                r_key = key(r)
                if r_key not in seen:
                    seen.add(r_key)
                    next_frontier.append(r)
                    reached.append(r_key)
        frontier = next_frontier
    return sorted(reached)


def reference_reduces_within(p: Pwf, target: Pwf, k: int) -> bool:
    if not equal(p.fus, target.fus):
        return False
    sigma = canonical_subst(p.fus)
    goal = _form(target)
    start = canonical(p.proc)
    frontier = [p]
    seen = {start}
    for _ in range(k + 1):
        next_frontier = []
        for q in frontier:
            if canonical(substitute(q.proc, sigma)) == goal:
                return True
            for r in reference_step(q):
                r_key = canonical(r.proc)
                if r_key not in seen:
                    seen.add(r_key)
                    next_frontier.append(r)
        if not next_frontier:
            return False
        frontier = next_frontier
    return False


def reference_reducts(names, comps):
    """(sender a, receiver b, level after the redex fires) for every
    redex of the σ-normal level (names, comps), repeats included."""
    for i, j in itertools.combinations(range(len(comps)), 2):
        for a, b in ((i, j), (j, i)):
            _, u, pol, xs, left = comps[a]
            _, v, pol_b, ys, right = comps[b]
            if pol != "up" or pol_b != "down" or len(xs) != len(ys) \
                    or u != v:
                continue
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
            top -= {x for x in {u, v, *xs} & top
                    if not any(_occurs(x, c) for c in out)}
            inner = _NIL_NODE if not out else out[0] if len(out) == 1 \
                else ("par", tuple(sorted(out)))
            yield a, b, ("nu", frozenset(top), inner) if top else inner


def reference_pole_regular_on(pole, universe) -> bool:
    """Whenever p steps to q, everything orthogonal to q is orthogonal
    to p, over the given members."""
    for p in universe:
        for q in step(p):
            for r in universe:
                if pole(sigma_node(nu_all(par(q, r)))) and \
                        not pole(sigma_node(nu_all(par(p, r)))):
                    return False
    return True
