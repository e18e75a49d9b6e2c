"""Independent oracle for structural congruence: exhaustive closure under
the congruence rewrite rules, on alpha-invariant keys.

Deliberately knows nothing about canonicalization; it only applies the
defining rules (commutativity, associativity, unit, vacuous binders,
scope extrusion, binder swap, renaming of bound names) until no new term
appears, with a small size slack so detours through larger terms are
covered.
"""

from functools import lru_cache
from itertools import product

from fusioncalc.process import (
    NIL, Act, Nil, Nu, Par, Process, free_names, substitute,
)
from fusioncalc.subst import finite_subst


def alpha_key(p: Process, env=None, depth=0):
    """A de Bruijn style rendering, invariant under renaming bound names."""
    if env is None:
        env = {}
    if isinstance(p, Nil):
        return ("nil",)
    if isinstance(p, Par):
        return ("par", alpha_key(p.left, env, depth),
                alpha_key(p.right, env, depth))
    if isinstance(p, Act):
        subj = env.get(p.subject, ("free", p.subject))
        inner = dict(env)
        for i, x in enumerate(p.bound):
            inner[x] = ("bound", depth, i)
        return ("act", subj, p.polarity, len(p.bound),
                alpha_key(p.body, inner, depth + 1))
    if isinstance(p, Nu):
        inner = dict(env)
        inner[p.name] = ("bound", depth, 0)
        return ("nu", alpha_key(p.body, inner, depth + 1))
    raise TypeError(p)


def _size(p: Process) -> int:
    if isinstance(p, Nil):
        return 1
    if isinstance(p, Par):
        return 1 + _size(p.left) + _size(p.right)
    if isinstance(p, Act):
        return 1 + _size(p.body)
    if isinstance(p, Nu):
        return 1 + _size(p.body)
    raise TypeError(p)


def _rewrites_here(p: Process, names):
    if isinstance(p, Par):
        a, b = p.left, p.right
        yield Par(b, a)
        if isinstance(a, Par):
            yield Par(a.left, Par(a.right, b))
        if isinstance(b, Par):
            yield Par(Par(a, b.left), b.right)
        if isinstance(a, Nil):
            yield b
        if isinstance(b, Nil):
            yield a
        if isinstance(a, Nu) and a.name not in free_names(b):
            yield Nu(a.name, Par(a.body, b))
        if isinstance(b, Nu) and b.name not in free_names(a):
            yield Nu(b.name, Par(a, b.body))
    if isinstance(p, Nu):
        if p.name not in free_names(p.body):
            yield p.body
        if isinstance(p.body, Nu):
            yield Nu(p.body.name, Nu(p.name, p.body.body))
        if isinstance(p.body, Par):
            a, b = p.body.left, p.body.right
            if p.name not in free_names(a):
                yield Par(a, Nu(p.name, b))
            if p.name not in free_names(b):
                yield Par(Nu(p.name, a), b)
        for y in names:
            if y != p.name and y not in free_names(p.body):
                yield Nu(y, substitute(p.body, finite_subst({p.name: y})))


def _all_rewrites(p: Process, names):
    yield from _rewrites_here(p, names)
    if isinstance(p, Par):
        for q in _all_rewrites(p.left, names):
            yield Par(q, p.right)
        for q in _all_rewrites(p.right, names):
            yield Par(p.left, q)
    elif isinstance(p, Act):
        for q in _all_rewrites(p.body, names):
            yield Act(p.subject, p.polarity, p.bound, q)
    elif isinstance(p, Nu):
        for q in _all_rewrites(p.body, names):
            yield Nu(p.name, q)


def congruence_class(p: Process, name_pool=range(6), state_cap=20_000):
    """All alpha-keys reachable from p by the congruence rules.

    The rules applied are the size-neutral ones (commutativity,
    associativity, binder swap, scope extrusion, renaming) plus the unit
    and vacuous-binder eliminations.  Introductions are omitted: every
    congruence proof between terms of this fragment normalizes to one
    that first eliminates and then rearranges, so two terms are congruent
    iff their reachable sets meet (see congruence_key)."""
    names = sorted(name_pool)
    cap = _size(p) + 1
    seen = {alpha_key(p)}
    frontier = [p]
    minimal: list[Process] = [p]
    min_size = _size(p)
    while frontier:
        current = frontier.pop()
        for q in _all_rewrites(current, names):
            if _size(q) > cap:
                continue
            key = alpha_key(q)
            if key not in seen:
                if len(seen) >= state_cap:
                    raise RuntimeError("congruence closure exceeded cap")
                seen.add(key)
                frontier.append(q)
                size = _size(q)
                if size < min_size:
                    min_size = size
                    minimal = [q]
                elif size == min_size:
                    minimal.append(q)
    return seen, minimal, min_size


def congruence_key(p: Process, name_pool=range(6)):
    """An equivalence-class invariant: the least alpha-key among the
    smallest terms reachable by eliminations and rearrangements.  Every
    member of a congruence class reaches all the class's minimal-size
    terms, so this key is the same for congruent terms and distinct for
    non-congruent ones."""
    _, minimal, _ = congruence_class(p, name_pool)
    return min(alpha_key(q) for q in minimal)


def count_actions(p):
    if isinstance(p, Act):
        return 1 + count_actions(p.body)
    if isinstance(p, Par):
        return count_actions(p.left) + count_actions(p.right)
    if isinstance(p, Nu):
        return count_actions(p.body)
    return 0


def enumerate_universe(max_actions=3, names=range(4)):
    """A finite universe of processes over the given names, exhaustive
    within explicit structural bounds: action chains up to max_actions
    deep (binder arguments on the shorter chains, wide-subject choice on
    the shortest), parallel compositions of width <= 3, and one optional
    restriction binder.  Deduplicated up to renaming of bound names."""
    names = list(names)
    binder_arg = names[-1]

    def chains(depth, subjects, bounds):
        if depth == 0:
            return [NIL]
        out = [NIL]
        for subject, polarity in product(subjects, ("up", "down")):
            for bound in bounds:
                for body in chains(depth - 1, subjects, bounds):
                    out.append(Act(subject, polarity, bound, body))
        return out

    def dedup(ps):
        return list({alpha_key(p): p for p in ps
                     if not isinstance(p, Nil)}.values())

    atoms1 = dedup(chains(1, names, [(), (binder_arg,)]))
    atoms2 = dedup(chains(2, names[:3], [()]) +
                   chains(2, names[:2], [(), (binder_arg,)]))
    atoms3 = dedup(chains(3, names[:2], [()]))
    small = atoms1 + [p for p in atoms2 if count_actions(p) == 2]

    universe = {alpha_key(NIL): NIL}

    def add(p):
        universe.setdefault(alpha_key(p), p)

    for p in atoms1 + atoms2 + atoms3:
        add(p)
        for x in names:
            add(Nu(x, p))
    for p, q in product(small, repeat=2):
        if count_actions(p) + count_actions(q) <= max_actions:
            add(Par(p, q))
            for x in (names[0], binder_arg):
                add(Nu(x, Par(p, q)))
    ones = [p for p in atoms1 if p.subject in names[:2]]
    for p, q, r in product(ones, repeat=3):
        add(Par(Par(p, q), r))
    return list(universe.values())


@lru_cache(maxsize=None)
def oracle_partition(max_actions=3, names=range(4)):
    """The members of `enumerate_universe(max_actions, names)` grouped by
    the oracle's `congruence_key`, in first-occurrence order: computed
    once per session for every test that checks against it."""
    classes: dict = {}
    for p in enumerate_universe(max_actions, names):
        classes.setdefault(congruence_key(p), []).append(p)
    return tuple(map(tuple, classes.values()))
