"""The set binder ν with the `np` seed, for a differential test of
`pwf.hereditary_closure`.

The library seeds the hereditary closure of a bound set X with the free
process names inside X.  The `np` seed, once a choice of the library's
config, also seeds it with the names of X in the classes of those free
names and at the endpoints of the fusion's finite pairs
(`np_finite_part`).  The closure then binds more names, but the extra
ones are vacuous or fused away, so both seeds give equal PWFs; this
module keeps the `np` seed so that a test can check that.

`reference_nu_name` is ν of one name as the library built it before
`pwf.nu_name` became `nu_set` of {x}: x is bound, vacuously or not, and
substituted by x* (`fusion.second_rep`).
"""

from fusioncalc.fusion import _classes, remove, second_rep
from fusioncalc.names import ALL, finite, residue
from fusioncalc.process import Nu, free_names, substitute
from fusioncalc.pwf import Pwf, PwfError, _closure_step, par, relabel, unrelabel
from fusioncalc.subst import finite_subst


def np_finite_part(p):
    """The classes of p's free process names and the endpoints of its
    fusion's finite pairs."""
    out = set()
    classes = _classes(p.fus)
    for x in free_names(p.proc):
        out |= classes(x)
    for a, b in p.fus.pairs:
        out |= {a, b}
    return frozenset(out)


def np_hereditary_closure(X, p):
    """`pwf.hereditary_closure` seeded with `np_finite_part` inside X."""
    seed = np_finite_part(p) | free_names(p.proc)
    current = frozenset(x for x in seed if X.member(x))
    classes = _classes(p.fus)
    while True:
        ts = _closure_step(current, classes)
        grown = current | {t for t in ts if X.member(t)}
        if grown == current:
            break
        current = grown
    sigma = {}
    for s, t in zip(sorted(current), ts):
        sigma = {x: t if y == s else y for x, y in sigma.items()}
        sigma[s] = t
    return current, finite_subst(sigma)


def np_nu_set(X, p):
    bound, sigma = np_hereditary_closure(X, p)
    proc = substitute(p.proc, sigma)
    for x in sorted(bound, reverse=True):
        proc = Nu(x, proc)
    return Pwf(proc, remove(p.fus, X))


def np_nu_all(p):
    return np_nu_set(ALL, p)


def np_star(i, p, q):
    if i not in (1, 2):
        raise PwfError("star index must be 1 or 2")
    inner = par(p, relabel(q, i))
    restricted = np_nu_set(residue((i,)), inner)
    return unrelabel(restricted, 3 - i)


def reference_nu_name(x, p):
    star = second_rep(p.fus, x)
    body = substitute(p.proc, finite_subst({x: star}))
    return Pwf(Nu(x, body), remove(p.fus, finite([x])))
