"""Processes with fusions: the pairs, their equivalence, the three
restriction binders, relabelings, and the adjoint application operators.

The set binder follows the hereditary-closure construction: starting
from the free names inside the bound set, repeatedly pick replacement
representatives outside the already-bound prefix until the set
stabilizes; the accompanying substitution redirects every bound name to
a surviving representative before the plain pi binder is applied.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .config import DEFAULT, Config
from .fusion import (DELTA, Fusion, _classes, canonical_subst, class_of,
                     equal, fusion_str, join, map_fusion, parse_fusion,
                     remove, second_rep, sigma_tau)
from .names import ALL, Name, NameSet, finite, residue
from .process import (NIL, Act, Nu, Par, Process, free_names,
                      parse_process, process_str, substitute, tidy)
from .subst import Substitution, finite_subst, remap_subst
from .terms import (_relabel, _to_process, canonical_form, invariant,
                    multiset_form, node_key)


class PwfError(Exception):
    pass


@dataclass(frozen=True)
class Pwf:
    proc: Process
    fus: Fusion


UNIT = Pwf(NIL, DELTA)


def fn_contains(p: Pwf, x: Name, config: Config = DEFAULT) -> bool:
    """x is free: its class meets the free process names, or it is fused."""
    cls = class_of(p.fus, x, config)
    if len(cls) > 1:
        return True
    return bool(cls & free_names(p.proc))


def fn_finite_part(p: Pwf, config: Config = DEFAULT) -> frozenset[Name]:
    """The finitely enumerable free names: classes of the free process
    names plus the finite-pair endpoints of the fusion.  Family-generated
    names are reported through fn_contains instead."""
    out: set[Name] = set()
    classes = _classes(p.fus, config)
    for x in free_names(p.proc):
        out |= classes(x)
    for a, b in p.fus.pairs:
        out |= {a, b}
    return frozenset(out)


def sigma_node(p: Pwf, config: Config = DEFAULT, form=None,
               sigma=None) -> tuple:
    """The multiset form of p's process (`form`, when given, is its
    `multiset_form`) with each free name replaced by the representative
    of its class (`canonical_subst`, σ, unless given); its binders are
    negative, so none captures.  Two PWFs with equal fusions are equal
    exactly when these nodes have equal keys."""
    node, free = multiset_form(p.proc) if form is None else form
    if p.fus.is_delta():
        return node
    if sigma is None:
        sigma = canonical_subst(p.fus, config)
    return _relabel(node, {x: sigma.apply(x) for x in free})


def normalize(p: Pwf, config: Config = DEFAULT) -> Pwf:
    """The σ-normal form of p, for printing: `sigma_node` canonicalised."""
    return Pwf(_to_process(canonical_form(sigma_node(p, config))), p.fus)


def equal_pwf(p: Pwf, q: Pwf, config: Config = DEFAULT) -> bool:
    if not equal(p.fus, q.fus, config):
        return False
    a, b = sigma_node(p, config), sigma_node(q, config)
    return invariant(a) == invariant(b) and node_key(a) == node_key(b)


def par(p: Pwf, q: Pwf, config: Config = DEFAULT) -> Pwf:
    return Pwf(Par(p.proc, q.proc), join(p.fus, q.fus, config))


def prefix(u: Name, polarity: str, xs: tuple[Name, ...], p: Pwf,
           config: Config = DEFAULT) -> Pwf:
    classes = _classes(p.fus, config)
    for x in xs:
        if classes(x) != {x}:
            raise PwfError(
                f"prefix argument {x} is fused; construction not allowed")
    return Pwf(Act(u, polarity, tuple(xs), p.proc), p.fus)


def nu_name(x: Name, p: Pwf, config: Config = DEFAULT) -> Pwf:
    star = second_rep(p.fus, x, config)
    body = substitute(p.proc, finite_subst({x: star}))
    return Pwf(Nu(x, body), remove(p.fus, finite([x]), config))


def nu_finite(X: frozenset[Name], p: Pwf, config: Config = DEFAULT) -> Pwf:
    if config.nu_closure == "class-closure":
        closure: set[Name] = set()
        classes = _classes(p.fus, config)
        for x in free_names(p.proc) & X:
            closure |= classes(x)
        inner = _nu_finite_literal(frozenset(closure), p, config)
        return Pwf(inner.proc, remove(inner.fus, finite(X), config))
    return _nu_finite_literal(frozenset(X), p, config)


def _nu_finite_literal(X: frozenset[Name], p: Pwf,
                       config: Config = DEFAULT) -> Pwf:
    out = p
    for x in sorted(X):
        out = nu_name(x, out, config)
    return out


def hereditary_closure(X: NameSet, p: Pwf, config: Config = DEFAULT
                       ) -> tuple[frozenset[Name], Substitution]:
    if config.nu_seed == "np":
        seed = {x for x in fn_finite_part(p, config) if X.member(x)}
        seed |= {x for x in free_names(p.proc) if X.member(x)}
    else:
        seed = {x for x in free_names(p.proc) if X.member(x)}
    current = frozenset(seed)
    classes = _classes(p.fus, config)
    while True:
        ts = _closure_step(current, classes)
        grown = current | {t for t in ts if X.member(t)}
        if grown == current:
            break
        current = grown
    # ts is the steps of the closed set; σ applies them in turn
    sigma: dict = {}
    for s, t in zip(sorted(current), ts):
        sigma = {x: t if y == s else y for x, y in sigma.items()}
        sigma[s] = t
    return current, finite_subst(sigma)


def _closure_step(S: frozenset[Name], classes) -> list[Name]:
    """For each s of S in sorted order, x* of s in e with the names of S
    below s removed: min([s]_e minus s and those names), or s when that
    is empty, since removal only shrinks classes: [x]_{e minus T} =
    [x]_e - T.  All of them read one set of class walks."""
    return [min((y for y in classes(s) if y > s or y < s and y not in S),
                default=s)
            for s in sorted(S)]


def nu_set(X: NameSet, p: Pwf, config: Config = DEFAULT) -> Pwf:
    bound, sigma = hereditary_closure(X, p, config)
    proc = substitute(p.proc, sigma)
    for x in sorted(bound, reverse=True):
        proc = Nu(x, proc)
    return Pwf(proc, remove(p.fus, X, config))


def nu_all(p: Pwf, config: Config = DEFAULT) -> Pwf:
    return nu_set(ALL, p, config)


def relabel(p: Pwf, i: int, config: Config = DEFAULT) -> Pwf:
    return relabel_word(p, (i,), config)


def relabel_word(p: Pwf, w: tuple[int, ...],
                 config: Config = DEFAULT) -> Pwf:
    """Apply the injection x -> tag(x, w) to process and fusion."""
    if not w:
        return p
    sigma = remap_subst([((), w)])
    return Pwf(substitute(p.proc, sigma), map_fusion(p.fus, sigma, config))


def unrelabel(p: Pwf, i: int, config: Config = DEFAULT) -> Pwf:
    target = residue((i,))
    for x in free_names(p.proc):
        if not target.member(x):
            raise PwfError(f"free name {x} outside the image of injection {i}")
    for a, b in p.fus.pairs:
        if not (target.member(a) and target.member(b)):
            raise PwfError("fusion pair outside the image of the injection")
    for w1, w2 in p.fus.families:
        if not (w1 and w2 and w1[-1] == i and w2[-1] == i):
            raise PwfError("fusion family outside the image of the injection")
    sigma = remap_subst([((i,), ())])
    return Pwf(substitute(p.proc, sigma), map_fusion(p.fus, sigma, config))


def bullet(p: Pwf, q: Pwf, config: Config = DEFAULT) -> Pwf:
    return par(relabel(p, 1, config), relabel(q, 2, config), config)


def star(i: int, p: Pwf, q: Pwf, config: Config = DEFAULT) -> Pwf:
    if i not in (1, 2):
        raise PwfError("star index must be 1 or 2")
    inner = par(p, relabel(q, i, config), config)
    restricted = nu_set(residue((i,)), inner, config)
    return unrelabel(restricted, 3 - i, config)


def as_pwf(e: Fusion) -> Pwf:
    """A pure fusion as a PWF realizer."""
    return Pwf(NIL, e)


# ---------------------------------------------------------------------------
# realizer catalog

REALIZER_WORDS: dict[str, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]] = {
    "ID": (((1,), (2,)),),
    "ASSOC_R": (((1, 1), (1, 1, 2)), ((1, 2, 1), (2, 1, 2)),
                ((2, 2, 1), (2, 2))),
    "ASSOC_L": (((1, 1, 1), (1, 2)), ((2, 1, 1), (1, 2, 2)),
                ((2, 1), (2, 2, 2))),
    "COMM": (((1, 1), (2, 2)), ((2, 1), (1, 2))),
    "UNIT_INTRO_L": (((1,), (2, 2)),),
    "UNIT_ELIM_L": (((2, 1), (2,)),),
    "UNIT_INTRO_R": (((1,), (1, 2)),),
    "UNIT_ELIM_R": (((1, 1), (2,)),),
    "COMP": (((1, 2, 2), (1, 1)), ((2, 1), (1, 1, 2)),
             ((2, 1, 2), (2, 2, 2))),
    "CONTRA": (((1, 1), (2, 2)), ((2, 1), (1, 2))),
    "CTX": (((1, 1, 2), (1, 1)), ((2, 1, 2), (2, 2, 2)),
            ((1, 2, 2), (2, 1))),
}


@functools.cache
def realizer_catalog() -> dict[str, Fusion]:
    """The realizer constants, built once per process on first use;
    callers only read the dict."""
    return {label: sigma_tau(remap_subst(remaps))
            for label, remaps in REALIZER_WORDS.items()}


# ---------------------------------------------------------------------------
# literals

def pwf_str(p: Pwf) -> str:
    return f"<{process_str(tidy(p.proc))} ; {fusion_str(p.fus)}>"


def parse_pwf(text: str) -> Pwf:
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise PwfError(f"PWF literal must look like < P ; F >: {text!r}")
    inner = text[1:-1]
    depth = 0
    split = -1
    for idx, ch in enumerate(inner):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == ";" and depth == 0:
            split = idx
    if split < 0:
        raise PwfError(f"PWF literal needs a ';' separator: {text!r}")
    return Pwf(parse_process(inner[:split]), parse_fusion(inner[split + 1:]))
