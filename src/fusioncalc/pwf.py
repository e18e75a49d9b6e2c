"""Processes with fusions: the pairs, their equivalence, the restriction
binders, relabelings, and the adjoint application operators.

PWF equality is decided here alone, by `pwf_key`, which equates exactly
the equal PWFs; `equal_pwf` compares two keys.

A literal `< P ; F >` is read by the process parser and the fusion
reader, which share one tokenizer (`names.Tokens`), and printed by
`pwf_str` through `terms.form_str`.

The set binder follows the hereditary-closure construction: starting
from the free names inside the bound set, repeatedly pick replacement
representatives outside the already-bound prefix until the set
stabilizes; the accompanying substitution redirects every bound name to
a surviving representative before the plain pi binder is applied.
"""

from __future__ import annotations

import functools

from .fusion import (DELTA, Fusion, _classes, class_of, fusion_str, join,
                     map_fusion, parse_fusion, presentation, remove,
                     sigma_tau)
from .names import ALL, Name, NameSet, Word, finite, is_suffix, residue
from .process import (NIL, Act, Nu, Par, Process, free_names,
                      parse_process, process_str, substitute, tidy)
from .record import Record
from .subst import Substitution, finite_subst, remap_subst
from .terms import (_relabel, _to_process, canonical_form, invariant,
                    multiset_form, node_key)


class PwfError(Exception):
    pass


class Pwf(Record):
    __slots__ = ("proc", "fus")

    def __init__(self, proc: Process, fus: Fusion) -> None:
        object.__setattr__(self, "proc", proc)
        object.__setattr__(self, "fus", fus)


UNIT = Pwf(NIL, DELTA)


def fn_contains(p: Pwf, x: Name) -> bool:
    """x is free: its class meets the free process names, or it is fused."""
    cls = class_of(p.fus, x)
    if len(cls) > 1:
        return True
    return bool(cls & free_names(p.proc))


def sigma_node(p: Pwf) -> tuple:
    """The multiset form of p's process with each free name x replaced by
    σ(x), the least member of its class; its binders are negative, so
    none captures.  σ depends only on the relation, so two PWFs with
    equal fusions are equal exactly when these nodes have equal keys."""
    return sigma_form(multiset_form(p.proc), p.fus)[0]


def sigma_form(form: tuple, e: Fusion) -> tuple:
    """σ of a multiset form (node, free names) under e: the node with
    each free name x replaced by σ(x), and those σ(x).

    Only the free names' classes are walked, and an infinite class need
    not hold one, so the whole fusion is checked first: its
    `presentation` walks every endpoint class and the family partition,
    and raises as `validate` rejects."""
    node, free = form
    if e.is_delta():
        return form
    presentation(e)
    classes = _classes(e)
    ids = {x: min(classes(x)) for x in free}
    return _relabel(node, ids), frozenset(ids.values())


def pwf_key(p: Pwf) -> tuple:
    """The one equality key of p = (P, e): the `presentation` of e and
    the key of p's σ-node.  Both depend only on e's relation, so the key
    equates exactly the equal PWFs."""
    return sigma_key(p.fus, sigma_node(p))


def sigma_key(e: Fusion, node: tuple) -> tuple:
    """`pwf_key` of the PWF with fusion e and σ-node node."""
    return presentation(e), node_key(node)


def normalize(p: Pwf) -> Pwf:
    """The σ-normal form of p, for printing: the key of its `sigma_node`
    written out as a term (`terms.canonical_form`), which reads a cached
    key and otherwise runs the key's search."""
    return Pwf(_to_process(canonical_form(sigma_node(p))), p.fus)


def equal_pwf(p: Pwf, q: Pwf) -> bool:
    """Whether p and q have equal `pwf_key`s; σ-nodes with different
    action invariants are told apart before any node is keyed."""
    if presentation(p.fus) != presentation(q.fus):
        return False
    a, b = sigma_node(p), sigma_node(q)
    return invariant(a) == invariant(b) and node_key(a) == node_key(b)


def par(p: Pwf, q: Pwf) -> Pwf:
    return Pwf(Par(p.proc, q.proc), join(p.fus, q.fus))


def prefix(u: Name, polarity: str, xs: tuple[Name, ...], p: Pwf) -> Pwf:
    classes = _classes(p.fus)
    for x in xs:
        if classes(x) != {x}:
            raise PwfError(
                f"prefix argument {x} is fused; construction not allowed")
    return Pwf(Act(u, polarity, tuple(xs), p.proc), p.fus)


def nu_name(x: Name, p: Pwf) -> Pwf:
    """ν of the one name x: `nu_set` of {x}, whose closure takes the one
    step x -> x* (`fusion.second_rep`) and binds x if it is free."""
    return nu_set(finite([x]), p)


def nu_finite(X: frozenset[Name], p: Pwf, *,
              class_closure: bool = False) -> Pwf:
    """ν of each name of X in turn; with class_closure, of each name of
    the classes of X's free process names, and then X is removed from e."""
    bound = X
    if class_closure:
        classes = _classes(p.fus)
        bound = set().union(*map(classes, free_names(p.proc) & X))
    out = p
    for x in sorted(bound):
        out = nu_name(x, out)
    if class_closure:
        out = Pwf(out.proc, remove(out.fus, finite(X)))
    return out


def hereditary_closure(X: NameSet, p: Pwf
                       ) -> tuple[frozenset[Name], Substitution]:
    current = frozenset(x for x in free_names(p.proc) if X.member(x))
    classes = _classes(p.fus)
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


def nu_set(X: NameSet, p: Pwf) -> Pwf:
    bound, sigma = hereditary_closure(X, p)
    proc = substitute(p.proc, sigma)
    for x in sorted(bound, reverse=True):
        proc = Nu(x, proc)
    return Pwf(proc, remove(p.fus, X))


def nu_all(p: Pwf) -> Pwf:
    return nu_set(ALL, p)


def relabel(p: Pwf, i: int) -> Pwf:
    return relabel_word(p, (i,))


def relabel_word(p: Pwf, w: tuple[int, ...]) -> Pwf:
    """Apply the injection x -> tag(x, w) to process and fusion."""
    if not w:
        return p
    return Pwf(substitute(p.proc, remap_subst([((), w)])),
               tag_fusion(p.fus, w))


def tag_fusion(e: Fusion, w: Word) -> Fusion:
    """The fusion half of `relabel_word`: e under x -> tag(x, w)."""
    return map_fusion(e, remap_subst([((), w)])) if w else e


def unrelabel(p: Pwf, i: int) -> Pwf:
    target = residue((i,))
    for x in free_names(p.proc):
        if not target.member(x):
            raise PwfError(f"free name {x} outside the image of injection {i}")
    fus = untag_fusion(p.fus, (i,))
    return Pwf(substitute(p.proc, remap_subst([((i,), ())])), fus)


def untag_fusion(e: Fusion, w: Word) -> Fusion:
    """The fusion half of `unrelabel` by the injection tag(., w): e with
    each tag(x, w) renamed to x, or PwfError where a pair or a family of
    e leaves the injection's image."""
    target = residue(w)
    for a, b in e.pairs:
        if not (target.member(a) and target.member(b)):
            raise PwfError("fusion pair outside the image of the injection")
    for w1, w2 in e.families:
        if not (is_suffix(w, w1) and is_suffix(w, w2)):
            raise PwfError("fusion family outside the image of the injection")
    return map_fusion(e, remap_subst([(w, ())]))


def bullet(p: Pwf, q: Pwf) -> Pwf:
    return par(relabel(p, 1), relabel(q, 2))


def star(i: int, p: Pwf, q: Pwf) -> Pwf:
    if i not in (1, 2):
        raise PwfError("star index must be 1 or 2")
    inner = par(p, relabel(q, i))
    restricted = nu_set(residue((i,)), inner)
    return unrelabel(restricted, 3 - i)


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
    """Grammar: `< process ; fusion >`.  Neither part holds a `;`, so the
    literal splits at its first one, and a process error's position
    counts from the character after `<`."""
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise PwfError(f"PWF literal must look like < P ; F >: {text!r}")
    proc, semicolon, fus = text[1:-1].partition(";")
    if not semicolon:
        raise PwfError(f"PWF literal needs a ';' separator: {text!r}")
    return Pwf(parse_process(proc), parse_fusion(fus))
