"""Reference capture-avoiding substitution on `Process` terms, for
differential tests of `terms.substitute`.

`reference_substitute` is the substitution the library used before it
became one pass: at every binder it rescans the body's free names for a
capture (`_avoid_capture`) and carries on under a new `Substitution`
that is the identity on the binder's names (`restrict_away`, with its
helper `_residue_vs_set`).  `scoped_processes` draws the terms that
the differential tests substitute into.  `equivalent_via` is a sampled
check that two substitutions agree up to a renaming of names.

`parse_subst` reads a substitution literal, the inverse of
`Substitution.__str__`, and `intersect` is the intersection of two
`NameSet`s; the library reads neither.  `compose` is the composition of
two substitutions as one `Substitution`; the library composes none, and
the tests compare σ against chains of it.
"""

from hypothesis import strategies as st

from fusioncalc.names import (Name, NameSet, Word, is_suffix, parse_name, tag,
                             untag, word)
from fusioncalc.subst import Substitution, SubstitutionError, finite_subst
from fusioncalc.terms import (NIL, Act, Nil, Nu, Par, ProcessError,
                              _fresh_names, all_names, free_names)


def reference_substitute(p, sigma: Substitution):
    if isinstance(p, Nil):
        return p
    if isinstance(p, Par):
        return Par(reference_substitute(p.left, sigma),
                   reference_substitute(p.right, sigma))
    if isinstance(p, Act):
        body, bound = _avoid_capture(p.body, p.bound, sigma)
        inner = restrict_away(sigma, NameSet(singletons=frozenset(bound)))
        return Act(sigma.apply(p.subject), p.polarity, bound,
                   reference_substitute(body, inner))
    if isinstance(p, Nu):
        body, bound = _avoid_capture(p.body, (p.name,), sigma)
        inner = restrict_away(sigma, NameSet(singletons=frozenset(bound)))
        return Nu(bound[0], reference_substitute(body, inner))
    raise ProcessError(f"unknown process node {p!r}")


def scoped_processes(max_leaves=6):
    """Terms over names 0..5 whose binders reuse those names: binders
    shadow one another and free names, so a substitution that moves a
    free name onto a binder name often meets a capture."""
    names = st.integers(0, 5)
    polarity = st.sampled_from(["up", "down"])
    vectors = st.lists(names, unique=True, max_size=2).map(tuple)

    def chain(prefixes):
        out = NIL
        for subject, pol, bound, nu in reversed(prefixes):
            out = Act(subject, pol, bound, out)
            if nu is not None:
                out = Nu(nu, out)
        return out

    prefix = st.tuples(names, polarity, vectors, st.none() | names)
    return st.recursive(
        st.lists(prefix, min_size=1, max_size=3).map(chain),
        lambda inner: st.builds(Par, inner, inner)
        | st.builds(Nu, names, inner)
        | st.builds(Act, names, polarity, vectors, inner),
        max_leaves=max_leaves)


def _avoid_capture(body, bound, sigma: Substitution):
    outer_free = free_names(body) - set(bound)
    images = {sigma.apply(x) for x in outer_free}
    if not images & set(bound):
        return body, bound
    avoid = set(images) | set(outer_free) | set(bound) | all_names(body)
    fresh = _fresh_names(avoid, len(bound))
    renamed = reference_substitute(body, finite_subst(dict(zip(bound, fresh))))
    return renamed, tuple(fresh)


def restrict_away(sigma: Substitution, X: NameSet) -> Substitution:
    """Identity on X, sigma elsewhere."""
    fm = {x: y for x, y in sigma.finite_map if not X.member(x)}
    remaps = set()
    work = list(sigma.word_remaps)
    guard = 0
    while work:
        guard += 1
        if guard > 4096:
            raise SubstitutionError("restriction does not stabilize")
        u, v = work.pop()
        idx = _residue_vs_set(u, X)
        if idx == "inside":
            # excluded names fall outside X, so they keep their image
            for x in X.excluded:
                n = untag(x, u)
                if n is not None:
                    fm.setdefault(x, tag(n, v))
            continue
        if idx == "split":
            work.extend(_split_remap((u, v)))
            continue
        remaps.add((u, v))
        # finitely many singleton hits inside the kept domain are pinned
        for x in X.singletons:
            if untag(x, u) is not None:
                fm.setdefault(x, x)
    return Substitution(tuple(fm.items()), frozenset(remaps))


def _residue_vs_set(u, X: NameSet) -> str:
    """Classify residue(u) against X's residue/universal part:
    'inside', 'outside' (only finite singleton hits possible), 'split'."""
    if X.universal:
        return "inside"
    if any(is_suffix(r, u) for r in X.residues):
        return "inside"
    if any(is_suffix(u, r) and len(r) > len(u) for r in X.residues):
        return "split"
    return "outside"


def equivalent_via(sigma: Substitution, tau: Substitution, rho,
                   probe_bound: int = 32) -> bool:
    """Check sigma = rho^-1 . tau . rho on a sampled probe set: the names
    either map moves or renames, and the first `probe_bound` instances of
    every remapped word."""
    rho = dict(rho)
    inv = {v: k for k, v in rho.items()}
    if len(inv) != len(rho):
        raise SubstitutionError("rho is not a bijection on its support")
    probes = set(dict(sigma.finite_map)) | set(dict(tau.finite_map))
    probes |= set(rho) | set(inv)
    for u, _ in sigma.word_remaps | tau.word_remaps:
        probes |= {tag(n, u) for n in range(probe_bound)}

    def rho_inv(x):
        return inv.get(x, x)

    return all(sigma.apply(x) == rho_inv(tau.apply(rho.get(x, x)))
               for x in probes)


def parse_subst(text: str) -> Substitution:
    """Literal: `{0:=3, 1:=2 ; 1 -> 1.2}` (word remaps after `;`)."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"substitution literal must be braced: {text!r}")
    inner = text[1:-1]
    fin_part, _, rem_part = inner.partition(";")
    fm = {}
    for item in fin_part.split(","):
        item = item.strip()
        if not item:
            continue
        lhs, _, rhs = item.partition(":=")
        fm[parse_name(lhs)] = parse_name(rhs)
    remaps = set()
    for item in rem_part.split(","):
        item = item.strip()
        if not item:
            continue
        lhs, _, rhs = item.partition("->")
        remaps.add((word(lhs.strip()), word(rhs.strip())))
    return Substitution(tuple(fm.items()), frozenset(remaps))


def intersect(a: NameSet, b: NameSet) -> NameSet:
    """The names in both sets."""
    if a.universal and not a.excluded:
        return b
    if b.universal and not b.excluded:
        return a
    if a.universal:
        residues = set(b.residues)
    elif b.universal:
        residues = set(a.residues)
    else:
        residues = set()
        for u in a.residues:
            for v in b.residues:
                if is_suffix(u, v):
                    residues.add(v)
                elif is_suffix(v, u):
                    residues.add(u)
    base = NameSet(frozenset(), frozenset(residues),
                   a.universal and b.universal)
    singles = {x for x in a.singletons | b.singletons
               if a.member(x) and b.member(x) and not base.member(x)}
    excl = {x for x in a.excluded | b.excluded
            if base.member(x) and not (a.member(x) and b.member(x))}
    return NameSet(frozenset(singles), base.residues, base.universal,
                   frozenset(excl))


def _split_remap(pair: tuple[Word, Word]) -> list[tuple[Word, Word]]:
    u, v = pair
    return [((1,) + u, (1,) + v), ((2,) + u, (2,) + v)]


def compose(sigma: Substitution, tau: Substitution) -> Substitution:
    """compose(sigma, tau) applies tau first: x |-> sigma(tau(x))."""
    fm: dict[Name, Name] = {}
    for x, y in tau.finite_map:
        fm[x] = sigma.apply(y)
    tau_dom_words = frozenset(u for u, _ in tau.word_remaps)
    # names that tau remaps by word into sigma's finite domain need
    # explicit entries, since the chained remap would miss the override
    for z, _ in sigma.finite_map:
        for u, v in tau.word_remaps:
            n = untag(z, v)
            if n is not None:
                x = tag(n, u)
                fm.setdefault(x, sigma.apply(z))
        if z not in tau._table and not any(
                untag(z, u) is not None for u in tau_dom_words):
            fm.setdefault(z, sigma.apply(z))
    remaps: set[tuple[Word, Word]] = set()
    # chain tau's remaps through sigma's remaps, splitting when a remap
    # of sigma reaches deeper than the image word
    work = list(tau.word_remaps)
    guard = 0
    while work:
        guard += 1
        if guard > 4096:
            raise SubstitutionError("remap composition does not stabilize")
        u, v = work.pop()
        deeper = [su for su, _ in sigma.word_remaps
                  if is_suffix(v, su) and len(su) > len(v)]
        if deeper:
            work.extend(_split_remap((u, v)))
            continue
        image = v
        for su, sv in sigma.word_remaps:
            if is_suffix(su, v):
                image = v[:len(v) - len(su)] + sv
                break
        remaps.add((u, image))
    # sigma's remaps keep acting where tau is the identity; carve their
    # domains away from tau's remap domains
    work = list(sigma.word_remaps)
    guard = 0
    while work:
        guard += 1
        if guard > 4096:
            raise SubstitutionError("remap composition does not stabilize")
        su, sv = work.pop()
        if any(is_suffix(tu, su) for tu in tau_dom_words):
            continue  # fully inside tau's domain: already chained
        if any(is_suffix(su, tu) for tu in tau_dom_words):
            work.extend(_split_remap((su, sv)))
            continue
        remaps.add((su, sv))
    # finite-map keys of tau shadow any remap; identity entries pin names
    # sigma's remaps would otherwise move
    for x in dict(tau.finite_map):
        fm.setdefault(x, sigma.apply(tau.apply(x)))
    return Substitution(tuple(fm.items()), frozenset(remaps))
