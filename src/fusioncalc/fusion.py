"""Symbolic fusions: equivalence relations on N with finite classes.

A fusion is a finite set of generator pairs on concrete names plus a
finite set of "family" generators (w1, w2), each denoting the pairs
(tag(n, w1), tag(n, w2)) for every n.  The relation itself is the
reflexive-symmetric-transitive closure.  Classes are walked by bounded
BFS, each class once per operation (`_classes` remembers a walked class
for all its members until the operation returns), with family steps done
as affine arithmetic on names.  The family part can be re-expressed as a
partition into parametric classes (a base residue plus the closed set of
words reached from it), which is what makes restriction representable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .config import DEFAULT, Config
from .names import (Name, NameSet, Word, _all_words, index_set, is_suffix,
                    parse_name, tag, untag, word, word_str)
from .subst import Substitution, remap_subst


class FusionError(Exception):
    pass


class InvalidFusionError(FusionError):
    """A class exceeded the configured budget (infinite class suspected)."""


class NotRepresentableError(FusionError):
    """The requested operation has no finite generator presentation."""


def _word_key(w: Word) -> tuple:
    return (len(w), w)


def _fam_pair(w1: Word, w2: Word) -> tuple[Word, Word]:
    return (w1, w2) if _word_key(w1) <= _word_key(w2) else (w2, w1)


def _name_pair(a: Name, b: Name) -> tuple[Name, Name]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Fusion:
    pairs: frozenset[tuple[Name, Name]] = frozenset()
    families: frozenset[tuple[Word, Word]] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", frozenset(
            _name_pair(a, b) for a, b in self.pairs if a != b))
        object.__setattr__(self, "families", frozenset(
            _fam_pair(u, v) for u, v in self.families if u != v))

    def endpoints(self) -> frozenset[Name]:
        return frozenset(x for pair in self.pairs for x in pair)

    def is_delta(self) -> bool:
        return not self.pairs and not self.families

    def __str__(self) -> str:
        return fusion_str(self)


DELTA = Fusion()


def delta() -> Fusion:
    return DELTA


def identity_I() -> Fusion:
    return Fusion(families=frozenset({((1,), (2,))}))


def psi() -> Fusion:
    return Fusion(families=frozenset({((1,), (1, 2))}))


def phi() -> Fusion:
    return Fusion(families=frozenset({((1,), (1, 2)), ((1, 2), (2, 2))}))


def sigma_tau(remaps: Iterable[tuple[Word, Word]] | Substitution) -> Fusion:
    if isinstance(remaps, Substitution):
        if remaps.finite_map:
            raise FusionError("sigma_tau expects a pure word remap")
        remaps = remaps.word_remaps
    remaps = list(remaps)
    # reuse the substitution validation of pairwise-disjoint domains
    remap_subst(remaps)
    return Fusion(families=frozenset(_fam_pair(u, v) for u, v in remaps))


def _affine(w1: Word, w2: Word) -> tuple[int, int, int, int, int]:
    """The family step y -> tag(untag(y, w1), w2) as constants.

    tag(n, w) = n * 2**len(w) + tag(0, w), so y lies in w1's residue iff
    d = y - tag(0, w1) has no bits under 2**len(w1), and then the step
    is (d >> len(w1) << len(w2)) + tag(0, w2)."""
    return (tag(0, w1), (1 << len(w1)) - 1, len(w1), len(w2), tag(0, w2))


def _singleton(x: Name) -> frozenset[Name]:
    return frozenset((x,))


def _classes(e: Fusion, config: Config = DEFAULT
             ) -> Callable[[Name], frozenset[Name]]:
    """x -> class_of(e, x, config), walking each class once.

    The adjacency map and the family steps are built once; a walked class
    is remembered for every member, for the lifetime of the returned
    function only.  Δ needs neither: all its classes are singletons."""
    if e.is_delta():
        return _singleton
    budget = config.class_budget
    adj: dict[Name, list[Name]] = {}
    for a, b in e.pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    steps = []
    for w1, w2 in e.families:
        steps.append(_affine(w1, w2))
        steps.append(_affine(w2, w1))
    memo: dict[Name, frozenset[Name]] = {}

    def walk(x):
        cls = memo.get(x)
        if cls is not None:
            return cls
        seen = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            neighbors = list(adj.get(y, ()))
            for offset, mask, shift_in, shift_out, offset_out in steps:
                d = y - offset
                if not d & mask:
                    neighbors.append((d >> shift_in << shift_out)
                                     + offset_out)
            for z in neighbors:
                if z not in seen:
                    if len(seen) >= budget:
                        raise InvalidFusionError(
                            f"class of {x} exceeds budget {budget}")
                    seen.add(z)
                    frontier.append(z)
        cls = frozenset(seen)
        for y in cls:
            memo[y] = cls
        return cls

    return walk


def class_of(e: Fusion, x: Name, config: Config = DEFAULT) -> frozenset[Name]:
    return _classes(e, config)(x)


def related(e: Fusion, x: Name, y: Name, config: Config = DEFAULT) -> bool:
    if x == y:
        return True
    return y in class_of(e, x, config)


def second_rep(e: Fusion, x: Name, config: Config = DEFAULT) -> Name:
    """x*: min([x] minus x), or x when that is empty."""
    cls = class_of(e, x, config) - {x}
    return min(cls) if cls else x


def validate(e: Fusion, config: Config = DEFAULT) -> bool:
    probes: set[Name] = set(e.endpoints())
    for w1, w2 in e.families:
        for n in range(config.sample_bound):
            probes.add(tag(n, w1))
    try:
        classes = _classes(e, config)
        for p in sorted(probes):
            classes(p)
        family_partition(e.families, config)
    except InvalidFusionError:
        return False
    return True


def join(e: Fusion, f: Fusion, config: Config = DEFAULT) -> Fusion:
    result = Fusion(e.pairs | f.pairs, e.families | f.families)
    if not validate(result, config):
        raise InvalidFusionError("join produced an infinite class")
    return result


def join_all(fusions: Iterable[Fusion], config: Config = DEFAULT) -> Fusion:
    pairs: set = set()
    families: set = set()
    for e in fusions:
        pairs |= e.pairs
        families |= e.families
    result = Fusion(frozenset(pairs), frozenset(families))
    if not validate(result, config):
        raise InvalidFusionError("join produced an infinite class")
    return result


def meet(e: Fusion, f: Fusion, config: Config = DEFAULT) -> Fusion:
    """Lattice meet: the intersection of the two relations."""
    families = e.families & f.families
    e_cls, f_cls = _classes(e, config), _classes(f, config)
    shared_cls = _classes(Fusion(families=families), config)
    support: set[Name] = set()
    for x in set(e.endpoints()) | set(f.endpoints()):
        support |= e_cls(x) | f_cls(x)
    # family instances of one side that the other side also relates, and
    # that the shared families do not already cover
    extra: set[tuple[Name, Name]] = set()
    for w1, w2 in (e.families | f.families) - families:
        for n in range(config.sample_bound):
            a, b = tag(n, w1), tag(n, w2)
            if a != b and b in e_cls(a) and b in f_cls(a) \
                    and b not in shared_cls(a):
                extra.add(_name_pair(a, b))
        if len(extra) > 4 * len(support) + 64:
            raise NotRepresentableError(
                "meet of family parts has no finite generator set")
    pairs = set(extra)
    support = sorted(support)
    for i, a in enumerate(support):
        for b in support[i + 1:]:
            if b in e_cls(a) and b in f_cls(a):
                pairs.add(_name_pair(a, b))
    return Fusion(frozenset(pairs), families)


# ---------------------------------------------------------------------------
# parametric classes of the family part

def family_partition(families: frozenset[tuple[Word, Word]],
                     config: Config = DEFAULT
                     ) -> list[tuple[Word, tuple[Word, ...]]]:
    """Partition the family-generated relation into parametric classes.

    Each entry (u, W) says: for every n, the names {tag(n, w) | w in W}
    form one class of the family-only relation (u in W is the base the
    entry was grown from).  Bases are stable, i.e. no family word reaches
    deeper than them, so the class shape is uniform in n.
    """
    if not families:
        return []
    fam_words = {w for pair in families for w in pair}
    max_base = 2 * max(len(w) for w in fam_words) + 4

    def unstable(v: Word) -> bool:
        return any(is_suffix(v, f) and len(f) > len(v) for f in fam_words)

    def rewrites(v: Word) -> set[Word]:
        out = set()
        for w1, w2 in families:
            if is_suffix(w1, v):
                out.add(v[:len(v) - len(w1)] + w2)
            if is_suffix(w2, v):
                out.add(v[:len(v) - len(w2)] + w1)
        return out

    bases: list[tuple[Word, tuple[Word, ...]]] = []
    queue = sorted(fam_words, key=_word_key, reverse=True)
    visited: set[Word] = set()
    while queue:
        u = queue.pop()
        if u in visited:
            continue
        visited.add(u)
        if len(u) > max_base:
            raise InvalidFusionError("family bases do not stabilize")
        if unstable(u):
            queue.extend([(1,) + u, (2,) + u])
            continue
        cls = {u}
        frontier = [u]
        while frontier:
            v = frontier.pop()
            for nv in rewrites(v):
                if nv not in cls:
                    if len(cls) >= config.class_budget:
                        raise InvalidFusionError(
                            "family class exceeds budget")
                    cls.add(nv)
                    frontier.append(nv)
        if any(unstable(v) for v in cls):
            queue.extend([(1,) + u, (2,) + u])
            continue
        if len(cls) >= 2:
            bases.append((u, tuple(sorted(cls, key=_word_key))))
    # drop bases covered by a suffix-smaller base, then duplicate classes
    kept: list[tuple[Word, tuple[Word, ...]]] = []
    seen_classes: set[tuple[Word, ...]] = set()
    for u, cls in sorted(bases, key=lambda item: _word_key(item[0])):
        if any(u != u2 and is_suffix(u2, u) for u2, _ in bases):
            continue
        if cls in seen_classes:
            continue
        seen_classes.add(cls)
        kept.append((u, cls))
    return kept


# ---------------------------------------------------------------------------
# restriction

def restrict(e: Fusion, X: NameSet, config: Config = DEFAULT) -> Fusion:
    if X.is_all():
        return e
    if X.is_empty_like():
        return DELTA

    new_pairs: set[tuple[Name, Name]] = set()
    concrete_seen: set[Name] = set()
    classes = _classes(e, config)
    for a, b in sorted(e.pairs):
        for x in (a, b):
            if x not in concrete_seen:
                cls = classes(x)
                concrete_seen |= cls
                kept = sorted(y for y in cls if X.member(y))
                new_pairs.update(zip(kept, kept[1:]))

    new_fams: set[tuple[Word, Word]] = set()
    for u, W in family_partition(e.families, config):
        idx_sets = {w: index_set(w, X) for w in W}
        exceptional: set[Name] = set()
        for w in W:
            for y in concrete_seen:
                n = untag(y, w)
                if n is not None:
                    exceptional.add(n)
            exceptional |= set(idx_sets[w].singletons)
            exceptional |= set(idx_sets[w].excluded)
        depth = max((len(r) for N in idx_sets.values() for r in N.residues),
                    default=0)
        for region in _all_words(depth):
            keep = [w for w in W if _region_inside(region, idx_sets[w])]
            if len(keep) >= 2:
                first = keep[0]
                for w2 in keep[1:]:
                    new_fams.add(_fam_pair(region + first, region + w2))
            for n in sorted(exceptional):
                if untag(n, region) is None:
                    continue
                members = {w: tag(n, w) for w in W}
                in_x = {w for w, y in members.items() if X.member(y)}
                if len(keep) >= 2 and not set(keep) <= in_x:
                    raise NotRepresentableError(
                        f"restriction removes single instances of a family "
                        f"(index {n})")
                if any(y in concrete_seen for y in members.values()):
                    continue  # handled with its concrete class above
                if len(in_x) >= 2:
                    ys = sorted(members[w] for w in in_x)
                    new_pairs.update(zip(ys, ys[1:]))

    result = Fusion(frozenset(new_pairs), frozenset(new_fams))
    if not validate(result, config):
        raise InvalidFusionError("restriction produced an invalid fusion")
    return result


def _region_inside(region: Word, N: NameSet) -> bool:
    if N.universal:
        return True
    return any(is_suffix(r, region) for r in N.residues)


def remove(e: Fusion, X: NameSet, config: Config = DEFAULT) -> Fusion:
    return restrict(e, X.complement(), config)


# ---------------------------------------------------------------------------
# substitution action and canonical substitution

def map_fusion(e: Fusion, sigma: Substitution,
               config: Config = DEFAULT) -> Fusion:
    pairs = {_name_pair(sigma(a), sigma(b))
             for a, b in e.pairs if sigma(a) != sigma(b)}
    fams: set[tuple[Word, Word]] = set()
    fm = dict(sigma.finite_map)
    work = list(e.families)
    guard = 0
    while work:
        guard += 1
        if guard > 4096:
            raise NotRepresentableError("family image does not stabilize")
        w1, w2 = work.pop()
        if any(is_suffix(wi, su) and len(su) > len(wi)
               for wi in (w1, w2) for su, _ in sigma.word_remaps):
            work.extend([((1,) + w1, (1,) + w2), ((2,) + w1, (2,) + w2)])
            continue
        images = []
        for wi in (w1, w2):
            image = wi
            for su, sv in sigma.word_remaps:
                if is_suffix(su, wi):
                    image = wi[:len(wi) - len(su)] + sv
                    break
            images.append(image)
        # finite-map overrides inside a family's range are only allowed
        # when they agree with the word image (e.g. identity pins outside
        # the remap domains)
        for z, z_img in fm.items():
            for wi, image in zip((w1, w2), images):
                n = untag(z, wi)
                if n is not None and z_img != tag(n, image):
                    raise NotRepresentableError(
                        f"finite override {z}:={z_img} cuts family "
                        f"[{word_str(w1)} <-> {word_str(w2)}]")
        if images[0] != images[1]:
            fams.add(_fam_pair(images[0], images[1]))
    result = Fusion(frozenset(pairs), frozenset(fams))
    if not validate(result, config):
        raise InvalidFusionError("substitution image is not a fusion")
    return result


def canonical_subst(e: Fusion, config: Config = DEFAULT) -> Substitution:
    fm: dict[Name, Name] = {}
    concrete_seen: set[Name] = set()
    classes = _classes(e, config)
    for a, b in sorted(e.pairs):
        for x in (a, b):
            if x not in concrete_seen:
                cls = classes(x)
                concrete_seen |= cls
                m = min(cls)
                for y in cls:
                    fm[y] = m
    remaps: set[tuple[Word, Word]] = set()
    for u, W in family_partition(e.families, config):
        max_c = max(tag(0, w) for w in W)
        wm = min(W, key=lambda w: (len(w), tag(0, w)))
        for w in W:
            if w != wm:
                remaps.add((w, wm))
        # small indices where the minimum member is not tag(n, wm), and
        # indices merged into a concrete class, get explicit entries
        for n in range(max_c + 1):
            members = {tag(n, w) for w in W}
            if members & concrete_seen:
                continue
            m = min(members)
            if m != tag(n, wm):
                for y in members:
                    fm[y] = m
    return Substitution(tuple(fm.items()), frozenset(remaps))


def equal(e: Fusion, f: Fusion, config: Config = DEFAULT) -> bool:
    for one, other in ((e, f), (f, e)):
        classes = _classes(other, config)
        for a, b in one.pairs:
            if b not in classes(a):
                return False
        for w1, w2 in one.families:
            for n in range(config.sample_bound):
                a, b = tag(n, w1), tag(n, w2)
                if a != b and b not in classes(a):
                    return False
    return True


# ---------------------------------------------------------------------------
# literals

def parse_fusion(text: str) -> Fusion:
    """Grammar: `{ item (, item)* }`, item = chain `a~b~c` or family
    `[w1 <-> w2]`; `{}` is the identity fusion."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"fusion literal must be braced: {text!r}")
    pairs: set[tuple[Name, Name]] = set()
    families: set[tuple[Word, Word]] = set()
    for item in text[1:-1].split(","):
        item = item.strip()
        if not item:
            continue
        if item.startswith("["):
            if not item.endswith("]"):
                raise ValueError(f"unterminated family literal: {item!r}")
            lhs, sep, rhs = item[1:-1].partition("<->")
            if not sep:
                raise ValueError(f"family literal needs '<->': {item!r}")
            families.add(_fam_pair(word(lhs), word(rhs)))
        else:
            chain = [parse_name(part) for part in item.split("~")]
            if len(chain) < 2:
                raise ValueError(f"chain needs at least two names: {item!r}")
            pairs.update(_name_pair(a, b) for a, b in zip(chain, chain[1:]))
    return Fusion(frozenset(pairs), frozenset(families))


def fusion_str(e: Fusion) -> str:
    parent: dict[Name, Name] = {}

    def find(x: Name) -> Name:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in e.pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    classes: dict[Name, list[Name]] = {}
    for x in e.endpoints():
        classes.setdefault(find(x), []).append(x)
    items = []
    for members in sorted((sorted(c) for c in classes.values()),
                          key=lambda c: c[0]):
        items.append("~".join(str(x) for x in members))
    for w1, w2 in sorted(e.families, key=lambda p: (_word_key(p[0]),
                                                    _word_key(p[1]))):
        items.append(f"[{word_str(w1)} <-> {word_str(w2)}]")
    return "{" + ", ".join(items) + "}"
