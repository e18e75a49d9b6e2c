"""Symbolic fusions: equivalence relations on N with finite classes.

A fusion is a finite set of generator pairs on concrete names plus a
finite set of "family" generators (w1, w2), each denoting the pairs
(tag(n, w1), tag(n, w2)) for every n.  The relation itself is the
reflexive-symmetric-transitive closure.  Classes are walked by bounded
BFS, with family steps done as affine arithmetic on names.

Every class walk is bounded by `_CLASS_BUDGET` (1,024) members: a
class that reaches it may be infinite or only large, and the operation
raises `ClassBudgetError` (undecided, exit 3 at the CLI).

What the operations read of a fusion is computed once per value and
kept by `functools.lru_cache` (the README lists each bound):
`_analysis` keeps a fusion's adjacency map, family steps and every
class walked so far; `presentation`, `family_partition`, `_suffix_rules`,
`_restrict` and `_family_restriction` keep their results.  The classes
of a family set are those of the pure-family fusion on it, so one
analysis serves both.  A walk that exceeds the budget, or a
restriction that raises, stores no result, so it raises on every call.

A family generator rewrites a low-order word suffix and keeps n, so the
family part is a suffix-rewriting system on words.  A word v is stable
when no family word has it as a proper suffix; then every generator
applies to all of tag(., v) or to none of it, and if the words reached
from v are stable too, the family class of tag(n, v) is
{tag(n, u) | u in W} for every n, n = 0 included (`_word_class`).
Splitting a word by its leading letters (`_regions`) reaches such words,
and `family_partition` lists them for the whole family part.  For
n >= 1, tag(n, .) is injective on words, and a class that holds none of
the finitely many endpoints is a pure family class; only n = 0 can make
two words of one region name the same name.  The operations are
decided from this:

- `validate`: the classes of the endpoints are walked and the family
  partition is built; every other class is a family class of the
  partition, so nothing else can exceed the budget.
- `presentation`, which `equal` compares: the partition's word classes,
  each two halves (1,) + V and (2,) + V (tag(2m + b, w) =
  tag(m, (b,) + w)) merged into V, and the classes that the pairs make
  larger, each holding an endpoint.  Equal relations agree past their
  endpoints, so their word classes agree once split to a common depth,
  and the merge of a split set is unique.
- `meet`: in every region, the intersection of the two word classes;
  the endpoint classes and the n = 0 names of the regions are walked.

The family partition (base residues plus the closed sets of words
reached from them) is also what makes restriction representable.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable

from .names import (EPSILON, Name, NameSet, Tokens, Word, _all_words,
                    index_set, is_suffix, parse_name, tag, untag, word,
                    word_str)
from .record import Record
from .subst import Substitution, remap_subst


class FusionError(Exception):
    pass


class InvalidFusionError(FusionError):
    """The generators do not describe a fusion: some class is infinite."""


class ClassBudgetError(InvalidFusionError):
    """A class walk reached `_CLASS_BUDGET` members.  The class may be
    infinite or only larger than the budget, so the verdict is undecided."""

    def __init__(self, message: str, budget: int) -> None:
        super().__init__(message)
        self.budget = budget


class NotRepresentableError(FusionError):
    """The requested operation has no finite generator presentation."""


def _word_key(w: Word) -> tuple:
    return (len(w), w)


def _fam_pair(w1: Word, w2: Word) -> tuple[Word, Word]:
    return (w1, w2) if _word_key(w1) <= _word_key(w2) else (w2, w1)


def _name_pair(a: Name, b: Name) -> tuple[Name, Name]:
    return (a, b) if a < b else (b, a)


class Fusion(Record):
    __slots__ = ("pairs", "families")

    def __init__(self, pairs: Iterable[tuple[Name, Name]] = frozenset(),
                 families: Iterable[tuple[Word, Word]] = frozenset()) -> None:
        object.__setattr__(self, "pairs", frozenset(
            _name_pair(a, b) for a, b in pairs if a != b))
        object.__setattr__(self, "families", frozenset(
            _fam_pair(u, v) for u, v in families if u != v))

    def endpoints(self) -> frozenset[Name]:
        return frozenset(x for pair in self.pairs for x in pair)

    def is_delta(self) -> bool:
        return not self.pairs and not self.families

    def __str__(self) -> str:
        return fusion_str(self)


DELTA = Fusion()


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


# ---------------------------------------------------------------------------
# the analysis of a fusion

_STORE_CAP = 128  # fusions, family sets and presentations kept
_CLASS_BUDGET = 1024  # members one class walk may reach
_RESTRICT_CAP = 2048  # restrictions kept: 16 name sets per cached fusion


class _Analysis:
    """One fusion: the adjacency map of its pairs, its family steps and
    each class walked so far under every member."""

    __slots__ = ("adj", "steps", "walked")

    def __init__(self, e: Fusion) -> None:
        self.adj: dict[Name, list[Name]] = {}
        for a, b in e.pairs:
            self.adj.setdefault(a, []).append(b)
            self.adj.setdefault(b, []).append(a)
        self.steps = []
        for w1, w2 in e.families:
            self.steps.append(_affine(w1, w2))
            self.steps.append(_affine(w2, w1))
        self.walked: dict[Name, frozenset[Name]] = {}

    def class_of(self, x: Name) -> frozenset[Name]:
        cls = self.walked.get(x)
        if cls is not None:
            return cls
        adj, steps, budget = self.adj, self.steps, _CLASS_BUDGET
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
                        raise ClassBudgetError(
                            f"class of {x} exceeds budget {budget}", budget)
                    seen.add(z)
                    frontier.append(z)
        cls = frozenset(seen)
        walked = self.walked
        for y in cls:
            walked[y] = cls
        return cls


_analysis = functools.lru_cache(maxsize=_STORE_CAP)(_Analysis)


def _classes(e: Fusion) -> Callable[[Name], frozenset[Name]]:
    """x -> class_of(e, x), each class walked once per analysis.

    Reads e's `_analysis`: its adjacency map, its family steps and every
    class walked so far, kept for all members.  A class walked by one
    operation is read by the next one on an equal value for as long as
    the analysis stays cached.  A walk that exceeds the budget raises
    ClassBudgetError naming the queried name and keeps nothing.  Δ
    needs no analysis: all its classes are singletons."""
    if e.is_delta():
        return _singleton
    return _analysis(e).class_of


def class_of(e: Fusion, x: Name) -> frozenset[Name]:
    return _classes(e)(x)


def related(e: Fusion, x: Name, y: Name) -> bool:
    if x == y:
        return True
    return y in class_of(e, x)


def second_rep(e: Fusion, x: Name) -> Name:
    """x*: min([x] minus x), or x when that is empty."""
    cls = class_of(e, x) - {x}
    return min(cls) if cls else x


def validate(e: Fusion) -> bool:
    try:
        _check(e)
    except InvalidFusionError:
        return False
    return True


def _check(e: Fusion) -> None:
    """Raise InvalidFusionError unless every class of e is within budget.

    A class that holds no endpoint is a family class of the partition,
    which `family_partition` bounds, so only endpoint classes are walked."""
    classes = _classes(e)
    for x in sorted(e.endpoints()):
        classes(x)
    family_partition(e.families)


def _valid(e: Fusion, message: str) -> Fusion:
    """e, or InvalidFusionError(message); an exhausted budget is raised
    as itself, since it leaves the verdict undecided."""
    try:
        _check(e)
    except ClassBudgetError:
        raise
    except InvalidFusionError:
        raise InvalidFusionError(message) from None
    return e


def join(e: Fusion, f: Fusion) -> Fusion:
    return _valid(Fusion(e.pairs | f.pairs, e.families | f.families),
                  "join produced an infinite class")


def join_all(fusions: Iterable[Fusion]) -> Fusion:
    pairs: set = set()
    families: set = set()
    for e in fusions:
        pairs |= e.pairs
        families |= e.families
    return _valid(Fusion(frozenset(pairs), frozenset(families)),
                  "join produced an infinite class")


def meet(e: Fusion, f: Fusion) -> Fusion:
    """Lattice meet: the intersection of the two relations, presented as
    the per-region intersections of the word classes plus finite pairs
    (see the module docstring)."""
    e_cls, f_cls = _classes(e), _classes(f)
    probes = {x for p in e.endpoints() for x in e_cls(p)}
    probes |= {x for p in f.endpoints() for x in f_cls(p)}
    families: set[tuple[Word, Word]] = set()
    for w in sorted({w for pair in e.families for w in pair}):
        for r, e_words in _regions(e.families, w):
            for s, f_words in _regions(f.families, r + w):
                both = sorted(f_words.intersection(s + u for u in e_words))
                families.update(zip(both, both[1:]))
                probes.add(tag(0, s + r + w))
    family_cls = _classes(Fusion(families=families))
    pairs: set[tuple[Name, Name]] = set()
    for x in probes:
        cls = sorted(e_cls(x) & f_cls(x))
        if len(cls) > len(family_cls(x)):
            pairs.update(zip(cls, cls[1:]))
    return Fusion(frozenset(pairs), families)


# ---------------------------------------------------------------------------
# parametric classes of the family part

@functools.lru_cache(maxsize=_STORE_CAP)
def _suffix_rules(families: frozenset[tuple[Word, Word]]) -> tuple:
    """The family generators as suffix rewrites in both directions, by
    left-hand word and by its length, and the unstable words: the proper
    suffixes of family words, under which it depends on n which
    generators apply to tag(n, v)."""
    rules: dict[Word, list[Word]] = {}
    for w1, w2 in families:
        rules.setdefault(w1, []).append(w2)
        rules.setdefault(w2, []).append(w1)
    unstable = {w[k:] for w in rules for k in range(1, len(w) + 1)}
    return rules, sorted({len(w) for w in rules}), unstable


def _word_class(system: tuple, u: Word) -> frozenset[Word] | None:
    """The words reached from u by the rewrites of `system`
    (`_suffix_rules`), or None when u or one of them is unstable."""
    rules, lengths, unstable = system
    if u in unstable:
        return None
    cls = {u}
    frontier = [u]
    while frontier:
        v = frontier.pop()
        for k in lengths:
            if k > len(v):
                break
            stem = v[:len(v) - k]
            for b in rules.get(v[len(v) - k:], ()):
                nv = stem + b
                if nv not in cls:
                    if len(cls) >= _CLASS_BUDGET:
                        raise ClassBudgetError(
                            f"family class of @{word_str(u)} exceeds "
                            f"budget {_CLASS_BUDGET}", _CLASS_BUDGET)
                    cls.add(nv)
                    frontier.append(nv)
    if not unstable.isdisjoint(cls):
        return None
    return frozenset(cls)


def _regions(families: frozenset[tuple[Word, Word]], w: Word
             ) -> list[tuple[Word, frozenset[Word]]]:
    """Split the names tag(n, w) into regions tag(m, r + w) whose family
    class is uniform in m: each r with the word class of r + w."""
    system = _suffix_rules(families)
    found = []
    max_base = 2 * max(map(len, system[0].keys() | {w})) + 4
    stack: list[Word] = [()]
    while stack:
        r = stack.pop()
        if len(r + w) > max_base:
            raise InvalidFusionError("family bases do not stabilize")
        cls = _word_class(system, r + w)
        if cls is None:
            stack += [(2,) + r, (1,) + r]
        else:
            found.append((r, cls))
    return found


@functools.lru_cache(maxsize=_STORE_CAP)
def family_partition(families: frozenset[tuple[Word, Word]]
                     ) -> tuple[tuple[Word, tuple[Word, ...]], ...]:
    """Partition the family-generated relation into parametric classes.

    Each entry (u, W) says: for every n, the names {tag(n, w) | w in W}
    form one class of the family-only relation (u in W is the base the
    entry was grown from).  Bases are stable, i.e. no family word reaches
    deeper than them, so the class shape is uniform in n.  They are the
    regions of the family words.

    Cached, since every operation's result is validated; a partition
    that exceeds the class budget is not stored, so it raises on every
    call.
    """
    if not families:
        return ()
    bases = [(r + g, tuple(sorted(cls, key=_word_key)))
             for g in sorted({w for pair in families for w in pair},
                             key=_word_key)
             for r, cls in _regions(families, g)]
    # drop bases covered by a base that is a proper suffix of them, then
    # duplicate classes
    words = {u for u, _ in bases}
    kept: list[tuple[Word, tuple[Word, ...]]] = []
    seen_classes: set[tuple[Word, ...]] = set()
    for u, cls in sorted(bases, key=lambda item: _word_key(item[0])):
        if any(u[k:] in words for k in range(1, len(u) + 1)):
            continue
        if cls in seen_classes:
            continue
        seen_classes.add(cls)
        kept.append((u, cls))
    return tuple(kept)


# ---------------------------------------------------------------------------
# restriction

def restrict(e: Fusion, X: NameSet) -> Fusion:
    """e restricted to X: the pairs of e between members of X.

    Cached per (e, X) in `_restrict`, and the family half per (family
    set, X) in `_family_restriction`.  A restriction that raises stores
    no result, so it raises on every call; a family half it completed
    before raising is kept, as it does not depend on e's pairs."""
    if X.is_all():
        return e
    if X.is_empty_like() or e.is_delta():
        return DELTA
    return _restrict(e, X)


@functools.lru_cache(maxsize=_RESTRICT_CAP)
def _restrict(e: Fusion, X: NameSet) -> Fusion:
    new_pairs: set[tuple[Name, Name]] = set()
    concrete_seen: set[Name] = set()
    classes = _classes(e)
    for a, b in sorted(e.pairs):
        for x in (a, b):
            if x not in concrete_seen:
                cls = classes(x)
                concrete_seen |= cls
                kept = sorted(y for y in cls if X.member(y))
                new_pairs.update(zip(kept, kept[1:]))

    entries, new_fams = _family_restriction(e.families, X)
    for W, indices, regions in entries:
        exceptional = sorted(indices.union(
            n for w in W for y in concrete_seen
            if (n := untag(y, w)) is not None))
        for region, keep in regions:
            for n in exceptional:
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

    return _valid(Fusion(frozenset(new_pairs), new_fams),
                  "restriction produced an invalid fusion")


@functools.lru_cache(maxsize=_RESTRICT_CAP)
def _family_restriction(families: frozenset[tuple[Word, Word]],
                        X: NameSet) -> tuple:
    """The half of `restrict` that reads only the family part and X: per
    entry (u, W) of the family partition, W, the indices n that X names
    singly in some tag(., w), and each region with the words w of W whose
    whole region tag(., region + w) lies in X (`keep`); and the families
    that join the kept words."""
    if not families:
        return (), frozenset()
    entries = []
    new_fams: set[tuple[Word, Word]] = set()
    for u, W in family_partition(families):
        idx_sets = {w: index_set(w, X) for w in W}
        indices = frozenset().union(*(N.singletons | N.excluded
                                      for N in idx_sets.values()))
        depth = max((len(r) for N in idx_sets.values() for r in N.residues),
                    default=0)
        regions = []
        for region in _all_words(depth):
            keep = [w for w in W if _region_inside(region, idx_sets[w])]
            if len(keep) >= 2:
                first = keep[0]
                for w2 in keep[1:]:
                    new_fams.add(_fam_pair(region + first, region + w2))
            regions.append((region, tuple(keep)))
        entries.append((W, indices, tuple(regions)))
    return tuple(entries), frozenset(new_fams)


def _region_inside(region: Word, N: NameSet) -> bool:
    if N.universal:
        return True
    return any(is_suffix(r, region) for r in N.residues)


def remove(e: Fusion, X: NameSet) -> Fusion:
    return restrict(e, X.complement())


# ---------------------------------------------------------------------------
# substitution action and the normal form

def map_fusion(e: Fusion, sigma: Substitution) -> Fusion:
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
    return _valid(Fusion(frozenset(pairs), frozenset(fams)),
                  "substitution image is not a fusion")


@functools.lru_cache(maxsize=_STORE_CAP)
def presentation(e: Fusion) -> tuple:
    """The normal form of e's relation (see the module docstring): its
    merged family word classes and the classes its pairs make larger
    than their family-only class."""
    if e.is_delta():
        return frozenset(), frozenset()
    classes = _classes(e)
    family_cls = _classes(Fusion(families=e.families))
    added = {classes(x) for x in sorted(e.endpoints())}
    return _merged(e.families), frozenset(
        c for c in added if len(c) > len(family_cls(next(iter(c)))))


def _merged(families: frozenset[tuple[Word, Word]]
            ) -> frozenset[frozenset[Word]]:
    """The partition's word classes, each (1,) + V and (2,) + V as V."""
    merged = {frozenset(W) for _, W in family_partition(families)}
    work = list(merged)
    while work:
        W = work.pop()
        if W in merged and {w[:1] for w in W} in ({(1,)}, {(2,)}):
            twin = frozenset((3 - w[0],) + w[1:] for w in W)
            if twin in merged:
                merged -= {W, twin}
                work.append(frozenset(w[1:] for w in W))
                merged.add(work[-1])
    return frozenset(merged)


def equal(e: Fusion, f: Fusion) -> bool:
    return e == f or presentation(e) == presentation(f)


# ---------------------------------------------------------------------------
# literals

def parse_fusion(text: str) -> Fusion:
    """Grammar: `{ item (, item)* }`, item = chain `a~b~c` or family
    `[w1 <-> w2]`; `{}` is the identity fusion, and empty items are
    skipped."""
    tokens = Tokens(text, ValueError)
    return tokens.end(read_fusion(tokens))


def read_fusion(tokens: Tokens) -> Fusion:
    """The fusion literal that starts at the cursor, read."""
    pairs: set[tuple[Name, Name]] = set()
    families: set[tuple[Word, Word]] = set()
    tokens.expect("{")
    while not tokens.take("}"):
        if tokens.take(","):
            continue
        if tokens.take("["):
            lhs = _read_word(tokens)
            tokens.expect("<->")
            families.add(_fam_pair(lhs, _read_word(tokens)))
            tokens.expect("]")
        else:
            chain = [tokens.read(parse_name)]
            tokens.expect("~")
            chain.append(tokens.read(parse_name))
            while tokens.take("~"):
                chain.append(tokens.read(parse_name))
            pairs.update(_name_pair(a, b) for a, b in zip(chain, chain[1:]))
        if tokens.peek()[1] not in (",", "}"):
            raise tokens.fail("expected ',' or '}'")
    return Fusion(frozenset(pairs), frozenset(families))


def _read_word(tokens: Tokens) -> Word:
    return tokens.read(word) if tokens.peek()[0] == "name" else EPSILON


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
