"""Sampled fusion operations, for differential tests of `fusion.validate`,
`equal` and `meet`, and σ built as a `Substitution`.

`sampled_validate` and `sampled_equal` are the operations as they were
before they were decided: they probe the family instances tag(n, w) for
n below a bound.  `sampled_meet` lists the intersection of the two
relations class by class, for the names below a bound.  It does not
keep the old `meet`, which only looked at the instances of each side's
family generators: that misses meet pairs that are chains of instances
on both sides but an instance of neither (e = {[1.1 <-> 1.2],
[1.2 <-> 2.1]} and f = {[1.1 <-> 2.2], [2.2 <-> 2.1]} both relate 3 and
1), and it guessed "infinitely many pairs" from a count.

`sampled_validate` gives the decided verdict at every bound: a probe
that is not an endpoint has a pure family class, which the family
partition bounds.  `sufficient_bound(*fusions)` is a bound at which
the sampled classes of the given fusions decide, for fusions whose
classes are all within the budget (`validate`).  With M the largest
endpoint of the fusions (0 if none) and L the longest word of their
family generators and family partitions:

- every name tag(m, v) with |v| = L lies in a region of each partition,
  a suffix of v, where its family class is {tag(m', u) | u in W} with
  m' >= m;
- so for m > M the class of tag(m, v) holds no endpoint, and it is the
  same family class for every such m, with tag(m', .) injective on words
  (m' >= 1).

A failing region therefore fails at every m > M, in particular at
m = M + 1, below (M + 2) * 2**L.  For `sampled_equal`, a generator
(w1, w2) that does not hold fails on a region tag(M + 1, r) with
|r| <= L, which is an index n below the bound.  For a meet m of e and f,
a bound that also covers m's own endpoints and words decides whether
every class of m is the intersection of the classes of e and f: past
(M + 1) * 2**L the classes of all three are family classes, uniform in
the index, and the names below it hold the finitely many others.

`canonical_subst` is σ, each name to the least member of its class, as
the library once built it: one `Substitution` whose word remaps send
each word of a family class to its shortest, least word, and whose
finite entries cover the concrete classes and the small indices where
that word's name is not the least.  `pwf.sigma_node` reads the least
member of each class instead, and the tests compare the two.

`scanning_restrict` is `restrict` as it was before it stopped scanning
concrete names against family words: uncached, and besides the indices
that X names singly, it tests every index untag(y, w) of a walked
concrete name y and a word w of a partition entry.
"""

from fusioncalc import fusion
from fusioncalc.fusion import (DELTA, Fusion, InvalidFusionError,
                               NotRepresentableError, _classes,
                               family_partition)
from fusioncalc.names import NameSet, tag, untag
from fusioncalc.subst import Substitution


def sufficient_bound(*fusions: Fusion) -> int:
    top = max((x for g in fusions for x in g.endpoints()), default=0)
    words = [w for g in fusions for pair in g.families for w in pair]
    for g in fusions:
        words += [w for _, cls in family_partition(g.families)
                  for w in cls]
    return (top + 2) << max(map(len, words), default=0)


def sampled_validate(e: Fusion, bound: int) -> bool:
    probes = set(e.endpoints())
    for w1, w2 in e.families:
        for n in range(bound):
            probes.add(tag(n, w1))
    try:
        classes = _classes(e)
        for p in sorted(probes):
            classes(p)
        family_partition(e.families)
    except InvalidFusionError:
        return False
    return True


def sampled_equal(e: Fusion, f: Fusion, bound: int) -> bool:
    for one, other in ((e, f), (f, e)):
        classes = _classes(other)
        for a, b in one.pairs:
            if b not in classes(a):
                return False
        for w1, w2 in one.families:
            for n in range(bound):
                a, b = tag(n, w1), tag(n, w2)
                if a != b and b not in classes(a):
                    return False
    return True


def sampled_meet(e: Fusion, f: Fusion, bound: int) -> list[frozenset[int]]:
    """The class of each name below `bound` in the intersection of the
    two relations."""
    e_cls, f_cls = _classes(e), _classes(f)
    return [e_cls(x) & f_cls(x) for x in range(bound)]


def canonical_subst(e: Fusion) -> Substitution:
    """σ of e; it walks the classes of every endpoint and builds the
    family partition, so it raises as `fusion.validate` rejects.  Classes
    are read through `fusion._classes` at call time, so a test that
    patches that function builds σ from its classes."""
    if e.is_delta():
        return Substitution()
    fm: dict[int, int] = {}
    concrete_seen: set[int] = set()
    classes = fusion._classes(e)
    for a, b in sorted(e.pairs):
        for x in (a, b):
            if x not in concrete_seen:
                cls = classes(x)
                concrete_seen |= cls
                m = min(cls)
                for y in cls:
                    fm[y] = m
    remaps = set()
    for u, W in family_partition(e.families):
        max_c = max(tag(0, w) for w in W)
        wm = min(W, key=lambda w: (len(w), tag(0, w)))
        remaps.update((w, wm) for w in W if w != wm)
        # small indices where the least member is not tag(n, wm), and
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


def scanning_restrict(e: Fusion, X: NameSet) -> Fusion:
    if X.is_all():
        return e
    if X.is_empty_like() or e.is_delta():
        return DELTA
    new_pairs: set[tuple[int, int]] = set()
    concrete_seen: set[int] = set()
    classes = _classes(e)
    for a, b in sorted(e.pairs):
        for x in (a, b):
            if x not in concrete_seen:
                cls = classes(x)
                concrete_seen |= cls
                kept = sorted(y for y in cls if X.member(y))
                new_pairs.update(zip(kept, kept[1:]))

    entries, new_fams = fusion._family_restriction(e.families, X)
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

    return fusion._valid(Fusion(frozenset(new_pairs), new_fams),
                         "restriction produced an invalid fusion")
