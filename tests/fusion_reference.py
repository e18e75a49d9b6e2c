"""Sampled fusion operations, for differential tests of `fusion.validate`,
`equal` and `meet`.

`sampled_validate` and `sampled_equal` are the operations as they were
before they were decided: they probe the family instances tag(n, w) for
n below a bound.  `sampled_meet` computes the intersection of the two
relations name by name below a bound.  It does not keep the old `meet`,
which only looked at the instances of each side's family generators:
that misses meet pairs that are chains of instances on both sides but
an instance of neither (e = {[1.1 <-> 1.2], [1.2 <-> 2.1]} and
f = {[1.1 <-> 2.2], [2.2 <-> 2.1]} both relate 3 and 1), and it guessed
"infinitely many pairs" from a count.

`sampled_validate` gives the decided verdict at every bound: a probe
that is not an endpoint has a pure family class, which the family
partition bounds.  `sufficient_bound(e, f)` is a bound at which the
other two decide, for fusions whose classes are all within the budget
(`validate`).  With M the
largest endpoint of e and f (0 if none) and L the longest word of their
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
|r| <= L, which is an index n below the bound.  For `sampled_meet`, the
names from (M + 1) * 2**L on all have m > M: a name there whose meet
class is not its class under the shared families lies in a failing
region, and every failing region has one of them below the bound; names
under (M + 1) * 2**L are where the finitely many other differences can
be.
"""

from fusioncalc.config import DEFAULT
from fusioncalc.fusion import (Fusion, InvalidFusionError, _classes,
                               family_partition)
from fusioncalc.names import tag


def sufficient_bound(e: Fusion, f: Fusion, config=DEFAULT) -> int:
    top = max(e.endpoints() | f.endpoints(), default=0)
    words = [w for g in (e, f) for pair in g.families for w in pair]
    for g in (e, f):
        words += [w for _, cls in family_partition(g.families, config)
                  for w in cls]
    return (top + 2) << max(map(len, words), default=0)


def sampled_validate(e: Fusion, bound: int, config=DEFAULT) -> bool:
    probes = set(e.endpoints())
    for w1, w2 in e.families:
        for n in range(bound):
            probes.add(tag(n, w1))
    try:
        classes = _classes(e, config)
        for p in sorted(probes):
            classes(p)
        family_partition(e.families, config)
    except InvalidFusionError:
        return False
    return True


def sampled_equal(e: Fusion, f: Fusion, bound: int, config=DEFAULT) -> bool:
    for one, other in ((e, f), (f, e)):
        classes = _classes(other, config)
        for a, b in one.pairs:
            if b not in classes(a):
                return False
        for w1, w2 in one.families:
            for n in range(bound):
                a, b = tag(n, w1), tag(n, w2)
                if a != b and b not in classes(a):
                    return False
    return True


class Unrepresentable(Exception):
    """The meet differs from the shared families on a failing region."""


def sampled_meet(e: Fusion, f: Fusion, bound: int, config=DEFAULT) -> Fusion:
    """The shared families plus a chain through every meet class that
    differs from its class under them, scanning the names below `bound`;
    raises Unrepresentable for a difference in the top 1/(M + 2) of the
    range, where only failing regions can differ (`bound` as computed by
    `sufficient_bound`)."""
    top = max(e.endpoints() | f.endpoints(), default=0)
    families = e.families & f.families
    e_cls, f_cls = _classes(e, config), _classes(f, config)
    shared_cls = _classes(Fusion(families=families), config)
    pairs = set()
    for x in range(bound):
        cls = sorted(e_cls(x) & f_cls(x))
        if len(cls) > len(shared_cls(x)):
            if x >= bound // (top + 2) * (top + 1):
                raise Unrepresentable(x)
            pairs.update(zip(cls, cls[1:]))
    return Fusion(frozenset(pairs), families)
