"""Finite-universe approximation of poles, orthogonality, behaviours and
the truth-value operations, with law checkers.

All results are universe-relative: operations clip to the member set,
and subsets are bitmasks over the member list.  The orthogonality
matrix is computed once (the `always` pole builds no composite), and
each universe caches the orthogonals of `_ORTHOGONAL_CAP` masks
(`check_laws` asks 720 times for 261 distinct masks on the 48 `sandbox`
members).  The op tables depend only on the member list, so universes
that share it share one set of tables (`_shared_tables`); each row
keeps only its member cells.  `clip` maps a PWF to the member with the
same `pwf.pwf_key`, which equates exactly the equal PWFs;
`default_universe` drops a PWF whose key an earlier one has.
`check_laws` returns a `record.Report`, so this module loads none of
`calgebra`.

Five rows of `check_laws` hold for any polarity matrix.  The other
two, `tensor-over-join` and `star-arrow-adjunction`, are checked on
sampled behaviours, and on `default_universe` members nearly every
sample is the top behaviour (200 of 200 draws on 48 members, under
`always` and `done:8`), so those two rows test little.

A universe operation is one shape (left, right, bind, out): tag the
sides by the injections `left` and `right` (`pwf.tag_fusion`), compose
them under the join J of the tagged fusions, restrict `bind` and untag
by `out`.  `par` is ((), (), ∅, ()), `bullet` ((1,), (2,), ∅, ()),
`star i` ((), (i,), residue(i), (3 - i,)) and the matrix composite
ν(p | q) ((), (), all, ()).  The image fusion is remove(J, bind)
untagged by `out` (`pwf.untag_fusion`; a `PwfError` there leaves no
image).  The image node is two member σ-nodes (`pwf.sigma_form`, once
per member) merged in the locally nameless style (Charguéraud, "The
Locally Nameless Representation", JAR 2012).  The renaming depends on
a member, its side and J alone, so each member is renamed once per side
per pair of fusion groups (`_sides`): each free name through its class
in J, to one binder per class for the whole group pair, and the
member's own binders to a band no other side uses.  A pair then only
joins the two sides' restricted names and components (`_merge`), and
no pair builds a `Process`.  Image nodes of α-equal terms may differ in
their binders, but `node_key` and the pole's verdict do not.

Each member carries one invariant, `terms.invariant`: the multiset of
its action prefixes by (polarity, arity), which congruence,
substitution, relabelling and the binders keep and composition adds
up.  The members are grouped by fusion, then by invariant.
`Universe._images` takes J, the image fusion and J's classes once per
pair of fusions, before any invariant is read (so a `FusionError`
raises even where no pair fits), an exact invariant test once per pair
of invariants, and a merge once per fitting member pair:

- an op-table cell (a, b) is empty when inv(a) + inv(b) is no member's
  invariant;
- a pole that carries its k, a `done:k` pole, is false on a term that
  cannot consume its actions in k steps (`reduction._may_reach`); the
  exact pole `done` has k = ∞.

Two more exact tests run before a node's expensive step:

- an op-table image is keyed (`sigma_key`) only when its skeleton
  (`terms.skeleton`: bound names erased, siblings sorted, each level's
  restricted names counted) is some member's.  Congruent nodes differ
  only in their binders' numbers and their siblings' order, so an
  image of any other skeleton is no member (167 of the 524 images on
  the 48 `sandbox` members are keyed);
- under a pole that carries its k, the matrix builds no composite on
  which some name that no vector binds has unequal up and down prefix
  counts of one arity: a step consumes one up and one down prefix on
  one name and renames only vector names, binders on both sides, so
  every other name keeps its counts, and NIL has none.  Two renamed
  sides share no vector name, so a composite's counts
  (`reduction._signature`) are the sums of its sides', and `_images`
  pairs a left side only with the right sides of the negated
  signature, found by one lookup per side (the `done:8` matrix on the
  `sandbox` members merges 73 of the 348 pairs whose invariants fit).

A pole is one callable on the σ-node of a closed composite ν(p | q),
the only term that orthogonality asks it of: ν binds every name, so
the node has no free name and the composite's fusion is Δ
(remove(J, all) is Δ).  The pruning above lives in `Universe._in_pole`
alone, and only under a pole with a `k`; any other callable gets every
composite.  The `done` pole is `reduction._reaches_nil`, which is
exact on any closed node, so it repeats neither test.  It keeps no
verdicts: it runs depth first to the first NIL, deduplicates reducts
by key, and reads a repeated node's reducts and their keys from the
caches of `reduction._expand` and `terms.node_key`.  No composite
becomes a `Process`.

`Universe.regular` decides `reduction.pole_regular_on` on the same
nodes.  Each member that steps, and each σ-reduct of its σ-node
(`reduction._expand`), is a left operand of the matrix composite under
the member's fusion, renamed by the group pair's `_sides` like the
members, so its binders take a band from the same counter; the rows of
members that do not step are never built.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Callable, Iterable, Iterator, Optional

from .fusion import DELTA, Fusion, _classes, join, remove
from .names import ALL, EMPTY, Word, natural, residue, tag, untag
from .process import NIL, Act, Par, Process
from .pwf import (UNIT, Pwf, PwfError, pwf_key, sigma_form, sigma_key,
                  tag_fusion, untag_fusion)
from .record import Report, first_witness
from .reduction import (_expand, _may_reach, _negated, _reaches_nil,
                        _signature)
from .terms import (_NIL_NODE, _nodes, _relabel, invariant, multiset_form,
                    skeleton)

_SHARED_LISTS = 4  # member lists whose op tables are kept
_ORTHOGONAL_CAP = 1024  # orthogonals a Universe keeps, by mask


@functools.lru_cache(maxsize=_SHARED_LISTS)
def _shared_tables(members: tuple) -> dict:
    """The op tables of a member list, label -> rows, shared by every
    Universe on it; a long-lived process keeps tables for a bounded
    number of lists."""
    return {}


def pole_always(node) -> bool:
    return True


def make_pole_done(k) -> Callable[[tuple], bool]:
    """The pole of closed composites that reach NIL within k steps; k
    may be `math.inf`, the exact pole `done` of those that reach it at
    all.  A step consumes two prefixes and nothing replicates, so a term
    with n prefixes reaches NIL, if at all, in exactly n/2 steps: the
    exact pole searches each node to that depth, and so does `done:k`
    for 2k >= n.  The pole carries its k, so that `Universe._in_pole`
    builds no composite that it rejects on its invariant or its balance
    signature alone.  It keeps no verdict and keys only the search's
    reducts."""
    if k < 0:
        raise ValueError(f"pole done:{k} needs k >= 0")

    def pole(node) -> bool:
        return _reaches_nil(node, k)

    pole.k = k
    return pole


def parse_pole(text: str) -> Callable[[tuple], bool]:
    text = text.strip()
    if text == "always":
        return pole_always
    if text == "done":
        return make_pole_done(math.inf)
    if text.startswith("done:"):
        try:
            return make_pole_done(natural(text[len("done:"):], "k"))
        except ValueError:
            pass
    raise ValueError(f"unknown pole {text!r} (use 'always', 'done' or "
                     f"'done:k', k a natural number)")


def default_universe(max_actions: int = 2, names: int = 4,
                     fusions: Iterable[Fusion] = (DELTA,),
                     limit: int = 400) -> list[Pwf]:
    """Deterministic universe: action chains of up to `max_actions`
    (0..2) actions and two-component parallels of single actions over
    the given names, combined with each supplied fusion, keeping the
    first PWF of each `pwf_key` and truncated at the limit (at least 1)
    in generation order."""
    if not 0 <= max_actions <= 2:
        raise ValueError(f"max_actions must be 0, 1 or 2, not {max_actions}")
    if names < 0:
        raise ValueError(f"names must be at least 0, not {names}")
    if limit < 1:
        raise ValueError(f"limit must be at least 1, not {limit}")
    chains: list[Process] = [NIL]
    frontier = [NIL]
    for _ in range(max_actions):
        new = []
        for body in frontier:
            for subject in range(names):
                for polarity in ("up", "down"):
                    new.append(Act(subject, polarity, (), body))
        chains.extend(new)
        frontier = new
    procs: list[Process] = list(chains)
    singles = [c for c in chains if isinstance(c, Act)]
    for i, a in enumerate(singles):
        for b in singles[i:]:
            procs.append(Par(a, b))
    members: list[Pwf] = []
    seen = set()
    for fus in fusions:
        for proc in procs:
            p = Pwf(proc, fus)
            key = pwf_key(p)
            if key not in seen:
                seen.add(key)
                members.append(p)
            if len(members) >= limit:
                return members
    return members


def _add(inv_a: tuple, inv_b: tuple) -> tuple:
    counts = dict(inv_a)
    for key, count in inv_b:
        counts[key] = counts.get(key, 0) + count
    return tuple(sorted(counts.items()))


def _names(node) -> tuple[frozenset, frozenset]:
    """The free names of a multiset-form node, and the names it binds:
    its restricted names and its bound vectors."""
    subjects: set = set()
    bound: set = set()
    for q in _nodes(node):
        if q[0] == "act":
            subjects.add(q[1])
            bound.update(q[3])
        elif q[0] == "nu":
            bound.update(q[1])
    return frozenset(subjects - bound), frozenset(bound)


def _sides(nodes: list, classes, shape: tuple) -> Callable[[int, int], tuple]:
    """The member nodes renamed for one pair of fusion groups under
    `shape`, given J's classes: `side(i, s)` is member i as the left
    (s = 0) or right (s = 1) operand, as (restricted names, components),
    renamed on first use and kept for the group pair.  A free name
    tagged by its side's injection, with class C, goes to C's binder
    inside `bind`, else to untag(min(C - bind), out); the member's own
    binders move to a band of their own.  One descending counter hands
    out the bands and the class binders (one per class for the group
    pair), so no two sides share a binder, not even a member's two."""
    bind, out = shape[2], shape[3]
    binders: dict = {}  # least class member -> the class's binder
    renamed: tuple = ({}, {})
    low = 0  # every binder handed out so far is at or above low

    def rename(x: int, w: Word) -> int:
        nonlocal low
        cls = classes(tag(x, w))
        outside = [y for y in cls if not bind.member(y)]
        if outside:
            return untag(min(outside), out)
        least = min(cls)
        if least not in binders:
            low -= 1
            binders[least] = low
        return binders[least]

    def side(i: int, s: int) -> tuple:
        nonlocal low
        found = renamed[s].get(i)
        if found is not None:
            return found
        node, free, bound = nodes[i]
        ids = {y: y + low for y in bound}
        low += min(bound, default=0)
        ids.update((x, rename(x, shape[s])) for x in free)
        if any(x != y for x, y in ids.items()):
            node = _relabel(node, ids)
        names = frozenset(ids[x] for x in free if ids[x] < 0)
        if node[0] == "nu":
            names |= node[1]
            node = node[2]
        comps = node[1] if node[0] == "par" else () if node[0] == "nil" \
            else (node,)
        renamed[s][i] = found = (names, comps)
        return found

    return side


def _merge(a: tuple, b: tuple) -> tuple:
    """The σ-node of an image from its two renamed sides (`_sides`):
    restricted names joined and components concatenated, as
    `terms.multiset_form` gathers a parallel."""
    names, comps = a[0] | b[0], a[1] + b[1]
    inner = _NIL_NODE if not comps else comps[0] if len(comps) == 1 \
        else ("par", comps)
    return ("nu", names, inner) if names else inner


class Universe:
    """A finite member list with a pole; computes orthogonality once and
    exposes the behaviour operations as bitmask transformers."""

    def __init__(self, members: Iterable[Pwf], pole):
        self.members = tuple(members)
        self.pole = pole
        self._matrix = None
        self._keyed: Optional[dict] = None
        self.orthogonal_mask = functools.lru_cache(
            maxsize=_ORTHOGONAL_CAP)(self._orthogonal_mask)
        # each member's σ-node, its free names and its binders: the one
        # multiset form that the invariants, the keys and the images
        # read; and the member indices grouped by fusion, then invariant
        self._nodes = []
        self._groups: dict = {}
        for i, m in enumerate(self.members):
            node, free = sigma_form(multiset_form(m.proc), m.fus)
            self._nodes.append((node, free, _names(node)[1]))
            self._groups.setdefault(m.fus, {}).setdefault(
                invariant(node), []).append(i)
        self._tables = _shared_tables(self.members)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.members)) - 1

    def matrix(self) -> list[int]:
        """Row i: bitmask of members orthogonal to member i."""
        if self._matrix is None:
            n = len(self.members)
            if self.pole is pole_always:
                # every composite is in the pole; build none of them
                self._matrix = [self.full_mask] * n
                return self._matrix
            rows = [0] * n
            for i, j in self._in_pole(unordered=True):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            self._matrix = rows
        return self._matrix

    def regular(self) -> bool:
        """Whether the pole is closed under anti-reduction on the
        members: whenever p steps to q, every member r with ν(q | r) in
        the pole has ν(p | r) in it.  Only the rows of members that step
        and of their σ-reducts are built (see the module docstring)."""
        nodes = list(self._nodes)
        lefts: dict = {}
        owner = {}  # index of a reduct in nodes -> its member's
        for i, (m, (node, _, _)) in enumerate(zip(self.members,
                                                  self._nodes)):
            reducts = _expand(node)
            if reducts:
                cells = lefts.setdefault(m.fus, {})
                cells.setdefault(invariant(node), []).append(i)
                for q in reducts:
                    owner[len(nodes)] = i
                    cells.setdefault(invariant(q), []).append(len(nodes))
                    nodes.append((q, *_names(q)))
        rows: dict = {}
        for i, j in self._in_pole(lefts=lefts, nodes=nodes):
            rows[i] = rows.get(i, 0) | 1 << j
        return all(not rows.get(q, 0) & ~rows.get(i, 0)
                   for q, i in owner.items())

    def _in_pole(self, unordered: bool = False, lefts: Optional[dict] = None,
                 nodes: Optional[list] = None) -> Iterator[tuple[int, int]]:
        """(i, j) of each composite ν(i | j) in the pole, i a left
        operand and j a member (see `_images`), each decided on its
        σ-node.  Under a pole that carries its k, a `done` pole, a pair
        that cannot consume its prefixes in k steps, or whose two
        balance signatures do not cancel, is outside and not built."""
        k = getattr(self.pole, "k", None)
        for i, j, _, node in self._images(
                ((), (), ALL, ()), lambda a, b: k is None or
                _may_reach(_add(a, b), (), k), unordered, k is not None,
                lefts, nodes):
            if self.pole(node):
                yield i, j

    def _images(self, shape: tuple, fits: Callable[[tuple, tuple], bool],
                unordered: bool = False, balanced: bool = False,
                lefts: Optional[dict] = None, nodes: Optional[list] = None
                ) -> Iterator[tuple]:
        """(i, j, fusion, σ-node) of the image of each member pair (i, j)
        whose invariants `fits`, under the operation of `shape` (see the
        module docstring); with `unordered`, for a shape that tags its
        sides alike, each unordered pair once; with `balanced`, only the
        pairs whose sides' balance signatures cancel
        (`reduction._signature`), looked up by signature.  `lefts`
        groups the left operands by fusion, then invariant, as
        `_groups` groups the members, and indexes them in `nodes`, a
        list that starts with the members' nodes.  A `PwfError` in the
        image fusion leaves that pair of member fusions without images."""
        left, right, bind, out = shape
        nodes = self._nodes if nodes is None else nodes
        groups = list(self._groups.items())
        rows_of = groups if lefts is None else list(lefts.items())
        invariants = {inv for _, cells in rows_of + groups for inv in cells}
        fitting = {(a, b) for a in invariants for b in invariants
                   if fits(a, b)}
        for g, (e, cells_a) in enumerate(rows_of):
            for h, (f, cells_b) in enumerate(groups):
                if unordered and h < g:
                    continue
                joined = join(tag_fusion(e, left), tag_fusion(f, right))
                fus = remove(joined, bind)
                try:
                    fus = untag_fusion(fus, out) if out else fus
                except PwfError:
                    continue
                side = _sides(nodes, _classes(joined), shape)
                # the left operands' signatures, and per right invariant
                # its members by negated signature
                signatures: dict = {}
                partners: dict = {}
                for inv_a, rows in cells_a.items():
                    for inv_b, cols in cells_b.items():
                        if (inv_a, inv_b) not in fitting:
                            continue
                        if balanced and inv_b not in partners:
                            partners[inv_b] = by_signature = {}
                            for j in cols:
                                by_signature.setdefault(_negated(_signature(
                                    ("par", side(j, 1)[1]))), []).append(j)
                        for i in rows:
                            a = side(i, 0)
                            if balanced and i not in signatures:
                                signatures[i] = _signature(("par", a[1]))
                            for j in partners[inv_b].get(signatures[i], ()) \
                                    if balanced else cols:
                                if not (unordered and g == h and j < i):
                                    yield i, j, fus, _merge(a, side(j, 1))

    # -- mask plumbing ------------------------------------------------

    def mask_of(self, subset: Iterable[Pwf]) -> int:
        mask = 0
        for p in subset:
            mask |= 1 << self._index(p)
        return mask

    def subset_of(self, mask: int) -> list[Pwf]:
        return [m for i, m in enumerate(self.members) if mask >> i & 1]

    def _index(self, p: Pwf) -> int:
        mask = self.clip([p])
        if not mask:
            raise ValueError("PWF is not a universe member")
        return mask.bit_length() - 1

    def clip(self, pwfs: Iterable[Pwf]) -> int:
        """Mask of the members equal to one of the given PWF, looked up
        by `pwf_key`."""
        keyed = self._member_keys()
        mask = 0
        for p in pwfs:
            i = keyed.get(pwf_key(p))
            if i is not None:
                mask |= 1 << i
        return mask

    def _member_keys(self) -> dict:
        """`pwf_key` of each member -> the first member index with it,
        read from the members' σ-nodes."""
        if self._keyed is None:
            self._keyed = {}
            for i, (m, (node, _, _)) in enumerate(zip(self.members,
                                                      self._nodes)):
                self._keyed.setdefault(sigma_key(m.fus, node), i)
        return self._keyed

    # -- orthogonality ------------------------------------------------

    def _orthogonal_mask(self, mask: int) -> int:
        """Bitmask of the members orthogonal to every member of mask;
        `orthogonal_mask`, bound in `__init__`, caches it by mask."""
        out = 0
        for i, row in enumerate(self.matrix()):
            if row & mask == mask:
                out |= 1 << i
        return out

    def orthogonal(self, subset: Iterable[Pwf]) -> list[Pwf]:
        return self.subset_of(self.orthogonal_mask(self.mask_of(subset)))

    def biorthogonal_mask(self, mask: int) -> int:
        return self.orthogonal_mask(self.orthogonal_mask(mask))

    # -- truth-value operations ---------------------------------------

    def _table(self, label: str, shape: tuple
               ) -> list[list[tuple[int, int]]]:
        """Per member i, the (bit of j, bit of the image) of every j whose
        image under the operation of `shape` (see `_images`) is a
        member.  Only pairs whose invariants sum to a member's invariant
        get an image, and only an image with a member's skeleton is
        keyed (`sigma_key`)."""
        if label not in self._tables:
            possible = {inv for cells in self._groups.values()
                        for inv in cells}
            skeletons = {skeleton(node, {}) for node, _, _ in self._nodes}
            keyed = self._member_keys()
            rows: list[list[tuple[int, int]]] = [[] for _ in self.members]
            for i, j, fus, node in self._images(
                    shape, lambda a, b: _add(a, b) in possible):
                if skeleton(node, {}) not in skeletons:
                    continue
                k = keyed.get(sigma_key(fus, node))
                if k is not None:
                    rows[i].append((1 << j, 1 << k))
            self._tables[label] = rows
        return self._tables[label]

    def _image(self, rows, mask_a: int, mask_b: int) -> int:
        out = 0
        while mask_a:
            low = mask_a & -mask_a
            for bit, image in rows[low.bit_length() - 1]:
                if mask_b & bit:
                    out |= image
            mask_a ^= low
        return out

    def op_par(self, mask_a: int, mask_b: int) -> int:
        return self._image(self._table("par", ((), (), EMPTY, ())),
                           mask_a, mask_b)

    def op_bullet(self, mask_a: int, mask_b: int) -> int:
        return self._image(self._table("bullet", ((1,), (2,), EMPTY, ())),
                           mask_a, mask_b)

    def op_star(self, i: int, mask_a: int, mask_b: int) -> int:
        if i not in (1, 2):
            raise PwfError("star index must be 1 or 2")
        return self._image(self._table(
            f"star{i}", ((), (i,), residue((i,)), (3 - i,))), mask_a, mask_b)

    def op_tensor(self, mask_a: int, mask_b: int) -> int:
        return self.biorthogonal_mask(self.op_bullet(mask_a, mask_b))

    def op_parr(self, mask_a: int, mask_b: int) -> int:
        return self.orthogonal_mask(self.op_bullet(
            self.orthogonal_mask(mask_a), self.orthogonal_mask(mask_b)))

    def op_arrow(self, mask_a: int, mask_b: int) -> int:
        return self.orthogonal_mask(self.op_bullet(
            mask_a, self.orthogonal_mask(mask_b)))

    def op_one(self) -> int:
        return self.biorthogonal_mask(self.clip([UNIT]))

    def op_join(self, masks: Iterable[int]) -> int:
        union = 0
        for m in masks:
            union |= m
        return self.biorthogonal_mask(union)


# the number of subsets joined in each sample of a law over families
_FAMILY_SIZE = 3


def check_laws(u: Universe, samples: int = 24, seed: int = 0) -> Report:
    """Evaluate the quantified laws over sampled subsets.  Returns
    (law, passed, witness-or-empty) triples; the report is
    universe-relative by construction.  Each law is a generator of
    witnesses that draws its samples from the shared rng as it checks
    them, so a law stops drawing at its first witness.  With no sample
    no law would be checked, so `samples` must be at least 1."""
    if samples < 1:
        raise ValueError(f"check_laws needs samples >= 1, not {samples}")
    rng = random.Random(seed)
    n = len(u.members)
    full = u.full_mask

    def rand_mask() -> int:
        return rng.getrandbits(n) & full

    def behaviour() -> int:
        return u.biorthogonal_mask(rand_mask())

    def union(masks: list[int]) -> int:
        out = 0
        for m in masks:
            out |= m
        return out

    def subset_of_biorthogonal():
        for _ in range(samples):
            a = rand_mask()
            if a & u.biorthogonal_mask(a) != a:
                yield f"A not within its biorthogonal: {bin(a)}"

    def triple_orthogonal():
        for _ in range(samples):
            a = rand_mask()
            if u.orthogonal_mask(a) != \
                    u.biorthogonal_mask(u.orthogonal_mask(a)):
                yield f"triple orthogonal differs: {bin(a)}"

    def antitone():
        for _ in range(samples):
            a = rand_mask()
            b = a | rand_mask()
            if u.orthogonal_mask(b) & u.orthogonal_mask(a) != \
                    u.orthogonal_mask(b):
                yield f"orthogonal not antitone: {bin(a)} vs {bin(b)}"

    def orthogonal_of_union():
        for _ in range(samples):
            family = [rand_mask() for _ in range(_FAMILY_SIZE)]
            inter = full
            for m in family:
                inter &= u.orthogonal_mask(m)
            if u.orthogonal_mask(union(family)) != inter:
                yield "orthogonal of union differs from intersection"

    def tensor_over_join():
        for _ in range(samples):
            a = behaviour()
            family = [behaviour() for _ in range(_FAMILY_SIZE)]
            if u.op_tensor(a, u.op_join(family)) != \
                    u.op_join([u.op_tensor(a, b) for b in family]):
                yield "tensor does not distribute over join"

    # Parallel/join compatibility at the union level: the join of the
    # componentwise parallel images is the closure of the parallel image
    # of the union, which therefore sits inside the join.  The stronger
    # inclusion that starts from the closed join needs composition
    # witnesses the finite member list cannot supply, so it is not a
    # universe-relative law.
    def parallel_join():
        for _ in range(samples):
            a = rand_mask()
            family = [rand_mask() for _ in range(_FAMILY_SIZE)]
            image = u.op_par(union(family), a)
            joined = u.op_join([u.op_par(b, a) for b in family])
            if joined != u.biorthogonal_mask(image) or \
                    image & joined != image:
                yield "join of parallel images is not the closed union image"

    def star_arrow():
        for _ in range(samples):
            a, b, c = behaviour(), behaviour(), behaviour()
            applied = u.op_star(1, c, a)
            if (applied & b == applied) != (c & u.op_arrow(a, b) == c):
                yield (f"adjunction mismatch on sampled behaviours "
                       f"{bin(a)},{bin(b)},{bin(c)}")

    return [
        first_witness("subset-of-biorthogonal", subset_of_biorthogonal()),
        first_witness("triple-orthogonal-collapse", triple_orthogonal()),
        first_witness("orthogonal-antitone", antitone()),
        first_witness("union-orthogonal-is-intersection",
                      orthogonal_of_union()),
        first_witness("tensor-over-join", tensor_over_join()),
        first_witness("parallel-join-compatibility", parallel_join()),
        first_witness("star-arrow-adjunction", star_arrow())]
