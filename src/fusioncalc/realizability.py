"""Finite-universe approximation of poles, orthogonality, behaviours and
the truth-value operations, with law checkers.

All results are universe-relative: operations clip to the member set,
and subsets are bitmasks over the member list.  The orthogonality
matrix is computed once (the `always` pole builds no composite).  The
op tables depend only on the member list and the config, so universes
that share both share one set of tables; each row keeps only its member
cells.  `clip` maps a PWF to the member with the same `pwf.pwf_key`,
which equates exactly the equal PWFs; `default_universe` drops a PWF
whose key an earlier one has.

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
image).  The image node is the two member σ-nodes (`pwf.sigma_form`,
once per member) merged in the locally nameless style (Charguéraud,
"The Locally Nameless Representation", JAR 2012), each free name
renamed through its class in J (`_merge`); no pair builds a `Process`.

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
- the `done:k` pole is false on a term that cannot consume its actions
  in k steps (`reduction._may_reach`).  It caches its verdicts by
  multiset form, and its search (`reduction._reaches_nil`) keys only
  reducts.  Its node entry `pole.node` decides the matrix composite, a
  closed node under Δ; any other pole gets the composite as a `Pwf`.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, Optional

from .calgebra import Report, first_witness
from .config import DEFAULT, Config
from .fusion import DELTA, Fusion, _classes, join, remove
from .names import ALL, EMPTY, Word, remember, residue, tag, untag
from .process import NIL, Act, Par, Process
from .pwf import (UNIT, Pwf, PwfError, pwf_key, sigma_form, sigma_key,
                  tag_fusion, untag_fusion)
from .reduction import _may_reach, _reaches_nil
from .terms import (_NIL_NODE, _nodes, _relabel, _to_process, invariant,
                    multiset_form)

# op tables by (member tuple, config), shared by every Universe on them;
# the oldest member list is dropped past _SHARED_LISTS, so a long-lived
# process keeps a bounded number of tables alive
_TABLES: dict = {}
_SHARED_LISTS = 4
# verdicts a `done:k` pole keeps, as many as the node stores of
# `terms.node_key` and `reduction._expand`; the oldest is dropped first
_VERDICT_CAP = 1024


def pole_always(q: Pwf, config: Config = DEFAULT) -> bool:
    return True


def make_pole_done(k: int) -> Callable[[Pwf], bool]:
    """The pole of terms that reach <NIL ; Δ> within k steps.  The pole
    carries its k, so `Universe.matrix` can skip composites that it
    rejects on their invariant alone, and its node entry `pole.node`,
    which decides a closed node under Δ without the invariant test.
    Reduction keeps the fusion, so a term under any other fusion is
    outside.  Verdicts are cached by multiset form, the value that
    decides them under Δ, for the last `_VERDICT_CAP` (1,024) nodes
    decided; no term is keyed, since the search keys only its reducts
    and the goal is action-free."""
    if k < 0:
        raise ValueError(f"pole done:{k} needs k >= 0")
    cache: dict = {}

    def closed(node) -> bool:
        # under Δ each name is its class's least member, so node is the
        # σ-normal start of the search
        verdict = cache.get(node)
        if verdict is None:
            verdict = remember(cache, node, _reaches_nil(node, k),
                               _VERDICT_CAP)
        return verdict

    def pole(q: Pwf, config: Config = DEFAULT) -> bool:
        node = multiset_form(q.proc)[0]
        return q.fus.is_delta() and _may_reach(invariant(node), (), k) \
            and closed(node)

    pole.__name__ = f"pole_done_{k}"
    pole.k = k
    pole.node = closed
    return pole


def parse_pole(text: str) -> Callable[[Pwf], bool]:
    text = text.strip()
    if text == "always":
        return pole_always
    if text.startswith("done:") and text[len("done:"):].isdecimal():
        return make_pole_done(int(text[len("done:"):]))
    raise ValueError(f"unknown pole {text!r} (use 'always' or 'done:k', "
                     f"k a natural number)")


def default_universe(max_actions: int = 2, names: int = 4,
                     fusions: Iterable[Fusion] = (DELTA,),
                     limit: int = 400, config: Config = DEFAULT
                     ) -> list[Pwf]:
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
            key = pwf_key(p, config)
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


def _binders(node) -> frozenset:
    """The names a multiset-form node binds: its restricted names and
    its bound vectors."""
    return frozenset(x for q in _nodes(node) if q[0] in ("act", "nu")
                     for x in q[3 if q[0] == "act" else 1])


def _merge(a: tuple, b: tuple, classes, shape: tuple) -> tuple:
    """The σ-node of the image of the σ-forms a and b (node, free names,
    binders) under `shape`, given J's classes: a free name of a tagged
    by `left`, or of b by `right`, with class C goes to one binder per C
    inside `bind`, else to untag(min(C - bind), out), and b's binders
    shift below a's; restricted names joined and components
    concatenated, as `terms.multiset_form` gathers a parallel."""
    left, right, bind, out = shape
    (node_a, free_a, bound_a), (node_b, free_b, bound_b) = a, b
    shift = min(bound_a, default=0)
    low = shift + min(bound_b, default=0) - 1
    binders: dict = {}  # least class member -> the class's binder

    def rename(x: int, w: Word) -> int:
        cls = classes(tag(x, w))
        outside = [y for y in cls if not bind.member(y)]
        if outside:
            return untag(min(outside), out)
        return binders.setdefault(min(cls), low - len(binders))

    ids_a = {x: rename(x, left) for x in free_a}
    ids_b = {x: rename(x, right) for x in free_b}
    ids_b.update((y, y + shift) for y in bound_b)
    names = set(binders.values())
    comps: list = []
    for node, ids in ((node_a, ids_a), (node_b, ids_b)):
        if any(x != y for x, y in ids.items()):
            node = _relabel(node, ids)
        if node[0] == "nu":
            names |= node[1]
            node = node[2]
        if node[0] == "par":
            comps.extend(node[1])
        elif node[0] != "nil":
            comps.append(node)
    inner = _NIL_NODE if not comps else comps[0] if len(comps) == 1 \
        else ("par", tuple(comps))
    return ("nu", frozenset(names), inner) if names else inner


class Universe:
    """A finite member list with a pole; computes orthogonality once and
    exposes the behaviour operations as bitmask transformers."""

    def __init__(self, members: Iterable[Pwf], pole, config: Config = DEFAULT):
        self.members = tuple(members)
        self.pole = pole
        self.config = config
        self._matrix = None
        self._keyed: Optional[dict] = None
        # each member's σ-node, its free names and its binders: the one
        # multiset form that the invariants, the keys and the images
        # read; and the member indices grouped by fusion, then invariant
        self._nodes = []
        self._groups: dict = {}
        for i, m in enumerate(self.members):
            node, free = sigma_form(multiset_form(m.proc), m.fus, config)
            self._nodes.append((node, free, _binders(node)))
            self._groups.setdefault(m.fus, {}).setdefault(
                invariant(node), []).append(i)
        key = (self.members, config)
        tables = _TABLES.get(key)
        self._tables: dict = tables if tables is not None else remember(
            _TABLES, key, {}, _SHARED_LISTS)

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
            k = getattr(self.pole, "k", None)
            on_node = getattr(self.pole, "node", None)
            rows = [0] * n
            # a pair outside the pole on its invariant is not built
            for i, j, fus, node in self._images(
                    ((), (), ALL, ()), lambda a, b: k is None or
                    _may_reach(_add(a, b), (), k), unordered=True):
                if on_node(node) if on_node is not None else \
                        self.pole(Pwf(_to_process(node), fus)):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            self._matrix = rows
        return self._matrix

    def _images(self, shape: tuple, fits: Callable[[tuple, tuple], bool],
                unordered: bool = False) -> Iterator[tuple]:
        """(i, j, fusion, σ-node) of the image of each member pair (i, j)
        whose invariants `fits`, under the operation of `shape` (see the
        module docstring); with `unordered`, for a shape that tags its
        sides alike, each unordered pair once.  A `PwfError` in the
        image fusion leaves that pair of member fusions without images."""
        left, right, bind, out = shape
        config, nodes = self.config, self._nodes
        groups = list(self._groups.items())
        invariants = {inv for _, cells in groups for inv in cells}
        fitting = {(a, b) for a in invariants for b in invariants
                   if fits(a, b)}
        for g, (e, cells_a) in enumerate(groups):
            for h, (f, cells_b) in enumerate(groups):
                if unordered and h < g:
                    continue
                joined = join(tag_fusion(e, left, config),
                              tag_fusion(f, right, config), config)
                fus = remove(joined, bind, config)
                try:
                    fus = untag_fusion(fus, out, config) if out else fus
                except PwfError:
                    continue
                classes = _classes(joined, config)
                for inv_a, rows in cells_a.items():
                    for inv_b, cols in cells_b.items():
                        if (inv_a, inv_b) not in fitting:
                            continue
                        for i in rows:
                            for j in cols:
                                if not (unordered and g == h and j < i):
                                    yield i, j, fus, _merge(
                                        nodes[i], nodes[j], classes, shape)

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
            i = keyed.get(pwf_key(p, self.config))
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
                self._keyed.setdefault(sigma_key(m.fus, node, self.config),
                                       i)
        return self._keyed

    # -- orthogonality ------------------------------------------------

    def orthogonal_mask(self, mask: int) -> int:
        rows = self.matrix()
        out = 0
        for i in range(len(self.members)):
            if rows[i] & mask == mask:
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
        get an image (`sigma_key`)."""
        if label not in self._tables:
            possible = {inv for cells in self._groups.values()
                        for inv in cells}
            keyed, config = self._member_keys(), self.config
            rows: list[list[tuple[int, int]]] = [[] for _ in self.members]
            for i, j, fus, node in self._images(
                    shape, lambda a, b: _add(a, b) in possible):
                k = keyed.get(sigma_key(fus, node, config))
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
