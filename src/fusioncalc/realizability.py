"""Finite-universe approximation of poles, orthogonality, behaviours and
the truth-value operations, with law checkers.

All results are universe-relative: operations clip to the member set,
and the reports only assert laws that hold for every polarity matrix
plus closure-operator algebra.  Subsets are manipulated as bitmasks over
the member list, and the orthogonality matrix is computed once (the
`always` pole needs no composites at all).  The op tables depend only on
the member list and the config, so universes that share both (one per
pole, say) share one set of tables; each row keeps only its member
cells.

Every member carries one invariant, `terms.invariant`: the multiset of
its action prefixes by (polarity, arity).  Congruence, substitution,
relabelling, `nu_set` and `unrelabel` keep it, and composition adds it
up.  Three exact filters read it before any term is keyed:

- `clip` rejects an image whose invariant, fusion classes and free
  names (under the fusion's representatives) match no member;
- an op-table cell (a, b) is empty without applying the operation when
  inv(a) + inv(b) is no member's invariant; the fusion half of the
  operation still runs once per pair of member fusions, so a
  `FusionError` raises as before;
- the `done:k` pole is false on a term that cannot consume its actions
  in k steps (`reduction._may_reach`), and the matrix builds no
  composite whose summed invariant fails that test.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional

from .calgebra import Report, first_witness
from .config import DEFAULT, Config
from .fusion import DELTA, Fusion, _classes, canonical_subst
from .process import NIL, Act, Par, Process, congruence_key
from .pwf import (UNIT, Pwf, PwfError, bullet, equal_pwf, nu_all, par,
                  sigma_node, star)
from .reduction import _may_reach, _reduces_within
from .terms import invariant, multiset_form, node_key

# op tables by (member tuple, config), shared by every Universe on them;
# the oldest member list is dropped past _SHARED_LISTS, so a long-lived
# process keeps a bounded number of tables alive
_TABLES: dict = {}
_SHARED_LISTS = 4


def pole_always(q: Pwf, config: Config = DEFAULT) -> bool:
    return True


def make_pole_done(k: int) -> Callable[[Pwf], bool]:
    """The pole of terms that reach <NIL ; Δ> within k steps.  The pole
    carries its k, so `Universe.matrix` can skip composites that it
    rejects on their invariant alone."""
    cache: dict = {}
    goals: dict = {}

    def pole(q: Pwf, config: Config = DEFAULT) -> bool:
        node = multiset_form(q.proc)[0]
        if not _may_reach(invariant(node), (), k):
            return False
        start = node_key(node)
        key = (start, q.fus)
        if key not in cache:
            if config not in goals:
                goals[config] = node_key(sigma_node(UNIT, config))
            cache[key] = _reduces_within(q, UNIT, k, config, (node, start),
                                         goals[config])
        return cache[key]

    pole.__name__ = f"pole_done_{k}"
    pole.k = k
    return pole


def parse_pole(text: str) -> Callable[[Pwf], bool]:
    text = text.strip()
    if text == "always":
        return pole_always
    if text.startswith("done:"):
        return make_pole_done(int(text[len("done:"):]))
    raise ValueError(f"unknown pole {text!r} (use 'always' or 'done:k')")


def default_universe(max_actions: int = 3, names: int = 4,
                     fusions: Iterable[Fusion] = (DELTA,),
                     limit: int = 400) -> list[Pwf]:
    """Deterministic universe: action chains and two-component parallels
    over the given names, combined with each supplied fusion, truncated
    at the limit in generation order."""
    chains: list[Process] = [NIL]
    frontier = [NIL]
    depth = 0
    while depth < max_actions and depth < 2:
        new = []
        for body in frontier:
            for subject in range(names):
                for polarity in ("up", "down"):
                    new.append(Act(subject, polarity, (), body))
        chains.extend(new)
        frontier = new
        depth += 1
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
            key = (congruence_key(proc), fus)
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


def _pair_memo(values: list, fn) -> Callable[[int, int], object]:
    """(i, j) -> fn(values[i], values[j]), evaluated once per pair of
    distinct values, in the order the pairs are first asked for."""
    ids: dict = {}
    index = [ids.setdefault(v, len(ids)) for v in values]
    distinct = list(ids)
    memo: dict = {}

    def at(i: int, j: int):
        key = (index[i], index[j])
        if key not in memo:
            memo[key] = fn(distinct[key[0]], distinct[key[1]])
        return memo[key]

    return at


class Universe:
    """A finite member list with a pole; computes orthogonality once and
    exposes the behaviour operations as bitmask transformers."""

    def __init__(self, members: Iterable[Pwf], pole, config: Config = DEFAULT):
        self.members = tuple(members)
        self.pole = pole
        self.config = config
        self._matrix = None
        self._keyed: Optional[dict] = None
        self._signatures: set = set()
        self._forms = [multiset_form(m.proc) for m in self.members]
        self._invariants = [invariant(node) for node, _ in self._forms]
        key = (self.members, config)
        if key not in _TABLES and len(_TABLES) >= _SHARED_LISTS:
            del _TABLES[next(iter(_TABLES))]
        self._tables: dict = _TABLES.setdefault(key, {})

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
            reachable = _pair_memo(
                self._invariants,
                lambda a, b: k is None or _may_reach(_add(a, b), (), k))
            fusion_half = self._fusion_half(
                lambda p, q, config: nu_all(par(p, q, config), config))
            rows = [0] * n
            for i in range(n):
                for j in range(i, n):
                    if not reachable(i, j):
                        # outside the pole; the composite's fusion steps
                        # still run, so their errors are not lost
                        fusion_half(i, j)
                        continue
                    q = nu_all(par(self.members[i], self.members[j],
                                   self.config), self.config)
                    if self.pole(q):
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            self._matrix = rows
        return self._matrix

    def _fusion_half(self, op) -> Callable[[int, int], Optional[Pwf]]:
        """(i, j) -> op on the fusions of members i and j with NIL as
        their processes, or None where that raises `PwfError`.  With no
        process to act on, op runs exactly its fusion steps (joins,
        relabellings, removals and the unrelabel fusion check), so it
        raises what op raises on those fusions."""
        def half(e: Fusion, f: Fusion) -> Optional[Pwf]:
            try:
                return op(Pwf(NIL, e), Pwf(NIL, f), self.config)
            except PwfError:
                return None

        return _pair_memo([m.fus for m in self.members], half)

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

    def _signature(self, p: Pwf, form: tuple) -> tuple:
        """Cheap invariants of the member key, from p's `multiset_form`
        (node, fn P): the action invariant, the classes of the fusion
        endpoints and σ(fn P), σ the fusion's representative
        substitution; and σ itself for the key (None under Δ, where σ is
        the identity).  Congruence and substitution keep the action
        invariant, and fn(σP) = σ(fn P), so PWFs with equal keys have
        equal signatures."""
        class_of = _classes(p.fus, self.config)
        classes = frozenset(class_of(x) for x in p.fus.endpoints())
        if p.fus.is_delta():
            return (invariant(form[0]), classes, frozenset(form[1])), None
        sigma = canonical_subst(p.fus, self.config)
        return (invariant(form[0]), classes,
                frozenset(sigma.apply(x) for x in form[1])), sigma

    def _member_key(self, p: Pwf, signature: tuple, form: tuple, sigma):
        """Equality-respecting lookup key: the key of p's σ-node
        (`sigma_node` of its `multiset_form`), the signature (which holds
        the fusion's finite partition) and the fusion's family
        generators."""
        return (node_key(sigma_node(p, self.config, form, sigma)),
                signature, p.fus.families)

    def clip(self, pwfs: Iterable[Pwf]) -> int:
        """Mask of the members equal to one of the given PWF."""
        if self._keyed is None:
            self._keyed = {}
            for i, (m, form) in enumerate(zip(self.members, self._forms)):
                signature, sigma = self._signature(m, form)
                self._signatures.add(signature)
                self._keyed.setdefault(
                    self._member_key(m, signature, form, sigma), i)
        mask = 0
        for p in pwfs:
            form = multiset_form(p.proc)
            signature, sigma = self._signature(p, form)
            if not p.fus.families and signature not in self._signatures:
                continue
            i = self._keyed.get(self._member_key(p, signature, form, sigma))
            if i is None and p.fus.families:
                # family generators can subsume finite pairs, so the
                # partition signature may differ between equal fusions
                for j, m in enumerate(self.members):
                    if m.fus.families == p.fus.families and \
                            equal_pwf(p, m, self.config):
                        i = j
                        break
            if i is not None:
                mask |= 1 << i
        return mask

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

    def is_behaviour(self, subset: Iterable[Pwf]) -> bool:
        mask = self.mask_of(subset)
        return self.biorthogonal_mask(mask) == mask

    # -- truth-value operations ---------------------------------------

    def _table(self, label: str, op) -> list[list[tuple[int, int]]]:
        """Per member i, the (bit of j, bit of the image) of every j whose
        clipped image op(i, j) is a member.  Only pairs whose invariants
        sum to a member's invariant, and whose fusion half succeeds, are
        applied and clipped."""
        if label not in self._tables:
            members, config = self.members, self.config
            possible = set(self._invariants)
            fits = _pair_memo(self._invariants,
                              lambda a, b: _add(a, b) in possible)
            fusion_half = self._fusion_half(op)
            rows: list[list[tuple[int, int]]] = []
            for i, a in enumerate(members):
                row: list[tuple[int, int]] = []
                for j, b in enumerate(members):
                    if fusion_half(i, j) is None or not fits(i, j):
                        continue
                    try:
                        image = self.clip([op(a, b, config)])
                    except PwfError:
                        continue
                    if image:
                        row.append((1 << j, image))
                rows.append(row)
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
        return self._image(self._table("par", par), mask_a, mask_b)

    def op_bullet(self, mask_a: int, mask_b: int) -> int:
        return self._image(self._table("bullet", bullet), mask_a, mask_b)

    def op_star(self, i: int, mask_a: int, mask_b: int) -> int:
        def apply(a, b, config):
            return star(i, a, b, config)
        return self._image(self._table(f"star{i}", apply), mask_a, mask_b)

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


def check_laws(u: Universe, samples: int = 24, seed: int = 0,
               family_size: int = 3) -> Report:
    """Evaluate the quantified laws over sampled subsets.  Returns
    (law, passed, witness-or-empty) triples; the report is
    universe-relative by construction.  Each law is a generator of
    witnesses that draws its samples from the shared rng as it checks
    them, so a law stops drawing at its first witness."""
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
            family = [rand_mask() for _ in range(family_size)]
            inter = full
            for m in family:
                inter &= u.orthogonal_mask(m)
            if u.orthogonal_mask(union(family)) != inter:
                yield "orthogonal of union differs from intersection"

    def tensor_over_join():
        for _ in range(samples):
            a = behaviour()
            family = [behaviour() for _ in range(family_size)]
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
            family = [rand_mask() for _ in range(family_size)]
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
