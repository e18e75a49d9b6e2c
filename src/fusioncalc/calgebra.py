"""Finite-model checker for conjunctive structures and algebras.

Models are finite carriers with a lattice order (given as `leq` pairs or
a join table), a tensor table, an involutive antitone orthogonal map, an
optional parallel-composition table, and an optional name-indexed
injection M restricted to a finite name window.

A model numbers its elements by their position in `carrier`, and keeps
its order as the up-set and down-set of every position, a bitmask over
positions, with bottom and top (bit-vector encoding as in Ait-Kaci,
Boyer, Lincoln and Nasr, "Efficient Implementation of Lattice
Operations", TOPLAS 1989).  Its operations are dense tables over
positions, each built once, on first use: `perp`, `tensor` and `par`;
the derived `parr` and `arrow`; binary join and meet; `rhd` and `star`;
and separator membership.  A binary join is the element whose up-set
contains the intersection of the two up-sets (None where there is
none).  A meet, `rhd` and `star` fold joins from bottom over a set of
positions in carrier order (a meet over its lower bounds, the
intersection of the down-sets); their cells are None where the fold
meets a missing join or bottom.  The element-level methods read the same
tables, so each operation has one implementation; where a cell is None
they fold again, which raises the fold's ModelError.

All quantified axioms are checked by exhaustive enumeration over
positions (par/join compatibility on the empty and the two-element
joins, which imply it for every finite join), so every verdict is
decided for the model at hand.

Each law is a lazy sequence of its counterexamples, and a failing row
reports the first: the first in carrier order (position order is
carrier order), with the quantifiers nested as the law states them and
the separator, too, walked in carrier order.  A witness is formatted
from carrier names only when it is yielded.  `first_witness` turns a
sequence into a row and computes no counterexample beyond the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import combinations, product
from typing import Iterable, Optional

from .record import Report, first_witness, passed

Element = str
Table = list[list[Optional[int]]]


class ModelError(Exception):
    pass


def _no_join(a: Element, b: Element) -> ModelError:
    return ModelError(f"join of {a} and {b} does not exist")


@dataclass
class FinModel:
    carrier: tuple[Element, ...]
    leq: frozenset[tuple[Element, Element]]
    tensor: dict[tuple[Element, Element], Element]
    perp: dict[Element, Element]
    unit: Element
    parcomp: Optional[dict[tuple[Element, Element], Element]] = None
    window: tuple[int, ...] = ()
    m_table: dict[tuple[int, int], Element] = field(default_factory=dict)
    separator: frozenset[Element] = frozenset()

    def __post_init__(self) -> None:
        # Lattice tables (not fields, built from `carrier` and `leq` as
        # they are at construction): the position of each element, the
        # up-set and down-set of each position as a bitmask over
        # positions, and the positions of bottom and top (None when
        # absent).  The relation is encoded as given, so on a non-lattice
        # the operations fail as a carrier scan would, with the same
        # messages.
        self._pos = {c: i for i, c in enumerate(self.carrier)}
        n = len(self.carrier)
        self._up = [0] * n
        self._down = [0] * n
        for a, b in self.leq:
            i, j = self._pos.get(a), self._pos.get(b)
            if i is not None and j is not None:
                self._up[i] |= 1 << j
                self._down[j] |= 1 << i
        self._full = (1 << n) - 1
        self._bottom = next((i for i in range(n)
                             if self._up[i] == self._full), None)
        self._top = next((i for i in range(n)
                          if self._down[i] == self._full), None)

    # -- operation tables over positions, each built on first use -----
    #
    # Fields are not watched: a model whose fields are edited in place
    # keeps the tables it has built.  `dataclasses.replace` builds a new
    # model, with tables of its own.

    @cached_property
    def _join(self) -> Table:
        up, n = self._up, range(len(self.carrier))

        def least(uppers: int) -> Optional[int]:
            found = [k for k in n
                     if uppers >> k & 1 and up[k] & uppers == uppers]
            return found[0] if len(found) == 1 else None

        return [[least(up[i] & up[j]) for j in n] for i in n]

    @cached_property
    def _meet(self) -> Table:
        down, n = self._down, range(len(self.carrier))
        return self._joins_of([[down[i] & down[j] for j in n] for i in n])

    @cached_property
    def _perp(self) -> list[int]:
        return [self._pos[self.perp[c]] for c in self.carrier]

    @cached_property
    def _tensor(self) -> list[list[int]]:
        return self._binary(self.tensor)

    @cached_property
    def _par(self) -> Optional[list[list[int]]]:
        return None if self.parcomp is None else self._binary(self.parcomp)

    @cached_property
    def _parr(self) -> list[list[int]]:
        perp, tensor = self._perp, self._tensor
        return [[perp[tensor[pa][pb]] for pb in perp] for pa in perp]

    @cached_property
    def _arrow(self) -> list[list[int]]:
        perp = self._perp
        return [[perp[row[pb]] for pb in perp] for row in self._tensor]

    @cached_property
    def _star(self) -> Table:
        n = range(len(self.carrier))
        return self._joins_of([[self._star_lowers(self._up[i], j) for j in n]
                               for i in n])

    @cached_property
    def _rhd(self) -> Table:
        n = range(len(self.carrier))
        return self._joins_of([[self._rhd_set(j, self._down[k]) for k in n]
                               for j in n])

    @cached_property
    def _sep(self) -> list[bool]:
        return [c in self.separator for c in self.carrier]

    def _binary(self, table: dict[tuple[Element, Element], Element]
                ) -> list[list[int]]:
        pos = self._pos
        return [[pos[table[a, b]] for b in self.carrier]
                for a in self.carrier]

    def _star_lowers(self, up_a: int, j: int) -> int:
        """The lower bounds of the c with a <= arrow(b, c), for the
        up-set `up_a` of a and the position `j` of b."""
        lowers, down = self._full, self._down
        for c, x in enumerate(self._arrow[j]):
            if up_a >> x & 1:
                lowers &= down[c]
        return lowers

    def _rhd_set(self, j: int, down_c: int) -> int:
        """The x with par(x, b) <= c, for the position `j` of b and the
        down-set `down_c` of c."""
        out = 0
        for x, row in enumerate(self._par):
            if down_c >> row[j] & 1:
                out |= 1 << x
        return out

    def _fold(self, mask: int) -> int:
        """The position of the join of the positions in `mask`, folded
        from bottom in carrier order; raises where `join` would."""
        out = self._pos[self.bottom()]
        join, j = self._join, 0
        while mask:
            if mask & 1:
                nxt = join[out][j]
                if nxt is None:
                    raise _no_join(self.carrier[out], self.carrier[j])
                out = nxt
            mask >>= 1
            j += 1
        return out

    def _joins_of(self, masks: list[list[int]]) -> Table:
        """The table of `_fold` over a table of masks, None where it
        raises."""
        done: dict[int, Optional[int]] = {}

        def fold(mask: int) -> Optional[int]:
            if mask not in done:
                try:
                    done[mask] = self._fold(mask)
                except ModelError:
                    done[mask] = None
            return done[mask]

        return [[fold(mask) for mask in row] for row in masks]

    def _meet_of(self, positions: Iterable[Optional[int]]) -> Element:
        """The meet of the elements at `positions` (None: an element
        outside the carrier, which is above nothing)."""
        lowers, down = self._full, self._down
        for i in positions:
            lowers &= 0 if i is None else down[i]
        return self.carrier[self._fold(lowers)]

    # -- lattice ------------------------------------------------------

    def le(self, a: Element, b: Element) -> bool:
        return (a, b) in self.leq

    def join2(self, a: Element, b: Element) -> Element:
        i, j = self._pos.get(a), self._pos.get(b)
        out = None if i is None or j is None else self._join[i][j]
        if out is None:
            raise _no_join(a, b)
        return self.carrier[out]

    def meet(self, elems: Iterable[Element]) -> Element:
        return self._meet_of(self._pos.get(e) for e in elems)

    def bottom(self) -> Element:
        if self._bottom is None:
            raise ModelError("carrier has no bottom element")
        return self.carrier[self._bottom]

    def top(self) -> Element:
        if self._top is None:
            raise ModelError("carrier has no top element")
        return self.carrier[self._top]

    # -- derived operators --------------------------------------------

    def arrow(self, a: Element, b: Element) -> Element:
        return self.carrier[self._arrow[self._pos[a]][self._pos[b]]]

    def star(self, a: Element, b: Element) -> Element:
        j, i = self._pos[b], self._pos.get(a)
        out = None if i is None else self._star[i][j]
        if out is None:  # a is above nothing, or the fold raises
            out = self._fold(self._star_lowers(
                0 if i is None else self._up[i], j))
        return self.carrier[out]

    def rhd(self, b: Element, c: Element) -> Element:
        if self.parcomp is None:
            raise ModelError("model has no parallel composition")
        bottom = self.bottom()  # the join over no x, and the fold's start
        j, k = self._pos[b], self._pos.get(c)
        if k is None:  # nothing is below c
            return bottom
        out = self._rhd[j][k]
        if out is None:
            out = self._fold(self._rhd_set(j, self._down[k]))
        return self.carrier[out]

    # -- combinators --------------------------------------------------

    def s3(self) -> Element:
        t, arrow, n = self._tensor, self._arrow, range(len(self.carrier))
        return self._meet_of(arrow[t[a][b]][t[b][a]] for a in n for b in n)

    def s4(self) -> Element:
        arrow, n = self._arrow, range(len(self.carrier))
        return self._meet_of(
            arrow[arrow[a][b]][arrow[arrow[b][c]][arrow[a][c]]]
            for a in n for b in n for c in n)

    def s5(self) -> Element:
        t, arrow, n = self._tensor, self._arrow, range(len(self.carrier))
        return self._meet_of(arrow[t[t[a][b]][c]][t[a][t[b][c]]]
                             for a in n for b in n for c in n)

    def s6(self) -> Element:
        t, arrow, u = self._tensor, self._arrow, self._pos[self.unit]
        return self._meet_of(arrow[a][t[u][a]]
                             for a in range(len(self.carrier)))

    def s7(self) -> Element:
        t, arrow, u = self._tensor, self._arrow, self._pos[self.unit]
        return self._meet_of(arrow[t[u][a]][a]
                             for a in range(len(self.carrier)))

    def combinators(self) -> dict[str, Element]:
        return {"S3": self.s3(), "S4": self.s4(), "S5": self.s5(),
                "S6": self.s6(), "S7": self.s7()}

    # -- Honda-Yoshida combinators by adjunction (window-restricted) --

    def m(self, a: int, x: int) -> Element:
        try:
            return self.m_table[a, x]
        except KeyError:
            raise ModelError(f"M({a},{x}) is not defined") from None

    def hy(self) -> dict[str, dict[tuple[int, ...], Element]]:
        if self.parcomp is None or not self.m_table:
            raise ModelError("Honda-Yoshida combinators need par and M")
        w = self.window
        out: dict[str, dict[tuple[int, ...], Element]] = {
            "K": {}, "F": {}, "Bl": {}, "Br": {}, "D": {}, "S": {}}
        for a in w:
            out["K"][a,] = self.meet(self.rhd(self.m(a, x), self.unit)
                                     for x in w)
            for b in w:
                out["F"][a, b] = self.meet(
                    self.rhd(self.m(a, x), self.m(b, x)) for x in w)
        for a in w:
            for b in w:
                out["Bl"][a, b] = self.meet(
                    self.rhd(self.m(a, x), out["F"][x, b]) for x in w)
                out["Br"][a, b] = self.meet(
                    self.rhd(self.m(a, x), out["F"][b, x]) for x in w)
                for c in w:
                    out["D"][a, b, c] = self.meet(
                        self.rhd(self.m(a, x),
                                 self.parcomp[self.m(b, x), self.m(c, x)])
                        for x in w)
                    out["S"][a, b, c] = self.meet(
                        self.rhd(self.m(a, x), out["F"][b, c]) for x in w)
        return out


# ---------------------------------------------------------------------------
# model files

_SECTIONS = ("carrier", "leq", "join", "tensor", "perp", "unit", "par",
             "window", "M", "separator")


def _closure(carrier: tuple, pairs) -> set[tuple[Element, Element]]:
    """The reflexive and transitive closure of a relation on the carrier:
    Warshall's algorithm on up-set bitmasks over carrier positions."""
    pos = {a: i for i, a in enumerate(carrier)}
    up = [1 << i for i in range(len(carrier))]
    for a, b in pairs:
        up[pos[a]] |= 1 << pos[b]
    for k in range(len(up)):
        for i, mask in enumerate(up):
            if mask >> k & 1:
                up[i] = mask | up[k]
    return {(a, b) for a, mask in zip(carrier, up)
            for j, b in enumerate(carrier) if mask >> j & 1}


def parse_model(text: str) -> FinModel:
    sections: dict[str, list[str]] = {}
    current: Optional[str] = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ModelError(f"unknown section [{current}]")
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ModelError(f"content before any section: {line!r}")
        sections[current].append(line)

    def tokens(name: str) -> list[str]:
        out: list[str] = []
        for line in sections.get(name, []):
            out.extend(line.split())
        return out

    carrier = tuple(tokens("carrier"))
    if not carrier or len(set(carrier)) != len(carrier):
        raise ModelError("carrier must list distinct elements")
    elems = set(carrier)

    def check_elem(e: str, ctx: str) -> str:
        if e not in elems:
            raise ModelError(f"{ctx}: unknown element {e!r}")
        return e

    def binary_table(name: str) -> dict[tuple[Element, Element], Element]:
        table: dict[tuple[Element, Element], Element] = {}
        for line in sections.get(name, []):
            parts = line.split()
            if len(parts) != 4 or parts[2] != "->":
                raise ModelError(f"[{name}] rows look like `a b -> c`:"
                                 f" {line!r}")
            a, b, _, c = parts
            table[check_elem(a, name), check_elem(b, name)] = \
                check_elem(c, name)
        for a in carrier:
            for b in carrier:
                if (a, b) not in table:
                    raise ModelError(f"[{name}] is missing row for {a} {b}")
        return table

    leq: set[tuple[Element, Element]] = set()
    if "leq" in sections:
        for line in sections["leq"]:
            parts = line.split()
            if len(parts) != 3 or parts[1] != "<=":
                raise ModelError(f"[leq] rows look like `a <= b`: {line!r}")
            leq.add((check_elem(parts[0], "leq"), check_elem(parts[2], "leq")))
        leq = _closure(carrier, leq)

    join_table = binary_table("join") if "join" in sections else None
    if join_table is not None:
        derived = {(a, b) for a in carrier for b in carrier
                   if join_table[a, b] == b}
        if leq and frozenset(derived) != frozenset(leq):
            raise ModelError("[leq] and [join] disagree about the order")
        leq = derived
    if not leq:
        raise ModelError("model needs a [leq] or [join] section")

    perp_map: dict[Element, Element] = {}
    for line in sections.get("perp", []):
        parts = line.split()
        if len(parts) != 3 or parts[1] != "->":
            raise ModelError(f"[perp] rows look like `a -> b`: {line!r}")
        perp_map[check_elem(parts[0], "perp")] = check_elem(parts[2], "perp")
    if set(perp_map) != elems:
        raise ModelError("[perp] must cover the whole carrier")

    unit_tokens = tokens("unit")
    if len(unit_tokens) != 1:
        raise ModelError("[unit] must name exactly one element")
    unit = check_elem(unit_tokens[0], "unit")

    parcomp = binary_table("par") if "par" in sections else None

    window = tuple(int(t) for t in tokens("window"))
    m_table: dict[tuple[int, int], Element] = {}
    for line in sections.get("M", []):
        parts = line.split()
        if len(parts) != 4 or parts[2] != "->":
            raise ModelError(f"[M] rows look like `a x -> elem`: {line!r}")
        m_table[int(parts[0]), int(parts[1])] = check_elem(parts[3], "M")

    separator = frozenset(check_elem(t, "separator")
                          for t in tokens("separator"))

    model = FinModel(carrier=carrier, leq=frozenset(leq),
                     tensor=binary_table("tensor"), perp=perp_map, unit=unit,
                     parcomp=parcomp, window=window, m_table=m_table,
                     separator=separator)
    if join_table is not None:
        for a in carrier:
            for b in carrier:
                if model.join2(a, b) != join_table[a, b]:
                    raise ModelError(
                        f"[join] row {a} {b} -> {join_table[a, b]} is not "
                        f"the least upper bound")
    return model


# ---------------------------------------------------------------------------
# checkers
#
# Each law is a generator of its witnesses.  They are generator functions
# with statement loops, not generator expressions: CPython 3.11 warms its
# specializing interpreter on a loop's backward jump, and the filter of a
# generator expression jumps back without it, so on their first calls the
# checkers ran about a tenth slower in that form.
#
# The laws quantify over positions and read the model's tables; `up[a] >>
# b & 1` is `a <= b`.  A lookup that does not depend on an inner
# quantifier is made once, outside its loop.  Where a table cell may be
# None (no join, meet or star there) the law calls the element-level
# method, which raises the ModelError the fold raises.


def _at(m: FinModel, *positions: int) -> str:
    """The elements at `positions`, as a witness lists them."""
    return ", ".join(m.carrier[i] for i in positions)


def check_cs(m: FinModel) -> Report:
    E, R, up = m.carrier, range(len(m.carrier)), m._up

    def partial_order():
        for a, b in product(R, repeat=2):
            if up[a] >> b & 1 and up[b] >> a & 1 and a != b:
                yield f"antisymmetry fails on {_at(m, a, b)}"
        for a, b in product(R, repeat=2):
            if up[a] >> b & 1:
                for c in R:
                    if up[b] >> c & 1 and not up[a] >> c & 1:
                        yield (f"transitivity fails on {E[a]} <= {E[b]} "
                               f"<= {E[c]}")
        for a in R:
            if not up[a] >> a & 1:
                yield f"reflexivity fails at {E[a]}"

    def joins():
        try:
            m.bottom()
            for a, b in product(R, repeat=2):
                if m._join[a][b] is None:
                    m.join2(E[a], E[b])
        except ModelError as exc:
            yield str(exc)

    report = [first_witness("order-is-partial", partial_order()),
              first_witness("all-joins-exist", joins())]
    if not report[-1][1]:
        return report
    bot, join, t, perp = m._bottom, m._join, m._tensor, m._perp

    def tensor_monotone():
        for a, b in product(R, repeat=2):
            if up[a] >> b & 1:
                ta, tb = t[a], t[b]
                for c in R:
                    if not up[ta[c]] >> tb[c] & 1 or \
                            not up[t[c][a]] >> t[c][b] & 1:
                        yield (f"tensor not monotone at {E[a]} <= {E[b]} "
                               f"with {E[c]}")

    def tensor_distributive():
        for a, b in product(R, repeat=2):
            ta, jb = t[a], join[b]
            for c in R:
                if ta[jb[c]] != join[ta[b]][ta[c]] or \
                        t[jb[c]][a] != join[t[b][a]][t[c][a]]:
                    yield ("tensor/join distributivity fails at "
                           f"{_at(m, a, b, c)}")
        for a in R:
            if t[a][bot] != bot or t[bot][a] != bot:
                yield f"tensor does not absorb the empty join at {E[a]}"

    def perp_involutive():
        for a in R:
            if perp[perp[a]] != a:
                yield f"perp not involutive at {E[a]}"

    def perp_antitone():
        for a, b in product(R, repeat=2):
            if up[a] >> b & 1 and not up[perp[b]] >> perp[a] & 1:
                yield f"perp not antitone at {E[a]} <= {E[b]}"

    def de_morgan():
        meet = m._meet
        for a, b in product(R, repeat=2):
            if perp[join[a][b]] != meet[perp[a]][perp[b]]:
                yield (f"perp(join({E[a]},{E[b]})) = {E[perp[join[a][b]]]}"
                       f" but meet of perps = {E[meet[perp[a]][perp[b]]]}")
        if E[perp[bot]] != m.top():
            yield "perp of bottom is not top"

    return report + [
        first_witness("tensor-monotone", tensor_monotone()),
        first_witness("tensor-join-distributive", tensor_distributive()),
        first_witness("perp-involutive", perp_involutive()),
        first_witness("perp-antitone", perp_antitone()),
        first_witness("perp-de-morgan", de_morgan())]


def _check_separator_rules(m: FinModel, report: Report) -> None:
    E, R, up, sep = m.carrier, range(len(m.carrier)), m._up, m._sep
    arrow, t, perp = m._arrow, m._tensor, m._perp
    combs = m.combinators()

    def ax():
        for name, value in combs.items():
            if value not in m.separator:
                yield f"(ax): {name} = {value} is outside the separator"

    def upc():
        for a in R:
            if sep[a]:
                for b in R:
                    if up[a] >> b & 1 and not sep[b]:
                        yield f"(upc): {E[a]} <= {E[b]} but {E[b]} outside"

    def mp():
        for a, b in product(R, repeat=2):
            if sep[arrow[a][b]] and sep[a] and not sep[b]:
                yield (f"(mp): {E[a]} -> {E[b]} and {E[a]} inside but "
                       f"{E[b]} outside")

    def ctx():
        for a, b in product(R, repeat=2):
            if sep[arrow[a][b]]:
                ta, tb = t[a], t[b]
                for c in R:
                    if not sep[arrow[ta[c]][tb[c]]]:
                        yield f"(ctx) fails at {_at(m, a, b, c)}"

    def ctr():
        for a, b in product(R, repeat=2):
            if sep[arrow[a][b]] and not sep[arrow[perp[b]][perp[a]]]:
                yield f"(ctr) fails at {_at(m, a, b)}"

    report += [first_witness("separator-ax", ax()),
               first_witness("separator-upc", upc()),
               first_witness("separator-mp", mp()),
               first_witness("separator-ctx", ctx()),
               first_witness("separator-ctr", ctr()),
               first_witness("separator-unit", [] if m.unit in m.separator
                             else ["1 is outside the separator"])]


def _check_parcomp(m: FinModel, report: Report) -> None:
    p = m._par
    if p is None:
        report.append(first_witness("parcomp-present",
                                    ["model has no [par] section"]))
        return
    E, R, up = m.carrier, range(len(m.carrier)), m._up

    def abelian_monoid():
        for a, b in product(R, repeat=2):
            pa, pab = p[a], p[p[a][b]]
            for c in R:
                if pab[c] != pa[p[b][c]]:
                    yield f"par not associative at {_at(m, a, b, c)}"
        for a, b in product(R, repeat=2):
            if p[a][b] != p[b][a]:
                yield f"par not commutative at {_at(m, a, b)}"
        u = m._pos[m.unit]
        for a in R:
            if p[a][u] != a:
                yield f"par unit fails at {E[a]}"

    # In a lattice the empty and the two-element joins imply the law for
    # every finite join, by induction on the fold (a one-element join is
    # trivial), so the empty set and the pairs decide it.  check_ca runs
    # this law on lattices only (check_cs has passed), where the join of
    # a pair is one lookup, whatever the order of the fold.
    def join_compatible():
        join, bot = m._join, m._fold(0)
        for a in R:
            if not up[p[bot][a]] >> bot & 1:
                yield f"par/join compatibility fails for () with {E[a]}"
        for x, y in combinations(R, 2):
            pj, px, py = p[join[x][y]], p[x], p[y]
            for a in R:
                if not up[pj[a]] >> join[px[a]][py[a]] & 1:
                    yield (f"par/join compatibility fails for "
                           f"{(E[x], E[y])} with {E[a]}")

    report += [first_witness("parcomp-abelian-monoid", abelian_monoid()),
               first_witness("parcomp-join-compatible", join_compatible())]


def check_ca(m: FinModel) -> Report:
    report = check_cs(m)
    if not passed(report):
        return report
    _check_parcomp(m, report)
    _check_separator_rules(m, report)
    return report


def check_cpa(m: FinModel) -> Report:
    report = check_ca(m)
    if not passed(report):
        return report
    R, up, p, rhd = range(len(m.carrier)), m._up, m._par, m._rhd

    def rhd_adjunction():
        for a, b in product(R, repeat=2):
            ua, upab, rb = up[a], up[p[a][b]], rhd[b]
            for c in R:
                if (upab >> c & 1) != (ua >> rb[c] & 1):
                    yield f"rhd adjunction fails at {_at(m, a, b, c)}"

    report.append(first_witness("rhd-adjunction", rhd_adjunction()))
    return report


def check_ccpa(m: FinModel) -> Report:
    report = check_cpa(m)
    if not passed(report):
        return report
    report.append(first_witness("m-present", [] if m.window and m.m_table
                                else ["model has no [window]/[M] sections"]))
    if not report[-1][1]:
        return report

    def m_injective():
        seen: dict[Element, tuple[int, int]] = {}
        for a, x in product(m.window, repeat=2):
            try:
                val = m.m(a, x)
            except ModelError as exc:
                yield str(exc)
                continue
            if seen.setdefault(val, (a, x)) != (a, x):
                yield (f"M not injective on the window: M{seen[val]} = "
                       f"M({a},{x}) = {val}")

    report.append(first_witness("m-injective-on-window", m_injective()))
    if not report[-1][1]:
        return report
    hy = m.hy()

    def hy_in_separator():
        for label, table in hy.items():
            for args, value in table.items():
                if value not in m.separator:
                    yield f"{label}{args} = {value} is outside the separator"

    # Each combinator is a meet of rhd(M(a,x), r) values over the window,
    # so it lies below each of them, and every reduction inequality
    # X|M(a,x) <= r is an instance of rhd-adjunction, which check_cpa
    # has passed; the row cannot fail here.
    report += [first_witness("hy-in-separator", hy_in_separator()),
               ("hy-reduction-inequalities", True, "")]
    return report


def check_derived_props(m: FinModel) -> Report:
    E, R = m.carrier, range(len(m.carrier))

    def dual_de_morgan():
        join, meet = m._join, m._meet
        for a, b in product(R, repeat=2):
            if meet[a][b] is None:
                m.meet([E[a], E[b]])
            if join[perp[a]][perp[b]] is None:
                m.join2(E[perp[a]], E[perp[b]])
            if perp[meet[a][b]] != join[perp[a]][perp[b]]:
                yield f"dual De Morgan fails at {_at(m, a, b)}"

    def arrow_meet():
        meet = m._meet
        for a, b in product(R, repeat=2):
            aa, mb = arrow[a], meet[b]
            for c in R:
                if mb[c] is None:
                    m.meet([E[b], E[c]])
                if meet[aa[b]][aa[c]] is None:
                    m.meet([E[aa[b]], E[aa[c]]])
                if aa[mb[c]] != meet[aa[b]][aa[c]]:
                    yield ("arrow/meet distributivity fails at "
                           f"{_at(m, a, b, c)}")

    def monotonicity():
        for a, b in product(R, repeat=2):
            if not up[a] >> b & 1:
                continue
            for g in R:
                if not up[parr[g][a]] >> parr[g][b] & 1 or \
                        not up[parr[a][g]] >> parr[b][g] & 1:
                    yield f"parr not monotone at {E[a]} <= {E[b]} with {E[g]}"
            for g in R:
                if not up[arrow[g][a]] >> arrow[g][b] & 1 or \
                        not up[arrow[b][g]] >> arrow[a][g] & 1:
                    yield (f"arrow variance fails at {E[a]} <= {E[b]} with "
                           f"{E[g]}")

    def arrow_as_parr():
        for a, b in product(R, repeat=2):
            if arrow[a][b] != parr[perp[a]][b]:
                yield f"arrow is not perp-parr at {_at(m, a, b)}"

    def unit_counit():
        star = m._star
        for a, b in product(R, repeat=2):
            if star[arrow[a][b]][a] is None:
                m.star(E[arrow[a][b]], E[a])
            if up[star[arrow[a][b]][a]] >> b & 1:
                if star[a][b] is None:
                    m.star(E[a], E[b])
                if up[a] >> arrow[b][star[a][b]] & 1:
                    continue
            yield f"star/arrow unit-counit fails at {_at(m, a, b)}"

    def star_closed():
        star = m._star
        inside = [a for a in R if sep[a]]
        for a, b in product(inside, repeat=2):
            if star[a][b] is None:
                m.star(E[a], E[b])
            if not sep[star[a][b]]:
                yield f"separator not closed under star at {_at(m, a, b)}"

    def identities():
        for a in R:
            if not sep[arrow[a][a]]:
                yield f"{E[a]} -> {E[a]} is outside the separator"

    def join_upcast():
        join = m._join
        for g, a in product(R, repeat=2):
            pg, ja = parr[g], join[a]
            for b in R:
                if ja[b] is None:
                    m.join2(E[a], E[b])
                if not up[pg[a]] >> pg[ja[b]] & 1:
                    yield f"parr/join upcast fails at {_at(m, g, a, b)}"

    def perp_commutation():
        for a, b in product(R, repeat=2):
            if not sep[arrow[perp[t[a][b]]][perp[t[b][a]]]]:
                yield f"perp-commutation realizer missing at {_at(m, a, b)}"

    def semi_distribution():
        for a, b in product(R, repeat=2):
            pa, tab, tb = parr[a], t[parr[a][b]], t[b]
            for c in R:
                if not sep[arrow[tab[c]][pa[tb[c]]]]:
                    yield ("semi-distribution realizer missing at "
                           f"{_at(m, a, b, c)}")

    def cut_scheme():
        for g, a in product(R, repeat=2):
            pg, tga, ta = parr[g], t[parr[g][a]], t[a]
            for b in R:
                pb, pab = parr[b], parr[ta[b]]
                for d in R:
                    if not sep[arrow[tga[pb[d]]][pg[pab[d]]]]:
                        yield f"cut realizer missing at {_at(m, g, a, b, d)}"

    try:
        up, sep = m._up, m._sep
        t, perp, parr, arrow = m._tensor, m._perp, m._parr, m._arrow
        return [
            first_witness("dual-de-morgan", dual_de_morgan()),
            first_witness("arrow-meet-distributive", arrow_meet()),
            first_witness("parr-arrow-monotonicity", monotonicity()),
            first_witness("arrow-as-parr", arrow_as_parr()),
            first_witness("star-arrow-adjunction-pair", unit_counit()),
            first_witness("separator-star-closed", star_closed()),
            first_witness("identity-in-separator", identities()),
            first_witness("parr-join-upcast", join_upcast()),
            first_witness("tensor-perp-commutation", perp_commutation()),
            first_witness("parr-tensor-semi-distribution",
                          semi_distribution()),
            first_witness("cut-scheme-in-separator", cut_scheme())]
    except ModelError as exc:
        # not a lattice: the joins and meets these laws read do not exist
        return [("all-joins-exist", False, str(exc))]


def shipped_model_names() -> list[str]:
    root = resources.files("fusioncalc") / "models"
    return sorted(path.name[:-len(".model")] for path in root.iterdir()
                  if path.name.endswith(".model"))


def load_model(name: str) -> FinModel:
    """Load a shipped model by name, or any model file by path."""
    root = resources.files("fusioncalc") / "models"
    candidate = root / f"{name}.model"
    if candidate.is_file():
        return parse_model(candidate.read_text(encoding="utf-8"))
    with open(name, encoding="utf-8") as handle:
        return parse_model(handle.read())


def hom_compose(m: FinModel, s: Element, t: Element,
                a: Element, b: Element, c: Element) -> Element:
    if s not in m.separator or not m.le(s, m.arrow(a, b)):
        raise ModelError(f"{s} is not in Hom({a},{b})")
    if t not in m.separator or not m.le(t, m.arrow(b, c)):
        raise ModelError(f"{t} is not in Hom({b},{c})")
    out = m.star(m.star(m.s4(), s), t)
    if out not in m.separator or not m.le(out, m.arrow(a, c)):
        raise ModelError("composite escaped Hom; model is not a CA")
    return out
