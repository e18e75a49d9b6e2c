"""Finite-model checker for conjunctive structures and algebras.

Models are finite carriers with a lattice order (given as `leq` pairs or
a join table), a tensor table, an involutive antitone orthogonal map, an
optional parallel-composition table, and an optional name-indexed
injection M restricted to a finite name window.

Each model builds its lattice tables once: the up-set and down-set of
every element as a bitmask over the carrier, bottom and top, and a memo
of binary joins (bit-vector encoding as in Ait-Kaci, Boyer, Lincoln and
Nasr, "Efficient Implementation of Lattice Operations", TOPLAS 1989).
A binary join is the element whose up-set contains the intersection of
the two up-sets; a meet folds joins over its lower bounds, the
intersection of the down-sets.  All quantified axioms are checked by
exhaustive enumeration (par/join compatibility on the empty and the
two-element joins, which imply it for every finite join), so every
verdict is decided for the model at hand.

Each law is a lazy sequence of its counterexamples, and a failing row
reports the first: the first in carrier order, with the quantifiers
nested as the law states them and the separator, too, walked in carrier
order.  `first_witness` turns a sequence into a row and computes no
counterexample beyond the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from itertools import chain, combinations, product
from typing import Iterable, Optional

Element = str
Report = list[tuple[str, bool, str]]


class ModelError(Exception):
    pass


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
        # they are at construction): the up-set and down-set of each
        # element as a bitmask over carrier positions, the join memo, and
        # bottom/top (None when absent).  The relation is encoded as
        # given, so on a non-lattice the operations fail as a carrier
        # scan would, with the same messages.
        bit = {c: 1 << i for i, c in enumerate(self.carrier)}
        self._up = dict.fromkeys(self.carrier, 0)
        self._down = dict.fromkeys(self.carrier, 0)
        for a, b in self.leq:
            self._up[a] = self._up.get(a, 0) | bit.get(b, 0)
            self._down[b] = self._down.get(b, 0) | bit.get(a, 0)
        self._joins: dict[tuple[Element, Element], Optional[Element]] = {}
        full = (1 << len(self.carrier)) - 1
        self._bottom = next((c for c in self.carrier
                             if self._up[c] == full), None)
        self._top = next((c for c in self.carrier
                          if self._down[c] == full), None)

    # -- lattice ------------------------------------------------------

    def le(self, a: Element, b: Element) -> bool:
        return (a, b) in self.leq

    def join2(self, a: Element, b: Element) -> Element:
        try:
            out = self._joins[a, b]
        except KeyError:
            uppers = self._up.get(a, 0) & self._up.get(b, 0)
            least = [c for i, c in enumerate(self.carrier)
                     if uppers >> i & 1 and self._up[c] & uppers == uppers]
            out = self._joins[a, b] = least[0] if len(least) == 1 else None
        if out is None:
            raise ModelError(f"join of {a} and {b} does not exist")
        return out

    def join(self, elems: Iterable[Element]) -> Element:
        out = self.bottom()
        for e in elems:
            out = self.join2(out, e)
        return out

    def meet(self, elems: Iterable[Element]) -> Element:
        lowers = (1 << len(self.carrier)) - 1
        for e in elems:
            lowers &= self._down.get(e, 0)
        return self.join(c for i, c in enumerate(self.carrier)
                         if lowers >> i & 1)

    def bottom(self) -> Element:
        if self._bottom is None:
            raise ModelError("carrier has no bottom element")
        return self._bottom

    def top(self) -> Element:
        if self._top is None:
            raise ModelError("carrier has no top element")
        return self._top

    # -- derived operators --------------------------------------------

    def parr(self, a: Element, b: Element) -> Element:
        return self.perp[self.tensor[self.perp[a], self.perp[b]]]

    def arrow(self, a: Element, b: Element) -> Element:
        return self.perp[self.tensor[a, self.perp[b]]]

    def star(self, a: Element, b: Element) -> Element:
        return self.meet(c for c in self.carrier
                         if self.le(a, self.arrow(b, c)))

    def rhd(self, b: Element, c: Element) -> Element:
        if self.parcomp is None:
            raise ModelError("model has no parallel composition")
        return self.join(x for x in self.carrier
                         if self.le(self.parcomp[x, b], c))

    def exists(self, f) -> Element:
        return self.join(f(a) for a in self.carrier)

    # -- combinators --------------------------------------------------

    def s3(self) -> Element:
        return self.meet(self.arrow(self.tensor[a, b], self.tensor[b, a])
                         for a in self.carrier for b in self.carrier)

    def s4(self) -> Element:
        return self.meet(
            self.arrow(self.arrow(a, b),
                       self.arrow(self.arrow(b, c), self.arrow(a, c)))
            for a in self.carrier for b in self.carrier
            for c in self.carrier)

    def s5(self) -> Element:
        return self.meet(
            self.arrow(self.tensor[self.tensor[a, b], c],
                       self.tensor[a, self.tensor[b, c]])
            for a in self.carrier for b in self.carrier
            for c in self.carrier)

    def s6(self) -> Element:
        return self.meet(self.arrow(a, self.tensor[self.unit, a])
                         for a in self.carrier)

    def s7(self) -> Element:
        return self.meet(self.arrow(self.tensor[self.unit, a], a)
                         for a in self.carrier)

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
        for a in carrier:
            leq.add((a, a))
        changed = True
        while changed:  # transitive closure
            changed = False
            for (a, b), (c, d) in product(list(leq), repeat=2):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True

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


def first_witness(name: str, witnesses: Iterable[str]
                  ) -> tuple[str, bool, str]:
    """The report row of law `name`: it passes when `witnesses` is empty
    and otherwise fails with the first witness, the only one computed."""
    w = next(iter(witnesses), None)
    return (name, w is None, w or "")


def passed(report: Report) -> bool:
    return all(ok for _, ok, _ in report)


def check_cs(m: FinModel) -> Report:
    def partial_order():
        for a, b in product(m.carrier, repeat=2):
            if m.le(a, b) and m.le(b, a) and a != b:
                yield f"antisymmetry fails on {a}, {b}"
        for a, b, c in product(m.carrier, repeat=3):
            if m.le(a, b) and m.le(b, c) and not m.le(a, c):
                yield f"transitivity fails on {a} <= {b} <= {c}"
        for a in m.carrier:
            if not m.le(a, a):
                yield f"reflexivity fails at {a}"

    def joins():
        try:
            m.bottom()
            for a, b in product(m.carrier, repeat=2):
                m.join2(a, b)
        except ModelError as exc:
            yield str(exc)

    report = [first_witness("order-is-partial", partial_order()),
              first_witness("all-joins-exist", joins())]
    if not report[-1][1]:
        return report
    bot = m.bottom()

    def tensor_monotone():
        for a, b, c in product(m.carrier, repeat=3):
            if m.le(a, b):
                if not m.le(m.tensor[a, c], m.tensor[b, c]) or \
                        not m.le(m.tensor[c, a], m.tensor[c, b]):
                    yield f"tensor not monotone at {a} <= {b} with {c}"

    def tensor_distributive():
        for a, b, c in product(m.carrier, repeat=3):
            if m.tensor[a, m.join2(b, c)] != \
                    m.join2(m.tensor[a, b], m.tensor[a, c]) or \
                    m.tensor[m.join2(b, c), a] != \
                    m.join2(m.tensor[b, a], m.tensor[c, a]):
                yield f"tensor/join distributivity fails at {a}, {b}, {c}"
        for a in m.carrier:
            if m.tensor[a, bot] != bot or m.tensor[bot, a] != bot:
                yield f"tensor does not absorb the empty join at {a}"

    def perp_involutive():
        for a in m.carrier:
            if m.perp[m.perp[a]] != a:
                yield f"perp not involutive at {a}"

    def perp_antitone():
        for a, b in product(m.carrier, repeat=2):
            if m.le(a, b) and not m.le(m.perp[b], m.perp[a]):
                yield f"perp not antitone at {a} <= {b}"

    def de_morgan():
        for a, b in product(m.carrier, repeat=2):
            if m.perp[m.join2(a, b)] != m.meet([m.perp[a], m.perp[b]]):
                yield (f"perp(join({a},{b})) = {m.perp[m.join2(a, b)]} but "
                       f"meet of perps = {m.meet([m.perp[a], m.perp[b]])}")
        if m.perp[bot] != m.top():
            yield "perp of bottom is not top"

    return report + [
        first_witness("tensor-monotone", tensor_monotone()),
        first_witness("tensor-join-distributive", tensor_distributive()),
        first_witness("perp-involutive", perp_involutive()),
        first_witness("perp-antitone", perp_antitone()),
        first_witness("perp-de-morgan", de_morgan())]


def _check_separator_rules(m: FinModel, report: Report) -> None:
    sep = m.separator
    combs = m.combinators()

    def ax():
        for name, value in combs.items():
            if value not in sep:
                yield f"(ax): {name} = {value} is outside the separator"

    def upc():
        for a in m.carrier:
            if a in sep:
                for b in m.carrier:
                    if m.le(a, b) and b not in sep:
                        yield f"(upc): {a} <= {b} but {b} outside"

    def mp():
        for a, b in product(m.carrier, repeat=2):
            if m.arrow(a, b) in sep and a in sep and b not in sep:
                yield f"(mp): {a} -> {b} and {a} inside but {b} outside"

    def ctx():
        for a, b, c in product(m.carrier, repeat=3):
            if m.arrow(a, b) in sep and \
                    m.arrow(m.tensor[a, c], m.tensor[b, c]) not in sep:
                yield f"(ctx) fails at {a}, {b}, {c}"

    def ctr():
        for a, b in product(m.carrier, repeat=2):
            if m.arrow(a, b) in sep and \
                    m.arrow(m.perp[b], m.perp[a]) not in sep:
                yield f"(ctr) fails at {a}, {b}"

    report += [first_witness("separator-ax", ax()),
               first_witness("separator-upc", upc()),
               first_witness("separator-mp", mp()),
               first_witness("separator-ctx", ctx()),
               first_witness("separator-ctr", ctr()),
               first_witness("separator-unit", [] if m.unit in sep
                             else ["1 is outside the separator"])]


def _check_parcomp(m: FinModel, report: Report) -> None:
    p = m.parcomp
    if p is None:
        report.append(first_witness("parcomp-present",
                                    ["model has no [par] section"]))
        return

    def abelian_monoid():
        for a, b, c in product(m.carrier, repeat=3):
            if p[p[a, b], c] != p[a, p[b, c]]:
                yield f"par not associative at {a}, {b}, {c}"
        for a, b in product(m.carrier, repeat=2):
            if p[a, b] != p[b, a]:
                yield f"par not commutative at {a}, {b}"
        for a in m.carrier:
            if p[a, m.unit] != a:
                yield f"par unit fails at {a}"

    # In a lattice the empty and the two-element joins imply the law for
    # every finite join, by induction on the fold (a one-element join is
    # trivial), so the empty set and the pairs decide it.
    def join_compatible():
        for subset in chain([()], combinations(m.carrier, 2)):
            joined = m.join(subset)
            for a in m.carrier:
                rhs = m.join(p[b, a] for b in subset)
                if not m.le(p[joined, a], rhs):
                    yield (f"par/join compatibility fails for {subset} "
                           f"with {a}")

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

    def rhd_adjunction():
        for a, b, c in product(m.carrier, repeat=3):
            if m.le(m.parcomp[a, b], c) != m.le(a, m.rhd(b, c)):
                yield f"rhd adjunction fails at {a}, {b}, {c}"

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

    def hy_reductions():
        p, mm = m.parcomp, m.m
        for a, x in product(m.window, repeat=2):
            if not m.le(p[hy["K"][a,], mm(a, x)], m.unit):
                yield f"K({a})|M({a},{x}) exceeds 1"
            for b in m.window:
                if not m.le(p[hy["F"][a, b], mm(a, x)], mm(b, x)):
                    yield f"F({a},{b})|M({a},{x}) exceeds M({b},{x})"
                if not m.le(p[hy["Bl"][a, b], mm(a, x)], hy["F"][x, b]):
                    yield f"Bl({a},{b})|M({a},{x}) exceeds F({x},{b})"
                if not m.le(p[hy["Br"][a, b], mm(a, x)], hy["F"][b, x]):
                    yield f"Br({a},{b})|M({a},{x}) exceeds F({b},{x})"
                for c in m.window:
                    if not m.le(p[hy["D"][a, b, c], mm(a, x)],
                                p[mm(b, x), mm(c, x)]):
                        yield f"D({a},{b},{c})|M({a},{x}) exceeds M|M"
                    if not m.le(p[hy["S"][a, b, c], mm(a, x)],
                                hy["F"][b, c]):
                        yield (f"S({a},{b},{c})|M({a},{x}) exceeds "
                               f"F({b},{c})")

    report += [first_witness("hy-in-separator", hy_in_separator()),
               first_witness("hy-reduction-inequalities", hy_reductions())]
    return report


def check_derived_props(m: FinModel) -> Report:
    sep = m.separator

    def dual_de_morgan():
        for a, b in product(m.carrier, repeat=2):
            if m.perp[m.meet([a, b])] != m.join2(m.perp[a], m.perp[b]):
                yield f"dual De Morgan fails at {a}, {b}"

    def arrow_meet():
        for a, b, c in product(m.carrier, repeat=3):
            if m.arrow(a, m.meet([b, c])) != \
                    m.meet([m.arrow(a, b), m.arrow(a, c)]):
                yield f"arrow/meet distributivity fails at {a}, {b}, {c}"

    def monotonicity():
        for a, b in product(m.carrier, repeat=2):
            if not m.le(a, b):
                continue
            for g in m.carrier:
                if not m.le(m.parr(g, a), m.parr(g, b)) or \
                        not m.le(m.parr(a, g), m.parr(b, g)):
                    yield f"parr not monotone at {a} <= {b} with {g}"
            for g in m.carrier:
                if not m.le(m.arrow(g, a), m.arrow(g, b)) or \
                        not m.le(m.arrow(b, g), m.arrow(a, g)):
                    yield f"arrow variance fails at {a} <= {b} with {g}"

    def arrow_as_parr():
        for a, b in product(m.carrier, repeat=2):
            if m.arrow(a, b) != m.parr(m.perp[a], b):
                yield f"arrow is not perp-parr at {a}, {b}"

    def unit_counit():
        for a, b in product(m.carrier, repeat=2):
            if not m.le(m.star(m.arrow(a, b), a), b) or \
                    not m.le(a, m.arrow(b, m.star(a, b))):
                yield f"star/arrow unit-counit fails at {a}, {b}"

    def star_closed():
        inside = [a for a in m.carrier if a in sep]
        for a, b in product(inside, repeat=2):
            if m.star(a, b) not in sep:
                yield f"separator not closed under star at {a}, {b}"

    def identities():
        for a in m.carrier:
            if m.arrow(a, a) not in sep:
                yield f"{a} -> {a} is outside the separator"

    def join_upcast():
        for g, a, b in product(m.carrier, repeat=3):
            if not m.le(m.parr(g, a), m.parr(g, m.join2(a, b))):
                yield f"parr/join upcast fails at {g}, {a}, {b}"

    def perp_commutation():
        for a, b in product(m.carrier, repeat=2):
            if m.arrow(m.perp[m.tensor[a, b]], m.perp[m.tensor[b, a]]) \
                    not in sep:
                yield f"perp-commutation realizer missing at {a}, {b}"

    def semi_distribution():
        for a, b, c in product(m.carrier, repeat=3):
            if m.arrow(m.tensor[m.parr(a, b), c],
                       m.parr(a, m.tensor[b, c])) not in sep:
                yield f"semi-distribution realizer missing at {a}, {b}, {c}"

    def cut_scheme():
        for g, a, b, d in product(m.carrier, repeat=4):
            if m.arrow(m.tensor[m.parr(g, a), m.parr(b, d)],
                       m.parr(g, m.parr(m.tensor[a, b], d))) not in sep:
                yield f"cut realizer missing at {g}, {a}, {b}, {d}"

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
        first_witness("parr-tensor-semi-distribution", semi_distribution()),
        first_witness("cut-scheme-in-separator", cut_scheme())]


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
