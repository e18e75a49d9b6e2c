"""Reference checkers over carrier elements, for differential tests of
the `calgebra` checkers.

These are the law checkers as they stood before `FinModel` kept its
operations as tables over carrier positions: every law quantifies over
carrier elements and reads the model through its element-level methods
(`le`, `join2`, `meet`, `arrow`, `star`, `rhd`, ...), the `parr` and
`join` below, and its `tensor`, `perp` and `parcomp` dicts.  The witness of a failing row is
the first counterexample in carrier order, with the quantifiers nested
as each law states them.
"""

from itertools import chain, combinations, product

from fusioncalc.calgebra import (Element, FinModel, ModelError, Report,
                                 first_witness, passed)


def parr(m: FinModel, a: Element, b: Element) -> Element:
    """a ⅋ b read from the model's position table, as `mll` reads it."""
    return m.carrier[m._parr[m._pos[a]][m._pos[b]]]


def join(m: FinModel, elems) -> Element:
    """The join of `elems`, folded by `join2` from bottom."""
    out = m.bottom()
    for e in elems:
        out = m.join2(out, e)
    return out


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
            joined = join(m, subset)
            for a in m.carrier:
                rhs = join(m, (p[b, a] for b in subset))
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


def hy_reduction_failures(m: FinModel):
    """The `hy-reduction-inequalities` law over carrier positions, as
    `check_ccpa` computed it before it reported the row as implied by
    `rhd-adjunction`: a witness per inequality X|M(a,x) <= r that fails.
    Needs M defined on the whole window."""
    hy = m.hy()
    w, pos, up, p = m.window, m._pos, m._up, m._par
    mm = {(a, x): pos[m.m(a, x)] for a, x in product(w, repeat=2)}
    K, F, Bl, Br, D, S = ({args: pos[v] for args, v in hy[label].items()}
                          for label in ("K", "F", "Bl", "Br", "D", "S"))
    unit = pos[m.unit]
    for a, x in product(w, repeat=2):
        pax = mm[a, x]
        if not up[p[K[a,]][pax]] >> unit & 1:
            yield f"K({a})|M({a},{x}) exceeds 1"
        for b in w:
            if not up[p[F[a, b]][pax]] >> mm[b, x] & 1:
                yield f"F({a},{b})|M({a},{x}) exceeds M({b},{x})"
            if not up[p[Bl[a, b]][pax]] >> F[x, b] & 1:
                yield f"Bl({a},{b})|M({a},{x}) exceeds F({x},{b})"
            if not up[p[Br[a, b]][pax]] >> F[b, x] & 1:
                yield f"Br({a},{b})|M({a},{x}) exceeds F({b},{x})"
            for c in w:
                if not up[p[D[a, b, c]][pax]] >> \
                        p[mm[b, x]][mm[c, x]] & 1:
                    yield f"D({a},{b},{c})|M({a},{x}) exceeds M|M"
                if not up[p[S[a, b, c]][pax]] >> F[b, c] & 1:
                    yield (f"S({a},{b},{c})|M({a},{x}) exceeds "
                           f"F({b},{c})")


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
                if not m.le(parr(m, g, a), parr(m, g, b)) or \
                        not m.le(parr(m, a, g), parr(m, b, g)):
                    yield f"parr not monotone at {a} <= {b} with {g}"
            for g in m.carrier:
                if not m.le(m.arrow(g, a), m.arrow(g, b)) or \
                        not m.le(m.arrow(b, g), m.arrow(a, g)):
                    yield f"arrow variance fails at {a} <= {b} with {g}"

    def arrow_as_parr():
        for a, b in product(m.carrier, repeat=2):
            if m.arrow(a, b) != parr(m, m.perp[a], b):
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
            if not m.le(parr(m, g, a), parr(m, g, m.join2(a, b))):
                yield f"parr/join upcast fails at {g}, {a}, {b}"

    def perp_commutation():
        for a, b in product(m.carrier, repeat=2):
            if m.arrow(m.perp[m.tensor[a, b]], m.perp[m.tensor[b, a]]) \
                    not in sep:
                yield f"perp-commutation realizer missing at {a}, {b}"

    def semi_distribution():
        for a, b, c in product(m.carrier, repeat=3):
            if m.arrow(m.tensor[parr(m, a, b), c],
                       parr(m, a, m.tensor[b, c])) not in sep:
                yield f"semi-distribution realizer missing at {a}, {b}, {c}"

    def cut_scheme():
        for g, a, b, d in product(m.carrier, repeat=4):
            if m.arrow(m.tensor[parr(m, g, a), parr(m, b, d)],
                       parr(m, g, parr(m, m.tensor[a, b], d))) not in sep:
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
