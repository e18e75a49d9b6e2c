import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

import calgebra_reference as reference
from fusioncalc.calgebra import (FinModel, ModelError, _check_parcomp,
                                 _closure, check_ca, check_ccpa, check_cpa,
                                 check_cs,
                                 check_derived_props, hom_compose, load_model,
                                 parse_model, passed, shipped_model_names)


@pytest.fixture(scope="module")
def boolean2():
    return load_model("boolean2")


@pytest.fixture(scope="module")
def boolean4():
    return load_model("boolean4")


def test_shipped_models_present():
    assert shipped_model_names() == ["boolean2", "boolean4",
                                     "mutated_diamond"]


def test_parse_rejects_malformed_models():
    with pytest.raises(ModelError):
        parse_model("[carrier]\n0 0\n")
    with pytest.raises(ModelError):
        parse_model("[carrier]\n0 1\n[leq]\n0 <= 1\n[tensor]\n0 0 -> 0\n")
    with pytest.raises(ModelError):
        parse_model("[weird]\n")
    with pytest.raises(ModelError):
        parse_model("stray tokens\n")


def test_join_table_cross_checked_against_leq():
    base = ("[carrier]\n0 1\n[leq]\n0 <= 1\n"
            "[tensor]\n0 0 -> 0\n0 1 -> 0\n1 0 -> 0\n1 1 -> 1\n"
            "[perp]\n0 -> 1\n1 -> 0\n[unit]\n1\n[separator]\n1\n")
    good = base + "[join]\n0 0 -> 0\n0 1 -> 1\n1 0 -> 1\n1 1 -> 1\n"
    assert parse_model(good).join2("0", "1") == "1"
    bad = base + "[join]\n0 0 -> 0\n0 1 -> 0\n1 0 -> 1\n1 1 -> 1\n"
    with pytest.raises(ModelError):
        parse_model(bad)


def test_boolean_arrow_is_material_implication(boolean2):
    m = boolean2
    assert m.arrow("0", "0") == "1"
    assert m.arrow("0", "1") == "1"
    assert m.arrow("1", "0") == "0"
    assert m.arrow("1", "1") == "1"


def test_meet_derived_from_joins(boolean4):
    m = boolean4
    assert m.meet(["a", "b"]) == "0"
    assert m.meet(["a", "1"]) == "a"
    assert m.meet([]) == "1"
    assert reference.join(m, []) == "0"


def test_star_arrow_adjunction_all_triples(boolean4):
    m = boolean4
    for a, b, c in itertools.product(m.carrier, repeat=3):
        assert m.le(m.star(a, b), c) == m.le(a, m.arrow(b, c))


def test_rhd_adjunction_all_triples(boolean4):
    m = boolean4
    for a, b, c in itertools.product(m.carrier, repeat=3):
        assert m.le(m.parcomp[a, b], c) == m.le(a, m.rhd(b, c))


@pytest.mark.parametrize("name", ["boolean2", "boolean4"])
def test_boolean_models_are_conjunctive_algebras(name):
    m = load_model(name)
    assert passed(check_cs(m))
    assert passed(check_ca(m))
    assert passed(check_cpa(m))
    assert passed(check_derived_props(m))
    assert set(m.combinators().values()) == {"1"}


def test_mutated_model_rejected_with_de_morgan_witness():
    report = check_cs(load_model("mutated_diamond"))
    assert not passed(report)
    entries = {name: (ok, witness) for name, ok, witness in report}
    ok, witness = entries["perp-de-morgan"]
    assert not ok and witness


def test_separator_missing_unit_is_flagged():
    text = ("[carrier]\n0 1\n[leq]\n0 <= 1\n"
            "[tensor]\n0 0 -> 0\n0 1 -> 0\n1 0 -> 0\n1 1 -> 1\n"
            "[perp]\n0 -> 1\n1 -> 0\n[unit]\n1\n"
            "[par]\n0 0 -> 0\n0 1 -> 0\n1 0 -> 0\n1 1 -> 1\n"
            "[separator]\n0\n")
    report = check_ca(parse_model(text))
    entries = {name: ok for name, ok, _ in report}
    assert entries["separator-unit"] is False
    assert entries["separator-upc"] is False  # 0 <= 1 but 1 missing


def test_ccpa_pigeonhole_on_two_element_carrier(boolean2):
    report = check_ccpa(boolean2)
    entries = {name: (ok, witness) for name, ok, witness in report}
    ok, witness = entries["m-injective-on-window"]
    assert not ok and "injective" in witness


def test_ccpa_on_injective_window_reports_hy_membership(boolean4):
    report = check_ccpa(boolean4)
    entries = {name: (ok, witness) for name, ok, witness in report}
    assert entries["m-injective-on-window"][0]
    assert not entries["hy-in-separator"][0]


def test_hom_compose(boolean2):
    m = boolean2
    assert hom_compose(m, "1", "1", "1", "1", "1") == "1"
    with pytest.raises(ModelError):
        hom_compose(m, "0", "1", "1", "1", "1")  # 0 is not in the separator
    with pytest.raises(ModelError):
        hom_compose(m, "1", "1", "0", "1", "0")  # 1 is not below 1 -> 0


def test_hy_reduction_inequalities_hold_where_defined(boolean4):
    m = boolean4
    hy = m.hy()
    for a in m.window:
        for x in m.window:
            assert m.le(m.parcomp[hy["K"][a,], m.m(a, x)], m.unit)
            for b in m.window:
                assert m.le(m.parcomp[hy["F"][a, b], m.m(a, x)], m.m(b, x))


# -- operation tables against carrier scans ---------------------------------
#
# The reference operations scan the carrier with `le`, as FinModel did
# before it kept lattice tables, and compute `parr`, `arrow`, `star` and
# `rhd` by their defining formulas over the model's dicts.


def reference_join2(m, a, b):
    uppers = [c for c in m.carrier if m.le(a, c) and m.le(b, c)]
    least = [c for c in uppers if all(m.le(c, d) for d in uppers)]
    if len(least) != 1:
        raise ModelError(f"join of {a} and {b} does not exist")
    return least[0]


def reference_bottom(m):
    for c in m.carrier:
        if all(m.le(c, d) for d in m.carrier):
            return c
    raise ModelError("carrier has no bottom element")


def reference_top(m):
    for c in m.carrier:
        if all(m.le(d, c) for d in m.carrier):
            return c
    raise ModelError("carrier has no top element")


def reference_join(m, elems):
    out = reference_bottom(m)
    for e in elems:
        out = reference_join2(m, out, e)
    return out


def reference_meet(m, elems):
    lowers = [c for c in m.carrier if all(m.le(c, e) for e in elems)]
    return reference_join(m, lowers)


def reference_parr(m, a, b):
    return m.perp[m.tensor[m.perp[a], m.perp[b]]]


def reference_arrow(m, a, b):
    return m.perp[m.tensor[a, m.perp[b]]]


def reference_star(m, a, b):
    return reference_meet(m, [c for c in m.carrier
                              if m.le(a, reference_arrow(m, b, c))])


def reference_rhd(m, b, c):
    if m.parcomp is None:
        raise ModelError("model has no parallel composition")
    # a join starts from bottom before it reads its elements
    return reference_join(m, (x for x in m.carrier
                              if m.le(m.parcomp[x, b], c)))


def reference_join_compatible(m):
    """The parcomp-join-compatible row by the earlier subset enumeration:
    every subset by size up to 12 elements, 2,048 sampled ones above."""
    p = m.parcomp
    n = len(m.carrier)
    subsets = (itertools.chain.from_iterable(
        itertools.combinations(m.carrier, k) for k in range(n + 1))
        if 2 ** n <= 4096 else
        (tuple(m.carrier[i] for i in range(n) if k >> i & 1)
         for k in range(0, 2 ** n, max(1, 2 ** n // 2048))))
    w = None
    for subset in subsets:
        joined = reference.join(m, subset)
        for a in m.carrier:
            rhs = reference.join(m, (p[b, a] for b in subset))
            if not m.le(p[joined, a], rhs):
                w = f"par/join compatibility fails for {subset} with {a}"
                break
        if w:
            break
    return ("parcomp-join-compatible", w is None, w or "")


def join_compatible_row(m):
    report = []
    _check_parcomp(m, report)
    return report[-1]


def outcome(f, *args):
    try:
        return f(*args)
    except ModelError as exc:
        return "ModelError", str(exc)
    except KeyError:  # an element outside the carrier, or a missing row
        return "KeyError"


def order_model(carrier, leq, parcomp=None):
    """A model with only its order (and par) filled in."""
    return FinModel(carrier=tuple(carrier), leq=frozenset(leq), tensor={},
                    perp={}, unit=carrier[-1], parcomp=parcomp)


@st.composite
def closure_lattices(draw, max_size=12):
    """A lattice of at most max_size elements: subsets of a set of at most
    four, closed under intersection and holding the full set, ordered by
    inclusion and listed in a drawn order."""
    rng = draw(st.randoms(use_true_random=False))
    k = rng.randint(0, 4)
    full = frozenset(range(k))
    family = {full}
    target = rng.randint(1, max_size)
    for _ in range(4 * max_size):
        if len(family) >= target:
            break
        grown = family | {frozenset(x for x in full if rng.random() < 0.5)}
        while True:
            closed = grown | {a & b for a in grown for b in grown}
            if closed == grown:
                break
            grown = closed
        if len(grown) <= max_size:
            family = grown
    members = sorted(family, key=sorted)
    rng.shuffle(members)
    name = {a: "s" + "".join(map(str, sorted(a))) for a in members}
    leq = {(name[a], name[b]) for a in members for b in members if a <= b}
    return [name[a] for a in members], leq


@st.composite
def finite_orders(draw):
    """Arbitrary relations, their reflexive-transitive closures, and
    lattices: the tables must agree with the scans on non-lattices too."""
    kind = draw(st.sampled_from(["relation", "preorder", "lattice"]))
    if kind == "lattice":
        return draw(closure_lattices())
    n = draw(st.integers(1, 6))
    carrier = [f"e{i}" for i in draw(st.permutations(range(n)))]
    elem = st.sampled_from(carrier)
    leq = set(draw(st.sets(st.tuples(elem, elem), max_size=n * n)))
    if kind == "preorder":
        leq |= {(a, a) for a in carrier}
        for b, a, c in itertools.product(carrier, repeat=3):
            if (a, b) in leq and (b, c) in leq:
                leq.add((a, c))
    return carrier, leq


def drawn_table(rng, carrier, arity):
    return {key if arity > 1 else key[0]: rng.choice(carrier)
            for key in itertools.product(carrier, repeat=arity)}


@given(finite_orders(), st.data())
@settings(max_examples=200, deadline=None)
def test_lattice_tables_match_carrier_scans(order, data):
    carrier, leq = order
    rng = data.draw(st.randoms(use_true_random=False))
    m = FinModel(carrier=tuple(carrier), leq=frozenset(leq),
                 tensor=drawn_table(rng, carrier, 2),
                 perp=drawn_table(rng, carrier, 1), unit=carrier[-1],
                 parcomp=drawn_table(rng, carrier, 2)
                 if rng.random() < 0.7 else None)
    probes = carrier + ["outside"]
    assert outcome(m.bottom) == outcome(reference_bottom, m)
    assert outcome(m.top) == outcome(reference_top, m)
    for a, b in itertools.product(probes, repeat=2):
        assert outcome(m.join2, a, b) == outcome(reference_join2, m, a, b)
        assert outcome(reference.parr, m, a, b) == outcome(reference_parr, m, a, b)
        assert outcome(m.arrow, a, b) == outcome(reference_arrow, m, a, b)
    for _ in range(5):
        elems = data.draw(st.lists(st.sampled_from(probes), max_size=4))
        assert outcome(reference.join, m, elems) == outcome(reference_join, m, elems)
        assert outcome(m.meet, elems) == outcome(reference_meet, m, elems)
        assert outcome(m.meet, iter(elems)) == \
            outcome(reference_meet, m, elems)
    # the scans behind star and rhd are slow: a drawn sample of pairs
    for _ in range(8):
        a, b = (data.draw(st.sampled_from(probes)) for _ in range(2))
        assert outcome(m.star, a, b) == outcome(reference_star, m, a, b)
        assert outcome(m.rhd, a, b) == outcome(reference_rhd, m, a, b)


@given(closure_lattices(), st.data())
@settings(max_examples=100, deadline=None)
def test_pair_check_matches_subset_enumeration(lattice, data):
    carrier, leq = lattice
    m = order_model(carrier, leq)
    # meet as par with up to three entries redrawn (passes, and failures
    # on pairs), or a table drawn whole (mostly failures on the empty join)
    elem = st.sampled_from(carrier)
    if data.draw(st.booleans()):
        par = {(a, b): m.meet([a, b]) for a in carrier for b in carrier}
        for _ in range(data.draw(st.integers(0, 3))):
            par[data.draw(st.sampled_from(sorted(par)))] = data.draw(elem)
    else:
        par = {(a, b): data.draw(elem) for a in carrier for b in carrier}
    m = order_model(carrier, leq, par)
    assert join_compatible_row(m) == reference_join_compatible(m)


def redrawn(rng, table, carrier):
    """`table` with a cell redrawn, with a cell and its mirror set to one
    drawn value (a commutative table stays commutative), or drawn
    whole."""
    roll = rng.random()
    if roll < 0.8:
        key = rng.choice(sorted(table))
        mirror = key[::-1] if roll < 0.4 and isinstance(key, tuple) else key
        value = rng.choice(carrier)
        return {**table, key: value, mirror: value}
    return {key: rng.choice(carrier) for key in table}


@st.composite
def drawn_models(draw):
    """Boolean algebras (tensor and par the meet, perp the complement),
    closure lattices and finite_orders (tensor and par the meet where
    every pair has one, perp drawn), with one of the tables or none
    redrawn (`redrawn`), par sometimes absent, a drawn separator, and a
    window with M (injective, not, or missing a row) or none."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["boolean", "boolean", "lattice", "order"]))
    if kind == "boolean":
        full = frozenset(range(rng.randint(1, 3)))
        sets = [frozenset(x for x in full if i >> x & 1)
                for i in range(2 ** len(full))]
        rng.shuffle(sets)
        name = {a: "s" + "".join(map(str, sorted(a))) for a in sets}
        carrier = [name[a] for a in sets]
        leq = {(name[a], name[b]) for a in sets for b in sets if a <= b}
        meet = {(name[a], name[b]): name[a & b] for a in sets for b in sets}
        perp = {name[a]: name[full - a] for a in sets}
        unit = name[full]
    else:
        carrier, leq = draw(closure_lattices(max_size=8) if kind == "lattice"
                            else finite_orders())
        order = order_model(carrier, leq)
        try:
            meet = {(a, b): order.meet([a, b])
                    for a in carrier for b in carrier}
        except ModelError:
            meet = drawn_table(rng, carrier, 2)
        perp = drawn_table(rng, carrier, 1)
        unit = rng.choice(carrier)
    tables = {"tensor": meet, "perp": perp, "par": meet}
    broken = rng.choice([None, None, "tensor", "perp", "par"])
    if broken:
        tables[broken] = redrawn(rng, tables[broken], carrier)
    if rng.random() < 0.15:
        tables["par"] = None
    separator = rng.choice([
        {unit}, {c for c in carrier if (unit, c) in leq}, set(carrier),
        {c for c in carrier if rng.random() < 0.5}])
    window, m_table = (), {}
    if rng.random() < 0.7:
        window = tuple(range(rng.randint(1, 3)))
        pairs = list(itertools.product(window, repeat=2))
        images = (rng.sample(carrier, len(pairs))
                  if len(pairs) <= len(carrier) and rng.random() < 0.8
                  else [rng.choice(carrier) for _ in pairs])
        m_table = dict(zip(pairs, images))
        if rng.random() < 0.15:
            del m_table[rng.choice(pairs)]
    return FinModel(carrier=tuple(carrier), leq=frozenset(leq),
                    tensor=tables["tensor"], perp=tables["perp"], unit=unit,
                    parcomp=tables["par"], window=window, m_table=m_table,
                    separator=frozenset(separator))


@given(drawn_models())
@settings(max_examples=150, deadline=None)
def test_checkers_match_the_element_level_reference(m):
    """Every level, row by row (name, verdict, witness text), or the same
    ModelError, against the checkers over carrier elements; each level
    on a copy of the model that has built no table yet.  Where the
    reference derived-properties check raises on a non-lattice, the
    checker reports the error as a failing `all-joins-exist` row."""
    for check, expected in ((check_cs, reference.check_cs),
                            (check_ca, reference.check_ca),
                            (check_cpa, reference.check_cpa),
                            (check_ccpa, reference.check_ccpa),
                            (check_derived_props,
                             reference.check_derived_props)):
        want = outcome(expected, m)
        if check is check_derived_props and want[0] == "ModelError":
            want = [("all-joins-exist", False, want[1])]
        assert outcome(check, replace(m)) == want, check.__name__


@given(drawn_models())
@example(load_model("boolean2"))
@example(load_model("boolean4"))
@settings(max_examples=150, deadline=None)
def test_hy_reduction_inequalities_follow_from_rhd_adjunction(m):
    """Wherever check_cpa passes and M is defined on the whole window
    (injective or not), no reduction inequality fails, so check_ccpa
    reports the row as a pass without evaluating it."""
    if not (m.window and passed(check_cpa(m)) and all(
            args in m.m_table
            for args in itertools.product(m.window, repeat=2))):
        return
    assert list(reference.hy_reduction_failures(m)) == []


def test_cyclic_join_order_is_not_partial():
    # the derived order a <= c <= b <= a is not transitive
    text = ("[carrier]\na b c\n[join]\n"
            "a a -> a\na b -> a\na c -> c\nb a -> a\nb b -> b\n"
            "b c -> b\nc a -> c\nc b -> b\nc c -> c\n"
            "[tensor]\n" + "".join(f"{x} {y} -> a\n" for x in "abc"
                                    for y in "abc") +
            "[perp]\na -> a\nb -> b\nc -> c\n[unit]\na\n")
    m = parse_model(text)
    report = check_cs(m)
    assert report[0] == ("order-is-partial", False,
                         "transitivity fails on a <= c <= b")


def test_irreflexive_join_order_is_not_partial():
    # a <= b and b <= b only: a join table whose a a row is b
    text = ("[carrier]\na b\n[join]\n"
            "a a -> b\na b -> b\nb a -> b\nb b -> b\n"
            "[tensor]\na a -> a\na b -> a\nb a -> a\nb b -> b\n"
            "[perp]\na -> b\nb -> a\n[unit]\nb\n")
    report = check_cs(parse_model(text))
    assert report[0] == ("order-is-partial", False, "reflexivity fails at a")


def test_pair_check_catches_what_the_sample_skipped():
    # 2^4 listed by size, tensor = meet, par = meet except that par of
    # {0,1} with {0} is {0,1}: only subsets holding the atoms {0} and {1}
    # fail, and the 2,048-subset sample never picks the first five
    # elements of the carrier
    sets = [frozenset(c) for k in range(5)
            for c in itertools.combinations(range(4), k)]
    name = {a: "".join("abcd"[i] for i in sorted(a)) or "0" for a in sets}
    carrier = [name[a] for a in sets]
    leq = {(name[a], name[b]) for a in sets for b in sets if a <= b}
    meet = {(name[a], name[b]): name[a & b] for a in sets for b in sets}
    par = dict(meet)
    par["ab", "a"] = par["a", "ab"] = "ab"
    full = frozenset(range(4))
    m = FinModel(carrier=tuple(carrier), leq=frozenset(leq), tensor=meet,
                 perp={name[a]: name[full - a] for a in sets},
                 unit="abcd", parcomp=par, separator=frozenset({"abcd"}))
    assert passed(check_cs(m))
    assert reference_join_compatible(m) == \
        ("parcomp-join-compatible", True, "")
    rows = {row[0]: row for row in check_ca(m)}
    assert rows["parcomp-join-compatible"] == (
        "parcomp-join-compatible", False,
        "par/join compatibility fails for ('a', 'b') with a")


def _fixpoint_closure(carrier, pairs):
    """The closure as `parse_model` computed it before: add (a, d) for
    every a <= b <= d until nothing changes."""
    leq = set(pairs) | {(a, a) for a in carrier}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(leq), repeat=2):
            if b == c and (a, d) not in leq:
                leq.add((a, d))
                changed = True
    return leq


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(tuple(f"e{i}" for i in range(n))),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
@settings(max_examples=200, deadline=None)
def test_order_closure_is_the_old_fixpoint(drawn):
    carrier, indices = drawn
    pairs = {(carrier[i], carrier[j]) for i, j in indices}
    assert _closure(carrier, pairs) == _fixpoint_closure(carrier, pairs)
