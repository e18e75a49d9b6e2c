import hashlib
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import mll_reference as reference
from fusioncalc.calgebra import FinModel, ModelError, load_model, parse_model
from fusioncalc.config import DEFAULT
from fusioncalc.fusion import DELTA, FusionError, identity_I
from fusioncalc.mll import (MAX_ASSIGNMENTS, Ax, Const, Cut, Exists,
                            ExistsIntro, Join, MllError, One, OneIntro, Perp,
                            ProofError, Star1, SubRule, Tensor, TensorIntro,
                            Var, check_proof, check_soundness,
                            evaluate_realizer, extract_realizer, formula_str,
                            free_vars, interpret, interpret_sequent,
                            load_corpus, parse_formula, parse_proof,
                            sequent_str, subst_formula)
from fusioncalc.process import NIL, SearchBudgetError, struct_eq
from fusioncalc.pwf import Pwf, as_pwf, equal_pwf


def test_parse_formula_forms():
    assert parse_formula("1") == One()
    assert parse_formula("X ^") == Perp(Var("X"))
    assert parse_formula("X * Y v Z") == Join(Tensor(Var("X"), Var("Y")),
                                              Var("Z"))
    assert parse_formula("X ^ ^") == Perp(Perp(Var("X")))
    assert parse_formula("ex X. X * Y") == Exists("X",
                                                  Tensor(Var("X"), Var("Y")))
    assert parse_formula("(X v Y) * Z") == Tensor(Join(Var("X"), Var("Y")),
                                                  Var("Z"))


def test_parse_formula_rejects_garbage():
    for text in ["", "X *", "ex 1. X", "X )", "v X", "X @ Y"]:
        with pytest.raises(MllError):
            parse_formula(text)


def test_formula_str_roundtrip():
    for text in ["1", "X^", "X * Y v Z", "(X v Y) * Z", "ex X. X v Y",
                 "(ex X. X) v Y", "X * (Y * Z)^", "ex X. ex Y. X * Y"]:
        f = parse_formula(text)
        assert parse_formula(formula_str(f)) == f


def test_free_vars_and_substitution():
    f = parse_formula("ex X. X * Y")
    assert free_vars(f) == {"Y"}
    assert subst_formula(f, "Y", Var("Z")) == parse_formula("ex X. X * Z")
    # bound variable is untouched, capture is avoided by renaming
    assert subst_formula(f, "X", Var("W")) == f
    g = subst_formula(f, "Y", Var("X"))
    assert free_vars(g) == {"X"}
    assert isinstance(g, Exists) and g.var != "X"


def test_check_proof_goldens():
    assert check_proof(parse_proof("(ax X)")) == (Perp(Var("X")), Var("X"))
    assert check_proof(parse_proof("(one)")) == (One(),)
    assert sequent_str(check_proof(parse_proof(
        "(tensor (ax X) (ax Y))"))) == "|- X^, X * Y^, Y"
    assert sequent_str(check_proof(parse_proof(
        "(ex (2 1) (ax X))"))) == "|- X, X^"
    assert sequent_str(check_proof(parse_proof(
        "(sub (ax X) Y)"))) == "|- X^, X v Y"
    assert sequent_str(check_proof(parse_proof(
        "(exists (ax X) Y Y X)"))) == "|- X^, ex Y. Y"


def test_check_proof_rejects_rule_mismatches():
    with pytest.raises(ProofError):
        check_proof(parse_proof("(cut (ax X) (ax Y) X)"))
    with pytest.raises(ProofError):
        check_proof(parse_proof("(ex (1 1) (ax X))"))
    with pytest.raises(ProofError):
        check_proof(parse_proof("(ex (1 2 3) (ax X))"))
    with pytest.raises(ProofError):
        check_proof(parse_proof("(exists (ax X) Y Y Z)"))


def test_interpret_goldens():
    m = load_model("boolean2")
    assert interpret(parse_formula("1"), m, {}) == "1"
    assert interpret(parse_formula("X ^"), m, {"X": "0"}) == "1"
    assert interpret(parse_formula("ex X. X"), m, {}) == "1"
    assert interpret(parse_formula("X * Y"), m, {"X": "1", "Y": "0"}) == "0"
    with pytest.raises(MllError):
        interpret(parse_formula("X"), m, {})


def test_exists_is_join_over_carrier():
    m = load_model("boolean2")
    assert interpret(parse_formula("ex X. X"), m, {}) == "1"
    assert interpret(parse_formula("ex X. 1^"), m, {}) == "0"
    # the inner binder shadows the outer one and the assignment
    assert interpret(parse_formula("X^ * (ex X. X)"), m, {"X": "0"}) \
        == "1"


def test_interpret_rejects_values_outside_the_carrier():
    m = load_model("boolean2")
    for text in ("X", "X^", "1"):
        with pytest.raises(MllError, match="value '7' of X is not in the "
                           "carrier"):
            interpret(parse_formula(text), m, {"X": "7"})
    with pytest.raises(MllError, match="value '7' of Y"):
        interpret_sequent((Var("X"),), m, {"X": "0", "Y": "7"})


def test_interpret_sequent_right_folds_parr():
    m = load_model("boolean4")
    seq = check_proof(parse_proof("(tensor (ax X) (ax Y))"))
    for x in m.carrier:
        for y in m.carrier:
            assign = {"X": x, "Y": y}
            folded = m.parr(interpret(seq[0], m, assign),
                            m.parr(interpret(seq[1], m, assign),
                                   interpret(seq[2], m, assign)))
            assert interpret_sequent(seq, m, assign) == folded


def test_corpus_loads_and_checks():
    corpus = load_corpus()
    assert len(corpus) == 20
    for proof in corpus.values():
        check_proof(proof)


def test_corpus_sound_on_shipped_models():
    corpus = load_corpus()
    for model_name in ("boolean2", "boolean4"):
        m = load_model(model_name)
        for name, proof in corpus.items():
            report = check_soundness(proof, m)
            assert report and all(ok for _, ok, _ in report), (model_name,
                                                              name)


def test_extraction_shapes():
    assert extract_realizer(parse_proof("(ax X)")) == Const("ID")
    assert extract_realizer(parse_proof("(one)")) == Const("UNIT")
    cut = extract_realizer(parse_proof("(cut (ax X) (ax X) X)"))
    assert cut == Star1(Star1(Const("COMP"), Const("ID")), Const("ID"))


def test_extraction_goldens():
    assert equal_pwf(evaluate_realizer(extract_realizer(parse_proof("(ax X)"))),
                     as_pwf(identity_I()))
    assert equal_pwf(evaluate_realizer(extract_realizer(parse_proof("(one)"))),
                     Pwf(NIL, DELTA))


def test_extraction_total_deterministic_and_pure():
    corpus = load_corpus()
    for name, proof in corpus.items():
        first = extract_realizer(proof)
        assert first == extract_realizer(proof)
        value = evaluate_realizer(first)
        assert struct_eq(value.proc, NIL), name


def test_extraction_requires_valid_proof():
    with pytest.raises(ProofError):
        extract_realizer(parse_proof("(cut (ax X) (ax Y) X)"))


def axioms_tensor(k):
    """A proof whose conclusion has k formula variables, X1..Xk."""
    proof = "(ax X1)"
    for i in range(2, k + 1):
        proof = f"(tensor {proof} (ax X{i}))"
    return parse_proof(proof)


def test_soundness_decides_up_to_the_assignment_budget():
    m = load_model("boolean4")
    report = check_soundness(axioms_tensor(6), m)
    assert len(report) == 4 ** 6 == MAX_ASSIGNMENTS
    assert all(ok for _, ok, _ in report)
    with pytest.raises(SearchBudgetError,
                       match="needs 16384 assignments, budget 4096"):
        check_soundness(axioms_tensor(7), m)


def test_realizer_catalog_is_built_once(monkeypatch):
    from fusioncalc import pwf
    original, calls = pwf.sigma_tau, []
    monkeypatch.setattr(pwf, "sigma_tau",
                        lambda s: calls.append(s) or original(s))
    pwf.realizer_catalog.cache_clear()
    expr = extract_realizer(parse_proof("(tensor (ax X) (ax Y))"))
    assert equal_pwf(evaluate_realizer(expr), evaluate_realizer(expr))
    assert pwf.realizer_catalog() is pwf.realizer_catalog()
    assert len(calls) == len(pwf.REALIZER_WORDS)


def test_evaluate_realizer_honours_the_config():
    expr = extract_realizer(parse_proof("(tensor (ax X) (ax Y))"))
    assert equal_pwf(evaluate_realizer(expr),
                     evaluate_realizer(expr, DEFAULT))
    with pytest.raises(FusionError):
        evaluate_realizer(expr, DEFAULT.with_options(class_budget=1))


def boolean_model(rng, n, mutant=False):
    """The Boolean algebra 2^n (tensor = par = meet, perp = complement,
    unit = separator = top) under shuffled labels, bottom first; a mutant
    sends two elements to one perp image."""
    subsets = [frozenset(c) for k in range(n + 1)
               for c in itertools.combinations(range(n), k)]
    labels = [f"x{i}" for i in range(len(subsets))]
    rng.shuffle(labels)
    name = dict(zip(subsets, labels))
    full = frozenset(range(n))
    perp = {a: full - a for a in subsets}
    if mutant:
        a, b = rng.sample(subsets, 2)
        perp[a] = perp[b]
    lines = ["[carrier]", " ".join(name[c] for c in subsets), "[leq]"]
    lines += [f"{name[a]} <= {name[a | {x}]}"
              for a in subsets for x in range(n) if x not in a]
    for section in ("tensor", "par"):
        lines.append(f"[{section}]")
        lines += [f"{name[a]} {name[b]} -> {name[a & b]}"
                  for a in subsets for b in subsets]
    lines.append("[perp]")
    lines += [f"{name[a]} -> {name[perp[a]]}" for a in subsets]
    lines += ["[unit]", name[full], "[separator]", name[full]]
    return parse_model("\n".join(lines))


# recorded from the per-assignment interpreter of `mll_reference.py`
ROWS, FAILED = 15758, 834
DIGEST = "81b2a66bc6c802eceeefc6d877a45653a001333d674f8fc9eaec20687e317089"


def soundness_models():
    out = {name: load_model(name)
           for name in ("boolean2", "boolean4", "mutated_diamond")}
    rng = random.Random(15)
    for n in (1, 2, 3, 4):
        out[f"2^{n}"] = boolean_model(rng, n)
        out[f"2^{n} mutant"] = boolean_model(rng, n, mutant=True)
    return out


def test_soundness_reports_match_the_digest():
    """Every row of every corpus report (name, verdict, witness), pinned
    by a digest recorded from the per-assignment interpreter that
    `mll_reference.py` keeps."""
    corpus = load_corpus()
    reports = {label: {name: check_soundness(proof, m)
                       for name, proof in corpus.items()}
               for label, m in soundness_models().items()}
    rows = [row for by_proof in reports.values()
            for report in by_proof.values() for row in report]
    assert (len(rows), sum(not ok for _, ok, _ in rows)) == (ROWS, FAILED)
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


def lattice(carrier, order, unit, perp=None, tensor=None):
    """A model over `carrier` ordered by the pairs `order` (made
    reflexive), with the given perp and tensor (by default the identity,
    and a <- a with other pairs to the first element) and separator
    {unit}."""
    leq = frozenset(order) | {(a, a) for a in carrier}
    tensor = tensor or {(a, b): a if a == b else carrier[0]
                        for a in carrier for b in carrier}
    return FinModel(carrier=tuple(carrier), leq=leq, tensor=tensor,
                    perp=perp or {a: a for a in carrier}, unit=unit,
                    separator=frozenset({unit}))


# b and c have no join, but a v b = d and d v c = e do; perp keeps 0, a,
# b and c and sends the rest to 0; tensor is the left projection, so par
# is not commutative
JOIN_ORDER = lattice(
    tuple("0abcdef"),
    {("0", x) for x in "abcdef"} | {("a", "d"), ("b", "d"), ("d", "e"),
                                    ("a", "e"), ("b", "e"), ("c", "e"),
                                    ("b", "f"), ("c", "f")},
    "e", perp={x: x if x in "0abc" else "0" for x in "0abcdef"},
    tensor={(x, y): x for x in "0abcdef" for y in "0abcdef"})


# a and b have no join; no bottom; both; joins that exist in carrier order
MODELS = {name: load_model(name)
          for name in ("boolean2", "boolean4", "mutated_diamond")}
MODELS["no join"] = lattice(("0", "a", "b"), {("0", "a"), ("0", "b")}, "a")
MODELS["no bottom"] = lattice(("a", "b", "1"), {("a", "1"), ("b", "1")}, "1")
MODELS["neither"] = lattice(("a", "b"), set(), "a")
MODELS["join order"] = JOIN_ORDER
ERROR_FORMS = (r"join of \S+ and \S+ does not exist|"
               r"carrier has no bottom element|unbound formula variable \w+")
VARIABLES = ("X", "Y", "Z")
formulas = st.recursive(
    st.one_of(st.just(One()), st.sampled_from(VARIABLES).map(Var)),
    lambda sub: st.one_of(sub.map(Perp), st.builds(Tensor, sub, sub),
                          st.builds(Join, sub, sub),
                          st.builds(Exists, st.sampled_from(VARIABLES), sub)),
    max_leaves=8)


def bind(p, var):
    """(exists) binding `var` in the last formula of p's conclusion."""
    last = check_proof(p)[-1]
    return ExistsIntro(p, var, last, Var(var))


proofs = st.recursive(
    st.one_of(st.just(OneIntro()), formulas.map(Ax)),
    lambda sub: st.one_of(st.builds(SubRule, sub, formulas),
                          st.builds(TensorIntro, sub, sub),
                          st.builds(bind, sub, st.sampled_from(VARIABLES))),
    max_leaves=4)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (MllError, ModelError) as exc:
        return exc


def assert_same(out, expected):
    """The value the reference computes, or an error of its type in one
    of its message forms; an unbound variable is named as it names it."""
    if isinstance(expected, Exception):
        assert type(out) is type(expected), (out, expected)
        assert re.fullmatch(ERROR_FORMS, str(out)), out
        if isinstance(expected, MllError):
            assert str(out) == str(expected)
    else:
        assert out == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(MODELS)), st.lists(formulas, min_size=1,
                                                  max_size=3), st.data())
def test_interpret_matches_the_reference(name, seq, data):
    m = MODELS[name]
    assign = data.draw(st.dictionaries(st.sampled_from(VARIABLES),
                                       st.sampled_from(m.carrier)))
    for f in seq:
        assert_same(outcome(interpret, f, m, assign),
                    outcome(reference.interpret, f, m, assign))
    assert_same(outcome(interpret_sequent, tuple(seq), m, assign),
                outcome(reference.interpret_sequent, tuple(seq), m, assign))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(MODELS)), proofs)
def test_soundness_matches_the_reference(name, proof):
    m = MODELS[name]
    assert_same(outcome(check_soundness, proof, m),
                outcome(reference.check_soundness, proof, m))


def test_exists_folds_in_carrier_order():
    """Over X^ the fold meets a, then b (a v b = d), then c (d v c = e),
    and never joins b with c, which it would in the reverse order."""
    f = parse_formula("ex X. X^")
    assert reference.interpret(f, JOIN_ORDER, {}) == "e"
    assert interpret(f, JOIN_ORDER, {}) == "e"


def test_an_unbound_variable_is_reached_at_the_first_element():
    """The reference evaluates an existential's body element by element:
    at Y = 0, Y v X is a, and Z is unbound.  The join of b and a, at
    Y = b, is missing, but it is never reached."""
    m = MODELS["no join"]
    f = parse_formula("ex Y. (Y v X) * Z")
    with pytest.raises(MllError, match="unbound formula variable Z"):
        reference.interpret(f, m, {"X": "a"})
    with pytest.raises(MllError, match="unbound formula variable Z"):
        interpret(f, m, {"X": "a"})
