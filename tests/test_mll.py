import pytest

from fusioncalc.calgebra import load_model
from fusioncalc.config import DEFAULT
from fusioncalc.fusion import DELTA, FusionError, identity_I
from fusioncalc.mll import (MAX_ASSIGNMENTS, Ax, Const, Cut, Exists, Join,
                            MllError, One, OneIntro, Perp, ProofError, Star1,
                            Tensor, Var, check_proof, check_soundness,
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


def test_evaluate_realizer_honours_the_config():
    expr = extract_realizer(parse_proof("(tensor (ax X) (ax Y))"))
    assert equal_pwf(evaluate_realizer(expr),
                     evaluate_realizer(expr, DEFAULT))
    with pytest.raises(FusionError):
        evaluate_realizer(expr, DEFAULT.with_options(class_budget=1))
