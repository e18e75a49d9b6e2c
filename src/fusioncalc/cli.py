"""Batch front end.

Exit codes: 0 when the command succeeds (and any checked property
holds), 1 when a checked property fails (a witness is printed), 2 for
parse or validation errors, 3 when a valid input exceeds a search budget
(the verdict is undecided; the message names the budget), 4 when the
result of a valid input has no finite presentation (a ν or adjoint whose
fusion the generators cannot express).  Each budget is a constant of the
module that searches (`fusion._CLASS_BUDGET`, `terms._MAX_CANDIDATES`,
`mll.MAX_ASSIGNMENTS`), and no option changes one.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .fusion import (DELTA, ClassBudgetError, FusionError,
                     NotRepresentableError, class_of, equal, fusion_str,
                     join, meet, parse_fusion, phi, read_fusion, remove,
                     restrict)
from .names import Tokens, parse_name, parse_nameset
from .process import (ProcessError, SearchBudgetError, form_str,
                      parse_process, process_str)
from .pwf import (PwfError, as_pwf, equal_pwf, normalize, nu_set, par,
                  parse_pwf, pwf_str, star)
from .record import first_witness, passed
from .reduction import reach
from .terms import canonical_form

# calgebra, mll, hy_encodings and realizability are imported by the
# commands that read them, so the others compile none of them.
_PARSE_ERRORS = (FusionError, PwfError, ProcessError, OSError, ValueError)
_LAZY_PARSE_ERRORS = (("fusioncalc.mll", "MllError"),
                      ("fusioncalc.calgebra", "ModelError"))


def _parse_errors() -> tuple[type[Exception], ...]:
    """The errors reported as parse or validation errors (exit 2): those
    of the modules imported so far, as a module never imported raised
    none."""
    return _PARSE_ERRORS + tuple(
        getattr(sys.modules[module], name)
        for module, name in _LAZY_PARSE_ERRORS if module in sys.modules)


def _print_report(rows, fmt: str) -> bool:
    for name, ok, witness in rows:
        verdict = "pass" if ok else "fail"
        if fmt == "tsv":
            print(f"{name}\t{verdict}\t{witness}")
        else:
            suffix = f"  [{witness}]" if witness else ""
            print(f"{verdict:4s}  {name}{suffix}")
    return passed(rows)


# -- commands ---------------------------------------------------------------


def _cmd_parse(args) -> int:
    if args.kind == "pwf":
        print(pwf_str(parse_pwf(args.text)))
    elif args.kind == "process":
        print(process_str(parse_process(args.text)))
    elif args.kind == "fusion":
        print(fusion_str(parse_fusion(args.text)))
    else:
        print(parse_nameset(args.text))
    return 0


def _cmd_normalize(args) -> int:
    print(pwf_str(normalize(parse_pwf(args.pwf))))
    return 0


def _cmd_equal(args) -> int:
    left, right = parse_pwf(args.left), parse_pwf(args.right)
    if equal_pwf(left, right):
        print("equal")
        return 0
    # the verdict is decided: a normal form past the search budget is
    # reported on its own line, and does not make the verdict undecided
    print("not equal")
    for side, p in (("left ", left), ("right", right)):
        try:
            form = pwf_str(normalize(p))
        except SearchBudgetError as exc:
            form = f"not printed: {exc}"
        print(f"  {side} normal form: {form}")
    return 1


def _cmd_reduce(args) -> int:
    if args.steps < 0:
        raise ValueError(f"--steps must be at least 0, not {args.steps}")
    p = parse_pwf(args.pwf)
    fus = fusion_str(p.fus)
    # each listed class is printed once: a class that binds no name from
    # its key, which is its printed form, any other from its node, whose
    # key `reach` has just cached; p's own class is not reached, so it is
    # neither keyed nor listed
    forms = (key if isinstance(key, str) else form_str(canonical_form(node))
             for key, node in reach(p, args.steps))
    for line in sorted(f"<{form} ; {fus}>" for form in forms):
        print(line)
    return 0


def _cmd_nu(args) -> int:
    out = nu_set(parse_nameset(args.names), parse_pwf(args.pwf))
    print(pwf_str(out))
    return 0


def _cmd_fusion(args) -> int:
    if args.op == "join":
        print(fusion_str(join(parse_fusion(args.args[0]),
                              parse_fusion(args.args[1]))))
    elif args.op == "restrict":
        print(fusion_str(restrict(parse_fusion(args.args[0]),
                                  parse_nameset(args.args[1]))))
    elif args.op == "remove":
        print(fusion_str(remove(parse_fusion(args.args[0]),
                                parse_nameset(args.args[1]))))
    elif args.op == "class":
        cls = class_of(parse_fusion(args.args[0]), parse_name(args.args[1]))
        print("{" + ",".join(str(x) for x in sorted(cls)) + "}")
    else:  # equal
        if equal(parse_fusion(args.args[0]), parse_fusion(args.args[1])):
            print("equal")
            return 0
        print("not equal")
        return 1
    return 0


_FUSION_OPS = ("class", "equal", "join", "remove", "restrict")


def _cmd_star(args) -> int:
    out = star(args.index, parse_pwf(args.left), parse_pwf(args.right))
    print(pwf_str(out))
    return 0


def _parse_universe_spec(spec: str):
    """Grammar: `key=value` entries joined with `,`; a `fusions` value is
    fusion literals joined with `|`, and any other is an integer."""
    from . import realizability
    sizes = {"max_actions": 2, "names": 3, "limit": 160}
    fusions = [DELTA, parse_fusion("{0~1}")]
    tokens = Tokens(spec, ValueError)
    while tokens.peek()[0] != "end":
        if tokens.take(","):
            continue
        key = tokens.take()[1]
        tokens.expect("=")
        if key == "fusions":
            fusions = [read_fusion(tokens)]
            while tokens.take("|"):
                fusions.append(read_fusion(tokens))
        elif key in sizes:
            start = tokens.peek()[2]
            while tokens.peek()[1] not in (",", ""):
                tokens.take()
            sizes[key] = int(spec[start:tokens.peek()[2]])
        else:
            raise ValueError(f"unknown universe spec key {key!r}")
        if tokens.peek()[1] not in (",", ""):
            raise tokens.fail("expected ','")
    return realizability.default_universe(
        sizes["max_actions"], sizes["names"], fusions, sizes["limit"])


def _cmd_pole_laws(args) -> int:
    from . import realizability
    members = _parse_universe_spec(args.universe or "")
    pole = realizability.parse_pole(args.pole)
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, not {args.samples}")
    universe = realizability.Universe(members, pole)
    seed = 0
    if args.format != "tsv":
        exact = " (exact)" if args.pole.strip() == "done" else ""
        print(f"# universe-relative report: {len(members)} members, "
              f"pole {args.pole}{exact}")
        print(f"# sampled laws: samples={args.samples} seed={seed}")
    rows = realizability.check_laws(universe, samples=args.samples,
                                    seed=seed)
    return 0 if _print_report(rows, args.format) else 1


def _cmd_algebra_check(args) -> int:
    from . import calgebra
    model = calgebra.load_model(args.model)
    checker = {"cs": calgebra.check_cs, "ca": calgebra.check_ca,
               "cpa": calgebra.check_cpa, "ccpa": calgebra.check_ccpa,
               "derived": calgebra.check_derived_props}[args.level]
    return 0 if _print_report(checker(model), args.format) else 1


def _cmd_mll(args) -> int:
    from . import calgebra, mll
    if args.mll_op == "check":
        try:
            seq = mll.check_proof(mll.parse_proof(args.proof))
        except mll.ProofError as exc:
            print(f"invalid proof: {exc}")
            return 1
        print(mll.sequent_str(seq))
        return 0
    if args.mll_op == "interpret":
        model = calgebra.load_model(args.model)
        assign = {}
        for item in filter(None, (args.assign or "").split(",")):
            if "=" not in item:
                raise mll.MllError(f"assignments look like X=element: "
                                   f"{item!r}")
            key, value = item.split("=", 1)
            assign[key.strip()] = value.strip()
        print(mll.interpret(mll.parse_formula(args.formula), model, assign))
        return 0
    if args.mll_op == "sound":
        proofs = (mll.load_corpus() if args.proof is None
                  else {"<argument>": mll.parse_proof(args.proof)})
        rows = list(_soundness_rows(_shipped_models(), proofs))
        return 0 if _print_report(rows, args.format) else 1
    # extract
    try:
        expr = mll.extract_realizer(mll.parse_proof(args.proof))
    except mll.ProofError as exc:
        print(f"invalid proof: {exc}")
        return 1
    print(_realizer_str(expr))
    print(pwf_str(mll.evaluate_realizer(expr)))
    return 0


def _shipped_models() -> dict:
    from . import calgebra
    return {name: calgebra.load_model(name)
            for name in calgebra.shipped_model_names()}


def _soundness_rows(models: dict, proofs: dict):
    """One report row per model, in name order, and proof: the first
    soundness witness of the proof in the model, if any; a model that
    is not a conjunctive algebra gets one passing row saying that it was
    skipped."""
    from . import calgebra, mll
    for model_name, model in sorted(models.items()):
        if not passed(calgebra.check_ca(model)):
            yield (model_name, True,
                   "skipped: model is not a conjunctive algebra")
            continue
        for proof_name, proof in proofs.items():
            report = mll.check_soundness(proof, model)
            yield first_witness(f"{model_name}:{proof_name}",
                                (w for _, ok, w in report if not ok))


def _realizer_str(expr) -> str:
    from . import mll
    if isinstance(expr, mll.Const):
        return expr.label
    return f"({_realizer_str(expr.func)} *1 {_realizer_str(expr.arg)})"


def _cmd_hy_check(args) -> int:
    from . import hy_encodings
    ok = True
    for label, verdict, detail in hy_encodings.check_hy_reductions():
        print(f"{label}\t{verdict}\t{detail}" if args.format == "tsv"
              else f"{verdict:14s}{label}: {detail}")
        ok = ok and verdict != "fail"
    return 0 if ok else 1


def _cmd_laws(args) -> int:
    from . import calgebra, hy_encodings, mll, realizability
    samples, seed = 6, 0
    if args.format != "tsv":
        print(f"# sampled laws: samples={samples} seed={seed}")
    rows = []

    e, f, g = (parse_fusion(t) for t in ("{0~1}", "{1~2}", "{0~2}"))
    lattice_ok = (equal(join(e, f), join(f, e))
                  and equal(meet(e, join(e, f)), e)
                  and equal(join(e, meet(e, f)), e))
    rows.append(("fusion-lattice-laws", lattice_ok, ""))
    lhs = meet(join(e, f), g)
    rhs = join(meet(e, g), meet(f, g))
    rows.append(("fusion-semi-distributivity-counterexample",
                 not equal(lhs, rhs), "join/meet distribute"
                 if equal(lhs, rhs) else ""))

    p = parse_pwf("<0!().1 ; {}>")
    q = parse_pwf("<2?().1 ; {0~3}>")
    adjoint_ok = equal_pwf(star(1, star(1, as_pwf(phi()), p), q), par(p, q))
    rows.append(("adjoint-parallel-factorization", adjoint_ok, ""))

    golden = pwf_str(nu_set(parse_nameset("@1"),
                            parse_pwf("<1!() ; {1~3, 5~4}>")))
    rows.append(("nu-worked-example", golden == "<new 3. 3!() ; {}>", golden))

    members = realizability.default_universe(2, 3, [DELTA], 60)
    universe = realizability.Universe(members, realizability.make_pole_done(8))
    law_rows = realizability.check_laws(universe, samples=samples, seed=seed)
    rows.append(("realizability-laws", passed(law_rows),
                 "; ".join(n for n, ok, _ in law_rows if not ok)))

    models = _shipped_models()
    for name, model in models.items():
        report = calgebra.check_cpa(model)
        expected_ok = name != "mutated_diamond"
        rows.append((f"algebra-{name}",
                     passed(report) == expected_ok,
                     "" if passed(report) == expected_ok else
                     "unexpected verdict"))

    rows.append(("mll-corpus-soundness",
                 passed(_soundness_rows(models, mll.load_corpus())), ""))

    hy_rows = hy_encodings.check_hy_reductions()
    rows.append(("hy-reductions",
                 all(v != "fail" for _, v, _ in hy_rows), ""))

    return 0 if _print_report(rows, args.format) else 1


# -- argument parsing -------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="fusioncalc",
        description="workbench for processes with fusions")
    parser.add_argument("--format", choices=["text", "tsv"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and echo a literal")
    p.add_argument("--kind", choices=["pwf", "process", "fusion", "names"],
                   default="pwf")
    p.add_argument("text")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("normalize", help="print the canonical form")
    p.add_argument("pwf")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("equal", help="decide equality of two PWF")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("reduce", help="list reducts, canonical order")
    p.add_argument("pwf")
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("nu", help="apply the set restriction binder")
    p.add_argument("names")
    p.add_argument("pwf")
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("fusion", help="fusion operations")
    p.add_argument("op", choices=_FUSION_OPS)
    p.add_argument("args", nargs=2)
    p.set_defaults(func=_cmd_fusion)

    p = sub.add_parser("star", help="adjoint application")
    p.add_argument("index", type=int, choices=[1, 2])
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("pole-laws", help="finite-universe law report")
    p.add_argument("--universe", help="key=value spec: max_actions (0..2, "
                   "default 2), names (>= 0, default 3), limit (>= 1, "
                   "default 160), fusions (|-separated, default {}|{0~1}, "
                   "but a limit <= 946 holds only {} members)")
    p.add_argument("--pole", default="always", help="always; done, the "
                   "terms that reach NIL (exact); or done:k, those that "
                   "reach it within k steps")
    p.add_argument("--samples", type=int, default=12)
    p.set_defaults(func=_cmd_pole_laws)

    p = sub.add_parser("algebra-check", help="finite-model checker")
    p.add_argument("model", help="shipped model name or file path")
    p.add_argument("--level", choices=["cs", "ca", "cpa", "ccpa", "derived"],
                   default="cpa")
    p.set_defaults(func=_cmd_algebra_check)

    p = sub.add_parser("mll", help="proof checking and extraction")
    msub = p.add_subparsers(dest="mll_op", required=True)
    m = msub.add_parser("check")
    m.add_argument("proof")
    m = msub.add_parser("interpret")
    m.add_argument("formula")
    m.add_argument("--model", required=True)
    m.add_argument("--assign", help="comma-separated X=element pairs")
    m = msub.add_parser("sound")
    m.add_argument("proof", nargs="?")
    m = msub.add_parser("extract")
    m.add_argument("proof")
    p.set_defaults(func=_cmd_mll)

    p = sub.add_parser("hy-check", help="combinator encoding tests")
    p.set_defaults(func=_cmd_hy_check)

    p = sub.add_parser("laws", help="run the full law suite")
    p.set_defaults(func=_cmd_laws)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SearchBudgetError as exc:
        print(f"undecided: {exc}")
        return 3
    except ClassBudgetError as exc:
        print(f"undecided: {exc} (class_budget={exc.budget})")
        return 3
    except NotRepresentableError as exc:
        print(f"not representable: {exc}; the result has no finite "
              f"presentation")
        return 4
    except _parse_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
