"""Batch front end.

Exit codes: 0 when the command succeeds (and any checked property
holds), 1 when a checked property fails (a witness is printed), 2 for
parse or validation errors, 3 when a valid input exceeds a search budget
(the verdict is undecided; the message names the budget).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

from .config import DEFAULT, Config, parse_config_text
from .fusion import (DELTA, ClassBudgetError, FusionError, class_of, equal,
                     fusion_str, join, meet, parse_fusion, phi, remove,
                     restrict)
from .names import parse_nameset
from .process import (ProcessError, SearchBudgetError, form_str,
                      parse_process, process_str)
from .pwf import (PwfError, as_pwf, equal_pwf, normalize, nu_set, par,
                  parse_pwf, pwf_str, star)
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


def _config_from_args(args) -> Config:
    config = DEFAULT
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as handle:
            config = parse_config_text(handle.read(), config)
    for item in getattr(args, "set", None) or []:
        config = parse_config_text(item, config)
    return config


def _config_banner(config: Config) -> str:
    return (f"# config: class_budget={config.class_budget} "
            f"nu_closure={config.nu_closure} nu_seed={config.nu_seed}")


def _print_report(rows, fmt: str) -> bool:
    from . import calgebra
    for name, ok, witness in rows:
        verdict = "pass" if ok else "fail"
        if fmt == "tsv":
            print(f"{name}\t{verdict}\t{witness}")
        else:
            suffix = f"  [{witness}]" if witness else ""
            print(f"{verdict:4s}  {name}{suffix}")
    return calgebra.passed(rows)


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
    config = _config_from_args(args)
    print(pwf_str(normalize(parse_pwf(args.pwf), config)))
    return 0


def _cmd_equal(args) -> int:
    config = _config_from_args(args)
    left, right = parse_pwf(args.left), parse_pwf(args.right)
    if equal_pwf(left, right, config):
        print("equal")
        return 0
    print("not equal")
    print(f"  left  normal form: {pwf_str(normalize(left, config))}")
    print(f"  right normal form: {pwf_str(normalize(right, config))}")
    return 1


def _cmd_reduce(args) -> int:
    config = _config_from_args(args)
    p = parse_pwf(args.pwf)
    reached = itertools.islice(reach(p, args.steps, config), 1, None)
    fus = fusion_str(p.fus)
    # each listed class is printed from its node, once
    for line in sorted(f"<{form_str(canonical_form(node))} ; {fus}>"
                       for _, node in reached):
        print(line)
    return 0


def _cmd_nu(args) -> int:
    config = _config_from_args(args)
    out = nu_set(parse_nameset(args.names), parse_pwf(args.pwf), config)
    print(pwf_str(out))
    return 0


def _cmd_fusion(args) -> int:
    config = _config_from_args(args)
    if args.op == "join":
        print(fusion_str(join(parse_fusion(args.args[0]),
                              parse_fusion(args.args[1]), config)))
    elif args.op == "restrict":
        print(fusion_str(restrict(parse_fusion(args.args[0]),
                                  parse_nameset(args.args[1]), config)))
    elif args.op == "remove":
        print(fusion_str(remove(parse_fusion(args.args[0]),
                                parse_nameset(args.args[1]), config)))
    elif args.op == "class":
        cls = class_of(parse_fusion(args.args[0]), int(args.args[1]), config)
        print("{" + ",".join(str(x) for x in sorted(cls)) + "}")
    else:  # equal
        if equal(parse_fusion(args.args[0]), parse_fusion(args.args[1]),
                 config):
            print("equal")
            return 0
        print("not equal")
        return 1
    return 0


_FUSION_OPS = ("class", "equal", "join", "remove", "restrict")


def _cmd_star(args) -> int:
    config = _config_from_args(args)
    out = star(args.index, parse_pwf(args.left), parse_pwf(args.right),
               config)
    print(pwf_str(out))
    return 0


def _parse_universe_spec(spec: str):
    from . import realizability
    max_actions, names, limit = 2, 3, 160
    fusions = [DELTA, parse_fusion("{0~1}")]
    for part in filter(None, (s.strip() for s in spec.split(","))):
        if "=" not in part:
            raise ValueError(f"universe spec entries look like key=value:"
                             f" {part!r}")
        key, value = (s.strip() for s in part.split("=", 1))
        if key == "max_actions":
            max_actions = int(value)
        elif key == "names":
            names = int(value)
        elif key == "limit":
            limit = int(value)
        elif key == "fusions":
            fusions = [parse_fusion(f) for f in value.split("|")]
        else:
            raise ValueError(f"unknown universe spec key {key!r}")
    return realizability.default_universe(max_actions, names, fusions, limit)


def _cmd_pole_laws(args) -> int:
    from . import realizability
    config = _config_from_args(args)
    members = _parse_universe_spec(args.universe or "")
    pole = realizability.parse_pole(args.pole)
    universe = realizability.Universe(members, pole, config)
    seed = 0
    if args.format != "tsv":
        print(_config_banner(config))
        print(f"# universe-relative report: {len(members)} members, "
              f"pole {args.pole}")
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
    config = _config_from_args(args)
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
        models = {name: calgebra.load_model(name)
                  for name in calgebra.shipped_model_names()}
        rows = []
        for model_name, model in sorted(models.items()):
            if not calgebra.passed(calgebra.check_ca(model)):
                rows.append((f"{model_name}", True,
                             "skipped: model is not a conjunctive algebra"))
                continue
            for proof_name, proof in proofs.items():
                report = mll.check_soundness(proof, model)
                rows.append(calgebra.first_witness(
                    f"{model_name}:{proof_name}",
                    (witness for _, ok, witness in report if not ok)))
        return 0 if _print_report(rows, args.format) else 1
    # extract
    try:
        expr = mll.extract_realizer(mll.parse_proof(args.proof))
    except mll.ProofError as exc:
        print(f"invalid proof: {exc}")
        return 1
    print(_realizer_str(expr))
    print(pwf_str(mll.evaluate_realizer(expr, config)))
    return 0


def _realizer_str(expr) -> str:
    from . import mll
    if isinstance(expr, mll.Const):
        return expr.label
    return f"({_realizer_str(expr.func)} *1 {_realizer_str(expr.arg)})"


def _cmd_hy_check(args) -> int:
    from . import hy_encodings
    if not args.experimental_hy:
        print("hy-check is experimental; rerun with --experimental-hy")
        return 2
    config = _config_from_args(args)
    ok = True
    for label, verdict, detail in hy_encodings.check_hy_reductions(config):
        print(f"{label}\t{verdict}\t{detail}" if args.format == "tsv"
              else f"{verdict:14s}{label}: {detail}")
        ok = ok and verdict != "fail"
    return 0 if ok else 1


def _cmd_laws(args) -> int:
    from . import calgebra, hy_encodings, mll, realizability
    config = _config_from_args(args)
    samples, seed = 6, 0
    if args.format != "tsv":
        print(_config_banner(config))
        print(f"# sampled laws: samples={samples} seed={seed}")
    rows = []

    e, f, g = (parse_fusion(t) for t in ("{0~1}", "{1~2}", "{0~2}"))
    lattice_ok = (equal(join(e, f, config), join(f, e, config), config)
                  and equal(meet(e, join(e, f, config), config), e, config)
                  and equal(join(e, meet(e, f, config), config), e, config))
    rows.append(("fusion-lattice-laws", lattice_ok, ""))
    lhs = meet(join(e, f, config), g, config)
    rhs = join(meet(e, g, config), meet(f, g, config), config)
    rows.append(("fusion-semi-distributivity-counterexample",
                 not equal(lhs, rhs, config), "join/meet distribute"
                 if equal(lhs, rhs, config) else ""))

    p = parse_pwf("<0!().1 ; {}>")
    q = parse_pwf("<2?().1 ; {0~3}>")
    adjoint_ok = equal_pwf(star(1, star(1, as_pwf(phi()), p, config), q,
                                config), par(p, q, config), config)
    rows.append(("adjoint-parallel-factorization", adjoint_ok, ""))

    golden = pwf_str(nu_set(parse_nameset("@1"),
                            parse_pwf("<1!() ; {1~3, 5~4}>"), config))
    rows.append(("nu-worked-example", golden == "<new 3. 3!() ; {}>", golden))

    members = realizability.default_universe(2, 3, [DELTA], 60)
    universe = realizability.Universe(members,
                                      realizability.make_pole_done(8),
                                      config)
    law_rows = realizability.check_laws(universe, samples=samples, seed=seed)
    rows.append(("realizability-laws", calgebra.passed(law_rows),
                 "; ".join(n for n, ok, _ in law_rows if not ok)))

    for name in calgebra.shipped_model_names():
        model = calgebra.load_model(name)
        report = calgebra.check_cpa(model)
        expected_ok = name != "mutated_diamond"
        rows.append((f"algebra-{name}",
                     calgebra.passed(report) == expected_ok,
                     "" if calgebra.passed(report) == expected_ok else
                     "unexpected verdict"))

    corpus = mll.load_corpus()
    sound = True
    for model_name in calgebra.shipped_model_names():
        model = calgebra.load_model(model_name)
        if not calgebra.passed(calgebra.check_ca(model)):
            continue
        for proof in corpus.values():
            if not calgebra.passed(mll.check_soundness(proof, model)):
                sound = False
    rows.append(("mll-corpus-soundness", sound, ""))

    hy_rows = hy_encodings.check_hy_reductions(config)
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
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config entry (repeatable)")
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
    p.add_argument("--universe", help="key=value spec: max_actions, names, "
                   "limit, fusions (|-separated literals)")
    p.add_argument("--pole", default="always")
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
    p.add_argument("--experimental-hy", action="store_true")
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
    except _parse_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
