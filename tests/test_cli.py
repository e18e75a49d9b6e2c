import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from fusioncalc import cli
from fusioncalc.cli import main
from fusioncalc.fusion import parse_fusion

from test_fusion import class_budget

# two chains within the class budget of 1,024 names whose join is one
# finite class of 1,100 names: undecided, although finite
HALF_CHAINS = ("{" + "~".join(map(str, range(550))) + "}",
               "{" + "~".join(map(str, range(549, 1100))) + "}")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_echoes_and_rejects(capsys):
    code, out, _ = run(capsys, "parse", "<0!(1).1 ; {0~1}>")
    assert code == 0 and out.strip() == "<0!(1) ; {0~1}>"
    code, out, _ = run(capsys, "parse", "--kind", "fusion", "{0~1, 2~3}")
    assert code == 0 and out.strip() == "{0~1, 2~3}"
    code, _, err = run(capsys, "parse", "garbage")
    assert code == 2 and "error:" in err


def test_parse_reports_a_bad_name_with_its_position(capsys):
    """A name starts with a digit, and a name `parse_name` rejects keeps
    its message and gains the position of the name."""
    for text, message in [
            ("<new .1 ; {}>", "expected a name at position 4"),
            ("<0.3!() ; {}>",
             "word letters must be 1 or 2: '3' at position 0 in '0.3!() '"),
            ("<1.3!() ; {}>", "word letters must be 1 or 2: '3' at position 0"),
            ("<0!(1.2, 2.3) ; {}>",
             "word letters must be 1 or 2: '3' at position 8"),
            ("<0!() | ٣?() ; {}>",
             "a name is a decimal natural: '٣' at position 7")]:
        code, out, err = run(capsys, "parse", text)
        assert (code, out) == (2, ""), text
        assert message in err, (text, err)


def test_parse_reads_a_new_binder_followed_at_once_by_a_digit(capsys):
    """A binder read greedily takes the body's subject as its last
    dotted segment; where no "." follows, the segment goes back to the
    body."""
    for text, printed in [("<new 1.1!() ; {}>", "<new 1. 1!() ; {}>"),
                          ("<new 0.0!() ; {}>", "<new 0. 0!() ; {}>"),
                          ("<new 0.1!() ; {}>", "<1!() ; {}>"),
                          ("<new 1.1.2!() | 3?() ; {}>",
                           "<new 3. 2!() | 3?() ; {}>"),
                          ("<new 5 1.1 | 5?() ; {}>", "<new 5. 5?() ; {}>"),
                          ("<new 1.1. 3!() ; {}>", "<new 3. 3!() ; {}>")]:
        code, out, _ = run(capsys, "parse", text)
        assert (code, out) == (0, printed + "\n"), text
        code, again, _ = run(capsys, "parse", printed)
        assert (code, again) == (0, out), printed
    code, out, err = run(capsys, "parse", "<new 1.2 | 3!() ; {}>")
    assert (code, out) == (2, "") and "expected '!' or '?'" in err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    """Options given to one call do not leak into the next, nor does a
    class walk that exceeded the budget."""
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = run(capsys, "fusion", "join", *HALF_CHAINS)
    assert code == 3 and "(class_budget=1024)" in out
    code, out, _ = run(capsys, "fusion", "join", "{0~1}", "{1~2}")
    assert (code, out) == (0, "{0~1~2}\n")
    laws = ("pole-laws", "--universe", "limit=4", "--samples", "1")
    code, out, _ = run(capsys, "--format", "tsv", *laws)
    assert code == 0 and "#" not in out
    code, out, _ = run(capsys, *laws)
    assert out.startswith("# universe-relative report: 4 members")


def test_normalize_and_equal(capsys):
    code, out, _ = run(capsys, "normalize", "<new 5. 5!() ; {}>")
    assert code == 0 and out.strip() == "<new 0. 0!() ; {}>"
    code, out, _ = run(capsys, "equal", "<1|0!().1 ; {}>", "<0!().1 ; {}>")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "equal", "<0!() ; {}>", "<1?() ; {}>")
    assert code == 1 and "not equal" in out and "normal form" in out


def test_normalize_lists_each_new_s_binders_in_ascending_order(capsys):
    """A binder pushed onto a component that a binder was pushed onto
    before joins its `new`, and does not nest a second one."""
    code, out, _ = run(capsys, "normalize",
                       "<new 0 1. (0!().1?() | 1!().0?() | 2?(5).5!()) ; {}>")
    assert (code, out) == (
        0, "<2?(0).0!() | (new 1 3. 1!().3?() | 3!().1?()) ; {}>\n")


def test_equal_on_nine_identical_siblings(capsys):
    flat = " | ".join(["0!()"] * 9)
    nested = "0!() | (" * 8 + "0!()" + ")" * 8
    code, out, _ = run(capsys, "equal", f"<{flat} ; {{}}>",
                       f"<{nested} ; {{}}>")
    assert code == 0 and out.strip() == "equal"


def test_reduce_lists_reducts_in_order(capsys):
    code, out, _ = run(capsys, "reduce", "<0!().1|0?().1 ; {}>",
                       "--steps", "2")
    assert code == 0 and out.splitlines() == ["<1 ; {}>"]
    code, out, _ = run(capsys, "reduce", "<0!() ; {}>")
    assert code == 0 and out == ""


def test_reduce_rejects_negative_steps(capsys):
    code, out, err = run(capsys, "reduce", "<0!().1|0?().1 ; {}>",
                         "--steps", "-1")
    assert code == 2 and out == "" and "--steps" in err


# `fusioncalc reduce` listings, recorded at commit e4c69a6, before a
# class that binds no name was printed from its key: the three anchors
# of the benchmark's `reduce` workload, whose digests are its regression
# goldens, and a term whose classes bind names and bind none.
REDUCE_LISTINGS = [
    ("<0!().1?() | 2?().3!() | 1!() | 3?() | 2!() | 0?() ; {0~2, 1~3}>",
     4, "{0~2, 1~3}", [
        "0?() | 0!()",
        "0?() | 0!() | 1?() | 1!()",
        "0?() | 0!() | 1?() | 1?() | 1!() | 1!()",
        "0?() | 0!().1?() | 1!()",
        "0?() | 0!().1?() | 1?() | 1!() | 1!()",
        "0?().1!() | 0!() | 1?()",
        "0?().1!() | 0!() | 1?() | 1?() | 1!()",
        "0?().1!() | 0!().1?()",
        "0?().1!() | 0!().1?() | 1?() | 1!()",
        "0?().1!() | 0?() | 0!().1?() | 0!()",
        "1",
        "1?() | 1!()",
        "1?() | 1?() | 1!() | 1!()",
    ]),
    ("<3?().0!() | 1!().2?() | 0?().1!() | 2!().3?() | 1?() | 3!()"
     " ; {0~2, 1~3}>", 5, "{0~2, 1~3}", [
        "0!() | 1?() | 1!().0?()",
        "0!() | 1?() | 1?() | 1!().0?() | 1!()",
        "0!().1?() | 1!().0?()",
        "0!().1?() | 1?() | 1!().0?() | 1!()",
        "0?() | 0!()",
        "0?() | 0!() | 1?() | 1!()",
        "0?() | 0!() | 1?() | 1?() | 1!() | 1!()",
        "0?() | 0!().1?() | 1!()",
        "0?() | 0!().1?() | 1?() | 1!() | 1!()",
        "0?() | 1?().0!() | 1!()",
        "0?() | 1?().0!() | 1?() | 1!() | 1!()",
        "0?().1!() | 0!() | 1?()",
        "0?().1!() | 0!() | 1?() | 1?() | 1!()",
        "0?().1!() | 0!().1?()",
        "0?().1!() | 0!().1?() | 0!() | 1?() | 1!().0?()",
        "0?().1!() | 0!().1?() | 1?() | 1!()",
        "0?().1!() | 0!().1?() | 1?().0!() | 1!().0?()",
        "0?().1!() | 0?() | 0!().1?() | 0!()",
        "0?().1!() | 0?() | 0!().1?() | 0!() | 1?() | 1!()",
        "0?().1!() | 0?() | 0!().1?() | 1?().0!() | 1!()",
        "0?().1!() | 1?().0!()",
        "0?().1!() | 1?().0!() | 1?() | 1!()",
        "1",
        "1?() | 1!()",
        "1?() | 1?() | 1!() | 1!()",
        "1?().0!() | 1!().0?()",
        "1?().0!() | 1?() | 1!().0?() | 1!()",
        "1?().0!() | 1?() | 1?() | 1!().0?() | 1!() | 1!()",
    ]),
    ("<0!() | 2?() | 1?().3!() | 3!().1?() | 4!() ; {0~2, 1~3}>", 3,
     "{0~2, 1~3}", [
        "0?() | 0!() | 1?() | 1!() | 4!()",
        "0?() | 0!() | 4!()",
        "1?() | 1!() | 4!()",
        "1?().1!() | 1!().1?() | 4!()",
        "4!()",
    ]),
    ("<0!(1).1!() | 0?(2).2?() | 3!() | 3?() ; {}>", 3, "{}", [
        "0?(1).1?() | 0!(2).2!()",
        "1",
        "3?() | 3!()",
        "3?() | 3!() | (new 0. 0?() | 0!())",
        "new 0. 0?() | 0!()",
    ]),
]


def test_reduce_listings_are_pinned(capsys):
    """The listings print byte for byte what they printed before, and
    the anchors' digests are the benchmark's goldens."""
    goldens = json.loads((Path(__file__).resolve().parent.parent /
                          "perfbench" / "goldens.json").read_text())
    digests = []
    for literal, steps, fus, forms in REDUCE_LISTINGS:
        code, out, _ = run(capsys, "reduce", literal, "--steps", str(steps))
        assert code == 0
        assert out == "".join(f"<{form} ; {fus}>\n" for form in forms)
        digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert digests[:3] == goldens["reduce_listings"]


def test_negative_names_are_rejected(capsys):
    """A negative free name would read as a binder of the multiset form."""
    for argv in (("equal", "<2!() ; {-1~2}>", "<2!() ; {-1~2}>"),
                 ("normalize", "<2!() ; {-1~2}>"),
                 ("fusion", "class", "{0~1}", "-1"),
                 ("fusion", "class", "{0~1}", "+1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "decimal natural" in err


def test_a_dotted_name_needs_a_letter_after_each_dot(capsys):
    """`word` once stripped its text, so `1. 2` read as the name 2."""
    for argv, message in (
            (("fusion", "class", "{0~2}", "1. 2"), "word letters"),
            (("fusion", "class", "{0~2}", "1."), "a dot needs a word letter"),
            (("nu", "{1. 2}", "<2!() ; {}>"), "expected ',' at position 2"),
            (("fusion", "restrict", "{0~2}", "{0,1.}"),
             "expected ',' at position 4")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, (argv, err)


def test_every_natural_is_ascii_digits(capsys, tmp_path):
    """`int()` takes other numerals and `_`; no reader of a natural
    does."""
    model = (resources.files("fusioncalc") / "models" /
             "boolean2.model").read_text(encoding="utf-8")
    path = tmp_path / "window.model"
    path.write_text(model.replace("[window]\n0 1", "[window]\n٠ ١"))
    for argv, message in (
            (("pole-laws", "--universe", "limit=١٦"),
             "limit is a decimal natural: '١٦'"),
            (("pole-laws", "--universe", "limit=1_6"),
             "limit is a decimal natural: '1_6'"),
            (("mll", "check", "(ex (٢ ١) (ax X))"),
             "a permutation entry is a decimal natural: '٢' at position 5"),
            (("algebra-check", "--level", "ccpa", str(path)),
             "a [window] name is a decimal natural: '٠'")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {message}" + (
            f" in {argv[-1]!r}\n" if "position" in message else "\n"), argv


def test_fusion_equal_on_invalid_fusions_is_undecided(capsys):
    for left, right in (("{[ <-> 2]}", "{0~1, [ <-> 2]}"),
                        ("{[ <-> 1.1.1]}", "{[2 <-> 1.2.2]}")):
        code, out, _ = run(capsys, "fusion", "equal", left, right)
        assert code == 3 and out.startswith("undecided: ")


def test_nu_worked_example(capsys):
    code, out, _ = run(capsys, "nu", "@1", "<1!() ; {1~3, 5~4}>")
    assert code == 0 and out.strip() == "<new 3. 3!() ; {}>"


def test_fusion_subcommands(capsys):
    code, out, _ = run(capsys, "fusion", "class",
                       "{[1 <-> 1.2],[1.2 <-> 2.2]}", "1")
    assert code == 0 and out.strip() == "{0,1,2}"
    code, out, _ = run(capsys, "fusion", "class", "{0~1.1}", "0.2")
    assert code == 0 and out.strip() == "{0,3}"
    code, out, _ = run(capsys, "fusion", "join", "{0~1}", "{1~2}")
    assert code == 0 and out.strip() == "{0~1~2}"
    code, out, _ = run(capsys, "fusion", "remove", "{0~1, 2~3}", "{0}")
    assert code == 0 and out.strip() == "{2~3}"
    code, _, _ = run(capsys, "fusion", "equal", "{0~1, 1~2}", "{0~2, 1~2}")
    assert code == 0
    code, _, _ = run(capsys, "fusion", "equal", "{0~1}", "{0~2}")
    assert code == 1


def test_star_command(capsys):
    code, out, _ = run(capsys, "star", "1", "<0!() ; {}>", "<1?() ; {}>")
    assert code == 0 and out.strip() == "<new 3. 0!() | 3?() ; {}>"


def test_pole_laws_report(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "pole-laws",
                       "--universe", "limit=30", "--pole", "done:6",
                       "--samples", "4")
    assert code == 0
    lines = [line.split("\t") for line in out.splitlines()]
    assert all(row[1] == "pass" for row in lines)
    assert {"subset-of-biorthogonal", "tensor-over-join",
            "parallel-join-compatibility"} <= {row[0] for row in lines}
    code, _, err = run(capsys, "pole-laws", "--universe", "limit=20",
                       "--pole", "sometimes")
    assert code == 2 and "error:" in err


LAW_REPORT_DIGESTS = {
    # sha256 of the stdout of each command, recorded at commit c60c93d;
    # re-recorded when the config banner became `class_budget=1024`
    # alone, and again when that banner line went, each time the only
    # line that changed
    ("laws",):
        "54f4dc92fe155ea0e2be613b56c343f12198d96b2b73a2084769e7ff448c494c",
    ("pole-laws", "--universe", "limit=60", "--pole", "done:8"):
        "11295605c68c1f74e5bea882d704b2adb40a9d952a60550ae4b731e820a4afb0",
    # recorded at commit efe531b, before the matrix paired composites by
    # balance signature; re-recorded when the banner line went, the only
    # line that changed
    ("pole-laws", "--universe", "limit=400", "--pole", "done:8"):
        "c8751ec0f38bcac5ca1bc4bc70dda3a9bbbc61e9b6564e5630a68da247f197bd",
}


def test_law_reports_match_their_recorded_digests(capsys):
    """Regression goldens: the law reports print byte for byte what
    they printed before the universe built its images from nodes."""
    for argv, expected in LAW_REPORT_DIGESTS.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == expected, argv


def test_exact_done_pole_prints_the_rows_of_done_8(capsys):
    """Members of the default universe have at most 4 prefixes, so a
    composite has at most 8, and `done:8`, which decides every term
    with at most 16 prefixes, matches the exact pole: the rows are the
    same, and only the header differs, saying the pole is exact."""
    laws = ("pole-laws", "--universe", "limit=160")
    code, exact, _ = run(capsys, *laws, "--pole", "done")
    assert code == 0
    code, bounded, _ = run(capsys, *laws, "--pole", "done:8")
    assert code == 0
    exact, bounded = exact.splitlines(), bounded.splitlines()
    assert exact[0] == "# universe-relative report: 160 members, " \
        "pole done (exact)"
    assert bounded[0].endswith("pole done:8")
    assert exact[1:] == bounded[1:]


def test_a_result_with_no_finite_presentation_has_its_own_exit_code(capsys):
    """ν of a valid PWF can remove single instances of a family: the
    input parses and the verdict is decided, so the exit code is
    neither a parse error's (2) nor an undecided verdict's (3)."""
    code, out, err = run(capsys, "nu", "{0,2}", "<0!() ; {[1 <-> 2]}>")
    assert (code, err) == (4, "")
    assert out == ("not representable: restriction removes single "
                   "instances of a family (index 0); the result has no "
                   "finite presentation\n")
    code, out, err = run(capsys, "nu", "{0,2}", "<0!() ; {[1 <-> 3]}>")
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_pole_laws_rejects_bounds_that_decide_nothing(capsys):
    laws = ("pole-laws", "--universe", "limit=4")
    for pole in ("done:-1", "done:x"):
        code, out, err = run(capsys, *laws, "--pole", pole)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unknown pole '{pole}'")
    for samples in ("0", "-2"):
        code, out, err = run(capsys, *laws, "--samples", samples)
        assert (code, out) == (2, "")
        assert err == f"error: --samples must be at least 1, not {samples}\n"


def test_pole_laws_rejects_a_universe_spec_out_of_bounds(capsys):
    """A universe of one member, or with max_actions capped silently,
    would report on a universe the spec did not ask for."""
    for spec, message in (("limit=0", "limit must be at least 1, not 0"),
                          ("limit=-5", "limit must be at least 1, not -5"),
                          ("names=-1", "names must be at least 0, not -1"),
                          ("max_actions=3",
                           "max_actions must be 0, 1 or 2, not 3"),
                          ("max_actions=-1",
                           "max_actions must be 0, 1 or 2, not -1")):
        code, out, err = run(capsys, "pole-laws", "--universe", spec)
        assert (code, out) == (2, ""), spec
        assert err == f"error: {message}\n", spec


def test_pole_laws_universe_spec_keeps_the_items_of_a_fusion(capsys):
    """The spec splits only at commas outside {...} and [...]."""
    spec = "max_actions=1, limit=100, fusions={0~1, 2~3}|{[1 <-> 2], 0~1}"
    assert {m.fus for m in cli._parse_universe_spec(spec)} == {
        parse_fusion("{0~1, 2~3}"), parse_fusion("{[1 <-> 2], 0~1}")}
    code, out, _ = run(capsys, "pole-laws", "--universe",
                       "limit=6,fusions={0~1, 2~3}|{[1 <-> 2], 0~1}")
    assert code == 0
    assert out.startswith("# universe-relative report: 6 members")


def test_pole_laws_report_states_config(capsys):
    """The header states what the run was given: the universe size, the
    pole and the sample."""
    code, out, _ = run(capsys, "pole-laws", "--universe", "limit=20",
                       "--pole", "done:2", "--samples", "2")
    assert code == 0
    assert out.splitlines()[:2] == [
        "# universe-relative report: 20 members, pole done:2",
        "# sampled laws: samples=2 seed=0"]


def test_algebra_check(capsys):
    code, out, _ = run(capsys, "algebra-check", "boolean4", "--level", "cpa")
    assert code == 0 and "rhd-adjunction" in out
    code, out, _ = run(capsys, "algebra-check", "mutated_diamond",
                       "--level", "cs")
    assert code == 1 and "perp-de-morgan" in out
    code, _, err = run(capsys, "algebra-check", "no_such_model")
    assert code == 2 and "error:" in err


def test_algebra_check_reports_a_non_lattice(capsys, tmp_path):
    """The derived level reports the missing joins as the `cs` level
    does, instead of exiting as on a parse error."""
    model = tmp_path / "antichain.model"
    text = (resources.files("fusioncalc") / "models" /
            "boolean2.model").read_text(encoding="utf-8")
    model.write_text(text.replace("0 <= 1", "1 <= 1"), encoding="utf-8")
    for level in ("cs", "derived"):
        code, out, _ = run(capsys, "algebra-check", str(model),
                           "--level", level)
        assert code == 1
        assert "fail  all-joins-exist  [carrier has no bottom element]" \
            in out.splitlines()


def test_mll_commands(capsys):
    code, out, _ = run(capsys, "mll", "check", "(tensor (ax X) (ax Y))")
    assert code == 0 and out.strip() == "|- X^, X * Y^, Y"
    code, out, _ = run(capsys, "mll", "check", "(cut (ax X) (ax Y) X)")
    assert code == 1 and "invalid proof" in out
    code, out, _ = run(capsys, "mll", "interpret", "X * Y^",
                       "--model", "boolean2", "--assign", "X=1,Y=0")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "mll", "extract", "(cut (ax X) (ax X) X)")
    assert code == 0
    assert out.splitlines()[0] == "((COMP *1 ID) *1 ID)"
    code, out, _ = run(capsys, "mll", "sound", "(one)")
    assert code == 0 and "boolean2:<argument>" in out and "skipped" in out


def test_mll_interpret_rejects_values_outside_the_carrier(capsys):
    for formula in ("X^", "X"):
        code, out, err = run(capsys, "mll", "interpret", formula,
                             "--model", "boolean2", "--assign", "X=7")
        assert (code, out) == (2, "")
        assert err == "error: value '7' of X is not in the carrier\n"
    code, out, err = run(capsys, "mll", "interpret", "X^",
                         "--model", "boolean2", "--assign", "X")
    assert (code, out) == (2, "")
    assert err == "error: assignments look like X=element: 'X'\n"


def test_mll_interpret_reads_each_key_as_one_variable_assigned_once(capsys):
    for assign, message in (
            ("X=0,=1", "expected a variable at position 0 in '=1'"),
            ("X=0, É=1", "expected a variable at position 1 in ' É=1'"),
            ("X=0,X=1", "variable X is assigned twice")):
        code, out, err = run(capsys, "mll", "interpret", "X * Y^",
                             "--model", "boolean2", "--assign", assign)
        assert (code, out, err) == (2, "", f"error: {message}\n"), assign


def test_a_repeated_universe_spec_key_is_an_error(capsys):
    for spec, key in (("limit=5,limit=6", "limit"),
                      ("fusions={},names=2,fusions={0~1}", "fusions")):
        code, out, err = run(capsys, "pole-laws", "--universe", spec,
                             "--pole", "done:2")
        assert (code, out) == (2, ""), spec
        assert err == f"error: repeated universe spec key {key!r}\n", spec


def test_hy_check_runs_without_a_flag(capsys):
    code, out, _ = run(capsys, "hy-check")
    assert code == 0 and "not-encodable" in out and "fail" not in out


def test_laws_suite(capsys):
    code, out, _ = run(capsys, "laws")
    assert code == 0 and "fail" not in out
    assert out.splitlines()[0] == "# sampled laws: samples=6 seed=0"
    assert "fusion-semi-distributivity-counterexample" in out
    assert "realizability-laws" in out and "mll-corpus-soundness" in out


def test_config_option_is_a_usage_error(capsys, tmp_path):
    """The class budget is a constant: `--config FILE` and `--set` are
    unknown options, so argparse rejects them before any command runs."""
    config = tmp_path / "opts.cfg"
    config.write_text("class_budget = 2048\n")
    for argv in (["--config", str(config), "laws"],
                 ["--set", "class_budget=2", "laws"],
                 ["--set", "bogus=1", "laws"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2, argv
        assert captured.out == "" and "usage: fusioncalc" in captured.err


def test_search_budget_is_undecided_not_a_parse_error(capsys):
    names = " ".join(str(x) for x in range(1, 10))
    # nine separately restricted outputs share no name: no search at all
    outputs = " | ".join(f"{x}!()" for x in range(1, 10))
    literal = f"<new {names}. ({outputs}) ; {{}}>"
    code, out, _ = run(capsys, "equal", literal, literal)
    assert (code, out) == (0, "equal\n")
    # nine siblings of one skeleton around one shared restricted name,
    # each another's with two pairs of names swapped: no single swap
    # maps them onto themselves, and their orders exceed the budget
    pairs = " ".join(str(x) for x in range(11, 20))
    star = " | ".join(f"{x}!().0?().{x + 10}?()" for x in range(1, 10))
    literal = f"<new 0 {names} {pairs}. ({star}) ; {{}}>"
    for argv in (("equal", literal, literal), ("normalize", literal)):
        code, out, _ = run(capsys, *argv)
        assert code == 3
        assert out.startswith(
            "undecided: canonicalization search space too large")
        assert "budget 40320" in out


def test_equal_keeps_its_verdict_when_a_normal_form_exceeds_the_budget(
        capsys):
    """The double-swap star and `<0!() ; {}>` differ in their actions, so
    `equal` decides `not equal` with no key; the star's normal form
    exceeds the search budget, and its line says so and names the
    budget, while the decided verdict sets the exit code."""
    names = " ".join(str(x) for x in range(1, 20) if x != 10)
    star = " | ".join(f"{x}!().0?().{x + 10}?()" for x in range(1, 10))
    code, out, _ = run(capsys, "equal", f"<new 0 {names}. ({star}) ; {{}}>",
                       "<0!() ; {}>")
    assert code == 1
    verdict, left, right = out.splitlines()
    assert verdict == "not equal"
    assert left.startswith("  left  normal form: not printed: "
                           "canonicalization search space too large")
    assert left.endswith("budget 40320")
    assert right == "  right normal form: <0!() ; {}>"


def test_normalize_decides_the_symmetric_stars(capsys):
    names = " ".join(str(x) for x in range(1, 10))
    outputs = " | ".join(f"{x}!()" for x in range(1, 10))
    code, out, _ = run(capsys, "normalize", f"<new {names}. ({outputs}) ; {{}}>")
    assert (code, out) == (0, "<" + " | ".join(
        f"(new {x}. {x}!())" for x in range(9)) + " ; {}>\n")
    # the two sides differ in their actions: no key is computed, and
    # each normal form is found by swap pruning
    star = " | ".join(f"{x}!().0?()" for x in range(1, 10))
    code, out, _ = run(capsys, "equal", f"<new 0 {names}. ({star}) ; {{}}>",
                       "<1 ; {}>")
    assert code == 1
    assert out.splitlines() == [
        "not equal",
        "  left  normal form: <new 1. " + " | ".join(
            f"(new {x}. {x}!().1?())" for x in (0, *range(2, 10))) + " ; {}>",
        "  right normal form: <1 ; {}>"]


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "fusioncalc", "parse",
                           "--kind", "process", "0!()"], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0!()\n")


IMPORTS = """
import sys
from fusioncalc import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("fusioncalc.")))
"""


def modules_loaded(*argv):
    """The exit code and the fusioncalc modules a fresh interpreter has
    loaded after `cli.main(argv)`."""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", IMPORTS, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    code, *modules = done.stdout.splitlines()[-1].split()
    return int(code), {m.split(".")[1] for m in modules}


def test_cli_imports_only_what_a_command_reads(tmp_path):
    code, loaded = modules_loaded("reduce", "<0!() | 0?() ; {}>")
    assert code == 0
    assert not loaded & {"calgebra", "mll", "hy_encodings", "realizability"}
    # an error of a module imported on demand is still a parse error
    code, loaded = modules_loaded("mll", "interpret", "X", "--model",
                                  "boolean2", "--assign", "X=7")
    assert code == 2 and {"calgebra", "mll"} <= loaded
    model = tmp_path / "bad.model"
    model.write_text("stray tokens\n")
    code, loaded = modules_loaded("algebra-check", str(model))
    assert code == 2 and "mll" not in loaded


def test_pole_laws_header_states_the_sample(capsys):
    code, out, _ = run(capsys, "pole-laws", "--universe", "limit=20",
                       "--samples", "3")
    assert code == 0 and "# sampled laws: samples=3 seed=0" in out


def test_mll_extract_past_the_class_budget_is_undecided(capsys):
    """The realizer's fusions exceed a class budget of 1: undecided.  No
    corpus proof has a realizer past the real budget of 1,024, nor had
    any of 45,824 random proofs of depth at most 4, so the test lowers
    the budget."""
    with class_budget(1):
        code, out, _ = run(capsys, "mll", "extract", "(tensor (ax X) (ax Y))")
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("((((COMP *1 ASSOC_R)")
    assert lines[-1].startswith("undecided: ")
    assert lines[-1].endswith("exceeds budget 1 (class_budget=1)")


def test_mll_sound_over_the_assignment_budget_is_undecided(capsys):
    proof = "(ax A)"
    for name in "BCDEFG":
        proof = f"(tensor {proof} (ax {name}))"
    code, out, _ = run(capsys, "mll", "sound", proof)
    assert code == 3
    assert out.splitlines()[-1] == (
        "undecided: soundness check needs 16384 assignments, budget 4096")


def test_family_equality_is_decided_past_the_old_sample(capsys):
    """The 256 pairs 2n~2n+1, n < 256, agree with [1 <-> 2] on every
    instance below 256; the instance n = 256 relates 513 and 512 on the
    left only."""
    pairs = "{" + ", ".join(f"{2 * n}~{2 * n + 1}" for n in range(256)) + "}"
    code, out, _ = run(capsys, "fusion", "equal", "{[1 <-> 2]}", pairs)
    assert code == 1 and out == "not equal\n"


def test_sample_bound_is_no_longer_a_config_key(capsys):
    """No key is: `--set` is no option, so argparse refuses it."""
    with pytest.raises(SystemExit) as info:
        main(["--set", "sample_bound=4", "fusion", "equal", "{[1 <-> 2]}",
              "{0~1}"])
    assert info.value.code == 2
    assert "usage: fusioncalc" in capsys.readouterr().err


def test_class_budget_overflow_is_undecided(capsys):
    """A finite class past the budget and an infinite class are both
    undecided, and the line names the budget."""
    code, out, _ = run(capsys, "fusion", "join", *HALF_CHAINS)
    assert code == 3
    assert out == ("undecided: class of 0 exceeds budget 1024 "
                   "(class_budget=1024)\n")
    code, out, _ = run(capsys, "fusion", "join", "{[1 <-> 2]}",
                       "{[2 <-> 2.2.2.1]}")
    assert code == 3
    assert out == ("undecided: family class of @1.1 exceeds budget 1024 "
                   "(class_budget=1024)\n")
