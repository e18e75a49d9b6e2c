import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

from fusioncalc import cli
from fusioncalc.cli import main


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


def test_parser_is_built_once_and_keeps_no_state(capsys):
    """Options given to one call do not leak into the next."""
    assert cli._build_parser() is cli._build_parser()
    fusions = ("fusion", "join", "{0~1}", "{1~2}")
    code, out, _ = run(capsys, "--set", "class_budget=2", *fusions)
    assert code == 3 and "(class_budget=2)" in out
    code, out, _ = run(capsys, *fusions)
    assert (code, out) == (0, "{0~1~2}\n")
    laws = ("pole-laws", "--universe", "limit=4", "--samples", "1")
    code, out, _ = run(capsys, "--set", "nu_seed=np", "--format", "tsv", *laws)
    assert code == 0 and "# config" not in out
    code, out, _ = run(capsys, *laws)
    assert out.startswith("# config: class_budget=1024 nu_closure=literal "
                          "nu_seed=fn")


def test_normalize_and_equal(capsys):
    code, out, _ = run(capsys, "normalize", "<new 5. 5!() ; {}>")
    assert code == 0 and out.strip() == "<new 0. 0!() ; {}>"
    code, out, _ = run(capsys, "equal", "<1|0!().1 ; {}>", "<0!().1 ; {}>")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "equal", "<0!() ; {}>", "<1?() ; {}>")
    assert code == 1 and "not equal" in out and "normal form" in out


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


def test_nu_worked_example(capsys):
    code, out, _ = run(capsys, "nu", "@1", "<1!() ; {1~3, 5~4}>")
    assert code == 0 and out.strip() == "<new 3. 3!() ; {}>"


def test_fusion_subcommands(capsys):
    code, out, _ = run(capsys, "fusion", "class",
                       "{[1 <-> 1.2],[1.2 <-> 2.2]}", "1")
    assert code == 0 and out.strip() == "{0,1,2}"
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


def test_pole_laws_report_states_config(capsys):
    code, out, _ = run(capsys, "--set", "class_budget=2048", "pole-laws",
                       "--universe", "limit=20", "--samples", "2")
    assert code == 0 and "class_budget=2048" in out
    assert "universe-relative" in out


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


def test_hy_check_gated_behind_flag(capsys):
    code, out, _ = run(capsys, "hy-check")
    assert code == 2 and "--experimental-hy" in out
    code, out, _ = run(capsys, "hy-check", "--experimental-hy")
    assert code == 0 and "not-encodable" in out and "fail" not in out


def test_laws_suite(capsys):
    code, out, _ = run(capsys, "laws")
    assert code == 0 and "fail" not in out
    assert out.splitlines()[1] == "# sampled laws: samples=6 seed=0"
    assert "fusion-semi-distributivity-counterexample" in out
    assert "realizability-laws" in out and "mll-corpus-soundness" in out


def test_config_file_is_honoured(capsys, tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("# a larger class budget\nclass_budget = 2048\n"
                   "nu_seed = np\n")
    code, out, _ = run(capsys, "--config", str(cfg), "laws")
    assert code == 0 and "class_budget=2048" in out and "nu_seed=np" in out
    code, _, err = run(capsys, "--set", "bogus=1", "laws")
    assert code == 2 and "error:" in err


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


def test_mll_extract_honours_the_config(capsys):
    """The realizer's fusions exceed a tiny class budget: undecided."""
    code, out, _ = run(capsys, "--set", "class_budget=1", "mll", "extract",
                       "(tensor (ax X) (ax Y))")
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("((((COMP *1 ASSOC_R)")
    assert lines[-1].startswith("undecided: ")
    assert lines[-1].endswith("exceeds budget 1 (class_budget=1)")


def test_mll_sound_over_the_assignment_budget_is_undecided(capsys):
    proof = "(ax X1)"
    for i in range(2, 8):
        proof = f"(tensor {proof} (ax X{i}))"
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
    code, _, err = run(capsys, "--set", "sample_bound=4", "fusion", "equal",
                       "{[1 <-> 2]}", "{0~1}")
    assert code == 2 and "unknown config key: sample_bound" in err


def test_class_budget_overflow_is_undecided(capsys):
    code, out, _ = run(capsys, "--set", "class_budget=2", "fusion", "join",
                       "{0~1}", "{1~2}")
    assert code == 3
    assert out == ("undecided: class of 0 exceeds budget 2 "
                   "(class_budget=2)\n")
