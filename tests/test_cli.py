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


def test_hy_check_gated_behind_flag(capsys):
    code, out, _ = run(capsys, "hy-check")
    assert code == 2 and "--experimental-hy" in out
    code, out, _ = run(capsys, "hy-check", "--experimental-hy")
    assert code == 0 and "not-encodable" in out and "fail" not in out


def test_laws_suite(capsys):
    code, out, _ = run(capsys, "laws")
    assert code == 0 and "fail" not in out
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
    outputs = " | ".join(f"{x}!()" for x in range(1, 10))
    literal = f"<new {names}. ({outputs}) ; {{}}>"
    code, out, _ = run(capsys, "equal", literal, literal)
    assert code == 3
    assert out.startswith("undecided: canonicalization search space too large")
    assert "budget 40320" in out


def test_pole_laws_header_states_the_sample(capsys):
    code, out, _ = run(capsys, "pole-laws", "--universe", "limit=20",
                       "--samples", "3")
    assert code == 0 and "# sampled laws: samples=3 seed=0" in out
