import json
from pathlib import Path

import pytest

from adlc.cli import run


@pytest.fixture
def programs(tmp_path):
    files = {}
    sources = {
        "cubic.sexp": "(lam x (+ (* 2.0 x) (* (* x x) x)))",
        "square.sexp": "(lam x (* x x))",
        "quad.sexp": "(lam x (+ (+ (* x x) (* -6.0 x)) 9.0))",
        "tree_body.sexp": "(* (* l r) v)",
        "tree.tree": "(node 3.0 (leaf) (leaf))",
        "bad.sexp": "(foo x)",
        "loop.sexp": "(lam x (letrec loop (lam t (if (> t 1.0)"
                     " (app loop (* t 0.5)) t)) (app loop x)))",
    }
    for name, src in sources.items():
        f = tmp_path / name
        f.write_text(src + "\n")
        files[name] = str(f)
    return files


def test_grad_reverse_meta_shift_prints_5(capsys, programs):
    code = run(["grad", "--mode", "reverse-meta-shift", "--at", "1.0",
                programs["cubic.sexp"]])
    assert code == 0
    assert capsys.readouterr().out == "5\n"


def test_grad_probe_list(capsys, programs):
    # a list starting with a negative number needs the --at= form
    assert run(["grad", "--mode", "dual", "--at=-2.0,0.0,2.0",
                programs["cubic.sexp"]]) == 0
    assert capsys.readouterr().out == "14\n2\n14\n"


def test_grad_all_modes(capsys, programs):
    for mode in ("forward", "symbolic", "dual", "cps", "tape", "functional",
                 "reverse-target-shift", "reverse-meta-shift",
                 "reverse-cps-full", "staged"):
        assert run(["grad", "--mode", mode, "--at", "2.0",
                    programs["cubic.sexp"]]) == 0
        assert capsys.readouterr().out == "14\n"
    assert run(["grad", "--mode", "forward2", "--at", "2.0",
                programs["cubic.sexp"]]) == 0
    assert capsys.readouterr().out == "12\n"
    assert run(["grad", "--mode", "reverse2", "--at", "2.0",
                programs["cubic.sexp"]]) == 0
    assert capsys.readouterr().out == "12\n"


def test_grad_staged_tree(capsys, programs):
    assert run(["grad", "--mode", "staged", "--tree", programs["tree.tree"],
                "--at", "2.0", programs["tree_body.sexp"]]) == 0
    assert capsys.readouterr().out == "12\n"


def test_parse_and_eval(capsys, programs):
    assert run(["parse", programs["square.sexp"]]) == 0
    assert capsys.readouterr().out == "(lam x (* x x))\n"
    assert run(["eval", programs["square.sexp"]]) == 0
    assert capsys.readouterr().out == "<closure>\n"


def test_parse_error_exit_1(capsys, programs):
    assert run(["parse", programs["bad.sexp"]]) == 1
    assert "unknown form" in capsys.readouterr().err


def test_missing_file_exit_1(capsys):
    assert run(["parse", "/nonexistent/path.sexp"]) == 1


def test_bad_usage_exit_1(capsys, programs):
    with pytest.raises(SystemExit) as ei:
        run(["grad", "--mode", "nonsense", programs["square.sexp"]])
    assert ei.value.code == 1


@pytest.mark.parametrize("argv", [
    ["grad", "--mode", "dual", "--at", "abc"],
    ["grad", "--mode", "dual", "--at", ","],
    ["check", "--at", "x"],
    ["descend", "--rate", "0.1", "--steps", "1", "--at", ","],
    ["descend", "--rate", "0.1", "--steps", "1", "--at", "1.0,2.0"],
], ids=["grad-word", "grad-empty", "check-word", "descend-empty", "descend-list"])
def test_malformed_probe_is_a_usage_error(capsys, programs, argv):
    with pytest.raises(SystemExit) as ei:
        run([*argv, programs["cubic.sexp"]])
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert "error: argument --at:" in err and "Traceback" not in err


def test_anf(capsys, programs):
    assert run(["anf", programs["cubic.sexp"]]) == 0
    out = capsys.readouterr().out
    assert out.count("(let ") == 4


def test_transform_modes(capsys, programs):
    for mode in ("forward", "reverse-target-shift", "reverse-meta-shift",
                 "reverse-cps-full"):
        assert run(["transform", "--mode", mode, programs["square.sexp"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("(lam ")
        if mode == "reverse-target-shift":
            assert "(shift " in out
        if mode in ("reverse-meta-shift", "reverse-cps-full"):
            assert "(shift" not in out and "(reset" not in out


def test_check_single_program(capsys, programs):
    assert run(["check", programs["cubic.sexp"], "--at", "1.0"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("pass")


def test_option_abbreviations_are_not_accepted(capsys, programs):
    # --h would be --help, and --mod --mode: both exit 1 as unknown flags
    for argv in (["check", "--h", "1e-3", programs["cubic.sexp"]],
                 ["grad", "--mod", "dual", programs["cubic.sexp"]]):
        with pytest.raises(SystemExit) as ei:
            run(argv)
        assert ei.value.code == 1


def test_check_tolerance_is_not_settable(capsys, programs):
    # no flag can loosen a check
    with pytest.raises(SystemExit) as ei:
        run(["check", "--tol", "1e-3", programs["cubic.sexp"]])
    assert ei.value.code == 1


def test_check_json(capsys, programs):
    assert run(["check", programs["cubic.sexp"], "--at", "1.0,2.0",
                "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 2 and all(d["pass"] for d in data)
    assert data[0]["gradients"]["staged"] == 5.0


def test_codegen_contains_2in(tmp_path, programs):
    out = tmp_path / "out.c"
    assert run(["codegen", "--opt", "all", programs["square.sexp"],
                "-o", str(out)]) == 0
    text = out.read_text()
    assert "2 * in" in text


def test_codegen_opt_none_keeps_cells(capsys, programs):
    assert run(["codegen", "--opt", "none", programs["square.sexp"]]) == 0
    out = capsys.readouterr().out
    assert "+=" in out


def test_codegen_stdout_deterministic(capsys, programs):
    assert run(["codegen", "--opt", "all", programs["loop.sexp"]]) == 0
    a = capsys.readouterr().out
    assert run(["codegen", "--opt", "all", programs["loop.sexp"]]) == 0
    assert capsys.readouterr().out == a
    assert "(double x, double& d)" in a


def test_descend(capsys, programs):
    assert run(["descend", "--rate", "0.1", "--steps", "3", "--at", "0.0",
                programs["quad.sexp"]]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    assert lines[0].split("\t") == ["0", "0", "9"]


def test_demo_runs(capsys):
    assert run(["demo"]) == 0
    out = capsys.readouterr().out
    assert "2 + 3x^2" in out and "0.125" in out


def test_depth_limit_flag(capsys, programs):
    assert run(["grad", "--mode", "staged", "--at", "8.0",
                "--depth-limit", "16", programs["loop.sexp"]]) == 0
    assert capsys.readouterr().out == "0.125\n"
    # a limit below the loop's chain length aborts with a diagnostic
    assert run(["grad", "--mode", "staged", "--at", "8.0",
                "--depth-limit", "2", programs["loop.sexp"]]) == 1
    assert "depth limit" in capsys.readouterr().err


def test_check_exit_2_when_modes_cannot_agree(capsys, tmp_path):
    # control flow is outside symbolic's ANF fragment; the failure is
    # recorded per entry and surfaces as exit code 2
    f = tmp_path / "branchy.sexp"
    f.write_text("(lam x (if (> x 0.0) (* x x) (+ x x)))\n")
    assert run(["check", str(f), "--at", "1.0"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_tree_flag_requires_staged_mode(capsys, programs):
    assert run(["grad", "--mode", "dual", "--tree", programs["tree.tree"],
                "--at", "2.0", programs["tree_body.sexp"]]) == 1
    assert "--mode staged" in capsys.readouterr().err


def test_codegen_tree(capsys, programs):
    # --tree is a flag: the tree itself is a run-time input of the code
    assert run(["codegen", "--opt", "none", "--tree", programs["tree_body.sexp"]]) == 0
    out = capsys.readouterr().out
    assert "Tree" in out and "snippet(Tree tree, double in)" in out


PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
CONTROL_FLOW_MODES = ("forward", "dual", "cps", "tape", "functional",
                      "reverse-target-shift", "reverse-meta-shift",
                      "reverse-cps-full", "staged")


@pytest.mark.parametrize("mode", CONTROL_FLOW_MODES)
def test_grad_control_flow_builds_only_the_chosen_mode(capsys, mode):
    # symbolic's ANF rejects these programs; the chosen mode handles them
    assert run(["grad", "--mode", mode, "--at", "8.0",
                str(PROGRAMS / "halve_loop.sexp")]) == 0
    assert capsys.readouterr().out == "0.125\n"
    assert run(["grad", "--mode", mode, "--at", "2.0",
                str(PROGRAMS / "sign_square.sexp")]) == 0
    assert capsys.readouterr().out == "-4\n"


def test_descend_staged_on_a_loop(capsys):
    assert run(["descend", "--mode", "staged", "--rate", "0.1", "--steps", "3",
                "--at", "8.0", str(PROGRAMS / "halve_loop.sexp")]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 4


def test_descend_rejects_second_order_modes(capsys, programs):
    for mode in ("forward2", "reverse2"):
        with pytest.raises(SystemExit) as ei:
            run(["descend", "--mode", mode, "--rate", "0.1", "--steps", "1",
                 programs["quad.sexp"]])
        assert ei.value.code == 1


def test_grad_program_errors_exit_1(capsys, tmp_path):
    f = tmp_path / "bad.sexp"
    for src, mode, msg in (("(lam x (pair x x))", "forward", "did not return a real"),
                           ("(lam x y)", "dual", "unbound variable: y")):
        f.write_text(src + "\n")
        assert run(["grad", "--mode", mode, str(f)]) == 1
        assert msg in capsys.readouterr().err


def test_deep_nesting_is_an_error_not_a_traceback(capsys, tmp_path):
    f = tmp_path / "deep.sexp"
    f.write_text("(lam x " + "(+ x " * 2000 + "x" + ")" * 2000 + ")\n")
    for argv in (["parse"], ["grad", "--mode", "forward"]):
        assert run(argv + [str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("adlc: error:") and "Traceback" not in err
