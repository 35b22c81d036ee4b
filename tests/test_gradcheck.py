import math

import pytest

from adlc import gradcheck
from adlc.gradcheck import (
    ALL_MODES, MODES, CorpusSpec, DivergenceError, ProgramGradients,
    check_one, crosscheck, finite_diff, gradient_descent, gradient_fn,
    primal_fn, random_program, report_json, report_line,
)
from adlc.syntax import LangError, Lam, Let, Var, parse

QUAD = parse("(lam x (+ (+ (* x x) (* -6.0 x)) 9.0))")


# --- finite differences -----------------------------------------------------

def test_finite_diff_square():
    # analytic derivative of x^2 at 3 is 6
    assert abs(finite_diff(lambda x: x * x, 3.0, h=1e-6) - 6.0) <= 1e-5


def test_finite_diff_constant():
    assert abs(finite_diff(lambda x: 4.0, 1.0)) <= 1e-12


def test_finite_diff_cubic():
    # analytic 2 + 3x^2 at 1 -> 5
    f = lambda x: 2 * x + x ** 3
    assert abs(finite_diff(f, 1.0, h=1e-6) - 5.0) <= 1e-5


def test_finite_diff_default_step_scales():
    big = finite_diff(lambda x: x * x, 1e6)
    assert abs(big - 2e6) <= 1.0


# --- corpus -------------------------------------------------------------------

def test_random_program_deterministic():
    spec = CorpusSpec(seed=7, count=5)
    assert random_program(spec, 3) == random_program(spec, 3)
    assert random_program(spec, 3) != random_program(CorpusSpec(seed=8), 3)


def test_random_program_single_op():
    spec = CorpusSpec(seed=1, ops_per_program=1)
    f = random_program(spec, 0)
    assert isinstance(f, Lam) and isinstance(f.body, Let)
    assert isinstance(f.body.body, Var)


def test_corpus_programs_evaluate_everywhere():
    spec = CorpusSpec(count=50)
    for i in range(spec.count):
        fn = primal_fn(random_program(spec, i))
        for x in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            v = fn(x)
            assert math.isfinite(v)


def test_constants_only_programs_have_zero_gradient():
    # programs that never mention x differentiate to zero in every mode
    spec = CorpusSpec(seed=3, count=40, p_const=1.0, p_input=0.0, p_prior=0.0)
    found = 0
    for i in range(10):
        f = random_program(spec, i)
        pg = ProgramGradients(f)
        found += 1
        for mode in ALL_MODES:
            assert pg.grad(mode, 1.5) == 0.0
    assert found


# --- crosscheck ----------------------------------------------------------------

def test_crosscheck_small_corpus_all_pass():
    reports = crosscheck(CorpusSpec(count=25))
    assert reports and all(r.passed for r in reports)


def test_crosscheck_detects_corruption(monkeypatch):
    monkeypatch.setitem(gradcheck.MODES, "dual", lambda f: lambda x: 123.456)
    reports = crosscheck(CorpusSpec(count=2), probes=(1.0,))
    assert all(not r.passed for r in reports)


def test_crosscheck_records_errors_not_raises(monkeypatch):
    # a mode that raises is recorded per entry
    def boom(x):
        raise LangError("synthetic failure")

    monkeypatch.setitem(gradcheck.MODES, "tape", lambda f: boom)
    reports = crosscheck(CorpusSpec(count=2), probes=(1.0,))
    assert all(not r.passed and r.error for r in reports)


def test_report_formats():
    r = check_one(ProgramGradients(parse("(lam x (* x x))")), 0, 3.0)
    line = report_line(r)
    assert line.startswith("0\t3\t") and line.endswith("pass")
    j = report_json(r)
    assert j["pass"] and j["gradients"]["staged"] == 6.0


def test_mode_table():
    assert tuple(MODES) == ALL_MODES + ("forward2", "reverse2")
    assert gradient_fn(QUAD, "reverse2")(1.0) == 2.0
    with pytest.raises(LangError, match="unknown gradient mode"):
        gradient_fn(QUAD, "nonsense")


# --- gradient descent ------------------------------------------------------------

def test_descent_converges_on_shifted_square():
    # closed form: |x_k - 3| = 3 * 0.8^k, so 100 steps land within 1e-3
    traj = gradient_descent(QUAD, 0.0, 0.1, 100)
    assert abs(traj[-1][0] - 3.0) < 1e-3
    assert len(traj) == 101


def test_descent_zero_steps():
    traj = gradient_descent(QUAD, 0.5, 0.1, 0)
    fn = primal_fn(QUAD)
    assert traj == [(0.5, fn(0.5))]


def test_descent_zero_rate():
    traj = gradient_descent(QUAD, 0.5, 0.0, 5)
    assert all(x == 0.5 for x, _ in traj)


def test_descent_monotone_loss_above_noise_floor():
    # monotone up to the rounding noise of the cancellation-heavy encoding
    traj = gradient_descent(QUAD, 0.0, 0.1, 100)
    for (x0, f0), (x1, f1) in zip(traj, traj[1:]):
        assert f1 <= f0 + 1e-12


def test_descent_divergence_aborts():
    # rate far above 1/curvature makes the iterates explode
    with pytest.raises(DivergenceError, match="1e12|diverged"):
        gradient_descent(QUAD, 0.0, 1e6, 200)


def test_descent_all_modes_agree():
    for mode in ("forward", "dual", "tape", "staged"):
        traj = gradient_descent(QUAD, 0.0, 0.1, 30, mode=mode)
        assert abs(traj[-1][0] - (3.0 - 3.0 * 0.8 ** 30)) <= 1e-9
