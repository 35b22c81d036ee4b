import math
import os
import signal
import struct
import subprocess
import sys
import time

import pytest

from adlc import gradcheck
from adlc.gradcheck import (
    ALL_MODES, FORWARD_FAMILY, MODES, CorpusSpec, DivergenceError, GradReport,
    ProgramGradients, check_one, check_program, crosscheck, finite_diff,
    gradient_descent, gradient_fn, primal_fn, random_program, report_json,
    report_line, same_bits,
)
from adlc.syntax import LangError, Lam, Let, Var, parse

QUAD = parse("(lam x (+ (+ (* x x) (* -6.0 x)) 9.0))")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_random_program_single_op(monkeypatch):
    monkeypatch.setattr(gradcheck, "OPS_PER_PROGRAM", 1)
    spec = CorpusSpec(seed=1)
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


def test_constants_only_programs_have_zero_gradient(monkeypatch):
    # programs that never mention x differentiate to zero in every mode
    monkeypatch.setattr(gradcheck, "P_CONST", 1.0)
    monkeypatch.setattr(gradcheck, "P_INPUT", 0.0)
    spec = CorpusSpec(seed=3, count=40)
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


def test_family_check_compares_bits():
    # dual lifts the constant product with a +0.0 tangent; forward and
    # symbolic compute -2*0 + 0*-3 = -0.0
    reports = check_program(parse("(lam x (* -2.0 -3.0))"), 0, (1.0,))
    grads = reports[0].grads
    assert grads["dual"].hex() == "0x0.0p+0"
    assert grads["forward"].hex() == grads["symbolic"].hex() == "-0x0.0p+0"
    assert not reports[0].passed and reports[0].error is None


def test_family_check_passes_nans_of_equal_bits(monkeypatch):
    def nan(bits):
        return lambda f: lambda x: struct.unpack("<d", struct.pack("<Q", bits))[0]

    for mode in FORWARD_FAMILY:
        monkeypatch.setitem(gradcheck.MODES, mode, nan(0x7FF8000000000001))
    pg = ProgramGradients(QUAD)
    fwd = [pg.grad(m, 1.0) for m in FORWARD_FAMILY]
    assert all(v != v for v in fwd) and same_bits(fwd)
    monkeypatch.setitem(gradcheck.MODES, "dual", nan(0x7FF8000000000002))
    pg = ProgramGradients(QUAD)
    assert not same_bits([pg.grad(m, 1.0) for m in FORWARD_FAMILY])


# --- crosscheck in forked workers ------------------------------------------------

def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_crosscheck_workers_match_in_process(monkeypatch):
    # three workers over seven programs: uneven shares, reassembled in order
    monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: 3)
    spec = CorpusSpec(seed=9, count=7)
    got = crosscheck(spec)
    want = [r for i in range(spec.count)
            for r in check_program(random_program(spec, i), i)]
    assert [report_line(r) for r in got] == [report_line(r) for r in want]
    assert ([[v.hex() for v in r.grads.values()] for r in got]
            == [[v.hex() for v in r.grads.values()] for r in want])
    _assert_no_children_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_crosscheck_raises_what_check_program_lets_through(monkeypatch, cpus):
    monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: cpus)
    monkeypatch.setitem(gradcheck.MODES, "tape", lambda f: lambda x: 1 / 0)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        crosscheck(CorpusSpec(count=5), probes=(1.0,))
    _assert_no_children_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_crosscheck_worker_that_dies_is_an_error(monkeypatch):
    # worker 0 dies at program 0; worker 1, still running, is killed
    spec = CorpusSpec(count=4)
    first = random_program(spec, 0)

    def dying(f):
        if f == first:
            os._exit(3)
        time.sleep(10)
        return MODES["dual"](f)

    monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: 2)
    monkeypatch.setitem(gradcheck.MODES, "forward", dying)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="wait status"):
        crosscheck(spec, probes=(1.0,))
    assert time.perf_counter() - t0 < 5.0
    _assert_no_children_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_crosscheck_second_worker_that_dies_is_an_error(monkeypatch):
    # the second worker forked dies at its first program while the first
    # sleeps; the parent must not wait on the first worker's pipe
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    def dying(f):
        if len(forks) == 2:
            os._exit(3)
        time.sleep(10)
        return MODES["dual"](f)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: 2)
    monkeypatch.setitem(gradcheck.MODES, "forward", dying)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="wait status"):
        crosscheck(CorpusSpec(count=4), probes=(1.0,))
    assert time.perf_counter() - t0 < 5.0
    _assert_no_children_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_crosscheck_queue_balances_slow_programs(monkeypatch):
    # fixed shares would give all four sleeps to one worker: >= 1.0 s
    check = gradcheck.check_program

    def slow_on_even(f, i, probes):
        if i % 2 == 0:
            time.sleep(0.25)
        return check(f, i, probes)

    monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(gradcheck, "check_program", slow_on_even)
    t0 = time.perf_counter()
    reports = crosscheck(CorpusSpec(count=8), probes=(1.0,))
    assert time.perf_counter() - t0 < 0.9
    assert [r.program_id for r in reports] == list(range(8))
    _assert_no_children_left()


def _raise_timeout(signum, frame):
    raise TimeoutError("crosscheck did not finish")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus", [2, 3])
def test_crosscheck_more_ids_than_a_pipe_holds(monkeypatch, cpus):
    # 40,000 token takes under contention: every id is taken once, in order,
    # by workers that race for the one record on the token pipe
    monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(gradcheck, "random_program", lambda spec, i: None)
    monkeypatch.setattr(gradcheck, "check_program",
                        lambda f, i, probes: [GradReport(i, p) for p in probes])
    old = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(60)
    try:
        reports = crosscheck(CorpusSpec(count=40_000), probes=(1.0,))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert [r.program_id for r in reports] == list(range(40_000))
    _assert_no_children_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_crosscheck_raises_for_the_lowest_failing_program(monkeypatch, cpus):
    # with workers, program 1 raises last, after program 4 raised in another
    check = gradcheck.check_program

    def failing(f, i, probes):
        if i == 1:
            time.sleep(0.2)
            raise ValueError("program 1")
        if i == 4:
            raise KeyError("program 4")
        return check(f, i, probes)

    monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(gradcheck, "check_program", failing)
    with pytest.raises(ValueError, match="program 1"):
        crosscheck(CorpusSpec(count=6), probes=(1.0,))
    _assert_no_children_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_crosscheck_raising_program_stops_the_other_workers(monkeypatch, tmp_path):
    # program 0 raises at once; the other worker, 20 ms into each program,
    # takes at most one or two more before the token says stop
    log = str(tmp_path / "checked")

    def stub(f, i, probes):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, b"%d\n" % i)
        os.close(fd)
        if i == 0:
            raise ValueError("program 0")
        time.sleep(0.02)
        return [GradReport(i, p) for p in probes]

    monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(gradcheck, "check_program", stub)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="program 0"):
        crosscheck(CorpusSpec(count=50), probes=(1.0,))
    assert time.perf_counter() - t0 < 0.5
    with open(log) as checked:
        assert len(checked.read().split()) <= 3
    _assert_no_children_left()


def _dying_worker(monkeypatch):
    first = random_program(CorpusSpec(count=4), 0)

    def dying(f):
        if f == first:
            os._exit(3)
        return MODES["dual"](f)

    monkeypatch.setitem(gradcheck.MODES, "forward", dying)


def _raising_program(monkeypatch):
    monkeypatch.setitem(gradcheck.MODES, "tape", lambda f: lambda x: 1 / 0)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
@pytest.mark.parametrize("case, raises", [
    (None, None),
    (_raising_program, ZeroDivisionError),
    (_dying_worker, RuntimeError),
])
def test_crosscheck_leaves_no_fd_open(monkeypatch, case, raises):
    monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: 2)
    if case is not None:
        case(monkeypatch)
    before = sorted(os.listdir("/proc/self/fd"))
    if raises is None:
        crosscheck(CorpusSpec(count=4), probes=(1.0,))
    else:
        with pytest.raises(raises):
            crosscheck(CorpusSpec(count=4), probes=(1.0,))
    assert sorted(os.listdir("/proc/self/fd")) == before
    _assert_no_children_left()


def test_crosscheck_workers_flush_nothing_of_the_parent():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from adlc import gradcheck\n"
        "gradcheck._usable_cpus = lambda: 2\n"
        "print('before')\n"
        "gradcheck.crosscheck(gradcheck.CorpusSpec(count=4), probes=(1.0,))\n"
        "print('after')\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout == "before\nafter\n"


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
