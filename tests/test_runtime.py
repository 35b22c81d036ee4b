import hashlib
import math
import os
import sys

import pytest

from adlc import gradcheck
from adlc.gradcheck import (
    DEFAULT_PROBES, MODES, CorpusSpec, corpus, finite_diff, gradient_fn,
    primal_fn, random_program,
)
from adlc.interp import EvalError, eval_expr
from adlc.runtime import (
    Dual, FunRun, NumF, RevNum, RuntimeADError, TapeRun, d_add, d_mul, grad_cps, grad_cps_expr,
    grad_dual_expr, grad_dual_tagged, grad_forward_over_reverse,
    grad_functional, grad_functional_expr, grad_naive, grad_tape,
    grad_tape_expr, map_add, perturbation_confusion_probe,
)
from adlc.reverse import grad_reverse_of_reverse
from adlc.syntax import Add, Const, Lam, Let, Var, parse
from scaling import seeded_chain

PROGRAMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "programs")

CUBIC = parse("(lam x (+ (* 2.0 x) (* (* x x) x)))")
PROBES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


# --- dual numbers -------------------------------------------------------------

def test_grad_dual_square():
    assert grad_dual_tagged(lambda x: x * x, 3.0) == 6.0


def test_grad_dual_cubic_matches_formula():
    for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
        assert grad_dual_tagged(lambda x: 2.0 * x + x * x * x, x) == 2 + 3 * x * x


def test_grad_dual_constant():
    assert grad_dual_tagged(lambda x: d_mul(4.0, 1.0), 9.0) == 0.0


def test_tagged_nesting_distinct_tags():
    inner = Dual(1.0, 1.0, 3)
    outer = Dual(inner, 0.0, 7)
    s = d_add(inner, outer)
    assert s.tag == 7


def test_perturbation_confusion_probe_values():
    naive, tagged = perturbation_confusion_probe()
    assert naive == 2.0  # the confused answer
    assert tagged == 1.0  # the correct answer


def test_probe_outer_gradients():
    from adlc.runtime import probe_outer_gradients

    d = probe_outer_gradients()
    assert d["tagged_outer"] == 1.0


# --- cps / tape / functional ---------------------------------------------------

def test_grad_cps_triples():
    assert grad_cps(lambda x: x * x, 3.0) == 6.0
    assert grad_cps(lambda x: lambda k: (2.0 * x)(
        lambda y1: (x * x)(lambda y2: (y2 * x)(
            lambda y3: (y1 + y3)(k)))), 1.0) == 5.0
    assert grad_cps(lambda x: x + 0.0, 9.0) == 1.0


def test_grad_tape_triples():
    assert grad_tape(lambda x: x * x, 3.0) == 6.0
    assert grad_tape(lambda x: 2.0 * x + x * x * x, 1.0) == 5.0
    assert grad_tape(lambda x: x, 9.0) == 1.0  # empty tape replay is a no-op


def test_empty_tape_replay():
    run = TapeRun()
    run.replay()
    assert run.tape == []


def test_grad_functional_values():
    from adlc.runtime import fun_mul

    assert grad_functional(lambda z: fun_mul(z, z), 3.0) == 6.0
    assert grad_functional_expr(parse("(lam x x)"), 1.0) == 1.0
    assert grad_functional_expr(CUBIC, 1.0) == 5.0


def test_adjoint_map_point_update():
    assert map_add({"a": 1.0}, "a", 2.0) == {"a": 3.0}
    assert map_add({}, "b", 3.0) == {"b": 3.0}


# --- cross-formulation exactness ------------------------------------------------

def test_reverse_runtimes_bitwise_equal_on_corpus():
    spec = CorpusSpec(count=50)
    from adlc.reverse import grad_reverse

    for i in range(spec.count):
        f = random_program(spec, i)
        for x in PROBES:
            a = grad_cps_expr(f, x)
            assert a == grad_tape_expr(f, x)
            assert a == grad_functional_expr(f, x)
            assert a == grad_reverse(f, x, "target-shift")


def test_reverse_runtimes_on_tagged_duals_are_forward_over_reverse():
    # a run's number type is its input's: on a tagged dual input, every
    # reverse runtime's input adjoint carries the second derivative
    for f in corpus(CorpusSpec(42, count=60)):
        for x in DEFAULT_PROBES:
            want = grad_forward_over_reverse(f, x).hex()
            for grad in (grad_cps_expr, grad_tape_expr, grad_functional_expr):
                g = grad(f, Dual(x, 1.0, 1))
                assert (g.d if type(g) is Dual else 0.0).hex() == want


def test_tape_update_sequence_equals_cps():
    # the tape is defunctionalized CPS: identical adjoint-update sequences
    spec = CorpusSpec(count=25)
    for i in range(spec.count):
        f = random_program(spec, i)
        for x in (-1.0, 0.5, 2.0):
            cps_trace, tape_trace = [], []
            grad_cps_expr(f, x, trace=cps_trace)
            grad_tape_expr(f, x, trace=tape_trace)
            assert cps_trace == tape_trace
            # operations on constants alone stay on floats and are not
            # recorded, so only a zero gradient may come with no updates
            assert len(cps_trace) > 0 or grad_tape_expr(f, x) == 0.0


def test_dual_matches_finite_differences():
    spec = CorpusSpec(count=30)
    for i in range(spec.count):
        f = random_program(spec, i)
        fn = primal_fn(f)
        for x in PROBES:
            g = grad_dual_expr(f, x)
            assert abs(g - finite_diff(fn, x)) <= 1e-4 * max(1.0, abs(g))


def test_a_shifting_operation_needs_a_runtime_run():
    z = RevNum(1.0, 0, FunRun())
    with pytest.raises(EvalError, match="outside a runtime's run"):
        eval_expr(parse("(* x x)"), {"x": z})


# --- second order ----------------------------------------------------------------

def test_forward_over_reverse_cubic():
    for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
        assert grad_forward_over_reverse(CUBIC, x) == 6.0 * x


def test_forward_over_reverse_square_constant():
    sq = parse("(lam x (* x x))")
    for x in (-3.0, 0.25, 7.0):
        assert grad_forward_over_reverse(sq, x) == 2.0


def test_forward_over_reverse_matches_reverse_of_reverse(monkeypatch):
    monkeypatch.setattr(gradcheck, "OPS_PER_PROGRAM", 8)
    spec = CorpusSpec(count=20)
    for i in range(spec.count):
        f = random_program(spec, i)
        for x in (-1.5, 0.5, 1.5):
            a = grad_forward_over_reverse(f, x)
            b = grad_reverse_of_reverse(f, x)
            assert abs(b - a) <= 1e-9 * max(1.0, abs(a))


def test_naive_dual_is_confused_but_tagged_not():
    # the naive runtime really does conflate nested perturbations
    x = NumF(1.0, 1.0)
    inner = grad_naive(lambda y: x + y, 1.0)
    assert inner == 2.0


def test_bridges_run_programs_as_written():
    # shadowed names and seq reach the bridges without desugaring or
    # freshening; they must agree bitwise with the prepared modes
    f = parse("(lam x (let y (* x x) (let y (* y x) (seq y (* y 2.0)))))")
    fns = {m: gradient_fn(f, m) for m in MODES}
    for x in PROBES:
        assert fns["dual"](x).hex() == fns["forward"](x).hex() == (6 * x * x).hex()
        rev = {fns[m](x).hex() for m in ("cps", "tape", "functional",
                                          "reverse-meta-shift")}
        assert rev == {(6 * x * x).hex()}
        assert grad_forward_over_reverse(f, x).hex() == fns["reverse2"](x).hex()


# --- translated bridges -------------------------------------------------------------

SHADOWING = parse("(lam x (let y (* x x) (let y (* y x) (seq y (* y 2.0)))))")

# sha256 over float.hex of each mode at DEFAULT_PROBES, one line per program,
# as computed by the per-call tree-walking bridges these replaced
BRIDGE_DIGESTS = {
    "dual": "1195641683866d2d632adf1a6a2d6d507494eb4af7c0a1104219521aa9620f65",
    "cps": "bba8f4251e5a336be96001978e33185f5caf76fbb064088b227144003df325ee",
    "tape": "bba8f4251e5a336be96001978e33185f5caf76fbb064088b227144003df325ee",
    "functional": "bba8f4251e5a336be96001978e33185f5caf76fbb064088b227144003df325ee",
    "forward2": "3f027da8ae22abdc2049d8e6537fe5046204e3d41a5867649a3699303f714cb1",
}
# reverse2 over 40 programs of at most 8 ops and SHADOWING (transforming
# twice nests deeply, so longer programs near the recursion limit)
REVERSE2_DIGEST = "93f2d3a635ea30026ff9e6bacc5efad41310b0cffb369073252f5af55a8a6f7c"


def _digest(mode, programs):
    h = hashlib.sha256()
    for f in programs:
        fn = MODES[mode](f)
        h.update(" ".join(fn(x).hex() for x in DEFAULT_PROBES).encode() + b"\n")
    return h.hexdigest()


def test_translated_bridges_keep_every_bit(monkeypatch):
    programs = corpus(CorpusSpec(42)) + [SHADOWING]
    for mode, digest in BRIDGE_DIGESTS.items():
        assert _digest(mode, programs) == digest, mode
    monkeypatch.setattr(gradcheck, "OPS_PER_PROGRAM", 8)
    short = corpus(CorpusSpec(42, count=40))
    assert _digest("reverse2", short + [SHADOWING]) == REVERSE2_DIGEST


def test_bridge_errors_come_when_called_not_when_built():
    with open(os.path.join(PROGRAMS, "halve_loop.sexp"), encoding="utf-8") as fh:
        f = parse(fh.read())
    # control flow runs on the machine: the loop halves 8 three times
    for mode in ("dual", "cps", "tape", "functional"):
        assert MODES[mode](f)(8.0) == 0.125
    assert MODES["forward2"](f)(8.0) == 0.0
    # an unbound name fails where the run reaches it, after earlier work
    g = MODES["tape"](parse("(lam x (+ (* x x) y))"))  # building succeeds
    with pytest.raises(EvalError, match="^unbound variable: y$"):
        g(1.0)
    with pytest.raises(RuntimeADError, match="one-argument lam"):
        MODES["cps"](parse("(* 2.0 3.0)"))(1.0)


def test_shifting_runtimes_reject_shift_reset_in_the_program():
    # cps and functional delimit every operation themselves, so a
    # program's own delimiters would meet theirs
    f = parse("(lam x (reset (* x (shift k (app k x)))))")
    for mode in ("cps", "functional"):
        built = MODES[mode](f)
        with pytest.raises(RuntimeADError, match="shift/reset"):
            built(3.0)
    assert MODES["dual"](f)(3.0) == MODES["tape"](f)(3.0) == 6.0


def test_bridges_run_deep_let_chains():
    # translation and the direct-style runs take no Python stack per let
    n = 5_000
    body = Var(f"y{n}")
    for i in range(n, 0, -1):
        body = Let(f"y{i}", Add(Var(f"y{i - 1}") if i > 1 else Var("x"), Const(1.0)), body)
    f = Lam("x", body)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert MODES["dual"](f)(2.0) == 1.0
        assert MODES["tape"](f)(2.0) == 1.0
        assert MODES["forward2"](f)(2.0) == 0.0
    finally:
        sys.setrecursionlimit(saved)


def test_runtimes_take_no_python_stack_per_operation():
    # each shift's backward step waits in the run's list of afters, not on
    # the Python stack, so 1600 operations run under a recursion limit of
    # 1000
    f = seeded_chain(1600, 1)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for x in (-0.5, 0.5, 1.0):
            g = grad_tape_expr(f, x)
            assert math.isfinite(g)
            assert grad_cps_expr(f, x).hex() == grad_functional_expr(f, x).hex() == g.hex()
            grad_forward_over_reverse(f, x)
    finally:
        sys.setrecursionlimit(saved)
