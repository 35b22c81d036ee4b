import math

import pytest
from hypothesis import given, strategies as st

from adlc.forward import (
    TransformError, fwd_transform, grad_forward, grad_forward_tagged,
    grad_symbolic, symbolic_diff,
)
from adlc.gradcheck import CorpusSpec, finite_diff, primal_fn, random_program
from adlc.interp import eval_expr
from adlc.lang import anf, desugar, freshen
from adlc.syntax import (
    Add, App, Const, Fst, Lam, Let, Pair, Snd, Var, node_count, parse, pretty,
)

CUBIC = parse("(lam x (+ (* 2.0 x) (* (* x x) x)))")
PROBES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


# --- symbolic differentiation over ANF --------------------------------------

def test_symbolic_diff_var_is_one():
    assert symbolic_diff(Var("x"), "x") == Const(1.0)


def test_symbolic_diff_const_is_zero():
    assert symbolic_diff(Const(7.0), "x") == Const(0.0)


def test_symbolic_diff_cubic_eight_lets_ending_in_tangent():
    # each of the four primal lets splits into primal + tangent bindings
    e = anf(parse("(+ (* 2.0 x) (* (* x x) x))"))
    d = symbolic_diff(e, "x")
    lets = 0
    cur = d
    last = None
    while isinstance(cur, Let):
        lets += 1
        last = cur.name
        cur = cur.body
    assert lets == 8
    assert cur == Var(last)
    assert last.endswith("'")


def test_symbolic_diff_value_at_two():
    # analytic d/dx (2x + x^3) = 2 + 3x^2 -> 14 at x = 2
    e = anf(parse("(+ (* 2.0 x) (* (* x x) x))"))
    d = symbolic_diff(e, "x")
    assert eval_expr(d, env={"x": 2.0})[0] == 14.0


def test_symbolic_diff_rejects_non_anf():
    with pytest.raises(TransformError):
        symbolic_diff(parse("(lam x x)"), "x")


# --- forward transformation --------------------------------------------------

def test_fwd_const_pairs_with_zero():
    assert fwd_transform(Const(3.0)) == Pair(Const(3.0), Const(0.0))


def test_fwd_lam_is_homomorphic():
    t = fwd_transform(parse("(lam y y)"))
    assert t == Lam("y", Var("y"))


def test_fwd_add_produces_tangent_sum():
    t = fwd_transform(parse("(+ y z)"))
    # operands are variables, so projections are in place: no lets needed
    assert t == Pair(Add(Fst(Var("y")), Fst(Var("z"))),
                     Add(Snd(Var("y")), Snd(Var("z"))))
    # the tangent rule's product order: d1*p2 + p1*d2
    t = fwd_transform(parse("(* y z)"))
    assert pretty(t) == ("(pair (* (fst y) (fst z)) "
                         "(+ (* (snd y) (fst z)) (* (fst y) (snd z))))")


def test_fwd_rejects_control():
    with pytest.raises(TransformError):
        fwd_transform(parse("(reset (shift k 1.0))"))


def test_grad_forward_identity():
    assert grad_forward(parse("(lam x x)"), 7.0) == 1.0


def test_grad_forward_cubic():
    # analytic 2 + 3x^2 at 1 -> 5
    assert grad_forward(CUBIC, 1.0) == 5.0


def test_grad_forward_constant():
    assert grad_forward(parse("(lam x 4.0)"), 9.0) == 0.0


def test_primal_preserved():
    # fst of the transformed evaluation equals plain evaluation exactly
    f = freshen(desugar(CUBIC))
    tf = fwd_transform(f)
    for x in PROBES:
        primal, _ = eval_expr(Fst(App(tf, Pair(Const(x), Const(1.0)))))
        assert primal == primal_fn(CUBIC)(x)


def test_growth_bound_forward_and_symbolic():
    spec = CorpusSpec(count=80)
    for i in range(spec.count):
        f = random_program(spec, i)
        body = f.body
        t = fwd_transform(freshen(body))
        assert node_count(t) <= 6 * node_count(body) + 10
        a = anf(body)
        assert node_count(symbolic_diff(a, "x")) <= 6 * node_count(a) + 10


def test_forward_matches_finite_differences_on_corpus():
    spec = CorpusSpec(count=40)
    for i in range(spec.count):
        f = random_program(spec, i)
        fn = primal_fn(f)
        for x in PROBES:
            g = grad_forward(f, x)
            fd = finite_diff(fn, x)
            assert abs(g - fd) <= 1e-4 * max(1.0, abs(g))


def test_symbolic_equals_forward_exactly_on_corpus():
    spec = CorpusSpec(count=40)
    for i in range(spec.count):
        f = random_program(spec, i)
        for x in PROBES:
            assert grad_symbolic(f, x).hex() == grad_forward(f, x).hex()


def test_forward_family_keeps_a_negative_zero_tangent():
    # at x = -1 each product's tangent is 1*-0.0 + -1*0.0 = -0.0, and so is
    # their sum: no medium of the tangent rule may turn it into +0.0
    from adlc.runtime import dual_fn, grad_dual_expr

    f = parse("(lam x (+ (* x -0.0) (* x -0.0)))")
    tagged = lambda f, x: grad_forward_tagged(dual_fn(f), x)
    for grad in (grad_forward, grad_symbolic, grad_dual_expr, tagged):
        assert grad(f, -1.0).hex() == "-0x0.0p+0"


@given(st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_dual_law_cubic(x):
    # df(x) == 2 + 3*x*x for the running example, any x; the AD path sums
    # x^2 + 2x^2 where the formula computes 3*x^2, so allow a couple of ulps
    assert math.isclose(grad_forward(CUBIC, x), 2 + 3 * x * x,
                        rel_tol=1e-14, abs_tol=1e-14)


# --- tagged nesting ----------------------------------------------------------

def _cubic_host(x):
    return 2.0 * x + x * x * x


def test_second_derivative_via_tagged_nesting():
    # d2/dx2 (2x + x^3) = 6x
    for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
        assert math.isclose(grad_forward_tagged(_cubic_host, x, order=2),
                            6 * x, rel_tol=1e-12, abs_tol=1e-12)


def test_tagged_inner_gradient_not_confused():
    from adlc.runtime import perturbation_confusion_probe

    naive, tagged = perturbation_confusion_probe()
    assert naive == 2.0
    assert tagged == 1.0


def test_tagged_order1_matches_transform_on_corpus():
    from adlc.runtime import grad_dual_expr

    spec = CorpusSpec(count=40)
    for i in range(spec.count):
        f = random_program(spec, i)
        for x in PROBES:
            assert grad_dual_expr(f, x).hex() == grad_forward(f, x).hex()
