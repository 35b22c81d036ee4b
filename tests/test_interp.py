import sys
import time

import pytest

from adlc.interp import EvalError, PairV, Store, UNIT, eval_expr, render_value
from adlc.lang import desugar, freshen, prepare
from adlc.syntax import Add, App, Const, Lam, Let, Var, parse


def ev(src, env=None):
    return eval_expr(parse(src), env=env)[0]


def test_arithmetic():
    assert ev("(* 2.0 3.0)") == 6.0
    assert ev("(+ 1.5 2.25)") == 3.75


def test_shift_reset_double_invoke():
    # k = \v. <1 + v>; k (k 1) = k 2 = 3
    assert ev("(reset (+ 1.0 (shift k (app k (app k 1.0)))))") == 3.0


def test_store_ops():
    assert ev("(let r (ref 0.0) (seq (assign r 2.0) (deref r)))") == 2.0


def test_reset_of_value_is_value():
    assert ev("(reset 5.0)") == 5.0


def test_reset_shift_apply_is_identity():
    assert ev("(reset (shift k (app k 7.0)))") == 7.0


def test_shift_discards_context():
    # shift that never calls k drops the pending addition
    assert ev("(reset (+ 1.0 (shift k 42.0)))") == 42.0


def test_continuation_is_delimited():
    # k returns to its reset; outer context sees the shift body's value
    assert ev("(+ 100.0 (reset (+ 1.0 (shift k (+ (app k 0.0) (app k 0.0))))))") == 102.0


def test_closures_and_env():
    assert ev("(app (lam x (+ x 1.0)) 41.0)") == 42.0
    assert ev("(let f (lam x (lam y (+ x y))) (app (app f 1.0) 2.0))") == 3.0


def test_pairs_sums():
    assert ev("(fst (pair 1.0 2.0))") == 1.0
    assert ev("(snd (pair 1.0 2.0))") == 2.0
    assert ev("(case (inl 3.0) a (+ a 1.0) b b)") == 4.0
    assert ev("(case (inr 3.0) a (+ a 1.0) b b)") == 3.0


def test_greater_returns_sum_booleans():
    from adlc.interp import InlV, InrV

    assert type(ev("(> 2.0 1.0)")) is InlV
    assert type(ev("(> 1.0 2.0)")) is InrV
    assert type(ev("(> 1.0 1.0)")) is InrV


def test_eval_errors_distinct():
    with pytest.raises(EvalError, match="unbound variable"):
        ev("nope")
    with pytest.raises(EvalError, match="non-closure"):
        ev("(app 1.0 2.0)")
    with pytest.raises(EvalError, match="non-pair"):
        ev("(fst 1.0)")
    with pytest.raises(EvalError, match="non-sum"):
        ev("(case 1.0 a a b b)")
    with pytest.raises(EvalError, match="non-cell"):
        ev("(deref 1.0)")
    with pytest.raises(EvalError, match="arithmetic on non-reals"):
        ev("(+ (pair 1.0 1.0) 1.0)")
    with pytest.raises(EvalError, match="comparison on non-reals"):
        ev("(> (lam x x) 1.0)")


def test_eval_deterministic():
    src = "(let r (ref 1.0) (seq (assign r (+ (deref r) 2.0)) (deref r)))"
    assert ev(src) == ev(src) == 3.0


def test_store_ids_fresh():
    _, store = eval_expr(parse("(pair (ref 1.0) (ref 2.0))"))
    assert store.next_id == 2
    assert store.cells[0] == 1.0 and store.cells[1] == 2.0


def test_env_passed_in():
    assert ev("(* x x)", env={"x": 3.0}) == 9.0


def test_letrec_evaluates_after_desugar():
    src = "(letrec f (lam t (if (> t 1.0) (app f (* t 0.5)) t)) (app f x))"
    p = freshen(desugar(parse(src)))
    assert eval_expr(p, env={"x": 8.0})[0] == 1.0


def test_render_value():
    assert render_value(5.0) == "5"
    assert render_value(UNIT) == "()"
    assert render_value(PairV(1.0, UNIT)) == "(pair 1 ())"
    store = Store()
    c = store.alloc(2.5)
    assert render_value(c, store) == "<cell 0 = 2.5>"


# --- semantics the translated machine must keep ----------------------------------

def test_reentrant_continuation_gets_its_own_activation():
    # k is resumed again while its first resumption is still running; the
    # second resumption must not overwrite the first one's `a`
    src = ("(let r (ref 0.0) (reset (let a (shift k (seq (assign r k) (app k 1.0)))"
           " (let inner (case (> a 1.5) u 0.0 v (app (deref r) 2.0)) (+ a inner)))))")
    assert eval_expr(prepare(parse(src))[0])[0] == 3.0
    assert ev(src) == 3.0


def test_multi_shot_continuation_closures():
    src = ("(let p (reset (let a (shift k (pair (app k 1.0) (app k 2.0))) (lam u a)))"
           " (+ (app (fst p) 0.0) (* 10.0 (app (snd p) 0.0))))")
    assert ev(src) == 21.0


def test_continuation_resumed_after_its_reset_returned():
    # the stored k runs twice, long after the shift's reset has returned
    src = ("(let k (reset (let a (shift k k) (+ a 1.0)))"
           " (+ (app k 1.0) (* 10.0 (app k 2.0))))")
    assert ev(src) == 32.0


def test_errors_come_at_run_time():
    assert ev("(case (inl 1.0) a a b nope)") == 1.0
    with pytest.raises(EvalError, match="^unbound variable: nope$"):
        ev("(case (inr 1.0) a a b nope)")
    assert ev("(app (lam x 2.0) (lam y nope))") == 2.0
    # sugar is expanded as it is translated, so the if runs, and its guard
    # names the other branch's binder
    with pytest.raises(EvalError, match="^unbound variable: a$"):
        ev("(case (inr 1.0) a a b (if a 1.0 2.0))")
    assert ev("(case (inr 1.0) a a b (if (> b 0.5) 1.0 2.0))") == 1.0


def test_error_order_follows_evaluation_order():
    # the cell is checked before the value runs, as the tree walk did
    with pytest.raises(EvalError, match="assigning a non-cell"):
        ev("(assign 1.0 nope)")
    with pytest.raises(EvalError, match="non-pair"):
        ev("(+ (fst 1.0) nope)")
    with pytest.raises(EvalError, match="unbound variable: nope"):
        ev("(app 1.0 nope)")


def test_errors_print_functions_as_rendered():
    # no memory addresses or internal code in messages
    with pytest.raises(EvalError, match=r"^projecting a non-pair \(fst\): <closure>$"):
        ev("(fst (lam x x))")
    with pytest.raises(EvalError, match="^dereferencing a non-cell: <continuation>$"):
        ev("(deref (reset (shift k k)))")


def test_shadowing_in_unfreshened_input():
    assert ev("(let x 1.0 (let x (+ x 1.0) x))") == 2.0
    assert ev("(let x 1.0 (+ (let x 5.0 x) x))") == 6.0
    assert ev("(app (lam x (case (inl 2.0) x (* x x) y x)) 3.0)") == 4.0
    assert ev("(let f (lam x (lam x x)) (app (app f 1.0) 2.0))") == 2.0


def test_env_and_store_arguments():
    store = Store()
    c = store.alloc(5.0)
    src = "(seq (assign c (+ (deref c) x)) (pair (deref c) (ref 0.0)))"
    v, out = eval_expr(parse(src), env={"c": c, "x": 1.0}, store=store)
    assert out is store
    assert v.fst == 6.0 and v.snd.id == 1
    assert store.cells == {0: 6.0, 1: 0.0}
    # names free in a lambda body come from env too
    assert ev("(app (lam y (* x y)) 3.0)", env={"x": 2.0}) == 6.0


def test_real_fn_translates_once_and_runs_in_fresh_stores():
    from adlc.interp import real_fn

    fn = real_fn(parse("(lam x (let r (ref x) (seq (assign r (* (deref r) x)) (deref r))))"))
    assert [fn(2.0), fn(3.0), fn(-0.5)] == [4.0, 9.0, 0.25]
    with pytest.raises(EvalError, match="did not return a real"):
        real_fn(parse("(lam x (pair x x))"))(1.0)


# --- depth and linearity ------------------------------------------------------------

def _let_chain(n):
    e = Var(f"x{n}")
    for i in range(n, 0, -1):
        e = Let(f"x{i}", Add(Var(f"x{i - 1}") if i > 1 else Const(1.0), Const(1.0)), e)
    return e


def _best_time(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_deep_programs_at_the_default_recursion_limit():
    n = 10_000
    nested = Var("x")
    for _ in range(n):
        nested = Add(Var("x"), nested)
    chain = _let_chain(n)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert eval_expr(nested, env={"x": 1.0})[0] == n + 1.0
        assert eval_expr(chain)[0] == n + 1.0
    finally:
        sys.setrecursionlimit(saved)


def test_let_chain_time_is_linear():
    # copying the environment at every let made this quadratic
    small, large = _let_chain(5_000), _let_chain(20_000)
    t_small = _best_time(lambda: eval_expr(small))
    t_large = _best_time(lambda: eval_expr(large))
    assert t_large < 10 * t_small, (t_small, t_large)


# --- translations kept on closed lambdas ---------------------------------------

def test_open_lambda_is_translated_under_each_env():
    # a free y is a capture under {"y": 2.0} and an unbound name under {};
    # neither translation may be reused under the other env, in either order
    for envs in (({"y": 2.0}, {}), ({}, {"y": 2.0})):
        f = parse("(lam x (+ x y))")
        for env in envs:
            if env:
                assert eval_expr(App(f, Const(1.0)), env=env)[0] == 3.0
            else:
                with pytest.raises(EvalError, match="^unbound variable: y$"):
                    eval_expr(App(f, Const(1.0)), env=env)
    # an unbound name in an inner lambda makes the outer one's code depend
    # on env too
    f = parse("(lam x (app (lam z w) x))")
    with pytest.raises(EvalError, match="^unbound variable: w$"):
        eval_expr(App(f, Const(1.0)))
    assert eval_expr(App(f, Const(1.0)), env={"w": 5.0})[0] == 5.0


def test_kept_closed_lambda_captures_at_run_time():
    # the outer lambda is closed and kept; the inner one captures a afresh
    # on every application
    f = parse("(lam a (lam b (+ a b)))")
    assert eval_expr(App(App(f, Const(1.0)), Const(10.0)))[0] == 11.0
    assert eval_expr(App(App(f, Const(2.0)), Const(10.0)))[0] == 12.0
    from adlc.interp import real_fn

    add3 = real_fn(Lam("b", App(App(f, Const(3.0)), Var("b"))))
    assert add3(10.0) == 13.0


def test_kept_lambda_runs_in_different_enclosing_programs():
    sq = parse("(lam y (* y y))")
    assert eval_expr(App(sq, Const(3.0)))[0] == 9.0
    # in a second program, among other slots, and under a lambda that
    # captures
    assert eval_expr(Let("x", Const(2.0), Add(Var("x"), App(sq, Var("x")))))[0] == 6.0
    prog = Lam("z", Add(App(sq, Add(Var("z"), Var("k"))), Var("z")))
    assert eval_expr(App(prog, Const(1.0)), env={"k": 1.0})[0] == 5.0


def test_repeated_translation_costs_the_same_at_any_size():
    # after one call the gradient program's translation is kept, so another
    # real_fn on the same object does a fixed amount of work; call events
    # are deterministic, unlike wall time
    from adlc.interp import real_fn
    from adlc.reverse import reverse_gradient_program
    from scaling import call_events, seeded_chain

    counts = []
    for n in (50, 200):
        prog = reverse_gradient_program(seeded_chain(n), "target-shift")
        real_fn(prog)
        counts.append(call_events(real_fn, prog))
    assert counts[0] == counts[1]
