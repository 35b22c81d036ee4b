import sys
from functools import partial

import pytest

from adlc import gradcheck
from adlc.forward import TransformError, fwd_transform
from adlc.gradcheck import CorpusSpec, gradient_fn, random_program
from adlc.interp import eval_expr, real_fn
from adlc.ir_eval import ir_eval
from adlc.lang import desugar, freshen, prepare
from adlc.reverse import (
    VARIANTS, normalize_tail, rev_transform_full_cps, rev_transform_meta_shift,
    rev_transform_target_shift, reverse_gradient_program,
)
from adlc.staging import stage_reverse
from adlc.syntax import (
    Add, App, Assign, Const, Deref, Lam, Let, Pair, Ref, Reset, Seq, Shift,
    Snd, Var, all_names, contains_control, parse, pretty, walk,
)
from scaling import call_events, frames_in_use, seeded_chain

CUBIC = parse("(lam x (+ (* 2.0 x) (* (* x x) x)))")
SQUARE = parse("(lam x (* x x))")
PROBES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
# the gradient mode of each reverse transformation variant
MODE = dict(zip(VARIANTS, ("reverse-target-shift", "reverse-meta-shift", "reverse-cps-full")))


# --- target-shift (control operators in the output) --------------------------

def test_target_shift_const_rule():
    t = rev_transform_target_shift(Const(5.0))
    assert t == Pair(Const(5.0), Ref(Const(0.0)))


def test_target_shift_mul_shape():
    # shift k in let y = (a*b, ref 0) in (k y); a' += !y'*b; b' += !y'*a
    t = rev_transform_target_shift(parse("(* a b)"))
    assert isinstance(t, Shift)
    body = t.body
    assert isinstance(body, Let)
    assert isinstance(body.bound, Pair) and isinstance(body.bound.snd, Ref)
    # continuation applied, then two += accumulations
    accs = [n for n in walk(body) if isinstance(n, Assign)]
    assert len(accs) == 2
    apps = [n for n in walk(body) if isinstance(n, App) and n.fn == Var(t.name)]
    assert len(apps) == 1


def test_target_shift_lam_homomorphic():
    t = rev_transform_target_shift(parse("(lam y y)"))
    assert t == Lam("y", Var("y"))


def test_transforms_reject_source_control():
    for t in (rev_transform_target_shift, rev_transform_meta_shift,
              rev_transform_full_cps):
        with pytest.raises(TransformError):
            t(parse("(reset (shift k (app k 1.0)))"))


# --- meta-shift / full-cps outputs are pure CPS -------------------------------

@pytest.mark.parametrize("variant", ["meta-shift", "full-cps"])
def test_no_control_residue(variant):
    spec = CorpusSpec(count=40)
    progs = [random_program(spec, i) for i in range(spec.count)]
    progs += [CUBIC, SQUARE,
              parse("(lam x (if (> x 0.0) (* (* -1.0 x) x) (* x x)))"),
              parse("(lam x (letrec f (lam t (if (> t 1.0) (app f (* t 0.5)) t))"
                    " (app f x)))")]
    for f in progs:
        prog = reverse_gradient_program(f, variant)
        assert not contains_control(prog)


def test_meta_shift_lambdas_take_continuations():
    f = freshen(desugar(SQUARE))
    t = rev_transform_meta_shift(f)
    assert isinstance(t, Lam) and isinstance(t.body, Lam)


@pytest.mark.parametrize("t", [rev_transform_meta_shift, rev_transform_full_cps])
def test_let_renaming_respects_shadowing(t):
    # without a name supply the input is not freshened by the caller, and
    # the renaming a -> x must not reach the inner binder a
    f = parse("(lam x (let a x (app (lam a a) 1.0)))")
    run = App(App(t(f), parse("(pair 5.0 (ref 0.0))")), parse("(lam z (fst z))"))
    assert eval_expr(run)[0] == 1.0


def wavy_normal(e) -> bool:
    """No eta-redex over a variable head, no let binding a bare variable."""
    for n in walk(e):
        match n:
            case Lam(p, App(Var(h), Var(a))) if a == p and h != p:
                return False
            case Let(_, Var(_), _):
                return False
    return True


def test_wavy_normal_forms():
    spec = CorpusSpec(count=40)
    progs = [random_program(spec, i) for i in range(spec.count)]
    progs += [CUBIC, SQUARE,
              parse("(lam x (if (> x 0.0) (* (* -1.0 x) x) (* x x)))"),
              parse("(lam x (letrec f (lam t (if (> t 1.0) (app f (* t 0.5)) t))"
                    " (app f x)))")]
    for f in progs:
        for variant in ("meta-shift", "full-cps"):
            assert wavy_normal(reverse_gradient_program(f, variant))


# --- normalize_tail -----------------------------------------------------------

def test_normalize_eta_variable_head():
    e = Lam("a", App(Var("k"), Var("a")))
    assert normalize_tail(e) == Var("k")


def test_normalize_non_redex_unchanged():
    e = Lam("a", App(Var("k"), Var("b")))
    assert normalize_tail(e) == e
    e2 = Lam("a", App(Var("a"), Var("a")))
    assert normalize_tail(e2) == e2


# --- cost of translation -----------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_translation_calls_grow_linearly(variant):
    # Python call events are deterministic, unlike wall time: doubling the
    # chain must at most about double the work of building its gradient
    small, large = (call_events(reverse_gradient_program, f, variant)
                    for f in (seeded_chain(50, 1), seeded_chain(100, 1)))
    assert large / small <= 2.2


@pytest.mark.parametrize("variant", ["meta-shift", "full-cps"])
def test_let_renaming_does_not_leak_between_translations(variant):
    # fresh names repeat across programs, so a renaming recorded while
    # translating one program must not reach the next one; b is the
    # second-order input the reverse2 mode builds, with lets of pairs
    # that stay lets and names that a's renamed lets also use
    spec = CorpusSpec()
    a = random_program(spec, 3)
    b = reverse_gradient_program(random_program(spec, 0))
    assert all_names(prepare(a)[0]) & all_names(prepare(b)[0])
    first = pretty(reverse_gradient_program(b, variant))
    reverse_gradient_program(a, variant)
    again = reverse_gradient_program(b, variant)
    assert pretty(again) == first
    assert real_fn(again)(0.5) == gradient_fn(b, "reverse-target-shift")(0.5)


def _nested_sum(depth):
    # the binder-free (+ x (+ x ... x)) of depth + 1 occurrences of x
    e = Var("x")
    for _ in range(depth):
        e = Add(Var("x"), e)
    return e


@pytest.mark.parametrize("variant", ["meta-shift", "full-cps", "stage_reverse",
                                     "fwd_transform", "rev_transform_target_shift"])
def test_translation_fits_the_default_recursion_limit(variant):
    # the CPS translators and the stager nest Python frames per let; a
    # 120-op chain must fit in the default limit of 1000 frames, counted
    # from this test's frame, so neither the renaming nor the stager's one
    # +/*/> arm may add a frame per operation.  The pairing translation
    # nests one frame per level of a binder-free sum, so a 900-level sum
    # must fit too: a +/* block that translated its own operands would add
    # a second frame per level
    pairing = {"fwd_transform": fwd_transform,
               "rev_transform_target_shift": rev_transform_target_shift}
    if variant in pairing:
        build, f = pairing[variant], _nested_sum(900)
    else:
        build = (stage_reverse if variant == "stage_reverse"
                 else partial(reverse_gradient_program, variant=variant))
        f = seeded_chain(120, 1)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000 + frames_in_use())
    try:
        prog = build(f)
    finally:
        sys.setrecursionlimit(saved)
    if variant == "stage_reverse":
        assert ir_eval(prog, 0.5) == gradient_fn(f, "reverse-target-shift")(0.5)
    elif variant == "fwd_transform":
        run = Let("x", Pair(Const(0.5), Const(1.0)), Snd(prog))
        assert eval_expr(run)[0] == 901.0
    elif variant == "rev_transform_target_shift":
        run = Let("x", Pair(Const(0.5), Ref(Const(0.0))), Seq(
            Reset(Let("y", prog, Assign(Snd(Var("y")), Const(1.0)))),
            Deref(Snd(Var("x")))))
        assert eval_expr(run)[0] == 901.0
    else:
        assert not contains_control(prog)


# --- gradient values ----------------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_grad_reverse_values(variant):
    assert gradient_fn(SQUARE, MODE[variant])(3.0) == 6.0
    assert gradient_fn(parse("(lam x x)"), MODE[variant])(1.0) == 1.0
    cubic = gradient_fn(CUBIC, MODE[variant])
    assert cubic(1.0) == 5.0
    assert cubic(2.0) == 14.0


def test_fanout_accumulates():
    # x used twice: gradient of x*x is 2x via the += sum
    for variant in VARIANTS:
        assert gradient_fn(SQUARE, MODE[variant])(5.0) == 10.0


def test_variants_bitwise_equal_on_corpus():
    spec = CorpusSpec(count=60)
    for i in range(spec.count):
        f = random_program(spec, i)
        progs = [reverse_gradient_program(f, v) for v in VARIANTS]
        for x in PROBES:
            vals = [eval_expr(App(p, Const(x)))[0] for p in progs]
            assert vals[0] == vals[1] == vals[2]


def test_forward_reverse_agreement_on_corpus():
    spec = CorpusSpec(count=60)
    for i in range(spec.count):
        f = random_program(spec, i)
        grad_f, grad_r = gradient_fn(f, "forward"), gradient_fn(f, "reverse-meta-shift")
        for x in PROBES:
            fwd, rev = grad_f(x), grad_r(x)
            assert abs(rev - fwd) <= 1e-10 * max(1.0, abs(fwd))


def test_primal_preservation():
    # the primal threaded through the transformed function equals plain
    # evaluation exactly: store it from the final continuation and compare
    from adlc.gradcheck import primal_fn
    from adlc.syntax import Deref, Fst, NameGen, Seq, all_names

    spec = CorpusSpec(count=20)
    progs = [random_program(spec, i) for i in range(spec.count)] + [CUBIC]
    for f in progs:
        fn = primal_fn(f)
        gen = NameGen(all_names(f))
        f2 = freshen(desugar(f, gen), gen)
        tf = rev_transform_meta_shift(f2, gen)
        for x in PROBES:
            out, xh, z = gen.fresh(), gen.fresh(), gen.fresh()
            prog = Let(out, Ref(Const(0.0)),
                       Let(xh, Pair(Const(x), Ref(Const(0.0))),
                           Seq(App(App(tf, Var(xh)),
                                   Lam(z, Assign(Var(out), Fst(Var(z))))),
                               Deref(Var(out)))))
            v, _ = eval_expr(prog)
            assert v == fn(x)


def test_reverse_of_reverse_values():
    # d2/dx2 (2x + x^3) = 6x; d2/dx2 x^2 = 2
    assert gradient_fn(CUBIC, "reverse2")(1.0) == 6.0
    assert gradient_fn(SQUARE, "reverse2")(5.0) == 2.0


def test_reverse_of_reverse_matches_tagged_on_corpus(monkeypatch):
    # reduced corpus: second-order composition squares the program size
    monkeypatch.setattr(gradcheck, "OPS_PER_PROGRAM", 8)
    spec = CorpusSpec(count=25)
    for i in range(spec.count):
        f = random_program(spec, i)
        rev2, fwd2 = gradient_fn(f, "reverse2"), gradient_fn(f, "forward2")
        for x in (-1.5, -0.5, 0.5, 1.5):
            r2, f2 = rev2(x), fwd2(x)
            assert abs(r2 - f2) <= 1e-9 * max(1.0, abs(f2))


def test_grad_reverse_control_flow_unstaged():
    ife = parse("(lam x (if (> x 0.0) (* (* -1.0 x) x) (* x x)))")
    assert gradient_fn(ife, "reverse-meta-shift")(2.0) == -4.0
    assert gradient_fn(ife, "reverse-meta-shift")(-2.0) == -4.0
    whf = parse("(lam x (letrec f (lam t (if (> t 1.0) (app f (* t 0.5)) t))"
                " (app f x)))")
    for variant in ("meta-shift", "target-shift", "full-cps"):
        assert gradient_fn(whf, MODE[variant])(8.0) == 0.125


def test_full_cps_non_real_const_applies_continuation_directly():
    from adlc.syntax import Unit

    # a non-real constant (unit) reaches the translation continuation as-is
    t = rev_transform_full_cps(Unit())
    assert t == Unit()


def test_meta_shift_case_lifts_shared_join():
    # both branches of a differentiated case call one shared continuation
    f = parse("(lam x (if (> x 0.0) (* x x) (+ x x)))")
    prog = reverse_gradient_program(f, "meta-shift")
    assert not contains_control(prog)
    meta, target = gradient_fn(f, "reverse-meta-shift"), gradient_fn(f, "reverse-target-shift")
    for x in (2.0, -2.0):
        assert meta(x) == target(x)
