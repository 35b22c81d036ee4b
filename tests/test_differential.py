"""Differential testing beyond the straight-line corpus: nested expressions,
mutable state, pairs, sums, conditionals and higher-order functions, checked
across the transformation paths (and finite differences where smooth)."""

import random
from pathlib import Path

import pytest

from adlc.forward import grad_forward
from adlc.gradcheck import MODES, finite_diff, primal_fn
from adlc.reverse import VARIANTS, grad_reverse
from adlc.runtime import grad_forward_over_reverse
from adlc.syntax import (
    Add, Const, Expr, Fst, Greater, If, Lam, Let, Mul, Pair, Snd, Var, parse,
)

PROBES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

FEATURE_CASES = [
    # mutable state in the source: r = ref x; r := !r * x; !r  is x^2
    ("(lam x (let r (ref x) (seq (assign r (* (deref r) x)) (deref r))))",
     lambda x: 2 * x),
    # pairs projected on both sides: x^2 + x
    ("(lam x (+ (fst (pair (* x x) 7.0)) (snd (pair 1.0 x))))",
     lambda x: 2 * x + 1),
    # a real flowing through a sum constructor
    ("(lam x (case (inl (* x x)) a (+ a x) b b))",
     lambda x: 2 * x + 1),
    # higher-order: the function argument is applied twice
    ("(lam x (app (lam f (+ (app f x) (app f (* x x)))) (lam y (* y y))))",
     lambda x: 2 * x + 4 * x ** 3),
    # closure capturing the input
    ("(lam x (app (lam y (* y x)) (+ x 1.0)))",
     lambda x: 2 * x + 1),
]


@pytest.mark.parametrize("src,deriv", FEATURE_CASES)
def test_language_features_differentiate(src, deriv):
    f = parse(src)
    for x in PROBES:
        want = deriv(x)
        got_f = grad_forward(f, x)
        assert abs(got_f - want) <= 1e-12 * max(1.0, abs(want))
        for v in VARIANTS:
            got_r = grad_reverse(f, x, v)
            assert abs(got_r - got_f) <= 1e-10 * max(1.0, abs(got_f))


def _gen_expr(rng: random.Random, depth: int, scope: list, with_if: bool,
              with_pairs: bool = True) -> Expr:
    def sub(sc=None):
        return _gen_expr(rng, depth - 1, sc if sc is not None else scope,
                         with_if, with_pairs)

    if depth <= 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.4:
            return Var("x")
        if r < 0.6 and scope:
            return Var(rng.choice(scope))
        return Const(rng.uniform(0.5, 2.0))
    pick = rng.random()
    if pick < 0.3:
        return Add(sub(), sub())
    if pick < 0.6:
        return Mul(sub(), sub())
    if pick < 0.75:
        name = f"v{len(scope)}"
        bound = sub()
        return Let(name, bound, sub(scope + [name]))
    if pick < 0.85 and with_pairs:
        a, b = sub(), sub()
        return Fst(Pair(a, b)) if rng.random() < 0.5 else Snd(Pair(b, a))
    if with_if:
        # guard thresholds sit between probe points to keep probes smooth
        return If(Greater(Var("x"), Const(rng.choice((-1.6, -0.7, 0.2, 1.4)))),
                  sub(), sub())
    return Mul(sub(), sub())


def test_fuzz_smooth_programs_all_paths_and_fd():
    rng = random.Random(1318)
    for _ in range(120):
        f = Lam("x", _gen_expr(rng, 4, [], with_if=False))
        fn = primal_fn(f)
        for x in PROBES:
            fwd = grad_forward(f, x)
            for v in VARIANTS:
                rev = grad_reverse(f, x, v)
                assert abs(rev - fwd) <= 1e-10 * max(1.0, abs(fwd))
            fd = finite_diff(fn, x)
            assert abs(fd - fwd) <= 1e-4 * max(1.0, abs(fwd))


def test_fuzz_branching_programs_transform_agreement():
    rng = random.Random(97)
    for _ in range(120):
        f = Lam("x", _gen_expr(rng, 4, [], with_if=True))
        for x in PROBES:
            fwd = grad_forward(f, x)
            for v in VARIANTS:
                rev = grad_reverse(f, x, v)
                assert abs(rev - fwd) <= 1e-10 * max(1.0, abs(fwd))


def test_fuzz_staged_branching_bitwise_vs_unstaged():
    from adlc.ir_eval import ir_eval
    from adlc.ir_opt import ir_optimize
    from adlc.reverse import grad_reverse
    from adlc.staging import stage_reverse

    rng = random.Random(5521)
    checked = 0
    for _ in range(60):
        f = Lam("x", _gen_expr(rng, 3, [], with_if=True, with_pairs=False))
        p = stage_reverse(f)
        po = ir_optimize(p)
        for x in PROBES:
            want = grad_reverse(f, x, "meta-shift")
            assert ir_eval(p, x) == want
            assert ir_eval(po, x) == want
            checked += 1
    assert checked == 360


def test_runtimes_run_control_flow_bitwise_with_their_families():
    # the runtimes are the CEK machine on their number types: on the fuzz
    # programs above, the feature cases and the two control-flow programs,
    # each agrees bit for bit with its family's reference
    programs = [parse(src) for src, _ in FEATURE_CASES]
    for name in ("halve_loop", "sign_square"):
        with open(PROGRAMS / f"{name}.sexp", encoding="utf-8") as fh:
            programs.append(parse(fh.read()))
    # a float meeting a dual is lifted with a zero tangent, as forward's
    # constants are, so the sign of a zero tangent agrees
    programs.append(parse("(lam x (* (* x 0.0) -1.0))"))
    for seed, count, depth, kinds in ((1318, 120, 4, dict(with_if=False)),
                                      (97, 120, 4, dict(with_if=True)),
                                      (5521, 60, 3, dict(with_if=True, with_pairs=False))):
        rng = random.Random(seed)
        programs += [Lam("x", _gen_expr(rng, depth, [], **kinds)) for _ in range(count)]
    family = {"dual": "forward", "cps": "reverse-target-shift",
              "tape": "reverse-target-shift", "functional": "reverse-target-shift"}
    for f in programs:
        fns = {m: MODES[m](f) for m in (*family, *family.values(), "forward2")}
        for x in PROBES:
            for mode, ref in family.items():
                assert fns[mode](x).hex() == fns[ref](x).hex(), (mode, f, x)
            want = grad_forward_over_reverse(f, x)
            assert abs(fns["forward2"](x) - want) <= 1e-12 * max(1.0, abs(want))
