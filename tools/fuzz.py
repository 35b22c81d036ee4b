"""Programs beyond the straight-line corpus: hand-written feature cases and
seeded fuzz families with nested expressions, lets, pairs and conditionals.

tests/test_differential.py checks the modes on them and tools/identity.py
fingerprints every mode's output on them, so both read the same programs.
"""

from __future__ import annotations

import random

from adlc.syntax import (
    Add, Const, Expr, Fst, Greater, If, Lam, Let, Mul, Pair, Snd, Var,
)

# (source, exact derivative)
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
    # a comparison with compound operands on both sides
    ("(lam x (if (> (* x x) (+ x 1.0)) (* x 3.0) x))",
     lambda x: 3.0 if x * x > x + 1.0 else 1.0),
]

# seed -> (programs, depth, generator options) of each fuzz family
FUZZ = {
    1318: (120, 4, dict(with_if=False)),  # smooth: finite differences apply
    97: (120, 4, dict(with_if=True)),  # branching
    5521: (60, 3, dict(with_if=True, with_pairs=False)),  # branching, no pairs
}


def gen_expr(rng: random.Random, depth: int, scope: list, with_if: bool,
             with_pairs: bool = True) -> Expr:
    """A random body over the free variable x and the let-bound names in
    scope, nested at most `depth` deep."""
    def sub(sc=None):
        return gen_expr(rng, depth - 1, sc if sc is not None else scope,
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


def fuzz_programs(seed: int) -> list:
    """The fuzz family of `seed` (a key of FUZZ): one-argument lams."""
    count, depth, kinds = FUZZ[seed]
    rng = random.Random(seed)
    return [Lam("x", gen_expr(rng, depth, [], **kinds)) for _ in range(count)]
