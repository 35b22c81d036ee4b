"""Forward-mode AD: symbolic differentiation over ANF and the pairing
source transformation, plus their gradient programs.

Both paths carry a primal together with its tangent, computed by the
tangent rule (`runtime.tangent_rule`) over terms.  The symbolic path
splits every let into a primal binding and a tangent binding; the
transformation path is the pairing translation, shared with target-shift
reverse mode, which rewrites real constants to (c, 0) pairs and +/* to
let-bound pair results, leaving every other form untouched.
"""

from __future__ import annotations

from typing import Callable

from .lang import anf, prepare
from .runtime import tangent_rule
from .syntax import (
    Add, App, Const, Expr, Fst, Greater, If, LangError, Lam, Let, Letrec,
    Mul, NameGen, Pair, Seq, Snd, Var, all_names, contains_control,
    map_children,
)

TANGENT_SUFFIX = "'"


class TransformError(LangError):
    pass


class _TermArith:
    """The tangent rule's term medium: its + and * build terms."""

    add, mul = Add, Mul


def symbolic_diff(e: Expr, wrt: str) -> Expr:
    """Differentiate an ANF program with respect to the free variable `wrt`.

    Every let y = e1 splits into the primal binding and a tangent binding
    y' = d(e1); the result program evaluates to the derivative.
    """

    def d(e: Expr) -> Expr:
        match e:
            case Const():
                return Const(0.0)
            case Var(name):
                return Const(1.0) if name == wrt else Var(name + TANGENT_SUFFIX)
            case Add(a, b):
                return tangent_rule(_TermArith, "add", a, d(a), b, d(b))
            case Mul(a, b):
                return tangent_rule(_TermArith, "mul", a, d(a), b, d(b))
            case Let(n, bound, body):
                return Let(n, bound, Let(n + TANGENT_SUFFIX, d(bound), d(body)))
            case _:
                raise TransformError(f"not in ANF arithmetic fragment: {e!r}")

    return d(e)


def _atomic(e: Expr) -> bool:
    return isinstance(e, (Const, Var))


def split_pair(t: Expr, gen: NameGen) -> tuple[Expr, Expr, Callable[[Expr], Expr]]:
    """Access the two components of a pair-valued expression without
    duplicating work or effects.

    Variables and pairs of atoms are projected in place; anything else is
    bound to a fresh name first.  Never emits a let whose right-hand side is
    a bare variable.
    """
    if isinstance(t, Var):
        return Fst(t), Snd(t), lambda body: body
    if isinstance(t, Pair) and _atomic(t.fst) and _atomic(t.snd):
        return t.fst, t.snd, lambda body: body
    n = gen.fresh()
    return Fst(Var(n)), Snd(Var(n)), lambda body: Let(n, t, body)


def pairing_transform(e: Expr, mode: str, zero: Expr, arith, gen: NameGen) -> Expr:
    """The pairing translation of forward mode and target-shift reverse
    mode: a real constant c becomes (c, zero), + and * become arith(op, t1,
    t2) over translated operands, > compares primals, splitting the left
    before translating the right, and other forms map homomorphically.
    mode names the formulation in errors; source shift/reset is rejected."""
    if contains_control(e):
        raise TransformError(f"shift/reset not supported in {mode} AD source")

    def t(e: Expr) -> Expr:
        match e:
            case Const():
                return Pair(e, zero)
            case Add(e1, e2) | Mul(e1, e2):
                return arith(type(e), t(e1), t(e2))
            case Greater(e1, e2):
                p1, _, w1 = split_pair(t(e1), gen)
                p2, _, w2 = split_pair(t(e2), gen)
                return w1(w2(Greater(p1, p2)))
            case If() | Letrec() | Seq():
                raise TransformError(f"cannot {mode}-transform {e!r} (desugar first)")
            case _:
                return map_children(e, t)

    return t(e)


def fwd_transform(e: Expr, gen: NameGen | None = None) -> Expr:
    """The pairing translation with (value, tangent) pairs: + and * pair
    their primal result with its tangent by the tangent rule."""
    gen = gen or NameGen(all_names(e))

    def arith(op: type, t1: Expr, t2: Expr) -> Expr:
        p1, d1, w1 = split_pair(t1, gen)
        p2, d2, w2 = split_pair(t2, gen)
        return w1(w2(Pair(op(p1, p2), tangent_rule(
            _TermArith, "add" if op is Add else "mul", p1, d1, p2, d2))))

    return pairing_transform(e, "forward", Const(0.0), arith, gen)


def gradient_target(f: Expr) -> tuple[Lam, NameGen]:
    """prepare(f) for a gradient program; f must be a one-argument lam."""
    f, gen = prepare(f)
    if not isinstance(f, Lam):
        raise TransformError("gradient target must be a one-argument lam")
    return f, gen


def forward_gradient_program(f: Expr) -> Expr:
    """Wrap the transformed function so it maps an input to its tangent:
    fresh x applied as (x, 1), returning the tangent component."""
    f, gen = gradient_target(f)
    x = gen.fresh()
    tf = fwd_transform(f, gen)
    t = gen.fresh()
    return Lam(x, Let(t, App(tf, Pair(Var(x), Const(1.0))), Snd(Var(t))))


def symbolic_gradient_program(f: Expr) -> Expr:
    """ANF-convert the body, differentiate symbolically, rewrap as a lambda."""
    f, gen = gradient_target(f)
    body = anf(f.body, gen)
    return Lam(f.param, symbolic_diff(body, f.param))
