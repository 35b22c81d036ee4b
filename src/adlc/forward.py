"""Forward-mode AD: symbolic differentiation over ANF and the pairing
source transformation, plus their gradient wrappers.

Both paths carry a primal together with its tangent.  The symbolic path
splits every let into a primal binding and a tangent binding; the
transformation path rewrites real constants to (c, 0) pairs and +/* to
let-bound pair results, leaving every other form untouched.
"""

from __future__ import annotations

from typing import Callable

from .interp import apply_real
from .lang import anf, prepare
from .syntax import (
    Add, App, Const, Expr, Fst, Greater, If, LangError, Lam, Let, Letrec,
    Mul, NameGen, Pair, Seq, Snd, Var, all_names, contains_control,
    map_children,
)

TANGENT_SUFFIX = "'"


class TransformError(LangError):
    pass


def _tangent(name: str) -> str:
    return name + TANGENT_SUFFIX


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
                return Const(1.0) if name == wrt else Var(_tangent(name))
            case Add(a, b):
                return Add(d(a), d(b))
            case Mul(a, b):
                return Add(Mul(d(a), b), Mul(a, d(b)))
            case Let(n, bound, body):
                return Let(n, bound, Let(_tangent(n), d(bound), d(body)))
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


def fwd_transform(e: Expr, gen: NameGen | None = None) -> Expr:
    """Pairing transformation for forward-mode AD.

    Real constants become (c, 0); + and * produce let-bound pair results
    carrying the tangent arithmetic; every other form maps homomorphically.
    Source shift/reset is rejected.
    """
    if contains_control(e):
        raise TransformError("shift/reset not supported in forward AD source")
    gen = gen or NameGen(all_names(e))

    def t(e: Expr) -> Expr:
        match e:
            case Const():
                return Pair(e, Const(0.0))
            case Add(e1, e2):
                p1, d1, w1 = split_pair(t(e1), gen)
                p2, d2, w2 = split_pair(t(e2), gen)
                return w1(w2(Pair(Add(p1, p2), Add(d1, d2))))
            case Mul(e1, e2):
                p1, d1, w1 = split_pair(t(e1), gen)
                p2, d2, w2 = split_pair(t(e2), gen)
                return w1(w2(Pair(Mul(p1, p2), Add(Mul(p1, d2), Mul(d1, p2)))))
            case Greater(e1, e2):
                p1, _, w1 = split_pair(t(e1), gen)
                p2, _, w2 = split_pair(t(e2), gen)
                return w1(w2(Greater(p1, p2)))
            case If() | Letrec() | Seq():
                raise TransformError(f"cannot forward-transform {e!r} (desugar first)")
            case _:
                return map_children(e, t)

    return t(e)


def forward_gradient_program(f: Expr) -> Expr:
    """Wrap the transformed function so it maps an input to its tangent:
    fresh x applied as (x, 1), returning the tangent component."""
    f, gen = prepare(f)
    if not isinstance(f, Lam):
        raise TransformError("gradient target must be a one-argument lam")
    x = gen.fresh()
    tf = fwd_transform(f, gen)
    t = gen.fresh()
    return Lam(x, Let(t, App(tf, Pair(Var(x), Const(1.0))), Snd(Var(t))))


def grad_forward(f: Expr, x0: float) -> float:
    """Derivative of a one-argument real lambda at x0 via the forward
    transformation."""
    return apply_real(forward_gradient_program(f), x0)


def symbolic_gradient_program(f: Expr) -> Expr:
    """ANF-convert the body, differentiate symbolically, rewrap as a lambda."""
    f, gen = prepare(f)
    if not isinstance(f, Lam):
        raise TransformError("gradient target must be a one-argument lam")
    body = anf(f.body, gen)
    return Lam(f.param, symbolic_diff(body, f.param))


def grad_symbolic(f: Expr, x0: float) -> float:
    """Derivative via ANF conversion followed by symbolic differentiation."""
    return apply_real(symbolic_gradient_program(f), x0)


def grad_forward_tagged(f, x0: float, order: int = 1) -> float:
    """Derivative of a host-level function over tagged duals; order=2
    composes two invocations with distinct tags (no perturbation confusion)."""
    from .runtime import grad_dual_tagged

    if order == 1:
        return grad_dual_tagged(f, x0)
    if order == 2:
        return grad_dual_tagged(lambda x: grad_dual_tagged(f, x), x0)
    raise ValueError("order must be 1 or 2")
