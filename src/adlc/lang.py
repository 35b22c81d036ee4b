"""Desugaring, Barendregt freshening, and A-normal form conversion."""

from __future__ import annotations

from .syntax import (
    Add, App, Case, Const, Expr, If, LangError, Lam, Let, Letrec, Mul,
    NameGen, Seq, Shift, Var, all_names, map_children,
)


class AnfError(LangError):
    pass


def _same(e: Expr) -> Expr:
    return e


_SUGAR = (If, Letrec, Seq)


def desugar_node(e: Expr, fresh, go=_same) -> Expr:
    """A sugar node (if, letrec, seq) expanded one level into core forms,
    with go applied to each subexpression in order and fresh() naming each
    new binder.

    if b then t else e       =>  case b of _ => t or _ => e
    letrec f = \\x.e1 in e2  =>  let f0 = \\f1. \\x. let f = f1 f1 in e1
                                 in let f = f0 f0 in e2
    e1 ; e2                   =>  let _ = e1 in e2   (fresh unused name)
    """
    match e:
        case If(g, t, o):
            return Case(go(g), fresh(), go(t), fresh(), go(o))
        case Letrec(fname, Lam(param, fbody), body):
            f0 = fresh()
            f1 = fresh()
            inner = Lam(f1, Lam(param, Let(fname, App(Var(f1), Var(f1)), go(fbody))))
            return Let(f0, inner, Let(fname, App(Var(f0), Var(f0)), go(body)))
        case Letrec():
            raise LangError(f"cannot desugar {e!r}")
        case Seq(a, b):
            return Let(fresh(), go(a), go(b))


def desugar(e: Expr, gen: NameGen | None = None) -> Expr:
    """Expand if/letrec/seq into core forms everywhere (desugar_node)."""
    gen = gen or NameGen(all_names(e))

    def go(e: Expr) -> Expr:
        if type(e) in _SUGAR:
            return desugar_node(e, gen.fresh, go)
        return map_children(e, go)

    return go(e)


def freshen(e: Expr, gen: NameGen | None = None) -> Expr:
    """Alpha-rename every binder to a globally unique name.

    Free variables keep their names; the generator never emits them, so the
    output satisfies Barendregt's convention.  Deterministic: the same input
    and generator state give identical output.
    """
    gen = gen or NameGen(all_names(e))

    def go(e: Expr, sub: dict[str, str]) -> Expr:
        match e:
            case Var(name):
                return Var(sub.get(name, name))
            case Lam(p, b):
                p2 = gen.fresh()
                return Lam(p2, go(b, {**sub, p: p2}))
            case Let(n, b, body):
                bound = go(b, sub)
                n2 = gen.fresh()
                return Let(n2, bound, go(body, {**sub, n: n2}))
            case Case(s, ln, lb, rn, rb):
                s2 = go(s, sub)
                ln2 = gen.fresh()
                lb2 = go(lb, {**sub, ln: ln2})
                rn2 = gen.fresh()
                rb2 = go(rb, {**sub, rn: rn2})
                return Case(s2, ln2, lb2, rn2, rb2)
            case Shift(n, b):
                n2 = gen.fresh()
                return Shift(n2, go(b, {**sub, n: n2}))
            case Letrec(n, f, body):
                n2 = gen.fresh()
                sub2 = {**sub, n: n2}
                return Letrec(n2, go(f, sub2), go(body, sub2))
            case _:
                return map_children(e, go, sub)

    return go(e, {})


def prepare(e: Expr) -> tuple[Expr, NameGen]:
    """Desugar and freshen with one name supply that avoids every name in
    e; returns the core program and the supply for further fresh names."""
    gen = NameGen(all_names(e))
    return freshen(desugar(e, gen), gen), gen


def anf(e: Expr, gen: NameGen | None = None) -> Expr:
    """Convert the arithmetic fragment to A-normal form.

    Every + and * ends up with variable-or-constant operands and every
    intermediate result is bound by a let.  The same float operations run in
    the same order as in the input.
    """
    gen = gen or NameGen(all_names(e), prefix="y")
    bindings: list[tuple[str, Expr]] = []

    def atom(e: Expr) -> Expr:
        match e:
            case Const() | Var():
                return e
            case Add(a, b) | Mul(a, b):
                rhs = type(e)(atom(a), atom(b))
            case Let(n, bound, body):
                match bound:
                    case Const() | Var():
                        bindings.append((n, bound))
                    case Add(a, b) | Mul(a, b):
                        bindings.append((n, type(bound)(atom(a), atom(b))))
                    case _:
                        bindings.append((n, atom(bound)))
                return atom(body)
            case _:
                raise AnfError(f"not in the arithmetic fragment: {e!r}")
        name = gen.fresh("y")
        bindings.append((name, rhs))
        return Var(name)

    result = atom(e)
    for name, rhs in reversed(bindings):
        result = Let(name, rhs, result)
    return result
