"""Reverse-mode AD as three source transformations.

All three share one arithmetic pattern: + and * allocate a (value, ref 0)
pair, invoke the rest of the computation, then accumulate adjoints into the
operand cells.  They differ in who owns the control flow:

  target-shift  control operators in the *output*; the evaluator's
                shift/reset runs the backward pass.
  meta-shift    control operators at translation time; here realized by
                threading an explicit single-shot translation continuation,
                so the output is a pure CPS program.
  full-cps      the translator itself is written in continuation-returning
                style; every rule is a function awaiting its translation
                continuation.

Outputs of the last two contain no shift/reset nodes at all.  Tail-call
wrappers and case-join bindings are normalized while terms are built:
eta-redexes over a variable head collapse and lets binding a bare variable
rename instead.  The renaming is a substitution carried during translation,
one map per top-level translation (binders are unique after freshen, which
the entry points apply when not handed a name supply): a let whose bound
value translates to a variable records name -> variable, and the Var rules
read the map, so no built term is walked again and both translations stay
linear in program size.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable

from .forward import TransformError, split_pair
from .interp import apply_real
from .lang import freshen, prepare
from .runtime import adjoint_rule
from .syntax import (
    Add, App, Assign, Case, Const, Deref, Expr, Fst, Greater, If, Inl, Inr,
    Lam, Let, Letrec, Mul, NameGen, Pair, Ref, Reset, Seq, Shift, Snd, Unit,
    Var, all_names, contains_control, map_children,
)

MetaK = Callable[[Expr], Expr]

VARIANTS = ("target-shift", "meta-shift", "full-cps")


def normalize_tail(e: Expr) -> Expr:
    """Eta contraction of a construction-time tail wrapper: lam y. (k y) ->
    k for a variable head k.  Contraction over a compound head is not
    performed since it would relocate its effects.  Anything else is
    returned unchanged."""
    match e:
        case Lam(p, App(Var(f), Var(a))) if a == p and f != p:
            return Var(f)
        case _:
            return e


def _wavy_lam(param: str, body: Expr) -> Expr:
    return normalize_tail(Lam(param, body))


def _wavy_let(name: str, bound: Expr, body_of: Callable[[Expr], Expr]) -> Expr:
    """Bind a continuation value, renaming instead when it is a variable."""
    if isinstance(bound, Var):
        return body_of(bound)
    return Let(name, bound, body_of(Var(name)))


# the adjoint rule's medium: an update is the term  cell := !cell + delta
_TERMS = SimpleNamespace(
    read=lambda _s, yd: Deref(yd), mul=Mul, seq=Seq,
    accum=lambda _s, cell, delta: Assign(cell, Add(Deref(cell), delta)))


def _arith_block(op: str, t1: Expr, t2: Expr, gen: NameGen, capture) -> Expr:
    """The shared +/* pattern: bind operand pairs, allocate the result with
    a zero adjoint cell, run the rest of the computation, then accumulate
    backwards by the adjoint rule.  `capture()`, called once the operands
    are bound, returns the continuation for the rest and the wrapper that
    delimits the block: an object-level shift, or a translation-time
    continuation and no wrapper."""
    p1, a1, w1 = split_pair(t1, gen)
    p2, a2, w2 = split_pair(t2, gen)
    k, delimit = capture()
    y = gen.fresh()
    backward = adjoint_rule(_TERMS, None, op, p1, a1, p2, a2, Snd(Var(y)))
    block = Let(y, Pair((Add if op == "add" else Mul)(p1, p2), Ref(Const(0.0))),
                Seq(k(Var(y)), backward))
    return w1(w2(delimit(block)))


def _no_delimiter(block: Expr) -> Expr:
    return block


def _check_source(e: Expr) -> None:
    if contains_control(e):
        raise TransformError("shift/reset not supported in reverse AD source")


# ---------------------------------------------------------------------------
# Variant 1: shift/reset in the target language


def rev_transform_target_shift(e: Expr, gen: NameGen | None = None) -> Expr:
    """Rewrite + and * into shift expressions that allocate (value, ref 0),
    invoke the captured continuation, then accumulate adjoints; all other
    forms map homomorphically."""
    _check_source(e)
    gen = gen or NameGen(all_names(e))

    def capture():
        # operand bindings sit outside the shift
        k = gen.fresh("k")
        return (lambda v: App(Var(k), v)), (lambda block: Shift(k, block))

    def t(e: Expr) -> Expr:
        match e:
            case Const():
                return Pair(e, Ref(Const(0.0)))
            case Add(e1, e2) | Mul(e1, e2):
                op = "add" if isinstance(e, Add) else "mul"
                return _arith_block(op, t(e1), t(e2), gen, capture)
            case Greater(e1, e2):
                p1, _, w1 = split_pair(t(e1), gen)
                p2, _, w2 = split_pair(t(e2), gen)
                return w1(w2(Greater(p1, p2)))
            case If() | Letrec() | Seq():
                raise TransformError(f"cannot reverse-transform {e!r} (desugar first)")
            case _:
                return map_children(e, t)

    return t(e)


# ---------------------------------------------------------------------------
# Variant 2: shift/reset at translation time (explicit single-shot
# translation continuations); output is pure CPS.


def rev_transform_meta_shift(e: Expr, gen: NameGen | None = None) -> Expr:
    """Translate with the control effects resolved during translation; the
    output threads explicit continuation parameters and contains no
    shift/reset nodes."""
    _check_source(e)
    if gen is None:  # a supply comes with freshened input, as from prepare
        gen = NameGen(all_names(e))
        e = freshen(e, gen)
    return _t10(e, lambda m: m, gen, {})


def _t10(e: Expr, mk: MetaK, gen: NameGen, ren: dict[str, Var]) -> Expr:
    rec = _t10
    match e:
        case Const():
            return mk(Pair(e, Ref(Const(0.0))))
        case Var(name):
            return mk(ren.get(name, e))
        case Unit():
            return mk(e)
        case Add(e1, e2) | Mul(e1, e2):
            op = "add" if isinstance(e, Add) else "mul"
            capture = lambda: (mk, _no_delimiter)
            return rec(e1,
                       lambda t1: rec(e2,
                                      lambda t2: _arith_block(op, t1, t2, gen, capture),
                                      gen, ren),
                       gen, ren)
        case Greater(e1, e2):
            def g2(t1):
                def g3(t2):
                    p1, _, w1 = split_pair(t1, gen)
                    p2, _, w2 = split_pair(t2, gen)
                    return w1(w2(mk(Greater(p1, p2))))
                return rec(e2, g3, gen, ren)
            return rec(e1, g2, gen, ren)
        case Lam(p, b):
            k = gen.fresh("k")
            body = rec(b, lambda m: App(Var(k), m), gen, ren)
            return mk(Lam(p, Lam(k, body)))
        case App(e1, e2):
            a = gen.fresh()
            return rec(e1,
                       lambda m: rec(e2,
                                     lambda n: App(App(m, n),
                                                   _wavy_lam(a, mk(Var(a)))),
                                     gen, ren),
                       gen, ren)
        case Let(n, e1, e2):
            def bind(v1):
                if isinstance(v1, Var):
                    ren[n] = v1
                    return rec(e2, mk, gen, ren)
                return Let(n, v1, rec(e2, mk, gen, ren))
            return rec(e1, bind, gen, ren)
        case Fst(a) | Snd(a) | Inl(a) | Inr(a) | Ref(a) | Deref(a):
            return rec(a, lambda v: mk(type(e)(v)), gen, ren)
        case Pair(a, b) | Assign(a, b):
            return rec(a, lambda va: rec(b, lambda vb: mk(type(e)(va, vb)), gen, ren),
                       gen, ren)
        case Case(s, ln, lb, rn, rb):
            def with_scrut(v):
                a = gen.fresh()
                k1 = gen.fresh("k")
                k1val = _wavy_lam(a, mk(Var(a)))
                return _wavy_let(
                    k1, k1val,
                    lambda kref: Case(v,
                                      ln, rec(lb, lambda m: App(kref, m), gen, ren),
                                      rn, rec(rb, lambda m: App(kref, m), gen, ren)))
            return rec(s, with_scrut, gen, ren)
        case _:
            raise TransformError(f"cannot reverse-transform {e!r} (desugar first)")


# ---------------------------------------------------------------------------
# Variant 3: the translator itself in CPS; every rule awaits its
# translation continuation.


def rev_transform_full_cps(e: Expr, gen: NameGen | None = None) -> Expr:
    """Fully CPS meta-level translation; no shift/reset anywhere, neither in
    the translator nor in its output."""
    _check_source(e)
    if gen is None:  # a supply comes with freshened input, as from prepare
        gen = NameGen(all_names(e))
        e = freshen(e, gen)
    return _t11(e, gen, {})(lambda m: m)


def _t11(e: Expr, gen: NameGen, ren: dict[str, Var]):
    match e:
        case Const():
            return lambda k: k(Pair(e, Ref(Const(0.0))))
        case Var(name):
            return lambda k: k(ren.get(name, e))
        case Unit():
            return lambda k: k(e)
        case Add(e1, e2) | Mul(e1, e2):
            op = "add" if isinstance(e, Add) else "mul"
            c1, c2 = _t11(e1, gen, ren), _t11(e2, gen, ren)
            # dynamic lets for p1/p2 preserve sharing, evaluation order,
            # and asymptotic complexity
            return lambda k: c1(lambda p1: c2(lambda p2: _arith_block(
                op, p1, p2, gen, lambda: (k, _no_delimiter))))
        case Greater(e1, e2):
            c1, c2 = _t11(e1, gen, ren), _t11(e2, gen, ren)

            def run(k):
                def j1(t1):
                    def j2(t2):
                        q1, _, w1 = split_pair(t1, gen)
                        q2, _, w2 = split_pair(t2, gen)
                        return w1(w2(k(Greater(q1, q2))))
                    return c2(j2)
                return c1(j1)
            return run
        case Lam(p, b):
            cb = _t11(b, gen, ren)

            def run(k):
                kv = gen.fresh("k")
                return k(Lam(p, Lam(kv, cb(lambda m: App(Var(kv), m)))))
            return run
        case App(e1, e2):
            c1, c2 = _t11(e1, gen, ren), _t11(e2, gen, ren)

            def run(k):
                a = gen.fresh()
                return c1(lambda m: c2(
                    lambda n: App(App(m, n), _wavy_lam(a, k(Var(a))))))
            return run
        case Let(n, e1, e2):
            c1, c2 = _t11(e1, gen, ren), _t11(e2, gen, ren)

            def run(k):
                def bind(y1):
                    if isinstance(y1, Var):
                        ren[n] = y1
                        return c2(k)
                    return Let(n, y1, c2(k))
                return c1(bind)
            return run
        case Fst(a) | Snd(a) | Inl(a) | Inr(a) | Ref(a) | Deref(a):
            c, cons = _t11(a, gen, ren), type(e)
            return lambda k: c(lambda y: k(cons(y)))
        case Pair(a, b) | Assign(a, b):
            ca, cb, cons = _t11(a, gen, ren), _t11(b, gen, ren), type(e)
            return lambda k: ca(lambda y1: cb(lambda y2: k(cons(y1, y2))))
        case Case(s, ln, lb, rn, rb):
            cs = _t11(s, gen, ren)
            cl, cr = _t11(lb, gen, ren), _t11(rb, gen, ren)

            def run(k):
                a = gen.fresh()
                k1 = gen.fresh("k")
                k1val = _wavy_lam(a, k(Var(a)))
                return _wavy_let(
                    k1, k1val,
                    lambda kref: cs(lambda v: Case(
                        v,
                        ln, cl(lambda m: App(kref, m)),
                        rn, cr(lambda n: App(kref, n)))))
            return run
        case _:
            raise TransformError(f"cannot reverse-transform {e!r} (desugar first)")


# ---------------------------------------------------------------------------
# Gradient wrappers


def reverse_gradient_program(f: Expr, variant: str = "meta-shift") -> Expr:
    """Build Transform(f): seed the input with a zero adjoint cell, run the
    transformed function, set the result adjoint to 1, read the input cell."""
    f, gen = prepare(f)
    if not isinstance(f, Lam):
        raise TransformError("gradient target must be a one-argument lam")
    x = gen.fresh()
    xh = gen.fresh()
    seed = Pair(Var(x), Ref(Const(0.0)))
    read_back = Deref(Snd(Var(xh)))
    z = gen.fresh("z")
    set_one = _wavy_lam(z, Assign(Snd(Var(z)), Const(1.0)))

    if variant == "target-shift":
        tf = rev_transform_target_shift(f, gen)
        zh = gen.fresh("z")
        run = Reset(Let(zh, App(tf, Var(xh)), Assign(Snd(Var(zh)), Const(1.0))))
    elif variant in ("meta-shift", "full-cps"):
        t = rev_transform_meta_shift if variant == "meta-shift" else rev_transform_full_cps
        run = App(App(t(f, gen), Var(xh)), set_one)
    else:
        raise TransformError(f"unknown reverse variant {variant!r}")

    return Lam(x, Let(xh, seed, Seq(run, read_back)))


def grad_reverse(f: Expr, x0: float, variant: str = "meta-shift") -> float:
    """Gradient of a one-argument real lambda at x0 via the chosen reverse
    transformation variant."""
    return apply_real(reverse_gradient_program(f, variant), x0)


def grad_reverse_of_reverse(f: Expr, x0: float) -> float:
    """Second derivative by transforming the already-transformed gradient
    program again (source-level composition of reverse passes)."""
    return grad_reverse(reverse_gradient_program(f), x0)
