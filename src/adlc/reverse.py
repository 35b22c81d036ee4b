"""Reverse-mode AD as three source transformations.

All three build their terms through one medium, `_Terms`: + and *
allocate a (value, ref 0) pair, invoke the rest of the computation, then
accumulate adjoints into the operand cells.  They differ in who owns the
rest of the computation:

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
rename instead.  The renaming is a substitution carried during translation
in the `_Terms` of each top-level translation (binders are unique after
freshen, which the entry points apply when not handed a name supply): a let
whose bound value translates to a variable records name -> variable, and
the Var rules read the map, so no built term is walked again and both
translations stay linear in program size.
"""

from __future__ import annotations

from typing import Callable

from .forward import (
    TransformError, gradient_target, pairing_transform, split_pair,
)
from .interp import apply_real
from .lang import freshen
from .runtime import adjoint_rule
from .syntax import (
    Add, App, Assign, Case, Const, Deref, Expr, Fst, Greater, Inl, Inr, Lam,
    Let, Mul, NameGen, Pair, Ref, Reset, Seq, Shift, Snd, Unit, Var,
    all_names, contains_control,
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


class _Terms:
    """The term medium of one top-level translation: its name supply, its
    let renaming, the adjoint rule's medium (an update is the term
    cell := !cell + delta) and the +, * and > blocks."""

    mul, seq = Mul, Seq
    read = staticmethod(lambda _s, yd: Deref(yd))
    accum = staticmethod(lambda _s, cell, delta: Assign(cell, Add(Deref(cell), delta)))

    def __init__(self, gen: NameGen):
        self.gen = gen
        self.ren: dict[str, Var] = {}

    def bind(self, name: str, v: Expr) -> Callable[[Expr], Expr]:
        """Bind name to v around the body built next: the returned wrapper
        makes the Let or, when v is a variable, is the identity, name being
        renamed to v from here on."""
        if isinstance(v, Var):
            self.ren[name] = v
            return lambda body: body
        return lambda body: Let(name, v, body)

    def arith(self, op: type, t1: Expr, t2: Expr, k: MetaK | None = None) -> Expr:
        """t1 op t2 over translated operands, op Add, Mul or Greater, with
        the rest of the computation k.  + and * bind the operand pairs,
        allocate the result with a zero adjoint cell, run k, then accumulate
        backwards by the adjoint rule; without k, the rest is the
        continuation of an object-level shift that delimits the block."""
        p1, a1, w1 = split_pair(t1, self.gen)
        p2, a2, w2 = split_pair(t2, self.gen)
        if op is Greater:
            return w1(w2(k(Greater(p1, p2))))
        shift = None
        if k is None:  # operand bindings sit outside the shift
            shift = self.gen.fresh("k")
            k = lambda v: App(Var(shift), v)
        y = self.gen.fresh()
        backward = adjoint_rule(self, None, "add" if op is Add else "mul",
                                p1, a1, p2, a2, Snd(Var(y)))
        block = Let(y, Pair(op(p1, p2), Ref(Const(0.0))), Seq(k(Var(y)), backward))
        return w1(w2(block if shift is None else Shift(shift, block)))


def _check_source(e: Expr) -> None:
    if contains_control(e):
        raise TransformError("shift/reset not supported in reverse AD source")


# ---------------------------------------------------------------------------
# Variant 1: shift/reset in the target language


def rev_transform_target_shift(e: Expr, gen: NameGen | None = None) -> Expr:
    """The pairing translation with (value, ref 0) pairs: + and * shift to
    allocate the result pair, invoke the captured continuation, then
    accumulate adjoints."""
    terms = _Terms(gen or NameGen(all_names(e)))
    return pairing_transform(e, "reverse", Ref(Const(0.0)), terms.arith, terms.gen)


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
    return _t10(e, lambda m: m, _Terms(gen))


def _t10(e: Expr, mk: MetaK, tm: _Terms) -> Expr:
    rec = _t10
    match e:
        case Const():
            return mk(Pair(e, Ref(Const(0.0))))
        case Var(name):
            return mk(tm.ren.get(name, e))
        case Unit():
            return mk(e)
        case Add(e1, e2) | Mul(e1, e2) | Greater(e1, e2):
            op = type(e)
            return rec(e1, lambda t1: rec(e2, lambda t2: tm.arith(op, t1, t2, mk), tm), tm)
        case Lam(p, b):
            k = tm.gen.fresh("k")
            body = rec(b, lambda m: App(Var(k), m), tm)
            return mk(Lam(p, Lam(k, body)))
        case App(e1, e2):
            a = tm.gen.fresh()
            return rec(e1, lambda m: rec(
                e2, lambda n: App(App(m, n), _wavy_lam(a, mk(Var(a)))), tm), tm)
        case Let(n, e1, e2):
            return rec(e1, lambda v1: tm.bind(n, v1)(rec(e2, mk, tm)), tm)
        case Fst(a) | Snd(a) | Inl(a) | Inr(a) | Ref(a) | Deref(a):
            return rec(a, lambda v: mk(type(e)(v)), tm)
        case Pair(a, b) | Assign(a, b):
            return rec(a, lambda va: rec(b, lambda vb: mk(type(e)(va, vb)), tm), tm)
        case Case(s, ln, lb, rn, rb):
            def with_scrut(v):
                a, k1 = tm.gen.fresh(), tm.gen.fresh("k")
                wrap = tm.bind(k1, _wavy_lam(a, mk(Var(a))))
                kref = tm.ren.get(k1, Var(k1))
                return wrap(Case(v, ln, rec(lb, lambda m: App(kref, m), tm),
                                 rn, rec(rb, lambda m: App(kref, m), tm)))
            return rec(s, with_scrut, tm)
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
    return _t11(e, _Terms(gen))(lambda m: m)


def _t11(e: Expr, tm: _Terms):
    match e:
        case Const():
            return lambda k: k(Pair(e, Ref(Const(0.0))))
        case Var(name):
            return lambda k: k(tm.ren.get(name, e))
        case Unit():
            return lambda k: k(e)
        case Add(e1, e2) | Mul(e1, e2) | Greater(e1, e2):
            c1, c2, op = _t11(e1, tm), _t11(e2, tm), type(e)
            # dynamic lets for p1/p2 preserve sharing, evaluation order,
            # and asymptotic complexity
            return lambda k: c1(lambda t1: c2(lambda t2: tm.arith(op, t1, t2, k)))
        case Lam(p, b):
            cb = _t11(b, tm)

            def run(k):
                kv = tm.gen.fresh("k")
                return k(Lam(p, Lam(kv, cb(lambda m: App(Var(kv), m)))))
            return run
        case App(e1, e2):
            c1, c2 = _t11(e1, tm), _t11(e2, tm)

            def run(k):
                a = tm.gen.fresh()
                return c1(lambda m: c2(
                    lambda n: App(App(m, n), _wavy_lam(a, k(Var(a))))))
            return run
        case Let(n, e1, e2):
            c1, c2 = _t11(e1, tm), _t11(e2, tm)
            return lambda k: c1(lambda y1: tm.bind(n, y1)(c2(k)))
        case Fst(a) | Snd(a) | Inl(a) | Inr(a) | Ref(a) | Deref(a):
            c, cons = _t11(a, tm), type(e)
            return lambda k: c(lambda y: k(cons(y)))
        case Pair(a, b) | Assign(a, b):
            ca, cb, cons = _t11(a, tm), _t11(b, tm), type(e)
            return lambda k: ca(lambda y1: cb(lambda y2: k(cons(y1, y2))))
        case Case(s, ln, lb, rn, rb):
            cs = _t11(s, tm)
            cl, cr = _t11(lb, tm), _t11(rb, tm)

            def run(k):
                a, k1 = tm.gen.fresh(), tm.gen.fresh("k")
                wrap = tm.bind(k1, _wavy_lam(a, k(Var(a))))
                kref = tm.ren.get(k1, Var(k1))
                return wrap(cs(lambda v: Case(v, ln, cl(lambda m: App(kref, m)),
                                              rn, cr(lambda n: App(kref, n)))))
            return run
        case _:
            raise TransformError(f"cannot reverse-transform {e!r} (desugar first)")


# ---------------------------------------------------------------------------
# Gradient wrappers


def reverse_gradient_program(f: Expr, variant: str = "meta-shift") -> Expr:
    """Build Transform(f): seed the input with a zero adjoint cell, run the
    transformed function, set the result adjoint to 1, read the input cell."""
    f, gen = gradient_target(f)
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
