"""Call-by-value evaluator with delimited control and a mutable cell store.

The machine is an explicit continuation-passing interpreter: the continuation
is a stack of defunctionalized frames, so shift/reset needs no host-language
control feature.  `shift` captures the frames up to the nearest reset marker
and packages them as a callable value; invoking that value reinstates the
frames under a fresh delimiter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Add, App, Assign, Case, Const, Deref, Expr, Fst, Greater, Inl, Inr,
    LangError, Lam, Let, Mul, Pair, Ref, Reset, Seq, Shift, Snd, Unit, Var,
    fmt_float,
)


class EvalError(LangError):
    pass


class _UnitType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "()"


UNIT = _UnitType()


@dataclass
class Closure:
    __slots__ = ("param", "body", "env")
    param: str
    body: Expr
    env: dict


@dataclass
class PairV:
    __slots__ = ("fst", "snd")
    fst: object
    snd: object


@dataclass
class InlV:
    __slots__ = ("value",)
    value: object


@dataclass
class InrV:
    __slots__ = ("value",)
    value: object


@dataclass
class Cell:
    __slots__ = ("id",)
    id: int


@dataclass
class Cont:
    """A captured delimited continuation, applicable like a closure."""

    __slots__ = ("frames",)
    frames: tuple


class Store:
    """Cell heap; ids are never reused within one evaluation."""

    def __init__(self):
        self.next_id = 0
        self.cells: dict[int, object] = {}

    def alloc(self, v) -> Cell:
        cid = self.next_id
        self.next_id += 1
        self.cells[cid] = v
        return Cell(cid)

    def read(self, c: Cell):
        return self.cells[c.id]

    def write(self, c: Cell, v) -> None:
        self.cells[c.id] = v


_RESET = ("reset",)


def eval_expr(e: Expr, env: dict | None = None, store: Store | None = None):
    """Evaluate a freshened, sugar-free expression; returns (value, store)."""
    env = {} if env is None else env
    store = store if store is not None else Store()
    frames: list = [_RESET]

    ctl: object = e
    val: object = None
    mode_eval = True

    while True:
        if mode_eval:
            ee = ctl
            match ee:
                case Const(v):
                    val, mode_eval = v, False
                case Var(name):
                    try:
                        val = env[name]
                    except KeyError:
                        raise EvalError(f"unbound variable: {name}") from None
                    mode_eval = False
                case Unit():
                    val, mode_eval = UNIT, False
                case Lam(p, b):
                    val, mode_eval = Closure(p, b, env), False
                case Add(a, b):
                    frames.append(("add1", b, env))
                    ctl = a
                case Mul(a, b):
                    frames.append(("mul1", b, env))
                    ctl = a
                case Greater(a, b):
                    frames.append(("gt1", b, env))
                    ctl = a
                case App(f, a):
                    frames.append(("app_arg", a, env))
                    ctl = f
                case Let(n, bound, body):
                    frames.append(("let", n, body, env))
                    ctl = bound
                case Seq(a, b):
                    frames.append(("seq", b, env))
                    ctl = a
                case Pair(a, b):
                    frames.append(("pair1", b, env))
                    ctl = a
                case Fst(a):
                    frames.append(("fst",))
                    ctl = a
                case Snd(a):
                    frames.append(("snd",))
                    ctl = a
                case Inl(a):
                    frames.append(("inl",))
                    ctl = a
                case Inr(a):
                    frames.append(("inr",))
                    ctl = a
                case Case(s, ln, lb, rn, rb):
                    frames.append(("case", ln, lb, rn, rb, env))
                    ctl = s
                case Ref(a):
                    frames.append(("ref",))
                    ctl = a
                case Deref(a):
                    frames.append(("deref",))
                    ctl = a
                case Assign(c, v):
                    frames.append(("assign1", v, env))
                    ctl = c
                case Reset(b):
                    frames.append(_RESET)
                    ctl = b
                case Shift(n, b):
                    # Capture up to (but not including) the nearest delimiter;
                    # the delimiter stays in place around the shift body.
                    i = len(frames) - 1
                    while i >= 0 and frames[i][0] != "reset":
                        i -= 1
                    if i < 0:
                        raise EvalError("shift without enclosing reset")
                    k = Cont(tuple(frames[i + 1:]))
                    del frames[i + 1:]
                    env = {**env, n: k}
                    ctl = b
                case _:
                    raise EvalError(f"cannot evaluate {ee!r} (desugar first)")
        else:
            if not frames:
                return val, store
            fr = frames.pop()
            tag = fr[0]
            if tag == "reset":
                if not frames:
                    return val, store
                continue
            elif tag == "add1":
                frames.append(("add2", val))
                ctl, env, mode_eval = fr[1], fr[2], True
            elif tag == "add2":
                a = fr[1]
                if type(a) is not float or type(val) is not float:
                    raise EvalError("arithmetic on non-reals (+)")
                val = a + val
            elif tag == "mul1":
                frames.append(("mul2", val))
                ctl, env, mode_eval = fr[1], fr[2], True
            elif tag == "mul2":
                a = fr[1]
                if type(a) is not float or type(val) is not float:
                    raise EvalError("arithmetic on non-reals (*)")
                val = a * val
            elif tag == "gt1":
                frames.append(("gt2", val))
                ctl, env, mode_eval = fr[1], fr[2], True
            elif tag == "gt2":
                a = fr[1]
                if type(a) is not float or type(val) is not float:
                    raise EvalError("comparison on non-reals (>)")
                val = InlV(UNIT) if a > val else InrV(UNIT)
            elif tag == "app_arg":
                frames.append(("app_call", val))
                ctl, env, mode_eval = fr[1], fr[2], True
            elif tag == "app_call":
                fn = fr[1]
                if type(fn) is Closure:
                    env = {**fn.env, fn.param: val}
                    ctl, mode_eval = fn.body, True
                elif type(fn) is Cont:
                    frames.append(_RESET)
                    frames.extend(fn.frames)
                else:
                    raise EvalError("applying a non-closure")
            elif tag == "let":
                env = {**fr[3], fr[1]: val}
                ctl, mode_eval = fr[2], True
            elif tag == "seq":
                ctl, env, mode_eval = fr[1], fr[2], True
            elif tag == "pair1":
                frames.append(("pair2", val))
                ctl, env, mode_eval = fr[1], fr[2], True
            elif tag == "pair2":
                val = PairV(fr[1], val)
            elif tag == "fst":
                if type(val) is not PairV:
                    raise EvalError(f"projecting a non-pair (fst): {val!r}")
                val = val.fst
            elif tag == "snd":
                if type(val) is not PairV:
                    raise EvalError(f"projecting a non-pair (snd): {val!r}")
                val = val.snd
            elif tag == "inl":
                val = InlV(val)
            elif tag == "inr":
                val = InrV(val)
            elif tag == "case":
                if type(val) is InlV:
                    env = {**fr[5], fr[1]: val.value}
                    ctl, mode_eval = fr[2], True
                elif type(val) is InrV:
                    env = {**fr[5], fr[3]: val.value}
                    ctl, mode_eval = fr[4], True
                else:
                    raise EvalError(f"case on a non-sum: {val!r}")
            elif tag == "ref":
                val = store.alloc(val)
            elif tag == "deref":
                if type(val) is not Cell:
                    raise EvalError(f"dereferencing a non-cell: {val!r}")
                val = store.read(val)
            elif tag == "assign1":
                if type(val) is not Cell:
                    raise EvalError("assigning a non-cell")
                frames.append(("assign2", val))
                ctl, env, mode_eval = fr[1], fr[2], True
            elif tag == "assign2":
                store.write(fr[1], val)
                val = UNIT
            else:
                raise EvalError(f"unknown frame {tag}")


def apply_real(prog: Expr, x: float) -> float:
    """Apply a one-argument program to a real; the result must be a real."""
    v, _ = eval_expr(App(prog, Const(x)))
    if type(v) is not float:
        raise EvalError("program did not return a real")
    return v


def render_value(v, store: Store | None = None) -> str:
    """Human-readable value rendering for CLI output."""
    if type(v) is float:
        return fmt_float(v)
    if v is UNIT:
        return "()"
    if type(v) is PairV:
        return f"(pair {render_value(v.fst, store)} {render_value(v.snd, store)})"
    if type(v) is InlV:
        return f"(inl {render_value(v.value, store)})"
    if type(v) is InrV:
        return f"(inr {render_value(v.value, store)})"
    if type(v) is Closure:
        return "<closure>"
    if type(v) is Cont:
        return "<continuation>"
    if type(v) is Cell:
        if store is not None:
            return f"<cell {v.id} = {render_value(store.read(v), store)}>"
        return f"<cell {v.id}>"
    return repr(v)
