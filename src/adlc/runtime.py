"""Host-level AD runtimes: dual numbers (tagged and naive), three reverse
formulations (explicit CPS, tape, purely functional), and their composition
for second derivatives.

Each runtime is operator overloading on a number type derived from
`interp.Num`, and an object-language program runs on it in the CEK machine
(`interp.real_fn`), whole language included.  The explicit-CPS and
functional `+` and `*` return `interp.Shifted`, the paper's
`shift { k => val y = ...; k(y); backward }`; host functions call it with
their continuation.  A float operand is lifted where it meets a runtime
number (the paper's implicit `Double => NumR`; the tagged `Dual` of the
nesting operators reads it as a constant instead) and operands keep their
source order; arithmetic on constants alone stays on floats.

Every reverse runtime keeps adjoints in a dense per-run array indexed by
creation order, so runs are independent and re-entrant.  The only shared
state is the tag counter for nested forward invocations.
"""

from __future__ import annotations

import itertools
import operator
from functools import partial
from typing import Callable

from .interp import Num, Shifted, real_fn
from .syntax import Expr, LangError, Lam, contains_control

_TAGS = itertools.count(1)


class RuntimeADError(LangError):
    pass


# ---------------------------------------------------------------------------
# Dual numbers, and the +/* tangent rule of every forward formulation


def tangent_rule(m, op: str, p1, d1, p2, d2):
    """Tangent of p1 op p2, op "add" or "mul", from the operands' tangents:
    d1 + d2, or d1*p2 + p1*d2 for *.  The medium m supplies add(a, b) and
    mul(a, b): the operator module on host floats, Dual on the components
    of tagged duals, and term constructors in the transformations."""
    if op == "mul":
        return m.add(m.mul(d1, p2), m.mul(p1, d2))
    return m.add(d1, d2)


class _Overloaded(Num):
    """+ and * as combine(a, b), operands in source order, a float operand
    lifted first."""

    __slots__ = ()

    def __add__(self, other):
        return self._add(self, self._lift(other))

    def __radd__(self, other):
        return self._add(self._lift(other), self)

    def __mul__(self, other):
        return self._mul(self, self._lift(other))

    def __rmul__(self, other):
        return self._mul(self._lift(other), self)


class NumF(_Overloaded):
    """Untagged primal/tangent pair, a float lifted with a zero tangent.
    One derivative per run needs no tag: the dual mode runs on it, and its
    tangents are the forward transformation's, operation for operation,
    except on a subterm of constants alone: that stays on floats and is
    lifted with a +0.0 tangent, where the forward transformation computes
    a tangent that may be -0.0 or nan ((* -2.0 -3.0): 0*-3 + -2*0 = -0.0).
    Exhibits perturbation confusion when gradient calls nest."""

    __slots__ = ("x", "d")

    def __init__(self, x, d):
        self.x = x
        self.d = d

    def _lift(self, v):
        return v if type(v) is NumF else NumF(v, 0.0)

    @staticmethod
    def _add(a, b):
        return NumF(a.x + b.x, tangent_rule(operator, "add", a.x, a.d, b.x, b.d))

    @staticmethod
    def _mul(a, b):
        return NumF(a.x * b.x, tangent_rule(operator, "mul", a.x, a.d, b.x, b.d))


def grad_naive(f: Callable, x0: float) -> float:
    y = f(NumF(x0, 1.0))
    return y.d if type(y) is NumF else 0.0


def _dual_op(op: str):
    """Dual's + or *: operands of one tag combine by the tangent rule, an
    operand of a lower tag is a constant to the higher one, and untagged
    operands use the host's operator."""
    prim = getattr(operator, op)

    def combine(a, b):
        ta = a.tag if type(a) is Dual else 0
        tb = b.tag if type(b) is Dual else 0
        if ta == tb:
            if ta == 0:
                return prim(a, b)
            return Dual(combine(a.x, b.x), tangent_rule(Dual, op, a.x, a.d, b.x, b.d), ta)
        if ta > tb:
            return Dual(combine(a.x, b), a.d if op == "add" else combine(a.d, b), ta)
        return Dual(combine(a, b.x), b.d if op == "add" else combine(a, b.d), tb)

    return combine


d_add, d_mul = _dual_op("add"), _dual_op("mul")


class Dual(_Overloaded):
    """Tagged dual number; values carrying a lower tag are constants with
    respect to a higher-tag derivative, floats with respect to every one.
    As the tangent rule's medium, add and mul are its + and *."""

    __slots__ = ("x", "d", "tag")
    _add, _mul = add, mul = staticmethod(d_add), staticmethod(d_mul)

    def __init__(self, x, d, tag: int):
        self.x = x
        self.d = d
        self.tag = tag

    def __repr__(self):
        return f"Dual({self.x!r}, {self.d!r}, tag={self.tag})"

    def _lift(self, v):
        return v


def grad_dual_tagged(f: Callable, x0) -> float:
    """Tangent of f at x0; assigns a fresh tag per invocation so that nested
    calls never mix their perturbations."""
    tag = next(_TAGS)
    y = f(Dual(x0, 1.0, tag))
    return y.d if type(y) is Dual and y.tag == tag else 0.0


def probe_outer_gradients() -> dict:
    """Run the nested-gradient program that conflates perturbations under
    naive duals; returns its inner gradients ("naive", "tagged") and outer
    gradients ("naive_outer", "tagged_outer")."""
    seen = {}

    def outer_naive(x: NumF) -> NumF:
        inner = grad_naive(lambda y: x + y, 1.0)
        seen["naive"] = inner
        return x * NumF(inner, 0.0)

    seen["naive_outer"] = grad_naive(outer_naive, 1.0)

    def outer_tagged(x):
        inner = grad_dual_tagged(lambda y: d_add(x, y), 1.0)
        seen["tagged"] = inner
        return d_mul(x, inner)

    seen["tagged_outer"] = grad_dual_tagged(outer_tagged, 1.0)
    return seen


def perturbation_confusion_probe() -> tuple[float, float]:
    """(naive inner gradient, tagged inner gradient) of a fresh probe run."""
    seen = probe_outer_gradients()
    return seen["naive"], seen["tagged"]


# ---------------------------------------------------------------------------
# Reverse runtimes, and the +/* adjoint rule that every reverse formulation
# runs: these runtimes, the three reverse transformations and the IR stager.
# The runtimes compute with the host's + and *, so a run's number type is
# whatever its input is: a tagged dual input gives forward-over-reverse.


def adjoint_rule(m, s, op: str, p1, a1, p2, a2, y):
    """Backward step of y = p1 op p2, op "add" or "mul": add y's adjoint
    into a1, then into a2, times the other operand for *, reading y's
    adjoint once per update.  The medium m supplies read(s, y), mul(a, b),
    accum(s, a, delta) and seq(u1, u2); each update is also the state the
    next one reads.  That state is the adjoint list of a host run, updated
    in place, or the functional runtime's immutable map; the stager, which
    emits IR statements, and the transformations, which build terms, thread
    None."""
    d = m.read(s, y)
    u = m.accum(s, a1, m.mul(d, p2) if op == "mul" else d)
    d = m.read(u, y)
    return m.seq(u, m.accum(u, a2, m.mul(d, p1) if op == "mul" else d))


def later(_u1, u2):
    """seq for a medium whose updates take effect as they are made."""
    return u2


class _Run:
    """Per-invocation adjoint storage; index order is creation order.  It is
    the adjoint rule's medium, its state the adjoint list."""

    read, mul, seq = (staticmethod(operator.getitem), staticmethod(operator.mul),
                      staticmethod(later))

    def __init__(self, trace: list | None = None):
        self.adj: list = []
        self.trace = trace

    def slot(self) -> int:
        self.adj.append(0.0)
        return len(self.adj) - 1

    def accum(self, adj: list, idx: int, delta) -> list:
        if self.trace is not None:
            self.trace.append((idx, delta))
        adj[idx] = adj[idx] + delta
        return adj


def _shift_op(op: str):
    """RevNum's + or *: shift to the rest of the run, whose value is the
    run's adjoint state, and return that state with the operands' adjoints
    added in."""
    prim = getattr(operator, op)

    def combine(a, b):
        run = a.run
        y = RevNum(prim(a.x, b.x), run.slot(), run)
        return Shifted(y, lambda s: adjoint_rule(
            run, s, op, a.x, a.idx, b.x, b.idx, y.idx))

    return combine


fun_add, fun_mul = _shift_op("add"), _shift_op("mul")  # RevNum's + and *


class RevNum(_Overloaded):
    """Reverse-mode number, the paper's NumR: a primal and an adjoint slot
    id of its run.  + and * shift: they return the result awaiting the
    delimited continuation.  The run is the adjoint rule's medium: a _Run
    updates its list in place (the explicit-CPS runtime), and a FunRun
    threads immutable maps (the functional runtime)."""

    __slots__ = ("x", "idx", "run")
    _add, _mul = staticmethod(fun_add), staticmethod(fun_mul)

    def __init__(self, x, idx: int, run):
        self.x = x
        self.idx = idx
        self.run = run

    def _lift(self, v):
        return v if isinstance(v, RevNum) else type(self)(v, self.run.slot(), self.run)


def grad_cps(f: Callable, x0, trace: list | None = None):
    """Reverse-mode gradient via nested continuations: run forward, set the
    final adjoint to 1, unwind accumulating adjoints, read the input's.  f
    returns its result awaiting the continuation.  A trace list gets the
    run's (slot, delta) adjoint updates appended."""
    run = _Run(trace)
    z = RevNum(x0, run.slot(), run)

    def final(r):
        if isinstance(r, RevNum):
            run.adj[r.idx] = 1.0
        return run.adj

    f(z)(final)
    return run.adj[z.idx]


def _tape_op(op: str):
    """TapeNum's + or *: record the adjoint rule's arguments on the tape."""
    prim = getattr(operator, op)

    def combine(a, b):
        run = a.run
        y = TapeNum(prim(a.x, b.x), run.slot(), run)
        run.tape.append((op, a.x, a.idx, b.x, b.idx, y.idx))
        return y

    return combine


class TapeNum(RevNum):
    """Reverse-mode number for the tape runtime: the defunctionalized
    RevNum, whose operations record their backward step instead of
    awaiting a continuation."""

    __slots__ = ()
    _add, _mul = staticmethod(_tape_op("add")), staticmethod(_tape_op("mul"))


class TapeRun(_Run):
    def __init__(self, trace: list | None = None):
        super().__init__(trace)
        self.tape: list = []

    def replay(self) -> None:
        """Play the recorded steps in reverse insertion order."""
        adj = self.adj
        for op, p1, a1, p2, a2, y in reversed(self.tape):
            adjoint_rule(self, adj, op, p1, a1, p2, a2, y)


def grad_tape(f: Callable, x0, trace: list | None = None):
    """Reverse-mode gradient via a per-run tape: record forward, replay
    backward.  A trace list gets the run's adjoint updates appended."""
    run = TapeRun(trace)
    z = TapeNum(x0, run.slot(), run)
    y = f(z)
    if isinstance(y, TapeNum):
        run.adj[y.idx] = 1.0
    run.replay()
    return run.adj[z.idx]


# ---------------------------------------------------------------------------
# Purely functional reverse mode (reified adjoint store)


def map_get(m: dict, idx: int):
    return m.get(idx, 0.0)


def map_add(m: dict, idx: int, delta) -> dict:
    """Functional point update: a new map with delta summed at idx."""
    out = dict(m)
    out[idx] = out.get(idx, 0.0) + delta
    return out


class FunRun:
    """Id supply only; gradients live in immutable maps, never mutated.  As
    the adjoint rule's medium it threads those maps."""

    read, mul, accum, seq = (staticmethod(map_get), staticmethod(operator.mul),
                             staticmethod(map_add), staticmethod(later))

    def __init__(self):
        self.slot = itertools.count().__next__


def grad_functional(f: Callable, x0):
    """Reverse-mode gradient without mutation: each continuation returns
    the adjoint map of the rest of the run, and each operation returns it
    with its operands' adjoints added in."""
    run = FunRun()
    z = RevNum(x0, run.slot(), run)
    m = f(z)(lambda r: {r.idx: 1.0} if isinstance(r, RevNum) else {})
    return map_get(m, z.idx)


# ---------------------------------------------------------------------------
# Expression bridges: each runtime is the CEK machine run on its number
# type.  A program is translated once and runs as written (no freshening),
# and errors come when the run reaches them, as the machine's do.

_NOT_A_LAM = "gradient target must be a one-argument lam"


def _machine(f: Expr, shifts: bool = False):
    """interp.real_fn(f), or, for a target the runtime cannot run, a
    function that raises RuntimeADError when called.  A runtime that shifts
    delimits every operation, so the program's own shift/reset would meet
    its delimiters."""
    if not isinstance(f, Lam):
        err = _NOT_A_LAM
    elif shifts and contains_control(f):
        err = "shift/reset in a program for the cps or functional runtime"
    else:
        return real_fn(f)

    def fail(x, seed=None):
        raise RuntimeADError(err)

    return fail


def dual_fn(f: Expr):
    """A program as a host function over tagged duals, for use with the
    nesting gradient operators."""
    if not isinstance(f, Lam):
        raise RuntimeADError(_NOT_A_LAM)
    return real_fn(f)


def dual_gradient(f: Expr):
    """Dual-number gradient of an object-language program: a program
    cannot nest gradient calls, so it runs on untagged duals."""
    return partial(grad_naive, _machine(f))


def cps_gradient(f: Expr):
    run = _machine(f, shifts=True)
    return lambda x0, trace=None: grad_cps(lambda z: partial(run, z), x0, trace)


def tape_gradient(f: Expr):
    return partial(grad_tape, _machine(f))


def functional_gradient(f: Expr):
    run = _machine(f, shifts=True)
    return lambda x0: grad_functional(lambda z: partial(run, z), x0)


def grad_dual_expr(f: Expr, x0: float) -> float:
    return dual_gradient(f)(x0)


def grad_cps_expr(f: Expr, x0, trace: list | None = None):
    return cps_gradient(f)(x0, trace)


def grad_tape_expr(f: Expr, x0: float, trace: list | None = None) -> float:
    return tape_gradient(f)(x0, trace)


def grad_functional_expr(f: Expr, x0: float) -> float:
    return functional_gradient(f)(x0)


def grad_forward_over_reverse(f: Expr, x0: float) -> float:
    """Second derivative in one pass: the reverse runtime runs on a tagged
    dual input, so the input adjoint carries a tangent."""
    return grad_dual_tagged(partial(grad_cps_expr, f), x0)
