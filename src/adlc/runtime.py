"""Host-level AD runtimes: dual numbers (tagged and naive), three reverse
formulations (explicit CPS, tape, purely functional), and their composition
for second derivatives.

Every reverse runtime keeps adjoints in a dense per-run array indexed by
creation order, so runs are independent and re-entrant.  The only shared
state is the tag counter for nested forward invocations.
"""

from __future__ import annotations

import itertools
import operator
from functools import partial
from typing import Callable

from .syntax import Add, Const, Expr, LangError, Lam, Let, Mul, Seq, Var

_TAGS = itertools.count(1)


class RuntimeADError(LangError):
    pass


# ---------------------------------------------------------------------------
# Dual numbers


class NumF:
    """Naive primal/tangent pair; exhibits perturbation confusion when
    gradient calls nest."""

    __slots__ = ("x", "d")

    def __init__(self, x: float, d: float):
        self.x = x
        self.d = d

    @staticmethod
    def lift(v):
        return v if isinstance(v, NumF) else NumF(float(v), 0.0)

    def __add__(self, other):
        other = NumF.lift(other)
        return NumF(self.x + other.x, self.d + other.d)

    __radd__ = __add__

    def __mul__(self, other):
        other = NumF.lift(other)
        return NumF(self.x * other.x, self.d * other.x + other.d * self.x)

    __rmul__ = __mul__


def grad_naive(f: Callable, x0: float) -> float:
    y = f(NumF(x0, 1.0))
    return y.d if isinstance(y, NumF) else 0.0


class Dual:
    """Tagged dual number; values carrying a lower tag are constants with
    respect to a higher-tag derivative."""

    __slots__ = ("x", "d", "tag")

    def __init__(self, x, d, tag: int):
        self.x = x
        self.d = d
        self.tag = tag

    def __repr__(self):
        return f"Dual({self.x!r}, {self.d!r}, tag={self.tag})"

    def __add__(self, other):
        return d_add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return d_mul(self, other)

    __rmul__ = __mul__


def _tag_of(v) -> int:
    return v.tag if type(v) is Dual else 0


def d_add(a, b):
    ta, tb = _tag_of(a), _tag_of(b)
    if ta == tb:
        if ta == 0:
            return a + b
        return Dual(d_add(a.x, b.x), d_add(a.d, b.d), ta)
    if ta > tb:
        return Dual(d_add(a.x, b), a.d, ta)
    return Dual(d_add(a, b.x), b.d, tb)


def d_mul(a, b):
    ta, tb = _tag_of(a), _tag_of(b)
    if ta == tb:
        if ta == 0:
            return a * b
        return Dual(d_mul(a.x, b.x), d_add(d_mul(a.d, b.x), d_mul(b.d, a.x)), ta)
    if ta > tb:
        return Dual(d_mul(a.x, b), d_mul(a.d, b), ta)
    return Dual(d_mul(a, b.x), d_mul(a, b.d), tb)


def grad_dual_tagged(f: Callable, x0) -> float:
    """Tangent of f at x0; assigns a fresh tag per invocation so that nested
    calls never mix their perturbations."""
    tag = next(_TAGS)
    y = f(Dual(x0, 1.0, tag))
    if type(y) is Dual and y.tag == tag:
        return y.d
    return 0.0


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


def _cps_op(op: str):
    """RevNum's + or *: a function awaiting the delimited continuation."""
    prim = getattr(operator, op)

    def combine(self, other):
        other = self._lift(other)
        run = self.run

        def with_k(k):
            y = RevNum(prim(self.x, other.x), run.slot(), run)
            k(y)
            adjoint_rule(run, run.adj, op, self.x, self.idx, other.x, other.idx, y.idx)

        return with_k

    return combine


class RevNum:
    """Reverse-mode number for the continuation-passing runtime: a primal
    and an adjoint slot id.  + and * return functions awaiting the delimited
    continuation, per the explicit-CPS formulation."""

    __slots__ = ("x", "idx", "run")

    def __init__(self, x, idx: int, run: _Run):
        self.x = x
        self.idx = idx
        self.run = run

    def _lift(self, v):
        return v if isinstance(v, RevNum) else type(self)(v, self.run.slot(), self.run)

    __add__ = __radd__ = _cps_op("add")
    __mul__ = __rmul__ = _cps_op("mul")


def grad_cps(f: Callable, x0, trace: list | None = None):
    """Reverse-mode gradient via nested continuations: run forward, set the
    final adjoint to 1, unwind accumulating adjoints, read the input's.  A
    trace list gets the run's (slot, delta) adjoint updates appended."""
    run = _Run(trace)
    z = RevNum(x0, run.slot(), run)

    def final(r: RevNum):
        run.adj[r.idx] = 1.0

    f(z)(final)
    return run.adj[z.idx]


def _tape_op(op: str):
    """TapeNum's + or *: record the adjoint rule's arguments on the tape."""
    prim = getattr(operator, op)

    def combine(self, other):
        other = self._lift(other)
        run = self.run
        y = TapeNum(prim(self.x, other.x), run.slot(), run)
        run.tape.append((op, self.x, self.idx, other.x, other.idx, y.idx))
        return y

    return combine


class TapeNum(RevNum):
    """Reverse-mode number for the tape runtime: the defunctionalized
    RevNum, whose operations record their backward step instead of
    awaiting a continuation."""

    __slots__ = ()
    __add__ = __radd__ = _tape_op("add")
    __mul__ = __rmul__ = _tape_op("mul")


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
    run.adj[y.idx] = 1.0
    run.replay()
    return run.adj[z.idx]


# ---------------------------------------------------------------------------
# Purely functional reverse mode (reified adjoint store)


class FunNum:
    __slots__ = ("x", "idx", "run")

    def __init__(self, x, idx: int, run):
        self.x = x
        self.idx = idx
        self.run = run


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
        self.next_id = 0

    def num(self, x) -> FunNum:
        n = FunNum(x, self.next_id, self)
        self.next_id += 1
        return n


def _fun_op(op: str):
    """+ or * over FunNums: a function awaiting the continuation."""
    prim = getattr(operator, op)

    def combine(a: FunNum, b: FunNum):
        run = a.run

        def with_k(k):
            y = run.num(prim(a.x, b.x))
            return adjoint_rule(run, k(y), op, a.x, a.idx, b.x, b.idx, y.idx)

        return with_k

    return combine


fun_add, fun_mul = _fun_op("add"), _fun_op("mul")


def grad_functional(f: Callable, x0):
    """Reverse-mode gradient without mutation: each continuation returns
    the adjoint map of the rest of the run, and each operation returns it
    with its operands' adjoints added in."""
    run = FunRun()
    z = run.num(x0)
    m = f(z)(lambda r: {r.idx: 1.0})
    return map_get(m, z.idx)


# ---------------------------------------------------------------------------
# Expression bridges (arithmetic fragment only): a program is translated once
# into straight-line register code over (const, add, mul), which each runtime
# then runs per call.  Names are resolved lexically at translation, so
# programs run as written: no freshening, and `seq` is the one sugar form
# that lands in the fragment.  Anything else becomes an instruction that
# raises when the run reaches it, so translation itself never fails.

_CONST, _ADD, _MUL, _FAIL = range(4)
_NOT_A_LAM = "gradient target must be a one-argument lam"
_ARITH = {Add: _ADD, Mul: _MUL}
# pending steps of the translation, between subexpressions
_OP, _BIND, _UNBIND, _DROP = range(4)


class ArithProgram:
    """A one-argument program as register code: instruction i is
    (_CONST, c, None), (_ADD|_MUL, a, b) or (_FAIL, message, None) and
    writes register i + 1; register 0 is the argument."""

    __slots__ = ("code", "result")

    def __init__(self, f: Expr):
        code: list = []
        self.code = code
        self.result = 0
        if not isinstance(f, Lam):
            code.append((_FAIL, _NOT_A_LAM, None))
            return
        scope = {f.param: 0}
        out: list = []  # registers of translated subexpressions
        work: list = [f.body]  # expressions, and (step, ...) tuples
        while work:
            e = work.pop()
            cls = type(e)
            if cls is tuple:
                step = e[0]
                if step == _OP:
                    b, a = out.pop(), out.pop()
                    code.append((e[1], a, b))
                    out.append(len(code))
                elif step == _BIND:  # a let's bound value is ready
                    _, name, body = e
                    work.append((_UNBIND, name, scope.get(name)))
                    scope[name] = out.pop()
                    work.append(body)
                elif step == _UNBIND:  # and its body is done
                    _, name, old = e
                    if old is None:
                        del scope[name]
                    else:
                        scope[name] = old
                else:  # _DROP: the first half of a seq is done
                    out.pop()
                    work.append(e[1])
            elif cls is Var and e.name in scope:
                out.append(scope[e.name])
            elif cls is Const:
                code.append((_CONST, e.value, None))
                out.append(len(code))
            elif cls in _ARITH:
                work.extend(((_OP, _ARITH[cls]), e.rhs, e.lhs))
            elif cls is Let:
                work.extend(((_BIND, e.name, e.body), e.bound))
            elif cls is Seq:
                work.extend(((_DROP, e.second), e.first))
            else:  # the run stops here, so nothing after it is needed
                code.append((_FAIL, f"not in the arithmetic fragment: {e!r}", None))
                return
        self.result = out.pop()

    def run(self, x, const, add, mul):
        """Direct style: the value of the body at x."""
        regs = [x]
        push = regs.append
        for op, a, b in self.code:
            if op == _ADD:
                push(add(regs[a], regs[b]))
            elif op == _MUL:
                push(mul(regs[a], regs[b]))
            elif op == _CONST:
                push(const(a))
            else:
                raise RuntimeADError(a)
        return regs[self.result]

    def run_cps(self, x, num, combine_add, combine_mul, k):
        """Continuation-passing style: each operation gets the rest of the
        run as its continuation, and k gets the body's value."""
        regs: list = []
        code, n = self.code, len(self.code)

        def resume(i, y):
            """Write register i (y), then run from instruction i."""
            regs.append(y)
            while i < n:
                op, a, b = code[i]
                i += 1
                if op == _CONST:
                    regs.append(num(a))
                elif op == _FAIL:
                    raise RuntimeADError(a)
                else:
                    combine = combine_add if op == _ADD else combine_mul
                    return combine(regs[a], regs[b])(partial(resume, i))
            return k(regs[self.result])

        return resume(0, x)


def dual_fn(f: Expr):
    """Compile an arithmetic-fragment program to a host function over tagged
    duals, for use with the nesting gradient operators."""
    if not isinstance(f, Lam):
        raise RuntimeADError(_NOT_A_LAM)
    p = ArithProgram(f)
    return lambda x: p.run(x, _same, d_add, d_mul)


def _same(c):
    return c


def dual_gradient(f: Expr):
    """Dual-number gradient of an object-language program.  Constants are
    lifted with explicit zero tangents so tangent arithmetic matches the
    forward transformation operation for operation."""
    p = ArithProgram(f)

    def grad(x0: float) -> float:
        tag = next(_TAGS)
        y = p.run(Dual(x0, 1.0, tag), lambda c: Dual(c, 0.0, tag), d_add, d_mul)
        return y.d if type(y) is Dual and y.tag == tag else 0.0

    return grad


def cps_gradient(f: Expr):
    p = ArithProgram(f)

    def grad(x0, trace: list | None = None):
        def body(z):
            return lambda k: p.run_cps(z, z._lift, operator.add, operator.mul, k)

        return grad_cps(body, x0, trace)

    return grad


def tape_gradient(f: Expr):
    p = ArithProgram(f)

    def grad(x0: float, trace: list | None = None) -> float:
        def body(z):
            return p.run(z, z._lift, operator.add, operator.mul)

        return grad_tape(body, x0, trace)

    return grad


def functional_gradient(f: Expr):
    p = ArithProgram(f)

    def grad(x0: float) -> float:
        def body(z):
            return lambda k: p.run_cps(z, z.run.num, fun_add, fun_mul, k)

        return grad_functional(body, x0)

    return grad


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
    tag = next(_TAGS)
    g = grad_cps_expr(f, Dual(x0, 1.0, tag))
    return g.d if type(g) is Dual and g.tag == tag else 0.0
