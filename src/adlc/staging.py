"""Reify reverse-differentiated programs into a first-order ANF-style IR.

A program is staged by running it on the CEK machine (`interp`) over staged
reals: their arithmetic emits the fused forward/backward statement pattern,
a conditional on a staged guard lifts the rest of the run to a named
function so the join code exists exactly once, and a tree fold becomes a
function that calls itself on the subtrees of a runtime tree value.

A loop becomes a function whose tail self-call is a `Jump`: the parameters
are reassigned and the body runs again, with no new activation.  The
backward work of an iteration is the defunctionalized continuation of that
self-call (Reynolds 1972; Danvy & Nielsen 2001): a segment function plus
its captures, pushed as a record onto the run's tape by `TapePush`.  The
loop's call site is a `Call` with `unwind` set: it marks the tape length,
calls the loop, then pops the records pushed since the mark and runs each
one, newest first.  Continuations remove the tape; defunctionalizing them
gives it back.

A tree fold is staged in direct style on the same tape: a node's function
receives each subtree's result as a (value, adjoint cell) pair from a
valued `Call`, stages the body, pushes the body's backward work as one
record and returns the body's pair with `RetReal`.  Cells hold accumulating
adjoints; the IR has no closures.

One rule says where backward work waits.  A run under an unwinding call (a
loop body, what follows it, every run of a fold) is taped: it ends each
conditional and each join with a record (`_Stager.record`) and a tail
statement, the `Cond` or a `Jump`, so the backward steps of its operations
wait on the tape and run after the work staged later.  A loop's first call
outside a fold is an unwinding `Call`, so each loop keeps a tail chain of
its own.  The top-level run of `stage_reverse` is untaped: its `Cond` stays
in place and its join is a plain `Call` with the backward steps after it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial

from .interp import _INPUT, EvalError, Shifted, Store, _primal, eval_expr
from .lang import freshen
from .runtime import _Overloaded, adjoint_rule, later
from .syntax import (
    App, Const, Expr, LangError, Lam, NameGen, ParseError, Var, all_names,
    contains_control, map_children, _Parser, _tokenize,
)

ENTRY = "snippet"
INPUT = "in"  # the entry's real parameter
# the free variables of a tree-fold body: left and right results, node value
TREE_LEFT, TREE_RIGHT, TREE_VALUE = "l", "r", "v"


class StagingError(LangError):
    pass


class IRError(StagingError):
    """An ill-formed IR program, as `verify` finds it."""


# ---------------------------------------------------------------------------
# IR data types


@dataclass
class Bind:
    dest: str
    op: str  # a key of OPS
    args: tuple


@dataclass
class CellNew:
    dest: str
    init: object


@dataclass
class CellRead:
    dest: str
    cell: str


@dataclass
class CellAccum:
    cell: str
    value: object


@dataclass
class CellSet:
    cell: str
    value: object


@dataclass
class Call:
    target: str
    args: tuple
    # after the call returns, pop the tape records it pushed and run each
    unwind: bool = False
    # the symbols that receive the (value, cell) the callee returns with
    # RetReal, or () when the call's value is unused
    results: tuple = ()


@dataclass
class Jump:
    """Tail transfer to the function `target` with `args`: a jump to the
    enclosing function reassigns its parameters and runs its body again."""

    target: str
    args: tuple


@dataclass
class TapePush:
    """Push the record (fn, captures) onto the tape; an unwinding call site
    runs it as fn(*captures)."""

    fn: str
    captures: tuple


@dataclass
class Cond:
    guard: str
    then: list
    orelse: list


@dataclass
class Return:
    value: object


@dataclass
class RetReal:
    """Return a staged real, its value and its adjoint cell, to a valued
    `Call`."""

    value: object
    cell: object


@dataclass
class IRFunction:
    name: str
    params: list  # of (symbol, kind); kind in {"val", "cell", "tree", "bool"}
    body: list = field(default_factory=list)


@dataclass
class IRProgram:
    """A staged program: functions by name, run from `entry`.  A loop's
    functions are its body (which `Jump`s to itself), one backward segment
    per self-call (run from the tape) and the continuations they call; a
    fold's are `fold`, `rec` and the records `rec` pushes.  It is not
    changed after `stage_*` or `ir_optimize` returns it: `verify` keeps the
    return kinds of a program it passes in `returns`, and `ir_eval` keeps
    in `compiled` the maker of its compiled tier, or False for a program
    that has none, from its first run on; `dataclasses.replace` copies
    neither."""

    functions: dict
    entry: str
    returns: dict | None = field(default=None, init=False, repr=False,
                                 compare=False)
    compiled: object = field(default=None, init=False, repr=False,
                             compare=False)


# ---------------------------------------------------------------------------
# Statement kernel: the one declaration of the IR's shape.  STMTS gives, per
# statement class, its operand fields in read order (a starred field holds a
# tuple of operands; a call's or a jump's target names a function, and is no
# operand), the kinds those operands must have (None where they come from
# the op or the named function's parameters) and the kind of the symbol it
# defines in `dest` (None if it defines none; a Bind's is the kind of its
# op's result; a Call's, REAL, says that it defines its `results`, a value
# and a cell).  `uses`, `defs`, `map_operands`, `kinds` and `verify` read it;
# a new statement class is one row here plus its arm in the passes that act
# on it.  OPS gives, per Bind op, the kind of its result, the host function
# that computes it (ir_eval runs it and ir_opt folds literal operands with
# it; a tree op's operand is never a literal), its C text, whose holes give
# the number of its operands, and the kind of its operands.

OPS = {
    "add": ("val", operator.add, "{} + {}", "val"),
    "mul": ("val", operator.mul, "{} * {}", "val"),
    "greater": ("bool", operator.gt, "{} > {}", "val"),
    "tree_value": ("val", operator.attrgetter("value"), "{}.value", "tree"),
    "tree_left": ("tree", operator.attrgetter("left"), "{}.left()", "tree"),
    "tree_right": ("tree", operator.attrgetter("right"), "{}.right()", "tree"),
    "tree_nonempty": ("bool", lambda t: t is not None, "{}.notEmpty", "tree"),
}
ARITY = {op: row[2].count("{}") for op, row in OPS.items()}
REAL = ("val", "cell")  # the kinds of a staged real's value and adjoint cell
KINDS = ("val", "cell", "tree", "bool")

STMTS = {
    Bind: (("*args",), None, OPS),
    CellNew: (("init",), ("val",), "cell"),
    CellRead: (("cell",), ("cell",), "val"),
    CellAccum: (("cell", "value"), ("cell", "val"), None),
    CellSet: (("cell", "value"), ("cell", "val"), None),
    Call: (("*args",), None, REAL),
    Jump: (("*args",), None, None),
    TapePush: (("*captures",), None, None),
    Cond: (("guard",), ("bool",), None),
    Return: (("value",), ("val",), None),
    RetReal: (("value", "cell"), REAL, None),
}
# per class: (field, holds a tuple) for each operand field
_OPERANDS = {cls: tuple((f.lstrip("*"), f[0] == "*") for f in row[0])
             for cls, row in STMTS.items()}


def walk(block: list):
    """Every statement of a block in pre-order, a Cond's then-branch before
    its orelse-branch; iterative, so nesting costs no Python stack."""
    stack = block[::-1]
    while stack:
        s = stack.pop()
        yield s
        if type(s) is Cond:
            stack.extend(s.orelse[::-1])
            stack.extend(s.then[::-1])


def uses(s) -> list:
    """Operands the statement reads: symbols or literals, in field order."""
    out: list = []
    for name, many in _OPERANDS[type(s)]:
        if many:
            out.extend(getattr(s, name))
        else:
            out.append(getattr(s, name))
    return out


def defs(s) -> list:
    """Symbols the statement defines."""
    kind = STMTS[type(s)][2]
    if kind is REAL:
        return list(s.results)
    return [s.dest] if kind is not None else []


def map_operands(s, f):
    """A copy of the statement with f applied to each operand."""
    fields = dict(vars(s))
    for name, many in _OPERANDS[type(s)]:
        fields[name] = tuple(map(f, fields[name])) if many else f(fields[name])
    return type(s)(**fields)


def callee(s) -> str | None:
    """The function a statement names: the target of a call or a jump, or
    the function of a record."""
    cls = type(s)
    if cls is Call or cls is Jump:
        return s.target
    return s.fn if cls is TapePush else None


def reachable(functions: dict, roots) -> set:
    """The names of roots and of every function the statements of a
    reached function name."""
    seen, work = set(roots), list(roots)
    while work:
        for s in walk(functions[work.pop()].body):
            n = callee(s)
            if n is not None and n not in seen:
                seen.add(n)
                work.append(n)
    return seen


def kinds(functions: dict) -> dict:
    """The kind of every symbol of the functions, from their parameters and
    the statements that define them."""
    out: dict = {}
    for fn in functions.values():
        out.update(fn.params)
        for s in walk(fn.body):
            kind = STMTS[type(s)][2]
            if kind is REAL:
                out.update(zip(s.results, kind))
            elif kind is not None:
                out[s.dest] = kind[s.op][0] if kind is OPS else kind
    return out


def ir_stmt_count(p: IRProgram) -> int:
    return sum(1 for f in p.functions.values() for _ in walk(f.body))


def ir_cell_op_count(p: IRProgram) -> int:
    return sum(isinstance(s, (CellNew, CellRead, CellAccum, CellSet))
               for f in p.functions.values() for s in walk(f.body))


# ---------------------------------------------------------------------------
# The verifier: the one place that decides what well-formed IR is.  ir_eval,
# emit_c and ir_optimize run it on their input and trust what it passed (the
# LLVM IR verifier; Appel, "SSA is Functional Programming", 1998).


def unwound(functions: dict) -> set:
    """The functions an unwinding call's target reaches: those that run
    between a tape mark and its unwind."""
    return reachable(functions, [s.target for fn in functions.values()
                                 for s in walk(fn.body) if type(s) is Call and s.unwind])


_LITERAL_KINDS = {float: "val", bool: "bool"}


@dataclass
class _Join:
    """On verify's work stack after each branch of a Cond: where the
    symbols the branches define start in the log and, once the then-branch
    is done, whether control passes its end."""

    mark: int
    then_falls: bool | None = None


def _show(s) -> str:
    """A statement as an error names it: a Cond without its branches."""
    return f"Cond(guard={s.guard!r})" if type(s) is Cond else repr(s)


def _verify_body(fn: IRFunction, functions: dict, valued: list, local: list) -> tuple:
    """Check fn in one pass driven by an explicit work stack, and add its
    valued calls to `valued` and its RetReals of cells it makes to `local`.
    Returns how its paths end, a set of "val" (Return), REAL (RetReal) and
    None (falling off its end), and the functions it jumps to."""
    def fail(text: str, s) -> None:
        raise IRError(f"{fn.name}: {_show(s)}: {text}")

    for p, k in fn.params:
        if k not in KINDS:
            raise IRError(f"{fn.name}: parameter {p!r} has unknown kind {k!r}")
    scope = dict(fn.params)  # symbol -> kind, for each symbol in scope
    log: list = []  # the symbols defined in scope, in order
    made: set = set()  # the cells the function's CellNews make
    ends: set = set()
    jumps: set = set()
    falls = True  # whether control reaches the next statement
    work = fn.body[::-1]
    while work:
        s = work.pop()
        cls = type(s)
        if cls is _Join:  # the symbols the branch defined leave scope
            for d in log[s.mark:]:
                del scope[d]
            del log[s.mark:]
            if s.then_falls is None:
                s.then_falls, falls = falls, True
            else:
                falls = falls or s.then_falls
            continue
        if not falls:
            fail("unreachable: it follows a statement that ends every path", s)
        if cls not in STMTS:
            fail("unknown statement", s)
        _fields, want, gives = STMTS[cls]
        operands = uses(s)
        if cls is Bind:
            op = OPS.get(s.op)
            if op is None:
                fail(f"unknown operation {s.op!r}", s)
            if ARITY[s.op] != len(operands):
                fail(f"{s.op} takes {ARITY[s.op]} operands, got {len(operands)}", s)
            want, gives = (op[3],) * len(operands), op[0]
        elif want is None:  # a call, a jump or a record: its function's params
            target = callee(s)
            t = functions.get(target)
            if t is None:
                fail(f"unknown function {target!r}", s)
            want = [k for _p, k in t.params]
            if len(operands) != len(want):
                fail(f"{target} expects {len(want)} args, got {len(operands)}", s)
            if cls is TapePush:
                for p, k in t.params:
                    if k not in REAL:
                        fail(f"a record capturing {p!r} ({k})", s)
            elif cls is Jump:
                jumps.add(s.target)
            elif s.results:
                if len(s.results) != 2:
                    fail(f"a call receives a (value, cell) pair, not {s.results!r}", s)
                valued.append((fn.name, s))
        for o, k in zip(operands, want):
            got = (scope.get(o) if type(o) is str
                   else _LITERAL_KINDS.get(type(o), type(o).__name__))
            if got != k:
                fail(f"undefined symbol {o!r}" if got is None
                     else f"operand {o!r} has kind {got}, not {k}", s)
        if gives is not None:
            for d, k in zip(s.results, REAL) if gives is REAL else [(s.dest, gives)]:
                if d in scope:
                    fail(f"{d!r} is already defined", s)
                scope[d] = k
                log.append(d)
        if cls is CellNew:
            made.add(s.dest)
        elif cls is Cond:
            join = _Join(len(log))
            work += [join, *s.orelse[::-1], join, *s.then[::-1]]
        elif cls is Return:
            ends.add("val")
            falls = False
        elif cls is RetReal:
            ends.add(REAL)
            falls = False
            if s.cell in made:
                local.append((fn.name, s))
        elif cls is Jump:
            falls = False
    if falls:
        ends.add(None)
    return ends, jumps


def verify(prog: IRProgram) -> dict:
    """Check that prog is well-formed, so that every executor (ir_eval's
    two tiers, the emitted C++) runs it, or raise IRError naming the
    function and the statement at fault.  Returns each function's return
    kind, followed through its jumps: "val", REAL (a pair) or None.  Rules:
    - a symbol is read in scope: a parameter, or defined before in its
      block or an enclosing one (as in C), once; nothing follows a Return,
      RetReal or Jump, or a Cond whose branches both end so;
    - statements and ops are known, with their number of operands; a call,
      a jump or a record names a known function, with one argument per
      parameter, and a record's function takes only vals and cells;
    - every operand has the kind its use expects (STMTS, OPS, parameters);
      a literal is a float (val) or a bool;
    - a valued call receives a value and a cell from a function that
      returns a pair; none returns both a value and a pair, and one that
      returns either returns on every path;
    - the entry takes (val) or (tree, val) and returns a value;
    - a RetReal of a cell its function makes runs under an unwinding call,
      whose tape keeps the cell alive in the emitted C++.
    The kinds are kept on prog, so each program is checked once; one that
    fails keeps nothing and fails again."""
    if prog.returns is not None:
        return prog.returns
    functions = prog.functions
    valued: list = []  # (function, valued call)
    local: list = []  # (function, RetReal of a cell it makes)
    ends: dict = {}
    jumpers: dict = {}  # function -> those that jump to it
    for name, fn in functions.items():
        ends[name], jumps = _verify_body(fn, functions, valued, local)
        for t in jumps:
            jumpers.setdefault(t, []).append(name)
    work = list(ends)  # a function ends as those it jumps to may
    while work:
        t = work.pop()
        for n in jumpers.get(t, ()):
            if not ends[t] <= ends[n]:
                ends[n] |= ends[t]
                work.append(n)
    rets = {}
    for n, e in ends.items():
        if "val" in e and REAL in e:
            raise IRError(f"{n}: it returns both a value and a (value, cell) pair")
        if None in e and len(e) > 1:
            raise IRError(f"{n}: it returns on some paths and falls off its end on others")
        rets[n] = "val" if "val" in e else REAL if REAL in e else None
    entry = functions.get(prog.entry)
    if entry is None:
        raise IRError(f"unknown entry function {prog.entry!r}")
    takes = [k for _p, k in entry.params]
    if takes != ["val"] and takes != ["tree", "val"]:
        raise IRError(f"{prog.entry}: the entry takes (val) or (tree, val), "
                      f"not ({', '.join(takes)})")
    if rets[prog.entry] is None:
        raise IRError(f"{prog.entry}: entry did not return a value")
    if rets[prog.entry] is REAL:
        raise IRError(f"{prog.entry}: a (value, cell) return with no caller")
    for n, s in valued:
        if rets[s.target] is not REAL:
            raise IRError(f"{n}: {_show(s)}: {s.target} returns no (value, cell) pair")
    taped = unwound(functions) if local else ()
    for n, s in local:
        if n not in taped:
            raise IRError(f"{n}: {_show(s)}: {s.cell} is made in {n}, "
                          "outside an unwinding call")
    prog.returns = rets
    return rets


# ---------------------------------------------------------------------------
# Staged values: the program runs on the CEK machine (`interp`) over them


ENDED = object()  # a hook's result: it has staged the rest of its run
_ARGS = operator.attrgetter("x", "d")  # a staged real's, as call arguments


class SNum(_Overloaded):
    """A staged real, the paper's `NumR` over `Rep[Double]`: the IR operand
    of its primal (a symbol, or a literal), its adjoint cell and its stager.
    + and * shift, as runtime.RevNum's do (`_Stager.arith`)."""

    __slots__ = ("x", "d", "st")
    _add = staticmethod(lambda a, b: a.st.arith("add", a, b))
    _mul = staticmethod(lambda a, b: a.st.arith("mul", a, b))

    def __init__(self, x, d: str, st: _Stager):
        self.x = x
        self.d = d
        self.st = st

    def _lift(self, v):
        # a float operand of + or * gets no adjoint cell: nothing reads it
        if type(v) is float:
            return SNum(v, None, self.st)
        return v if type(v) is SNum else self.st.lift(v)

    def __repr__(self):
        return "a staged real"


class Guard:
    """A staged comparison: the symbol of its bool."""

    __slots__ = ("sym",)

    def __init__(self, sym: str):
        self.sym = sym


class _Stager:
    """The IR functions of one staging, the runs left to stage, the block
    being emitted into, and what the current run does with its value."""

    def __init__(self):
        self.counter = 0
        self.functions: dict[str, IRFunction] = {}
        self.work: list = []  # runs to stage, the next last
        self.block: list = []
        self.end = None
        self.taped = False  # see the module docstring
        self.fold = False  # in a tree fold, a loop's first call is a jump too
        self.records: list = []  # (block, push) per record
        self.names: set[str] = set()
        self.loops: dict = {}  # letrec code -> its loop, activation, cells at entry
        self.store = Store(self)

    def sym(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"  # never a bare name

    def named(self, name: str) -> str:
        """Prefer the bare name (matching the shapes in emitted-code
        listings); fall back to a counter suffix on collision."""
        if name not in self.names:
            self.names.add(name)
            return name
        return self.sym(name)

    def emit(self, stmt) -> None:
        self.block.append(stmt)

    def function(self, prefix: str, params: list) -> IRFunction:
        name = prefix
        while name in self.functions:
            self.counter += 1
            name = f"{prefix}{self.counter}"
        fn = IRFunction(name, params)
        self.functions[name] = fn
        return fn

    def of_real(self, prefix: str) -> tuple[IRFunction, SNum]:
        """A function of one staged real, and that real."""
        fn = self.function(prefix, [(self.named("x"), "val"), (self.named("d"), "cell")])
        return fn, SNum(fn.params[0][0], fn.params[1][0], self)

    def record(self, prefix: str, tail) -> None:
        """Emit a push of a record of a new function, then the tail
        statement, which ends the block.  The backward steps emitted from
        here on, those of the operations the run staged before, go into that
        function, so the unwind runs them after the records pushed later."""
        bw = self.function(prefix, [])
        push = TapePush(bw.name, ())
        self.records.append((self.block, push))
        self.block += (push, tail)
        self.block = bw.body

    def transfer(self, target: str, args) -> None:
        """Hand on control to the function target: in a taped run, by a jump
        after a record, else by a call that the run's backward steps follow."""
        if self.taped:
            self.record("bwd", Jump(target, args))
        else:
            self.emit(Call(target, args))

    def lift(self, v, what: str = "operand") -> SNum:
        """v with an adjoint cell: a float, or a node value, gets a new one."""
        if type(v) is SNum and v.d is not None:
            return v
        if type(v) is SNum:
            v = v.x
        elif type(v) is not float:
            raise StagingError(f"{what} is not a staged real")
        d = self.sym("d")
        self.emit(CellNew(d, 0.0))
        return SNum(v, d, self)

    def run(self, block: list, end, go, taped: bool = False) -> None:
        """Stage one run into block, and each run a hook queues, from one
        work list of (block, end, go, store cells, taped): go(afters) runs
        the machine from those cells and returns the run's value, which
        end(value) consumes, or ENDED.  A run's afters, which emit its
        operations' backward steps where it ended, go below the runs it
        queued, so runs are staged depth-first."""
        work = self.work
        work.append((block, end, go, dict(self.store.cells), taped))
        while work:
            self.block, end, go, cells, self.taped = work.pop()
            if go is None:  # a finished run's afters, in end
                for after in reversed(end):
                    after(None)
                continue
            self.store.cells.clear()
            self.store.cells.update(cells)
            self.end = end
            afters: list = []
            below = len(work)
            v = go(afters)
            if v is not ENDED:
                end(v)
            if afters:
                work.insert(below, (self.block, afters, None, None, None))

    # the adjoint rule's medium: statements appended to the current block
    def read(self, _s, cell: str) -> str:
        t = self.sym("t")
        self.emit(CellRead(t, cell))
        return t

    def mul(self, a, b) -> str:
        t = self.sym("t")
        self.emit(Bind(t, "mul", (a, b)))
        return t

    def accum(self, _s, cell: str, value) -> None:
        self.emit(CellAccum(cell, value))

    seq = staticmethod(later)

    # what the machine calls on staged values

    def arith(self, op: str, a: SNum, b: SNum) -> Shifted:
        """a op b, op "add" or "mul": its forward statements, and an after
        that emits its backward step through the one adjoint rule."""
        v = self.sym("v")
        d = self.sym("d")
        self.emit(Bind(v, op, (a.x, b.x)))
        self.emit(CellNew(d, 0.0))
        return Shifted(SNum(v, d, self), lambda _: adjoint_rule(
            self, None, op, a.x, a.d, b.x, b.d, d))

    def greater(self, a, b) -> Guard:
        g = Guard(self.sym("g"))
        self.emit(Bind(g.sym, "greater", tuple(v.x if type(v) is SNum else _primal(v)
                                               for v in (a, b))))
        return g

    def case(self, g: Guard, rest, left, right):
        """The paper's IF: a Cond (after a record, in a taped run), then
        three runs from the store at the case: the rest from the join on,
        staged once as k(x, d), and each branch, which hands on to k
        (`transfer`).  The rest never sees a branch's store, so the join
        checks on every path to it that no older ref was assigned."""
        if type(g) is not Guard:
            raise EvalError(f"case on a non-sum: {g!r}")
        k, x = self.of_real("k")
        cond = Cond(g.sym, [], [])
        if self.taped:
            self.record("bwd", cond)
        else:
            self.emit(cond)
        cells = dict(self.store.cells)

        def join(v):
            if any(self.store.cells[i] is not c for i, c in cells.items()):
                raise StagingError("a branch on a staged guard assigns a ref made before it")
            self.transfer(k.name, _ARGS(self.lift(v, "branch result")))

        self.work += [(cond.orelse, join, right, cells, self.taped),
                      (cond.then, join, left, cells, self.taped),
                      (k.body, self.end, partial(rest, x), cells, self.taped)]
        return ENDED

    def loop(self, a, code, caller, act, run):
        """The paper's FUN, for the application of a letrec's function to
        a, a staged real or a float, from the activation caller (None for a
        non-tail one) into act.  The first queues its run, taped and staged
        once as a loop behind an unwinding call (in a fold, a jump after a
        record: the fold's call site unwinds), from the store as it is then;
        a tail call from the loop body's own activation is a jump back, after
        a record that takes the rest of the iteration's backward work."""
        a = _ARGS(self.lift(a, "loop argument"))
        name, body, cells = self.loops.get(code, (None, None, None))
        if name is None:
            lf, x = self.of_real("loop")
            cells = dict(self.store.cells)
            self.loops[code] = lf.name, act, cells
            self.work.append((lf.body, self.end, partial(run, x), cells, True))
            if self.fold:
                self.transfer(lf.name, a)
            else:
                self.emit(Call(lf.name, a, unwind=True))
        elif caller is not body:
            raise StagingError(
                "letrec stages only in loop form: (letrec f (lam x e) (app f e'))")
        elif any(self.store.cells[i] is not c for i, c in cells.items()):
            raise StagingError("a loop body assigns a ref made before the loop")
        else:
            self.record("loop_bwd", Jump(name, a))
        return ENDED


# ---------------------------------------------------------------------------
# Lambda lifting: close over free symbols by extending parameter lists and
# call sites until none is left.


def _free_syms(fn: IRFunction) -> list[str]:
    defined = {p for p, _ in fn.params}
    free: list[str] = []
    for s in walk(fn.body):
        for o in uses(s):
            if isinstance(o, str) and o not in defined and o not in free:
                free.append(o)
        defined.update(defs(s))
    return free


def _lambda_lift(prog: IRProgram) -> None:
    """Append each function's free symbols to its parameter list and to
    every call, jump and tape push that names it, in rounds; a round looks
    only at the functions whose statements the last one changed.  Functions
    only gain parameters, from a finite set of symbols, so the rounds end."""
    naming: dict = {}  # function -> [(function holding it, statement)]
    for name, fn in prog.functions.items():
        for s in walk(fn.body):
            n = callee(s)
            if n is not None:
                naming.setdefault(n, []).append((name, s))
    kind = kinds(prog.functions)
    todo = [name for name in prog.functions if name != prog.entry]
    while todo:
        lifted = {n: _free_syms(prog.functions[n]) for n in todo}
        todo = {}
        for n, fs in lifted.items():
            if not fs:
                continue
            prog.functions[n].params.extend((s, kind[s]) for s in fs)
            for holder, s in naming.get(n, ()):
                if type(s) is Call or type(s) is Jump:
                    s.args = tuple(s.args) + tuple(fs)
                else:
                    s.captures = tuple(s.captures) + tuple(fs)
                if holder != prog.entry:
                    todo[holder] = None


# ---------------------------------------------------------------------------
# Entry points


def _stage(target: Expr, build) -> IRProgram:
    if contains_control(target):
        raise StagingError("shift/reset cannot be staged")
    st = _Stager()
    try:
        build(st)
    except EvalError as ex:
        raise StagingError(str(ex)) from None
    for block, push in st.records:
        if not st.functions[push.fn].body:  # its run staged no operation first
            block.remove(push)
            del st.functions[push.fn]
    prog = IRProgram(st.functions, ENTRY)
    _lambda_lift(prog)
    return prog


def stage_reverse(f: Expr) -> IRProgram:
    """Stage the reverse-mode gradient of a one-argument function: run it
    on the CEK machine over a staged input, the whole language but
    shift/reset, with `if` and `letrec` on staged reals as the
    conditional and loop schemes."""
    def build(st: _Stager) -> None:
        if not isinstance(f, Lam):
            raise StagingError("staging target must be a one-argument lam")
        entry = st.function(ENTRY, [(INPUT, "val")])
        d0 = st.named("d0")
        entry.body.append(CellNew(d0, 0.0))
        env = {_INPUT: SNum(INPUT, d0, st)}
        st.run(entry.body, lambda v: st.emit(CellSet(st.lift(v, "result").d, 1.0)),
               lambda afters: eval_expr(App(f, Var(_INPUT)), env, st.store, afters)[0])
        r = st.sym("r")
        entry.body += [CellRead(r, d0), Return(r)]

    return _stage(f, build)


def stage_tree(body: Expr) -> IRProgram:
    """Stage the gradient of a fold over a runtime binary tree.

    `body` combines the recursive results of the subtrees (free variables
    `l` and `r`) and the node value (`v`); an empty tree returns the input
    and its adjoint cell.  The staged program is one IR for all tree shapes,
    in direct style: rec(t) calls itself on the left, then on the right
    subtree, stages the body on the two (value, cell) results, pushes the
    body's backward work as a record and returns the body's (value, cell).
    The entry calls `fold`, which sets the root result's adjoint to 1, with
    an unwinding call, so the records run newest first: the nodes in
    reverse post-order.
    """
    def build(st: _Stager) -> None:
        st.fold = True
        entry = st.function(ENTRY, [("tree", "tree"), (INPUT, "val")])
        d0 = st.named("d0")
        t = st.sym("t")
        rec = st.function("rec", [(t, "tree")])
        left, right = (SNum(st.named("x"), st.named("d"), st) for _ in "lr")
        g, tl, tr, v = st.sym("g"), st.sym("t"), st.sym("t"), st.sym("v")
        then = [Bind(tl, "tree_left", (t,)), Call(rec.name, (tl,), results=_ARGS(left)),
                Bind(tr, "tree_right", (t,)), Call(rec.name, (tr,), results=_ARGS(right)),
                Bind(v, "tree_value", (t,))]
        rec.body += [Bind(g, "tree_nonempty", (t,)), Cond(g, then, [RetReal(INPUT, d0)])]
        # a node value's adjoint cell would be dead: nothing reads it
        env = {TREE_LEFT: left, TREE_RIGHT: right, TREE_VALUE: SNum(v, None, st)}
        st.run(then, lambda y: st.record("rec_bwd", RetReal(*_ARGS(st.lift(y, "fold result")))),
               lambda afters: eval_expr(body, env, st.store, afters)[0], taped=True)
        fold = st.function("fold", [("tree", "tree")])
        y, dy, r = st.sym("x"), st.sym("d"), st.sym("r")
        fold.body += [Call(rec.name, ("tree",), results=(y, dy)), CellSet(dy, 1.0)]
        entry.body += [CellNew(d0, 0.0), Call(fold.name, ("tree",), unwind=True),
                       CellRead(r, d0), Return(r)]

    return _stage(body, build)


# ---------------------------------------------------------------------------
# Runtime tree values: (leaf) | (node FLOAT tree tree)


@dataclass(frozen=True)
class TreeData:
    value: float
    left: "TreeData | None"
    right: "TreeData | None"


def parse_tree(text: str) -> TreeData | None:
    toks = _tokenize(text)
    p = _Parser(toks)

    def tree():
        t = p.next()
        if t.kind != "lparen":
            raise ParseError("expected ( to open a tree", t.line, t.col)
        head = p.next()
        if head.kind == "ident" and head.text == "leaf":
            p.expect("rparen")
            return None
        if head.kind == "ident" and head.text == "node":
            v = p.next()
            if v.kind != "float":
                raise ParseError("node value must be a number", v.line, v.col)
            left = tree()
            right = tree()
            p.expect("rparen")
            return TreeData(float(v.text), left, right)
        raise ParseError("tree is (leaf) or (node FLOAT tree tree)",
                         head.line, head.col)

    out = tree()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return out


def tree_to_expr(tree: TreeData | None, body: Expr) -> Expr:
    """Unfold a tree fold over a concrete tree into a plain object-language
    expression (free variable: the fold's input), for unstaged comparison."""
    gen = NameGen(all_names(body))
    body = freshen(body, gen)

    def go(t: TreeData | None) -> Expr:
        if t is None:
            return Var("x")
        sub = {TREE_LEFT: go(t.left), TREE_RIGHT: go(t.right),
               TREE_VALUE: Const(t.value)}

        def subst(e: Expr) -> Expr:
            if isinstance(e, Var) and e.name in sub:
                return sub[e.name]
            return map_children(e, subst)

        return subst(body)

    return Lam("x", go(tree))
