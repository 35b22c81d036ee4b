"""Reify reverse-differentiated programs into a first-order ANF-style IR.

A program is staged by running it on the CEK machine (`interp`) over staged
reals: their arithmetic emits the fused forward/backward statement pattern,
a conditional on a staged guard lifts the rest of the run to a named
function so the join code exists exactly once, and a tree fold becomes a
CPS-recursive function over a runtime tree value.

A loop becomes a function whose tail self-call is a `Jump`: the parameters
are reassigned and the body runs again, with no new activation.  The
backward work of an iteration is the defunctionalized continuation of that
self-call (Reynolds 1972; Danvy & Nielsen 2001): a segment function plus
its captures, pushed as a record onto the run's tape by `TapePush`.  The
loop's call site is a `Call` with `unwind` set: it marks the tape length,
calls the loop, then pops the records pushed since the mark and runs each
one, newest first.  Continuations remove the tape; defunctionalizing them
gives it back.

Cells hold accumulating adjoints; closures are a named function plus a
capture tuple, so the IR stays first-order.
"""

from __future__ import annotations

import copy
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
class ClosureNew:
    dest: str
    fn: str
    captures: tuple


@dataclass
class Call:
    target: str
    args: tuple
    indirect: bool = False  # target is a symbol holding a closure
    # after the call returns, pop the tape records it pushed and run each
    unwind: bool = False


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
class IRFunction:
    name: str
    params: list  # of (symbol, kind); kind in {"val", "cell", "fun", "tree", "bool"}
    body: list = field(default_factory=list)


@dataclass
class IRProgram:
    """A staged program: functions by name, run from `entry`.  A loop's
    functions are its body (which `Jump`s to itself), one backward segment
    per self-call (run from the tape) and the continuations they call.  It
    is not changed after `stage_*` or `ir_optimize` returns it: `ir_eval`
    translates it on its first run and keeps the translation in
    `translation`, which `dataclasses.replace` does not copy."""

    functions: dict
    entry: str
    translation: object = field(default=None, init=False, repr=False,
                                compare=False)


# ---------------------------------------------------------------------------
# Statement kernel: the one declaration of the IR's shape.  STMTS gives, per
# statement class, its operand fields in read order (a starred field holds a
# tuple of operands; an indirect Call's target is one, a direct Call's names
# a function) and the kind of the symbol it defines in `dest` (None if it
# defines none; a Bind's is the kind of its op's result).  `uses`, `defs`,
# `map_operands` and `kinds` read it; a new statement class is one row here
# plus its arm in the passes that act on it.  OPS gives, per Bind op, the kind
# of its result, the host function that computes it (ir_eval runs it and
# ir_opt folds literal operands with it; a tree op's operand is never a
# literal) and its C text, whose holes give the number of its operands.

OPS = {
    "add": ("val", operator.add, "{} + {}"),
    "mul": ("val", operator.mul, "{} * {}"),
    "greater": ("bool", operator.gt, "{} > {}"),
    "tree_value": ("val", operator.attrgetter("value"), "{}.value"),
    "tree_left": ("tree", operator.attrgetter("left"), "{}.left()"),
    "tree_right": ("tree", operator.attrgetter("right"), "{}.right()"),
    "tree_nonempty": ("bool", lambda t: t is not None, "{}.notEmpty"),
}
ARITY = {op: text.count("{}") for op, (_kind, _fn, text) in OPS.items()}

STMTS = {
    Bind: (("*args",), OPS),
    CellNew: (("init",), "cell"),
    CellRead: (("cell",), "val"),
    CellAccum: (("cell", "value"), None),
    CellSet: (("cell", "value"), None),
    ClosureNew: (("*captures",), "fun"),
    Call: (("target", "*args"), None),
    Jump: (("*args",), None),
    TapePush: (("*captures",), None),
    Cond: (("guard",), None),
    Return: (("value",), None),
}
# per class: (field, holds a tuple) for each operand field
_OPERANDS = {cls: tuple((f.lstrip("*"), f[0] == "*") for f in fields)
             for cls, (fields, _kind) in STMTS.items()}


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


def _operand_fields(s) -> tuple:
    fields = _OPERANDS[type(s)]
    return fields[1:] if type(s) is Call and not s.indirect else fields


def uses(s) -> list:
    """Operands the statement reads: symbols or literals, in field order."""
    out: list = []
    for name, many in _operand_fields(s):
        if many:
            out.extend(getattr(s, name))
        else:
            out.append(getattr(s, name))
    return out


def defs(s) -> list:
    """Symbols the statement defines."""
    return [s.dest] if STMTS[type(s)][1] is not None else []


def map_operands(s, f):
    """A copy of the statement with f applied to each operand."""
    fields = dict(vars(s))
    for name, many in _operand_fields(s):
        fields[name] = tuple(map(f, fields[name])) if many else f(fields[name])
    return type(s)(**fields)


def callee(s) -> str | None:
    """The function a statement names: the target of a direct call or a
    jump, or the function of a closure or a record."""
    cls = type(s)
    if cls is Call and not s.indirect or cls is Jump:
        return s.target
    if cls is ClosureNew or cls is TapePush:
        return s.fn
    return None


def reachable(functions: dict, roots) -> set:
    """The names of roots and of every function the statements of a
    reached function name."""
    seen, work = set(roots), list(roots)
    while work:
        fn = functions.get(work.pop())
        for s in walk(fn.body) if fn is not None else ():
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
            kind = STMTS[type(s)][1]
            if kind is not None:
                out[s.dest] = kind[s.op][0] if kind is OPS else kind
    return out


def ir_stmt_count(p: IRProgram) -> int:
    return sum(1 for f in p.functions.values() for _ in walk(f.body))


def ir_cell_op_count(p: IRProgram) -> int:
    return sum(isinstance(s, (CellNew, CellRead, CellAccum, CellSet))
               for f in p.functions.values() for s in walk(f.body))


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

    def lift(self, v, what: str = "operand") -> SNum:
        if type(v) is float:
            d = self.sym("d")
            self.emit(CellNew(d, 0.0))
            return SNum(v, d, self)
        if type(v) is not SNum:
            raise StagingError(f"{what} is not a staged real")
        return v

    def run(self, block: list, end, go) -> None:
        """Stage one run into block, and each run a hook queues, from one
        work list of (block, end, go, store cells): go(afters) runs the
        machine from those cells and returns the run's value, which
        end(value) consumes, or ENDED.  A run's afters, which emit its
        operations' backward steps where it ended, go below the runs it
        queued, so runs are staged depth-first."""
        work = self.work
        work.append((block, end, go, dict(self.store.cells)))
        while work:
            self.block, end, go, cells = work.pop()
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
                work.insert(below, (self.block, afters, None, None))

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
        """The paper's IF: a Cond, then three runs from the store at the
        case: the rest from the join on, staged once as k(x, d), and each
        branch, which ends by calling k.  The rest never sees a branch's
        store, so the join checks on every path to it that no older ref
        was assigned."""
        if type(g) is not Guard:
            raise EvalError(f"case on a non-sum: {g!r}")
        k, x = self.of_real("k")
        cond = Cond(g.sym, [], [])
        self.emit(cond)
        cells = dict(self.store.cells)

        def join(v):
            if any(self.store.cells[i] is not c for i, c in cells.items()):
                raise StagingError("a branch on a staged guard assigns a ref made before it")
            self.emit(Call(k.name, _ARGS(self.lift(v, "branch result"))))

        self.work += [(cond.orelse, join, right, cells), (cond.then, join, left, cells),
                      (k.body, self.end, partial(rest, x), cells)]
        return ENDED

    def loop(self, a, code, caller, act, run):
        """The paper's FUN, for the application of a letrec's function to
        a, a staged real or a float, from the activation caller (None for a
        non-tail one) into act.  The first queues its run, staged once as a
        loop behind an unwinding call, from the store as it is then; a tail
        call from the loop body's own activation is a jump back, after a
        record that takes the rest of the iteration's backward work."""
        a = _ARGS(self.lift(a, "loop argument"))
        name, body, cells = self.loops.get(code, (None, None, None))
        if name is None:
            lf, x = self.of_real("loop")
            cells = dict(self.store.cells)
            self.loops[code] = lf.name, act, cells
            self.work.append((lf.body, self.end, partial(run, x), cells))
            self.emit(Call(lf.name, a, unwind=True))
        elif caller is not body:
            raise StagingError(
                "letrec stages only in loop form: (letrec f (lam x e) (app f e'))")
        elif any(self.store.cells[i] is not c for i, c in cells.items()):
            raise StagingError("a loop body assigns a ref made before the loop")
        else:
            bw = self.function("loop_bwd", [])
            self.emit(TapePush(bw.name, ()))
            self.emit(Jump(name, a))
            self.block = bw.body
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
    every call, jump, closure creation and tape push that names it, in
    rounds; a round looks only at the functions whose statements the last
    one changed.  Functions only gain parameters, from a finite set of
    symbols, so the rounds end."""
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


def _defer_rests(functions: dict) -> None:
    """Make every jump a tail transfer.  A self-call inside a Cond that is
    followed by more statements (the backward work of the operations before
    the conditional) returns to them after its continuation, so a copy of
    them goes to the end of the record that the jump's TapePush makes: the
    record then holds the whole rest of the iteration, newest work first."""
    for fn in list(functions.values()):
        work = [(fn.body, [])]  # a block, and what runs after it
        while work:
            block, rest = work.pop()
            for i, s in enumerate(block):
                if type(s) is Cond:
                    after = block[i + 1:] + rest
                    work += [(s.then, after), (s.orelse, after)]
                elif type(s) is Jump and rest:
                    push = block[i - 1]
                    if type(push) is not TapePush:
                        raise StagingError(f"jump without a record: {s!r}")
                    functions[push.fn].body += copy.deepcopy(rest)


def _stage(target: Expr, build) -> IRProgram:
    if contains_control(target):
        raise StagingError("shift/reset cannot be staged")
    st = _Stager()
    try:
        build(st)
    except EvalError as ex:
        raise StagingError(str(ex)) from None
    _defer_rests(st.functions)
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
    directly.  The staged program is one IR for all tree shapes: a
    CPS-recursive function traverses the tree value at run time.
    """
    def build(st: _Stager) -> None:
        entry = st.function(ENTRY, [("tree", "tree"), (INPUT, "val")])
        d0 = st.named("d0")
        # the final continuation sets the fold result's adjoint to 1
        ktop, top = st.of_real("k")
        ktop.body.append(CellSet(top.d, 1.0))
        # rec(t, k0): traverse left (k_left), then right (k_right), then combine
        t = st.sym("t")
        k0 = st.sym("k")
        rec = st.function("rec", [(t, "tree"), (k0, "fun")])
        kl, left = st.of_real("k_left")
        kr, right = st.of_real("k_right")
        g = st.sym("g")
        rec.body.append(Bind(g, "tree_nonempty", (t,)))
        tl = st.sym("t")
        c = st.sym("k")
        then = [Bind(tl, "tree_left", (t,)), ClosureNew(c, kl.name, ()), Call(rec.name, (tl, c))]
        rec.body.append(Cond(g, then, [Call(k0, (INPUT, d0), indirect=True)]))
        tr = st.sym("t")
        c = st.sym("k")
        kl.body += [Bind(tr, "tree_right", (t,)), ClosureNew(c, kr.name, ()),
                    Call(rec.name, (tr, c))]
        v = st.sym("v")
        dv = st.sym("d")
        kr.body += [Bind(v, "tree_value", (t,)), CellNew(dv, 0.0)]
        env = {TREE_LEFT: left, TREE_RIGHT: right, TREE_VALUE: SNum(v, dv, st)}
        fold_end = lambda y: st.emit(Call(k0, _ARGS(st.lift(y, "fold result")), indirect=True))
        st.run(kr.body, fold_end, lambda afters: eval_expr(body, env, st.store, afters)[0])
        c = st.sym("k")
        r = st.sym("r")
        entry.body += [CellNew(d0, 0.0), ClosureNew(c, ktop.name, ()),
                       Call(rec.name, ("tree", c)), CellRead(r, d0), Return(r)]

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
