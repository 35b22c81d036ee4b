"""Reify reverse-differentiated programs into `ir`, a first-order ANF-style IR.

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
from dataclasses import dataclass
from functools import partial

from .interp import _INPUT, EvalError, Shifted, Store, _primal, eval_expr
from .ir import (  # and the counters, which bench/ imports from here
    Bind, Call, CellAccum, CellNew, CellRead, CellSet, Cond, IRFunction, IRProgram, Jump,
    RetReal, Return, TapePush, callee, defs, ir_cell_op_count, ir_stmt_count, kinds, uses,
    walk,
)
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
