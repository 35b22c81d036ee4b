"""Reify reverse-differentiated programs into a first-order ANF-style IR.

Translation-time continuations drive emission: the arithmetic rules emit the
fused forward/backward statement pattern, a conditional lifts its
continuation to a named function so the join code exists exactly once, and
a tree fold becomes a CPS-recursive function over a runtime tree value.

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

from .lang import freshen
from .runtime import adjoint_rule, later
from .syntax import (
    Add, App, Const, Expr, Greater, If, LangError, Lam, Let, Letrec, Mul,
    NameGen, ParseError, Seq, Unit, Var, all_names, contains_control,
    map_children, _Parser, _tokenize,
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
# literal) and its C text.

OPS = {
    "add": ("val", operator.add, "{} + {}"),
    "mul": ("val", operator.mul, "{} * {}"),
    "greater": ("bool", operator.gt, "{} > {}"),
    "tree_value": ("val", operator.attrgetter("value"), "{}.value"),
    "tree_left": ("tree", operator.attrgetter("left"), "{}.left()"),
    "tree_right": ("tree", operator.attrgetter("right"), "{}.right()"),
    "tree_nonempty": ("bool", lambda t: t is not None, "{}.notEmpty"),
}

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
# Staged values


@dataclass(frozen=True)
class SNum:
    prim: object  # operand: symbol or literal
    adj: str  # adjoint cell symbol


@dataclass(frozen=True)
class SBool:
    sym: str


@dataclass(frozen=True)
class SLoop:
    fn: str


class _Stager:
    def __init__(self):
        self.counter = 0
        self.functions: dict[str, IRFunction] = {}
        self.block: list = []
        self.names: set[str] = set()

    def sym(self, prefix: str) -> str:
        self.counter += 1
        s = f"{prefix}{self.counter}"
        self.names.add(s)
        return s

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
        if name in self.functions:
            self.counter += 1
            name = f"{prefix}{self.counter}"
            while name in self.functions:
                self.counter += 1
                name = f"{prefix}{self.counter}"
        fn = IRFunction(name, params)
        self.functions[fn.name] = fn
        return fn

    def segment(self, block: list, thunk) -> None:
        """Run an emission thunk that appends to block; a loop self-call
        inside it moves the rest of the thunk's emission into its backward
        segment."""
        saved = self.block
        self.block = block
        thunk()
        self.block = saved

    # -- expression translation ---------------------------------------------

    def num(self, v, what: str) -> SNum:
        if not isinstance(v, SNum):
            raise StagingError(f"{what} is not a staged real")
        return v

    def translate(self, e: Expr, env: dict, k) -> None:
        match e:
            case Const(c):
                d = self.sym("d")
                self.emit(CellNew(d, 0.0))
                k(SNum(c, d))
            case Var(name):
                try:
                    k(env[name])
                except KeyError:
                    raise StagingError(f"unbound variable: {name}") from None
            case Unit():
                raise StagingError("unit value cannot be staged as a real")
            case Add(e1, e2) | Mul(e1, e2) | Greater(e1, e2):
                op = type(e).__name__.lower()
                self.translate(e1, env, lambda s1: self.translate(
                    e2, env, lambda s2: self._arith(op, s1, s2, k)))
            case Let(n, bound, body):
                self.translate(bound, env,
                               lambda s: self.translate(body, {**env, n: s}, k))
            case Seq(a, b):
                self.translate(a, env, lambda _s: self.translate(b, env, k))
            case If(g, t, o):
                self._cond(g, t, o, env, k)
            case Letrec(fname, Lam(param, fbody), App(Var(callee), arg)) if callee == fname:
                self._loop(fname, param, fbody, arg, env, k)
            case Letrec():
                raise StagingError(
                    "letrec stages only in loop form: (letrec f (lam x e) (app f e'))")
            case App(Var(fname), arg) if isinstance(env.get(fname), SLoop):
                self._self_call(env[fname].fn, arg, env)
            case _:
                if contains_control(e):
                    raise StagingError("shift/reset cannot be staged")
                raise StagingError(f"form not supported by staging: {e!r}")

    def _arith(self, op: str, s1, s2, k) -> None:
        """s1 op s2 for op "add", "mul" or "greater", with the rest of the
        computation k."""
        what = "guard operand" if op == "greater" else "operand"
        s1, s2 = self.num(s1, what), self.num(s2, what)
        v = self.sym("g" if op == "greater" else "v")
        self.emit(Bind(v, op, (s1.prim, s2.prim)))
        if op == "greater":
            return k(SBool(v))
        d = self.sym("d")
        self.emit(CellNew(d, 0.0))
        k(SNum(v, d))
        # backward, emitted after the rest of the computation
        adjoint_rule(self, None, op, s1.prim, s1.adj, s2.prim, s2.adj, d)

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

    def _cond(self, g: Expr, t: Expr, o: Expr, env: dict, k) -> None:
        def with_guard(sb):
            if not isinstance(sb, SBool):
                raise StagingError("if guard must stage to a comparison")
            # lift the continuation to a named function so its body is
            # emitted exactly once
            kf = self.function("k", [(self.named("x"), "val"),
                                     (self.named("d"), "cell")])
            zx, zd = kf.params[0][0], kf.params[1][0]
            self.segment(kf.body, lambda: k(SNum(zx, zd)))
            cond = Cond(sb.sym, [], [])
            self.emit(cond)

            def join(s):
                s = self.num(s, "branch result")
                self.emit(Call(kf.name, (s.prim, s.adj)))
            # a partial, not a closure, so a branch nests no extra frame
            for branch_e, block in ((t, cond.then), (o, cond.orelse)):
                self.segment(block, partial(self.translate, branch_e, env, join))

        self.translate(g, env, with_guard)

    def _loop(self, fname: str, param: str, fbody: Expr, arg: Expr,
              env: dict, k) -> None:
        lf = self.function("loop", [(self.named("x"), "val"),
                                    (self.named("d"), "cell")])
        x, d = lf.params[0][0], lf.params[1][0]
        loop_env = {**env, fname: SLoop(lf.name), param: SNum(x, d)}
        self.segment(lf.body, lambda: self.translate(fbody, loop_env, k))

        def call_site(sa):
            sa = self.num(sa, "loop argument")
            self.emit(Call(lf.name, (sa.prim, sa.adj), unwind=True))

        self.translate(arg, env, call_site)

    def _self_call(self, lf_name: str, arg: Expr, env: dict) -> None:
        """Tail self-call of a staged loop: push this iteration's backward
        segment onto the tape, then jump as the last statement.  The
        meta-continuation is not invoked here; the loop's exit branch
        performs it exactly once."""

        def with_arg(sb):
            sb = self.num(sb, "loop argument")
            bw = self.function("loop_bwd", [])
            self.emit(TapePush(bw.name, ()))
            self.emit(Jump(lf_name, (sb.prim, sb.adj)))
            # everything emitted after this point is backward work for the
            # enclosing operations of this iteration
            self.block = bw.body

        self.translate(arg, env, with_arg)


# ---------------------------------------------------------------------------
# Lambda lifting: close over free symbols by extending parameter lists and
# call sites until fixpoint.


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
    every call, jump, closure creation and tape push that names it,
    iterating to fixpoint."""
    for _ in range(40):
        lifted = {name: _free_syms(fn) for name, fn in prog.functions.items()
                  if name != prog.entry}
        lifted = {n: fs for n, fs in lifted.items() if fs}
        if not lifted:
            return
        kind = kinds(prog.functions)
        for name, fs in lifted.items():
            prog.functions[name].params.extend(
                (s, kind[s]) for s in fs)

        for fn in prog.functions.values():
            for s in walk(fn.body):
                n = callee(s)
                if n not in lifted:
                    continue
                if type(s) is Call or type(s) is Jump:
                    s.args = tuple(s.args) + tuple(lifted[n])
                else:
                    s.captures = tuple(s.captures) + tuple(lifted[n])
    raise StagingError("lambda lifting did not converge")


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


def _stage(build) -> IRProgram:
    st = _Stager()
    prog_fns = st.functions
    build(st)
    _defer_rests(prog_fns)
    prog = IRProgram(prog_fns, ENTRY)
    _lambda_lift(prog)
    return prog


def stage_reverse(f: Expr) -> IRProgram:
    """Stage the reverse-mode gradient of a one-argument function.  Sugar
    forms if/letrec drive the conditional and loop generation schemes."""
    if contains_control(f):
        raise StagingError("shift/reset cannot be staged")
    gen = NameGen(all_names(f) | {INPUT})
    f = freshen(f, gen)
    if not isinstance(f, Lam):
        raise StagingError("staging target must be a one-argument lam")

    def build(st: _Stager) -> None:
        entry = IRFunction(ENTRY, [(INPUT, "val")])
        st.functions[ENTRY] = entry
        d0 = st.named("d0")

        def body():
            st.emit(CellNew(d0, 0.0))
            env = {f.param: SNum(INPUT, d0)}
            st.translate(f.body, env,
                         lambda s: st.emit(CellSet(st.num(s, "result").adj, 1.0)))
            r = st.sym("r")
            st.emit(CellRead(r, d0))
            st.emit(Return(r))

        st.segment(entry.body, body)

    return _stage(build)


def stage_tree(body: Expr) -> IRProgram:
    """Stage the gradient of a fold over a runtime binary tree.

    `body` combines the recursive results of the subtrees (free variables
    `l` and `r`) and the node value (`v`); an empty tree returns the input
    directly.  The staged program is one IR for all tree shapes: a
    CPS-recursive function traverses the tree value at run time.
    """
    if contains_control(body):
        raise StagingError("shift/reset cannot be staged")
    gen = NameGen(all_names(body) | {INPUT, TREE_LEFT, TREE_RIGHT, TREE_VALUE})
    body = freshen(body, gen)

    def build(st: _Stager) -> None:
        tree_sym = "tree"
        entry = IRFunction(ENTRY, [(tree_sym, "tree"), (INPUT, "val")])
        st.functions[ENTRY] = entry
        d0 = st.named("d0")

        # final continuation: set the fold result's adjoint to 1
        ktop = st.function("k", [(st.sym("x"), "val"),
                                 (st.sym("d"), "cell")])
        ktop.body.append(CellSet(ktop.params[1][0], 1.0))

        # rec(t, k0): traverse left, then right, then combine
        rec = st.function("rec", [(st.sym("t"), "tree"),
                                  (st.sym("k"), "fun")])
        t_p, k0 = rec.params[0][0], rec.params[1][0]

        kl = st.function("k_left", [(st.sym("x"), "val"),
                                    (st.sym("d"), "cell")])
        kr = st.function("k_right", [(st.sym("x"), "val"),
                                     (st.sym("d"), "cell")])

        def rec_body():
            g = st.sym("g")
            st.emit(Bind(g, "tree_nonempty", (t_p,)))
            cond = Cond(g, [], [])
            st.emit(cond)

            def then():
                tl = st.sym("t")
                st.emit(Bind(tl, "tree_left", (t_p,)))
                c = st.sym("k")
                st.emit(ClosureNew(c, kl.name, ()))
                st.emit(Call(rec.name, (tl, c)))

            def orelse():
                st.emit(Call(k0, (INPUT, d0), indirect=True))

            st.segment(cond.then, then)
            st.segment(cond.orelse, orelse)

        st.segment(rec.body, rec_body)

        def kl_body():
            tr = st.sym("t")
            st.emit(Bind(tr, "tree_right", (t_p,)))
            c = st.sym("k")
            st.emit(ClosureNew(c, kr.name, ()))
            st.emit(Call(rec.name, (tr, c)))

        st.segment(kl.body, kl_body)

        def kr_body():
            v0 = st.sym("v")
            st.emit(Bind(v0, "tree_value", (t_p,)))
            dv = st.sym("d")
            st.emit(CellNew(dv, 0.0))
            env = {
                TREE_LEFT: SNum(kl.params[0][0], kl.params[1][0]),
                TREE_RIGHT: SNum(kr.params[0][0], kr.params[1][0]),
                TREE_VALUE: SNum(v0, dv),
            }
            st.translate(body, env, lambda s: st.emit(
                Call(k0, (st.num(s, "fold result").prim,
                          st.num(s, "fold result").adj), indirect=True)))

        st.segment(kr.body, kr_body)

        def entry_body():
            st.emit(CellNew(d0, 0.0))
            c = st.sym("k")
            st.emit(ClosureNew(c, ktop.name, ()))
            st.emit(Call(rec.name, (tree_sym, c)))
            r = st.sym("r")
            st.emit(CellRead(r, d0))
            st.emit(Return(r))

        st.segment(entry.body, entry_body)

    return _stage(build)


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
