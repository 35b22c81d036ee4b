"""Call-by-value evaluator with delimited control and a mutable cell store.

A program is translated once and then run any number of times (Feeley &
Lapalme, "Using Closures for Code Generation", 1987).  The translation is
the CEK machine with its environment and its expression dispatch moved to
translation time (Ager, Biernacki, Danvy & Midtgaard, "A Functional
Correspondence between Evaluators and Abstract Machines", PPDP 2003):

- every lambda body becomes a flat tuple of instructions with int opcodes;
  an intermediate result gets a slot of its own, so operands, constants
  included, are fetched from the activation and atoms need no frame;
- every name becomes a slot of its lambda's activation, a list laid out as
  [parameter, locals and constants..., captured values]; a closure copies
  the values it captures when it is created;
- the continuation is an explicit stack of return frames
  (code, pc, activation, result slot, is-delimiter), so nesting depth costs
  no Python stack.  `reset` pushes a delimiter; `shift` moves the frames
  above the nearest delimiter, plus its own return point, into a
  continuation value; applying that value pushes a delimiter and the frames
  back.

Each instruction runs at most once in an activation and writes a slot of
its own, so the first resumption of a continuation can run in the
activations it captured, and each later one runs in copies of them: a
resumption writes only the slots its frames have not reached yet, and
never sees another resumption's writes.  A
continuation that is resumed once, as in the target-shift reverse pass,
costs no copy.

`if` and `letrec` are expanded as the translator meets them
(`lang.desugar_node`, binder names no program can write), so a program
runs as written, with no recursive desugaring pass.

Errors are raised at run time, in evaluation order: an unbound name in an
untaken branch is not an error.

A closed lambda keeps its translation on its node (`syntax.NodeMemo`),
and a later translation that meets the same node emits it without
descending, so `eval_expr` and `real_fn` called again on one program
object translate only the application around it.  A lambda is kept only
when its code has no captures and it met no unbound name: a capture's
slot depends on the lambdas around it and their names, and an unbound
name becomes an error instruction only because it is missing from the
`env` of that call (a lambda around one is not kept either).

The operator-overloading AD runtimes (`runtime`) run programs on this
machine with their own numbers, which derive from `Num` and keep the
primal in `.x`.  After the float fast path, `+` and `*` on a `Num` operand
use the host operators, and `>` compares primals.  An operation may
return `Shifted(y, after)`, the paper's `shift { k => ...; k(y); backward }`:
the run goes on with y and keeps after in a list.  When the program
returns, `real_fn` maps its value by the seed its caller passes (the
continuation of the whole run) and then by each after, the latest first.
So an operation nests no Python frame.  A run whose operations shift
delimits every one of them, so its program must not use shift or reset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, attrgetter, mul
from typing import Callable, NamedTuple

from .lang import desugar_node
from .syntax import (
    Add, App, Assign, Case, Const, Deref, Expr, Fst, Greater, If, Inl, Inr,
    LangError, Lam, Let, Letrec, Mul, NodeMemo, Pair, Ref, Reset, Seq, Shift,
    Snd, Unit, Var, fmt_float,
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


class Closure:
    """A lambda value: its translated body and the values it captured."""

    __slots__ = ("code", "vals")

    def __init__(self, code: _Code, vals: tuple):
        self.code = code
        self.vals = vals

    def __repr__(self):
        return "<closure>"


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


class Cont:
    """A captured delimited continuation, applicable like a closure."""

    __slots__ = ("frames", "resumed")

    def __init__(self, frames: list):
        self.frames = frames
        self.resumed = False

    def __repr__(self):
        return "<continuation>"

    def resume(self) -> list:
        """The frames to push for one resumption: the captured ones the
        first time, and frames over fresh copies of their activations after
        that."""
        if not self.resumed:
            self.resumed = True
            return self.frames
        copies: dict = {}
        out = []
        for code, pc, act, dest, delim in self.frames:
            mine = copies.get(id(act))
            if mine is None:
                mine = copies[id(act)] = act.copy()
            out.append((code, pc, mine, dest, delim))
        return out


class Num:
    """Base class of the runtimes' number types; `.x` is the primal."""

    __slots__ = ()


_REAL = (float, Num)


class Shifted(NamedTuple):
    """An operation's result y awaiting the rest of the run, and after,
    which maps the rest's value to the whole's; on the host, k's result."""

    y: object
    after: Callable

    def __call__(self, k):
        return self.after(k(self.y))


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


# ---------------------------------------------------------------------------
# Instructions.  `d` is the result slot; every other operand is a slot.
#   (ADD|MUL|GT|PAIR, d, a, b)    (FST|SND|INL|INR|REF|DEREF, d, a)
#   (ASSIGN, d, cell, v)          (CELLCHK, cell)   check before v runs
#   (APP, d, f, a)  (TAILAPP, f, a)  (RET, a)  (MOVE, d, a)  (JUMP, pc)
#   (CASE, scrutinee, left slot, right slot, right pc)
#   (LAM, d, code, capture slots)
#   (RESET, d, pc after body)     (SHIFT, d, k slot, pc after body)
#   (ERR, message)                (HALT,)

# numbered, and tested in _run, by how often the gradient programs run them
(SND, DEREF, FST, ADD, MUL, ASSIGN, PAIR, CELLCHK, REF, RET, APP, LAM, SHIFT,
 TAILAPP, RESET, CASE, MOVE, JUMP, GT, INL, INR, ERR, HALT) = range(23)


class _Code:
    """One translated lambda body: its instructions and the initial values
    of its locals (constants in place, None elsewhere)."""

    __slots__ = ("instrs", "blank", "captures")

    def __init__(self, instrs: tuple, blank: tuple, captures: tuple):
        self.instrs = instrs
        self.blank = blank
        self.captures = captures  # for the top level: the env names


_HALT_CODE = ((HALT,),)
_PASS_CODE = ((RET, 0),)  # a delimiter that hands its value on


class _Fn:
    """Translation state of one lambda body."""

    __slots__ = ("parent", "instrs", "scope", "caps", "capsrc", "blank",
                 "unbound")

    def __init__(self, parent: _Fn | None, param: str | None):
        self.parent = parent
        self.instrs: list = []
        self.scope: dict = {} if param is None else {param: 0}
        self.caps: dict = {}      # name -> negative slot
        self.capsrc: list = []    # where each capture comes from, outside
        self.blank: list = []     # slot i + 1 starts as blank[i]
        self.unbound = False      # met a name bound nowhere, not even in env

    def finish(self) -> _Code:
        return _Code(tuple(self.instrs), tuple(self.blank),
                     tuple(reversed(self.capsrc)))


def _resolve(fn: _Fn, name: str, env) -> int | None:
    """The slot of name in fn, adding captures to fn and the lambdas around
    it as needed; None when the name is unbound."""
    path = []
    f = fn
    while True:
        s = f.scope.get(name)
        if s is None:
            s = f.caps.get(name)
        if s is not None:
            break
        path.append(f)
        f = f.parent
        if f is None:
            if name not in env:
                return None
            s = name  # the top level captures from env, by name
            break
    for f in reversed(path):
        slot = -1 - len(f.capsrc)
        f.caps[name] = slot
        f.capsrc.append(s)
        s = slot
    return s


# steps the translator schedules after a subexpression
(_BIN, _UN, _CHECK, _LET, _UNBIND, _SEQ, _CASE, _CASE_MID, _CASE_END,
 _PATCH, _RET, _LAM_END, _EXPR) = range(13)
# constructor -> (opcode, getter of its subexpressions in evaluation order)
_UNOPS = {Fst: (FST, attrgetter("arg")), Snd: (SND, attrgetter("arg")),
          Inl: (INL, attrgetter("arg")), Inr: (INR, attrgetter("arg")),
          Ref: (REF, attrgetter("init")), Deref: (DEREF, attrgetter("cell"))}
_BINOPS = {Add: (ADD, attrgetter("lhs", "rhs")), Mul: (MUL, attrgetter("lhs", "rhs")),
           Greater: (GT, attrgetter("lhs", "rhs")), Pair: (PAIR, attrgetter("fst", "snd")),
           Assign: (ASSIGN, attrgetter("cell", "value")), App: (APP, attrgetter("fn", "arg"))}
_PASSES_TAIL = (App, Let, Seq, Case, If, Letrec)
_MISSING = object()
# a closed lambda's code, kept on its node (see the module docstring)
_TRANSLATION = NodeMemo("translation")


def _translate(e: Expr, env, param: str | None = None) -> _Code:
    """Translate e once, in one pass driven by an explicit work stack; names
    not bound in e are looked up in env (any container of names).

    `e` is the expression being translated.  A node either finishes at once
    (atoms) or schedules the steps after its first subexpression and
    descends into it.  Every expression leaves its result slot on `out`,
    except one in tail position (`tail`), whose value the body returns: an
    application there becomes a tail call, let, seq and case pass the
    position on, and anything else is followed by a return."""
    fn = _Fn(None, param)
    fresh = map("(sugar{})".format, itertools.count()).__next__  # unwritable
    scope, blank, instrs = fn.scope, fn.blank, fn.instrs
    emit = instrs.append
    work: list = []
    out: list = []
    push, pop = work.append, work.pop
    tail = True

    def atom(a):
        """The slot of a constant or a bound name; None for anything else."""
        cls = type(a)
        if cls is Var:
            s = scope.get(a.name)
            return s if s is not None else _resolve(fn, a.name, env)
        if cls is Const:
            blank.append(a.value)
            return len(blank)
        if cls is Unit:
            blank.append(UNIT)
            return len(blank)
        return None

    while True:
        if e is not None:
            cls = type(e)
            if tail and cls not in _PASSES_TAIL:
                push((_RET,))
                tail = False
            unop = _UNOPS.get(cls)
            binop = _BINOPS.get(cls) if unop is None else None
            if unop is not None:
                op, get = unop
                a = get(e)
                sa = atom(a)
                if sa is None:
                    push((_UN, op))
                    e = a
                else:
                    blank.append(None)
                    emit((op, len(blank), sa))
                    out.append(len(blank))
                    e = None
            elif binop is not None:
                op, get = binop
                a, b = get(e)
                sa, sb = atom(a), atom(b)
                push((_BIN, op, sa, sb, tail))
                if sb is None:
                    push((_EXPR, b))
                    if op == ASSIGN:  # the cell is checked before b runs
                        push((_CHECK, sa))
                e, tail = (a, False) if sa is None else (None, False)
            elif cls is Let:
                d = atom(e.bound)
                if d is None:
                    push((_LET, e.name, e.body, tail))
                    e, tail = e.bound, False
                else:  # an atom is bound by aliasing its slot
                    push((_UNBIND, e.name, scope.get(e.name, _MISSING)))
                    scope[e.name] = d
                    e = e.body
            elif cls is Seq:
                push((_SEQ, e.second, tail))
                e, tail = e.first, False
            elif cls is Case:
                push((_CASE, e, tail))
                e, tail = e.scrutinee, False
            elif cls is Lam:
                code = _TRANSLATION.get(e)
                if code is not None:
                    blank.append(None)
                    emit((LAM, len(blank), code, ()))
                    out.append(len(blank))
                    e = None
                    continue
                push((_LAM_END, e))
                fn = _Fn(fn, e.param)
                scope, blank, instrs = fn.scope, fn.blank, fn.instrs
                emit = instrs.append
                e, tail = e.body, True
            elif cls is If or cls is Letrec:
                e = desugar_node(e, fresh)
            elif cls is Reset or cls is Shift:
                blank.append(None)
                out.append(len(blank))  # the body, in tail position, adds none
                if cls is Reset:
                    head = (RESET, len(blank))
                else:
                    blank.append(None)
                    head = (SHIFT, len(blank) - 1, len(blank))
                    push((_UNBIND, e.name, scope.get(e.name, _MISSING)))
                    scope[e.name] = len(blank)
                push((_PATCH, len(instrs), head))
                emit(None)
                e, tail = e.body, True
            else:
                d = atom(e)
                if d is None:
                    emit((ERR, f"unbound variable: {e.name}"))
                    fn.unbound = True
                    blank.append(None)
                    d = len(blank)
                out.append(d)
                e = None
            continue
        if not work:
            return fn.finish()
        item = pop()
        kind = item[0]
        if kind == _BIN:
            _, op, sa, sb, t = item
            if sb is None:
                sb = out.pop()
            if sa is None:
                sa = out.pop()
            if t:  # only an application keeps the tail position
                emit((TAILAPP, sa, sb))
            else:
                blank.append(None)
                emit((op, len(blank), sa, sb))
                out.append(len(blank))
        elif kind == _EXPR:
            e = item[1]
        elif kind == _UNBIND:
            _, name, old = item
            if old is _MISSING:
                del scope[name]
            else:
                scope[name] = old
        elif kind == _UN:
            blank.append(None)
            emit((item[1], len(blank), out.pop()))
            out.append(len(blank))
        elif kind == _LET:
            _, name, e, tail = item
            push((_UNBIND, name, scope.get(name, _MISSING)))
            scope[name] = out.pop()
        elif kind == _RET:
            emit((RET, out.pop()))
        elif kind == _CHECK:
            emit((CELLCHK, out[-1] if item[1] is None else item[1]))
        elif kind == _SEQ:
            out.pop()
            _, e, tail = item
        elif kind == _CASE:
            # left branch, then the right one; a non-tail case joins in d,
            # and `jump` receives the left branch's jump over the right one
            _, c, t = item
            blank.extend((None, None))
            ls, rs = len(blank) - 1, len(blank)
            head = (CASE, out.pop(), ls, rs)
            d = None
            if not t:
                blank.append(None)
                d = len(blank)
            jump: list = []
            push((_CASE_END, d, jump))
            push((_UNBIND, c.right_name, scope.get(c.right_name, _MISSING)))
            push((_CASE_MID, d, jump, len(instrs), head, c.right_name, rs,
                  c.right_body))
            push((_UNBIND, c.left_name, scope.get(c.left_name, _MISSING)))
            emit(None)
            scope[c.left_name] = ls
            e, tail = c.left_body, t
        elif kind == _CASE_MID:
            _, d, jump, at, head, name, rs, e = item
            if d is not None:
                emit((MOVE, d, out.pop()))
                jump.append(len(instrs))
                emit(None)
            instrs[at] = head + (len(instrs),)
            scope[name] = rs
            tail = d is None
        elif kind == _CASE_END:
            _, d, jump = item
            if d is not None:
                emit((MOVE, d, out.pop()))
                instrs[jump[0]] = (JUMP, len(instrs))
                out.append(d)
        elif kind == _PATCH:
            instrs[item[1]] = item[2] + (len(instrs),)
        else:  # _LAM_END
            code = fn.finish()
            if fn.unbound:  # its ERR depends on env, and so does the parent's
                fn.parent.unbound = True
            elif not code.captures:
                _TRANSLATION.put(item[1], code)
            fn = fn.parent
            scope, blank, instrs = fn.scope, fn.blank, fn.instrs
            emit = instrs.append
            blank.append(None)
            emit((LAM, len(blank), code, code.captures))
            out.append(len(blank))


def _overloaded(afters: list | None, op, a, b, sym: str):
    """a op b where an operand is not a float: the host operation on
    runtime numbers.  A Shifted result adds its after to afters, and the
    run continues with its y."""
    if not (isinstance(a, _REAL) and isinstance(b, _REAL)):
        raise EvalError(f"arithmetic on non-reals ({sym})")
    y = op(a, b)
    if type(y) is not Shifted:
        return y
    if afters is None:
        raise EvalError(f"a shifting operation ({sym}) outside a runtime's run")
    afters.append(y.after)
    return y.y


def _primal(v):
    while isinstance(v, Num):
        v = v.x
    if type(v) is not float:
        raise EvalError("comparison on non-reals (>)")
    return v


def _run(code: _Code, act: list, store: Store, afters: list | None = None):
    """Run translated code from its first instruction in activation act;
    afters, when given, gets the after of each shifting operation."""
    frames: list = [(_HALT_CODE, 0, [None], 0, True)]
    push, pop = frames.append, frames.pop
    cells = store.cells
    instrs = code.instrs
    pc = 0
    while True:
        ins = instrs[pc]
        pc += 1
        op = ins[0]
        if op == SND:
            v = act[ins[2]]
            if type(v) is not PairV:
                raise EvalError(f"projecting a non-pair (snd): {v!r}")
            act[ins[1]] = v.snd
        elif op == DEREF:
            v = act[ins[2]]
            if type(v) is not Cell:
                raise EvalError(f"dereferencing a non-cell: {v!r}")
            act[ins[1]] = cells[v.id]
        elif op == FST:
            v = act[ins[2]]
            if type(v) is not PairV:
                raise EvalError(f"projecting a non-pair (fst): {v!r}")
            act[ins[1]] = v.fst
        elif op == ADD:
            a, b = act[ins[2]], act[ins[3]]
            if type(a) is float and type(b) is float:
                act[ins[1]] = a + b
            else:
                act[ins[1]] = _overloaded(afters, add, a, b, "+")
        elif op == MUL:
            a, b = act[ins[2]], act[ins[3]]
            if type(a) is float and type(b) is float:
                act[ins[1]] = a * b
            else:
                act[ins[1]] = _overloaded(afters, mul, a, b, "*")
        elif op == ASSIGN:
            c = act[ins[2]]
            if type(c) is not Cell:
                raise EvalError("assigning a non-cell")
            cells[c.id] = act[ins[3]]
            act[ins[1]] = UNIT
        elif op == PAIR:
            act[ins[1]] = PairV(act[ins[2]], act[ins[3]])
        elif op == CELLCHK:
            if type(act[ins[1]]) is not Cell:
                raise EvalError("assigning a non-cell")
        elif op == REF:
            act[ins[1]] = store.alloc(act[ins[2]])
        elif op == RET:
            v = act[ins[1]]
            instrs, pc, act, d, _ = pop()
            act[d] = v
        elif op == APP:
            f, a = act[ins[2]], act[ins[3]]
            if type(f) is Closure:
                push((instrs, pc, act, ins[1], False))
                c = f.code
                act = [a, *c.blank, *f.vals]
                instrs, pc = c.instrs, 0
            elif type(f) is Cont:
                push((instrs, pc, act, ins[1], True))
                frames.extend(f.resume())
                instrs, pc, act, d, _ = pop()
                act[d] = a
            else:
                raise EvalError("applying a non-closure")
        elif op == LAM:
            act[ins[1]] = Closure(ins[2], tuple([act[s] for s in ins[3]]))
        elif op == SHIFT:
            i = len(frames) - 1
            while not frames[i][4]:
                i -= 1
            captured = frames[i + 1:]
            del frames[i + 1:]
            captured.append((instrs, ins[3], act, ins[1], False))
            act[ins[2]] = Cont(captured)
        elif op == TAILAPP:
            f, a = act[ins[1]], act[ins[2]]
            if type(f) is Closure:
                c = f.code
                act = [a, *c.blank, *f.vals]
                instrs, pc = c.instrs, 0
            elif type(f) is Cont:
                push((_PASS_CODE, 0, [None], 0, True))
                frames.extend(f.resume())
                instrs, pc, act, d, _ = pop()
                act[d] = a
            else:
                raise EvalError("applying a non-closure")
        elif op == RESET:
            push((instrs, ins[2], act, ins[1], True))
        elif op == CASE:
            v = act[ins[1]]
            if type(v) is InlV:
                act[ins[2]] = v.value
            elif type(v) is InrV:
                act[ins[3]] = v.value
                pc = ins[4]
            else:
                raise EvalError(f"case on a non-sum: {v!r}")
        elif op == MOVE:
            act[ins[1]] = act[ins[2]]
        elif op == JUMP:
            pc = ins[1]
        elif op == GT:
            a, b = act[ins[2]], act[ins[3]]
            if type(a) is not float or type(b) is not float:
                a, b = _primal(a), _primal(b)
            act[ins[1]] = InlV(UNIT) if a > b else InrV(UNIT)
        elif op == INL:
            act[ins[1]] = InlV(act[ins[2]])
        elif op == INR:
            act[ins[1]] = InrV(act[ins[2]])
        elif op == ERR:
            raise EvalError(ins[1])
        else:  # HALT
            return act[0]


def eval_expr(e: Expr, env: dict | None = None, store: Store | None = None):
    """Evaluate an expression; returns (value, store).  Names
    free in e are looked up in env."""
    env = {} if env is None else env
    store = store if store is not None else Store()
    code = _translate(e, env)
    act = [None, *code.blank, *[env[n] for n in code.captures]]
    return _run(code, act, store), store


_INPUT = "(input)"  # a name no parsed program can bind


def real_fn(prog: Expr):
    """A one-argument program, translated once, as a real function: each
    call applies it in a fresh store to x, a float or a runtime number, and
    the result must be one too.  A runtime that shifts passes the seed of
    its backward pass, and gets the value the seed and then the afters,
    latest first, give (see the module docstring)."""
    code = _translate(App(prog, Var(_INPUT)), (), _INPUT)

    def run(x, seed=None):
        afters: list = []
        v = _run(code, [x, *code.blank], Store(), afters)
        if not isinstance(v, _REAL):
            raise EvalError("program did not return a real")
        if seed is not None:
            v = seed(v)
        for after in reversed(afters):
            v = after(v)
        return v

    return run


def apply_real(prog: Expr, x: float) -> float:
    """Apply a one-argument program to a real; the result must be a real."""
    return real_fn(prog)(x)


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
