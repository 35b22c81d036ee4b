"""Reference executor for the staged IR.

A program is translated once, on its first run, and the translation is kept
on the program (`IRProgram.translation`), as `interp` does for the object
language (Feeley & Lapalme 1987; Ager et al., PPDP 2003):

- every function becomes a flat tuple of instructions with int opcodes over
  an activation, a list laid out as [parameters..., locals and pooled
  literals...]; a `Cond` becomes a conditional jump over its then-branch;
- `add`, `mul` and `greater` have opcodes of their own; any other op calls
  its `OPS` function;
- a non-tail call pushes a return frame (code, pc, activation, steps) onto
  an explicit stack and a tail call replaces the activation, so neither
  nesting (the tree fold's continuations) nor tail chains (staged loops,
  the backward-chain unwind) cost Python stack.

The depth limit, given per run, bounds the nesting depth and the length of
any one tail chain, so a runaway staged loop stops with a diagnostic
instead of spinning forever.

Errors are raised at run time, in evaluation order: an undefined symbol in
an untaken branch is not an error.  A local starts undefined, and a use
that no definition dominates is checked before the statement reads it, so
valid IR pays nothing for the check.
"""

from __future__ import annotations

import struct

from .staging import (
    OPS, TAPE_END, TAPE_SLOT, Bind, Call, CellAccum, CellNew, CellRead,
    CellSet, ClosureNew, Cond, IRProgram, Return, SlotRead, SlotSet,
    StagingError, TreeData, defs,
)

DEFAULT_DEPTH_LIMIT = 100_000


class IREvalError(StagingError):
    pass


class _Code:
    """One translated function: its instructions and the initial values of
    its slots after the parameters (pooled literals in place, _UNDEF for
    locals).  An unknown function's code has no instructions."""

    __slots__ = ("name", "nparams", "instrs", "blank")

    def __init__(self, name: str, nparams: int | None):
        self.name = name
        self.nparams = nparams
        self.instrs: tuple = ()
        self.blank: tuple = ()


class _Closure:
    __slots__ = ("code", "captures")

    def __init__(self, code: _Code, captures: tuple):
        self.code = code
        self.captures = captures


_UNDEF = object()  # a local that no statement has defined yet
_NO_VALUE = object()  # what a function that falls off its end returns

# ---------------------------------------------------------------------------
# Instructions.  `d` is the result slot; every other operand is a slot.
#   (MUL|ADD|GT, d, a, b)   (OP1, d, fn, a)   (OP, d, fn, slots)
#   (CREAD, d, cell)   (CACC|CSET, cell, v)   (CNEW, d, init)
#   (CLO, d, code, capture slots)   (SREAD, d, name)   (SSET, name, v)
#   (JF, guard, pc)   (JUMP, pc)   (RET, v)   (END,)
#   (CALL|TCALL, code, arg slots)   direct, non-tail or tail
#   (ICALL|ITCALL, target, arg slots, non-closure message)
#   (BADCALL, code, nargs, tail)   a direct call to an unknown function or
#                                  with the wrong number of arguments
#   (CHECK, slot, name)   raise if the slot is undefined
#   (CLOCHK, target, message)   (CELLCHK, cell)   the errors a statement
#                                  raises between two of its operands
#   (ERR, message)

# numbered, and tested in _run, by how often the gradient programs run them
(MUL, CREAD, CACC, CNEW, OP1, JF, CLO, ADD, CALL, ICALL, TCALL, ITCALL, END,
 GT, SREAD, SSET, CSET, RET, JUMP, OP, CHECK, CLOCHK, CELLCHK, BADCALL,
 ERR) = range(25)

_OWN_OPCODE = {"add": ADD, "mul": MUL, "greater": GT}
_NON_TREE = "tree operation on a non-tree (empty tree?)"

# steps the translator schedules after a Cond's then-branch and else-branch
_STMT, _ELSE, _ENDIF = range(3)


def _merge(a: set | None, b: set | None) -> set | None:
    """The symbols defined after a join of two paths; None stands for a path
    that never reaches the join."""
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _translate_fn(fn, code: _Code, lookup) -> None:
    """Fill in code from fn, in one pass driven by an explicit work stack.
    `defd` holds the symbols every path to the current statement defines,
    or is None where no path reaches it."""
    slot: dict = {p: i for i, (p, _k) in enumerate(fn.params)}
    nparams = len(fn.params)
    blank: list = []
    pool: dict = {}
    instrs: list = []
    emit = instrs.append
    defd: set | None = set(slot)

    def sym(name: str) -> int:
        s = slot.get(name)
        if s is None:
            s = slot[name] = nparams + len(blank)
            blank.append(_UNDEF)
        return s

    def unchecked(o) -> bool:
        return isinstance(o, str) and defd is not None and o not in defd

    def operand(o) -> int:
        if isinstance(o, str):
            s = sym(o)
            if defd is not None and o not in defd:
                emit((CHECK, s, o))
                defd.add(o)  # past the check, o is defined
            return s
        # a literal: pooled by its bits, so 0.0 and -0.0 stay apart
        key = (float, struct.pack("<d", o)) if type(o) is float else None
        s = pool.get(key) if key is not None else None
        if s is None:
            s = nparams + len(blank)
            blank.append(o)
            if key is not None:
                pool[key] = s
        return s

    work: list = []
    push, pop = work.append, work.pop

    def block(stmts: list, tail: bool) -> None:
        last = len(stmts) - 1
        for i in range(last, -1, -1):
            push((_STMT, stmts[i], tail and i == last))

    block(fn.body, True)
    while work:
        item = pop()
        kind = item[0]
        if kind == _ELSE:
            _, jf_at, guard, orelse, tail, saved = item
            jump_at = None
            if defd is not None and orelse:
                jump_at = len(instrs)
                emit(None)
            instrs[jf_at] = (JF, guard, len(instrs))
            push((_ENDIF, jump_at, defd))
            defd = saved
            block(orelse, tail)
            continue
        if kind == _ENDIF:
            _, jump_at, then_defd = item
            if jump_at is not None:
                instrs[jump_at] = (JUMP, len(instrs))
            defd = _merge(then_defd, defd)
            continue
        _, s, tail = item
        cls = type(s)
        if cls is Bind:
            args = tuple(operand(o) for o in s.args)
            entry = OPS.get(s.op)
            if entry is None:
                emit((ERR, f"unknown operation {s.op!r}"))
                defd = None
                continue
            d = sym(s.dest)
            opcode = _OWN_OPCODE.get(s.op)
            if opcode is not None and len(args) == 2:
                emit((opcode, d) + args)
            elif len(args) == 1:
                emit((OP1, d, entry[1], args[0]))
            else:
                emit((OP, d, entry[1], args))
        elif cls is CellNew:
            emit((CNEW, sym(s.dest), operand(s.init)))
        elif cls is CellRead:
            emit((CREAD, sym(s.dest), operand(s.cell)))
        elif cls is CellAccum:
            c = operand(s.cell)
            if unchecked(s.value):  # the cell is read before the value
                emit((CELLCHK, c))
            emit((CACC, c, operand(s.value)))
        elif cls is CellSet:
            v = operand(s.value)  # the value is read before the cell
            emit((CSET, operand(s.cell), v))
        elif cls is ClosureNew:
            caps = tuple(operand(o) for o in s.captures)
            emit((CLO, sym(s.dest), lookup(s.fn), caps))
        elif cls is Call:
            if s.indirect:
                t = operand(s.target)
                msg = f"calling a non-closure {s.target!r}"
                if any(unchecked(o) for o in s.args):
                    emit((CLOCHK, t, msg))
                args = tuple(operand(o) for o in s.args)
                emit((ITCALL if tail else ICALL, t, args, msg))
            else:
                args = tuple(operand(o) for o in s.args)
                callee = lookup(s.target)
                if callee.nparams == len(args):
                    emit((TCALL if tail else CALL, callee, args))
                else:
                    emit((BADCALL, callee, len(args), tail))
            if tail:
                defd = None
        elif cls is SlotRead:
            emit((SREAD, sym(s.dest), s.slot))
        elif cls is SlotSet:
            emit((SSET, s.slot, operand(s.value)))
        elif cls is Cond:
            g = operand(s.guard)
            jf_at = len(instrs)
            emit(None)
            push((_ELSE, jf_at, g, s.orelse, tail,
                  None if defd is None else set(defd)))
            block(s.then, tail)
            continue
        elif cls is Return:
            emit((RET, operand(s.value)))
            defd = None
            continue
        else:
            emit((ERR, f"unknown statement {s!r}"))
            defd = None
            continue
        if defd is not None:
            defd.update(defs(s))
    emit((END,))
    code.instrs = tuple(instrs)
    code.blank = tuple(blank)


def _translate(prog: IRProgram) -> dict:
    """Every function of prog, translated; calls name their callee's code,
    which is made without instructions for an unknown name."""
    codes = {name: _Code(name, len(fn.params))
             for name, fn in prog.functions.items()}

    def lookup(name: str) -> _Code:
        c = codes.get(name)
        if c is None:
            c = codes[name] = _Code(name, None)
        return c

    for name, fn in prog.functions.items():
        _translate_fn(fn, codes[name], lookup)
    return codes


def _limit_error(limit: int) -> IREvalError:
    return IREvalError(f"recursion depth limit exceeded ({limit})")


def _call_error(code: _Code, nargs: int) -> IREvalError:
    if code.nparams is None:
        return IREvalError(f"unknown function {code.name!r}")
    return IREvalError(f"{code.name} expects {code.nparams} args, got {nargs}")


def _run(code: _Code, act: list, slots: dict, limit: int):
    """Run code from its first instruction in activation act; returns what
    it returns, or _NO_VALUE when it falls off its end."""
    frames: list = []
    push, pop = frames.append, frames.pop
    cells: list = []
    instrs = code.instrs
    pc = 0
    steps = 1  # calls in the current tail chain
    max_frames = limit - 2  # a non-tail call from depth len(frames) + 1
    while True:
        ins = instrs[pc]
        pc += 1
        op = ins[0]
        if op == MUL:
            act[ins[1]] = act[ins[2]] * act[ins[3]]
        elif op == CREAD:
            act[ins[1]] = cells[act[ins[2]]]
        elif op == CACC:
            c = act[ins[1]]
            cells[c] = cells[c] + act[ins[2]]
        elif op == CNEW:
            cells.append(act[ins[2]])
            act[ins[1]] = len(cells) - 1
        elif op == OP1:
            try:
                act[ins[1]] = ins[2](act[ins[3]])
            except AttributeError:  # only a tree op reads attributes
                raise IREvalError(_NON_TREE) from None
        elif op == JF:
            if not act[ins[1]]:
                pc = ins[2]
        elif op == CLO:
            act[ins[1]] = _Closure(ins[2], tuple([act[s] for s in ins[3]]))
        elif op == ADD:
            act[ins[1]] = act[ins[2]] + act[ins[3]]
        elif op == CALL:
            if len(frames) > max_frames:
                raise _limit_error(limit)
            push((instrs, pc, act, steps))
            callee = ins[1]
            act = [act[s] for s in ins[2]]
            act += callee.blank
            instrs, pc, steps = callee.instrs, 0, 1
        elif op == ICALL or op == ITCALL:
            clo = act[ins[1]]
            if type(clo) is not _Closure:
                raise IREvalError(ins[3])
            callee = clo.code
            new = [act[s] for s in ins[2]]
            new += clo.captures
            if op == ICALL:
                if len(frames) > max_frames:
                    raise _limit_error(limit)
                if callee.nparams != len(new):
                    raise _call_error(callee, len(new))
                push((instrs, pc, act, steps))
                steps = 1
            else:
                steps += 1
                if steps > limit:
                    raise _limit_error(limit)
                if callee.nparams != len(new):
                    raise _call_error(callee, len(new))
            new += callee.blank
            act, instrs, pc = new, callee.instrs, 0
        elif op == TCALL:
            steps += 1
            if steps > limit:
                raise _limit_error(limit)
            callee = ins[1]
            act = [act[s] for s in ins[2]]
            act += callee.blank
            instrs, pc = callee.instrs, 0
        elif op == END:
            if not frames:
                return _NO_VALUE
            instrs, pc, act, steps = pop()
        elif op == GT:
            act[ins[1]] = act[ins[2]] > act[ins[3]]
        elif op == SREAD:
            act[ins[1]] = slots[ins[2]]
        elif op == SSET:
            slots[ins[1]] = act[ins[2]]
        elif op == CSET:
            cells[act[ins[1]]] = act[ins[2]]
        elif op == RET:
            if not frames:
                return act[ins[1]]
            instrs, pc, act, steps = pop()  # a non-tail call's value is unused
        elif op == JUMP:
            pc = ins[1]
        elif op == OP:
            try:
                act[ins[1]] = ins[2](*[act[s] for s in ins[3]])
            except AttributeError:
                raise IREvalError(_NON_TREE) from None
        elif op == CHECK:
            if act[ins[1]] is _UNDEF:
                raise IREvalError(f"undefined symbol {ins[2]!r}")
        elif op == CLOCHK:
            if type(act[ins[1]]) is not _Closure:
                raise IREvalError(ins[2])
        elif op == CELLCHK:
            cells[act[ins[1]]]  # raises as the accumulation's read would
        elif op == BADCALL:
            over = steps + 1 > limit if ins[3] else len(frames) > max_frames
            if over:
                raise _limit_error(limit)
            raise _call_error(ins[1], ins[2])
        else:  # ERR
            raise IREvalError(ins[1])


def ir_eval(prog: IRProgram, x0: float, tree: TreeData | None = None,
            depth_limit: int = DEFAULT_DEPTH_LIMIT) -> float:
    """Execute the program entry on one real input (plus the runtime tree
    for tree-fold programs); returns the entry's result."""
    codes = prog.translation
    if codes is None:
        codes = prog.translation = _translate(prog)
    entry = prog.functions[prog.entry]
    kinds = [k for _, k in entry.params]
    if kinds and kinds[0] == "tree":
        args: list = [tree, float(x0)]
    else:
        args = [float(x0)]
    if len(args) != len(entry.params):
        raise IREvalError("entry arity mismatch")
    if depth_limit < 1:
        raise _limit_error(depth_limit)
    code = codes[prog.entry]
    slots = ({TAPE_SLOT: _Closure(codes[TAPE_END], ())}
             if TAPE_END in prog.functions else {})
    v = _run(code, args + list(code.blank), slots, depth_limit)
    if v is _NO_VALUE:
        raise IREvalError("entry did not return a value")
    if not isinstance(v, float):
        raise IREvalError(f"entry returned a non-real: {v!r}")
    return v
