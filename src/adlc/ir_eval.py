"""Reference executor for the staged IR.

A program is translated once, on its first run, and the translation is kept
on the program (`IRProgram.translation`), as `interp` does for the object
language (Feeley & Lapalme 1987; Ager et al., PPDP 2003):

- every function becomes a flat tuple of instructions with int opcodes over
  an activation, a list laid out as [parameters..., locals and pooled
  literals...]; a `Cond` becomes a conditional jump over its then-branch;
- `add`, `mul` and `greater` have opcodes of their own; any other op calls
  its `OPS` function on its one operand; a `Bind` with an unknown op or
  the wrong number of operands is an error instruction;
- a call, closure creation, jump or tape push gathers its operands with an
  `operator.itemgetter` built at translation time;
- an adjoint update whose read and product no other instruction reads
  (`CellRead`, `mul`, `CellAccum`, or `CellRead`, `CellAccum`) is one
  instruction, with the same float operations in the same order;
- a non-tail call pushes a return frame (code, pc, activation, steps) onto
  an explicit stack and a tail call replaces the activation, so nesting
  (the tree fold's continuations) costs no Python stack;
- a `Jump` to the enclosing function reassigns its parameters in place and
  restarts it, with no new activation (a function whose locals may be read
  undefined gets a fresh activation instead, so they read undefined again);
  a jump elsewhere is a tail call;
- the tape is a list of records (segment code, captures): `TapePush`
  appends one; an unwinding `Call` puts a mark on the tape before the call
  and, after it, pops and runs each record above the mark as a non-tail
  call, newest first, then pops the mark.

The depth limit, given per run, bounds the nesting depth and the length of
any one tail chain, where a jump counts as one tail call, so a runaway
staged loop stops with a diagnostic instead of spinning forever.  A record
the unwind runs is one level of nesting, and starts a chain of its own.

Errors are raised at run time, in evaluation order: an undefined symbol in
an untaken branch is not an error.  A local starts undefined, and a use
that no definition dominates is checked before the statement reads it, so
valid IR pays nothing for the check.
"""

from __future__ import annotations

import struct
from operator import itemgetter

from .staging import (
    ARITY, OPS, Bind, Call, CellAccum, CellNew, CellRead, CellSet, ClosureNew, Cond,
    IRProgram, Jump, Return, StagingError, TapePush, TreeData, defs,
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

    def __init__(self, code: _Code, captures):
        self.code = code
        self.captures = captures


_UNDEF = object()  # a local that no statement has defined yet
_NO_VALUE = object()  # what a function that falls off its end returns
_MARK = object()  # on the tape below the records an unwinding call pushed


def _no_operands(_act) -> tuple:
    return ()


def _gather(slots: tuple):
    """A function from an activation to the values of slots, in order, as
    a tuple or a list."""
    if not slots:
        return _no_operands
    if len(slots) == 1:  # itemgetter of one item returns it bare
        return itemgetter(slice(slots[0], slots[0] + 1))
    return itemgetter(*slots)


# ---------------------------------------------------------------------------
# Instructions.  `d` is the result slot; every other operand is a slot, and
# `get` gathers operand slots (_gather).
#   (MUL|ADD|GT, d, a, b)   (OP1, d, fn, a)
#   (CREAD, d, cell)   (CACC|CSET, cell, v)   (CNEW, d, init)
#   (CMACC, cell, r, k)   cell += read(r) * k
#   (CRACC, cell, r)   cell += read(r)
#   (CLO, d, code, get)   (JF, guard, pc)   (JUMP, pc)   (RET, v)   (END,)
#   (CALL|TCALL, code, get)   direct, non-tail or tail (a jump elsewhere)
#   (JSELF, params, get)   the parameters (a slice) get new values
#   (ICALL|ITCALL, target, get, non-closure message)
#   (PUSH, code, get)   (MARK,)   (UNWIND,)   the tape
#   (BADCALL, code, nargs, tail)   a direct call or jump to an unknown
#                                  function or with the wrong number of
#                                  arguments
#   (CHECK, slot, name)   raise if the slot is undefined
#   (CLOCHK, target, message)   (CELLCHK, cell)   the errors a statement
#                                  raises between two of its operands
#   (ERR, message)

# numbered, and tested in _run, by how often the gradient programs run them:
# the straight-line ones, then those of conditionals, loops and tree folds
(CNEW, CMACC, CRACC, MUL, ADD, JF, END, OP1, GT, JSELF, PUSH, UNWIND, CSET,
 CREAD, RET, TCALL, CLO, ICALL, ITCALL, CALL, CACC, MARK, JUMP, CHECK,
 CLOCHK, CELLCHK, BADCALL, ERR) = range(28)

_OWN_OPCODE = {"add": ADD, "mul": MUL, "greater": GT}
_NON_TREE = "tree operation on a non-tree (empty tree?)"
_CHECKS = (CHECK, CLOCHK, CELLCHK)

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


def _fuse(instrs: list, reads: dict) -> list:
    """Each adjoint update CREAD t; MUL p, t, k; CACC c, p (or CREAD t;
    CACC c, t) whose t and p no other instruction reads, as one CMACC (or
    CRACC); jump targets follow the instructions they named."""
    targets = {i[2] for i in instrs if i[0] == JF}
    targets.update(i[1] for i in instrs if i[0] == JUMP)
    out: list = []
    where: list = []  # old pc -> new pc
    i, n = 0, len(instrs)
    while i < n:
        ins = instrs[i]
        where.append(len(out))
        if ins[0] == CREAD and reads.get(ins[1]) == 1 and i + 1 not in targets:
            nxt = instrs[i + 1]
            if nxt[0] == CACC and nxt[2] == ins[1]:
                out.append((CRACC, nxt[1], ins[2]))
                where.append(len(out) - 1)
                i += 2
                continue
            if (nxt[0] == MUL and nxt[2] == ins[1] and reads.get(nxt[1]) == 1
                    and i + 2 not in targets):
                acc = instrs[i + 2]
                if acc[0] == CACC and acc[2] == nxt[1]:
                    out.append((CMACC, acc[1], ins[2], nxt[3]))
                    where += [len(out) - 1] * 2
                    i += 3
                    continue
        out.append(ins)
        i += 1
    for j, ins in enumerate(out):
        if ins[0] == JF:
            out[j] = (JF, ins[1], where[ins[2]])
        elif ins[0] == JUMP:
            out[j] = (JUMP, where[ins[1]])
    return out


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
    reads: dict = {}  # slot -> how many operands of instructions read it
    self_jumps: list = []  # (pc, arg slots) of jumps to this function
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
        else:
            # a literal: pooled by its bits, so 0.0 and -0.0 stay apart
            key = (float, struct.pack("<d", o)) if type(o) is float else None
            s = pool.get(key) if key is not None else None
            if s is None:
                s = nparams + len(blank)
                blank.append(o)
                if key is not None:
                    pool[key] = s
        reads[s] = reads.get(s, 0) + 1
        return s

    def operands(os) -> tuple:
        return tuple(operand(o) for o in os)

    def call(target: str, args: tuple, tail: bool) -> None:
        callee = lookup(target)
        if callee.nparams == len(args):
            emit((TCALL if tail else CALL, callee, _gather(args)))
        else:
            emit((BADCALL, callee, len(args), tail))

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
            args = operands(s.args)
            n = ARITY.get(s.op)
            if n != len(args):
                emit((ERR, f"unknown operation {s.op!r}" if n is None else
                      f"{s.op} takes {n} operands, got {len(args)}"))
                defd = None
                continue
            d = sym(s.dest)
            opcode = _OWN_OPCODE.get(s.op)
            if opcode is not None:
                emit((opcode, d) + args)
            else:
                emit((OP1, d, OPS[s.op][1], args[0]))
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
            caps = operands(s.captures)
            emit((CLO, sym(s.dest), lookup(s.fn), _gather(caps)))
        elif cls is TapePush:
            emit((PUSH, lookup(s.fn), _gather(operands(s.captures))))
        elif cls is Call:
            tail = tail and not s.unwind  # the unwind runs after the call
            if s.unwind:
                emit((MARK,))
            if s.indirect:
                t = operand(s.target)
                msg = f"calling a non-closure {s.target!r}"
                if any(unchecked(o) for o in s.args):
                    emit((CLOCHK, t, msg))
                emit((ITCALL if tail else ICALL, t, _gather(operands(s.args)),
                      msg))
            else:
                call(s.target, operands(s.args), tail)
            if s.unwind:
                emit((UNWIND,))
            if tail:
                defd = None
        elif cls is Jump:
            args = operands(s.args)
            if lookup(s.target) is code and len(args) == nparams:
                self_jumps.append((len(instrs), args))
                emit(None)
            else:
                call(s.target, args, True)
            defd = None
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
    fresh = any(ins[0] in _CHECKS for ins in instrs if ins is not None)
    for at, args in self_jumps:
        if fresh:
            instrs[at] = (TCALL, code, _gather(args))
        else:
            # only the parameters up to the last that changes are assigned
            n = max((i + 1 for i, a in enumerate(args) if a != i), default=0)
            instrs[at] = (JSELF, slice(0, n), _gather(args[:n]))
    code.instrs = tuple(_fuse(instrs, reads))
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


def _run(code: _Code, act: list, limit: int):
    """Run code from its first instruction in activation act; returns what
    it returns, or _NO_VALUE when it falls off its end."""
    frames: list = []
    push, pop = frames.append, frames.pop
    cells: list = []
    tape: list = []
    instrs = code.instrs
    pc = 0
    steps = 1  # calls in the current tail chain
    max_frames = limit - 2  # a non-tail call from depth len(frames) + 1
    while True:
        ins = instrs[pc]
        pc += 1
        op = ins[0]
        if op == CNEW:
            v = act[ins[2]]
            act[ins[1]] = len(cells)
            cells.append(v)
        elif op == CMACC:
            t = cells[act[ins[2]]] * act[ins[3]]
            c = act[ins[1]]
            cells[c] = cells[c] + t
        elif op == CRACC:
            t = cells[act[ins[2]]]
            c = act[ins[1]]
            cells[c] = cells[c] + t
        elif op == MUL:
            act[ins[1]] = act[ins[2]] * act[ins[3]]
        elif op == ADD:
            act[ins[1]] = act[ins[2]] + act[ins[3]]
        elif op == JF:
            if not act[ins[1]]:
                pc = ins[2]
        elif op == END:
            if not frames:
                return _NO_VALUE
            instrs, pc, act, steps = pop()
        elif op == OP1:
            try:
                act[ins[1]] = ins[2](act[ins[3]])
            except AttributeError:  # only a tree op reads attributes
                raise IREvalError(_NON_TREE) from None
        elif op == GT:
            act[ins[1]] = act[ins[2]] > act[ins[3]]
        elif op == JSELF:
            steps += 1
            if steps > limit:
                raise _limit_error(limit)
            act[ins[1]] = ins[2](act)
            pc = 0
        elif op == PUSH:
            tape.append(ins[1])
            tape.append(ins[2](act))
        elif op == UNWIND:
            caps = tape.pop()
            if caps is not _MARK:
                callee = tape.pop()
                if len(frames) > max_frames:
                    raise _limit_error(limit)
                if callee.nparams != len(caps):
                    raise _call_error(callee, len(caps))
                push((instrs, pc - 1, act, steps))  # back here when it returns
                act = [*caps, *callee.blank]
                instrs, pc, steps = callee.instrs, 0, 1
        elif op == CSET:
            cells[act[ins[1]]] = act[ins[2]]
        elif op == CREAD:
            act[ins[1]] = cells[act[ins[2]]]
        elif op == RET:
            if not frames:
                return act[ins[1]]
            instrs, pc, act, steps = pop()  # a non-tail call's value is unused
        elif op == TCALL:
            steps += 1
            if steps > limit:
                raise _limit_error(limit)
            callee = ins[1]
            act = [*ins[2](act), *callee.blank]
            instrs, pc = callee.instrs, 0
        elif op == CLO:
            act[ins[1]] = _Closure(ins[2], ins[3](act))
        elif op == ICALL or op == ITCALL:
            clo = act[ins[1]]
            if type(clo) is not _Closure:
                raise IREvalError(ins[3])
            callee = clo.code
            new = [*ins[2](act), *clo.captures]
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
        elif op == CALL:
            if len(frames) > max_frames:
                raise _limit_error(limit)
            push((instrs, pc, act, steps))
            callee = ins[1]
            act = [*ins[2](act), *callee.blank]
            instrs, pc, steps = callee.instrs, 0, 1
        elif op == CACC:
            c = act[ins[1]]
            cells[c] = cells[c] + act[ins[2]]
        elif op == MARK:
            tape.append(_MARK)
        elif op == JUMP:
            pc = ins[1]
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
    v = _run(code, args + list(code.blank), depth_limit)
    if v is _NO_VALUE:
        raise IREvalError("entry did not return a value")
    if not isinstance(v, float):
        raise IREvalError(f"entry returned a non-real: {v!r}")
    return v
