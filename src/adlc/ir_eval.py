"""Reference executor for the staged IR.

A program is translated once, on its first run, and the translation is kept
on the program (`IRProgram.translation`), as `interp` does for the object
language (Feeley & Lapalme 1987; Ager et al., PPDP 2003):

- every function becomes a flat tuple of instructions with int opcodes over
  an activation, a list laid out as [parameters..., locals and pooled
  literals...]; a `Cond` becomes a conditional jump over its then-branch;
- `add`, `mul` and `greater` have opcodes of their own; any other op calls
  its `OPS` function on its one operand;
- a call, jump or tape push gathers its operands with an `operator.itemgetter`
  built at translation time;
- an adjoint update whose read and product no other instruction reads
  (`CellRead`, `mul`, `CellAccum`, or `CellRead`, `CellAccum`) is one
  instruction, with the same float operations in the same order;
- a non-tail call pushes a return frame (code, pc, activation, steps) onto
  an explicit stack and a tail call replaces the activation, so nesting
  (a tree fold's calls on the subtrees) costs no Python stack;
- a valued call is a call followed by a receive instruction, the slots
  that the callee's (value, cell) return fills before it steps over them;
- a `Jump` to the enclosing function reassigns its parameters in place and
  restarts it, with no new activation; a jump elsewhere is a tail call;
- the tape is a list of records (segment code, captures): `TapePush`
  appends one; an unwinding `Call` puts a mark on the tape before the call
  and, after it, pops and runs each record above the mark as a non-tail
  call, newest first, then pops the mark.

The depth limit, given per run, bounds the nesting depth and the length of
any one tail chain, where a jump counts as one tail call, so a runaway
staged loop stops with a diagnostic instead of spinning forever.  A record
the unwind runs is one level of nesting, and starts a chain of its own.  A
tree fold nests the entry, `fold` and one call per tree level, the empty
tree's included, so a tree of height h needs a limit of h + 3.

The translator first runs `staging.verify`, which raises `IRError` on an
ill-formed program whether or not a run would reach the fault, so no
instruction checks anything.  A run raises only `IREvalError`: at the depth
limit, or on a tree operation on the empty tree.

A program that loops or recurses (some function jumps to itself, or the
call graph has a cycle, as a tree fold's `rec` calls itself) also gets a
compiled tier, made with the translation: its functions become Python
functions, compiled once, that run the same instructions in the same
order, so it computes the same bits and raises the same errors (see
`_compile`).  Straight-line programs run on the interpreter (`_run`), which
`interpret` runs on any program.
"""

from __future__ import annotations

import struct
from operator import itemgetter

from .staging import (
    OPS, Bind, Call, CellAccum, CellNew, CellRead, CellSet, Cond, IRError, IRProgram,
    Jump, Return, TapePush, TreeData, verify,
)

DEFAULT_DEPTH_LIMIT = 100_000


class IREvalError(IRError):
    """An error that only a run can find: the depth limit, or a tree
    operation on the empty tree."""


class _Code:
    """One translated function: its instructions and the initial values of
    its slots after the parameters (pooled literals in place, _UNDEF for
    locals)."""

    __slots__ = ("nparams", "instrs", "blank")

    def __init__(self, nparams: int):
        self.nparams = nparams
        self.instrs: tuple = ()
        self.blank: tuple = ()


_UNDEF = object()  # a local that no statement has defined yet
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
# `get` gathers operand slots (_gather), which `slots` lists for the
# compiled tier.
#   (MUL|ADD|GT, d, a, b)   (OP1, d, fn, a)
#   (CREAD, d, cell)   (CACC|CSET, cell, v)   (CNEW, d, init)
#   (CMACC, cell, r, k)   cell += read(r) * k
#   (CRACC, cell, r)   cell += read(r)
#   (JF, guard, pc)   (JUMP, pc)   (RET, v)   (RETR, v, cell)   (END,)
#   (CALL|TCALL, code, get, slots)   non-tail or tail (a jump elsewhere)
#   (RECV, v, cell)   after a valued CALL: RETR fills the slots and steps
#                     over it, so it never runs
#   (JSELF, params, get, slots)   the parameters (a slice) get new values
#   (PUSH, code, get, slots)   (MARK,)   (UNWIND,)   the tape

# numbered, and tested in _run, by how often the gradient programs run them:
# the straight-line ones, then those of conditionals, loops and tree folds
(CNEW, CMACC, CRACC, MUL, ADD, JF, END, OP1, GT, JSELF, PUSH, UNWIND, CSET,
 CREAD, RET, CALL, RETR, TCALL, CACC, MARK, JUMP, RECV) = range(22)

_OWN_OPCODE = {"add": ADD, "mul": MUL, "greater": GT}
_NON_TREE = "tree operation on a non-tree (empty tree?)"

# steps the translator schedules after a Cond's then-branch and else-branch
_STMT, _ELSE, _ENDIF = range(3)


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


def _translate_fn(fn, code: _Code, codes: dict) -> None:
    """Fill in code from fn, in one pass driven by an explicit work stack."""
    slot: dict = {p: i for i, (p, _k) in enumerate(fn.params)}
    nparams = len(fn.params)
    blank: list = []
    pool: dict = {}
    instrs: list = []
    emit = instrs.append
    reads: dict = {}  # slot -> how many operands of instructions read it

    def sym(name: str) -> int:
        s = slot.get(name)
        if s is None:
            s = slot[name] = nparams + len(blank)
            blank.append(_UNDEF)
        return s

    def operand(o) -> int:
        if isinstance(o, str):
            s = sym(o)
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
        if kind == _ELSE:  # a JUMP over a nonempty else-branch, then it
            _, jf_at, guard, orelse, tail = item
            if orelse:
                push((_ENDIF, len(instrs)))
                emit(None)
            instrs[jf_at] = (JF, guard, len(instrs))
            block(orelse, tail)
            continue
        if kind == _ENDIF:
            instrs[item[1]] = (JUMP, len(instrs))
            continue
        _, s, tail = item
        cls = type(s)
        if cls is Bind:
            args = operands(s.args)
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
            emit((CACC, operand(s.cell), operand(s.value)))
        elif cls is CellSet:
            v = operand(s.value)
            emit((CSET, operand(s.cell), v))
        elif cls is TapePush:
            caps = operands(s.captures)
            emit((PUSH, codes[s.fn], _gather(caps), caps))
        elif cls is Call:
            # the unwind, or the receive, runs after the call
            tail = tail and not s.unwind and not s.results
            if s.unwind:
                emit((MARK,))
            args = operands(s.args)
            emit((TCALL if tail else CALL, codes[s.target], _gather(args), args))
            if s.results:
                emit((RECV, *map(sym, s.results)))
            if s.unwind:
                emit((UNWIND,))
        elif cls is Jump:
            args = operands(s.args)
            if codes[s.target] is code:
                # only the parameters up to the last that changes are assigned
                n = max((i + 1 for i, a in enumerate(args) if a != i), default=0)
                emit((JSELF, slice(0, n), _gather(args[:n]), args[:n]))
            else:
                emit((TCALL, codes[s.target], _gather(args), args))
        elif cls is Cond:
            g = operand(s.guard)
            jf_at = len(instrs)
            emit(None)
            push((_ELSE, jf_at, g, s.orelse, tail))
            block(s.then, tail)
        elif cls is Return:
            emit((RET, operand(s.value)))
        else:  # RetReal
            emit((RETR, operand(s.value), operand(s.cell)))
    emit((END,))
    code.instrs = tuple(_fuse(instrs, reads))
    code.blank = tuple(blank)


def _translate(prog: IRProgram) -> dict:
    """Every function of prog, translated; calls name their callee's code."""
    codes = {name: _Code(len(fn.params)) for name, fn in prog.functions.items()}
    for name, fn in prog.functions.items():
        _translate_fn(fn, codes[name], codes)
    return codes


def _limit_error(limit: int) -> IREvalError:
    return IREvalError(f"recursion depth limit exceeded ({limit})")


def _run(code: _Code, act: list, limit: int):
    """Run code from its first instruction in activation act; returns what
    it returns."""
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
        elif op == CALL:
            if len(frames) > max_frames:
                raise _limit_error(limit)
            push((instrs, pc, act, steps))
            callee = ins[1]
            act = [*ins[2](act), *callee.blank]
            instrs, pc, steps = callee.instrs, 0, 1
        elif op == RETR:
            x, d = act[ins[1]], act[ins[2]]
            instrs, pc, act, steps = pop()
            ins = instrs[pc]
            if ins[0] == RECV:  # else the call's value is unused
                act[ins[1]] = x
                act[ins[2]] = d
                pc += 1
        elif op == TCALL:
            steps += 1
            if steps > limit:
                raise _limit_error(limit)
            callee = ins[1]
            act = [*ins[2](act), *callee.blank]
            instrs, pc = callee.instrs, 0
        elif op == CACC:
            c = act[ins[1]]
            cells[c] = cells[c] + act[ins[2]]
        elif op == MARK:
            tape.append(_MARK)
        elif op == JUMP:
            pc = ins[1]


# ---------------------------------------------------------------------------
# The compiled tier.  A program that loops or recurses, one in which some
# function jumps to itself or the call graph has a cycle (a fold's `rec`,
# `nested-loops`' outer loop through its inner one), runs many instructions
# per translation, so it earns the cost of compile(): each translated
# function becomes a Python function, compiled once and kept in the
# translation (Rompf & Odersky, "Lightweight Modular Staging", GPCE 2010).
# Straight-line programs never do, and stay on _run.  The generated code
# runs the translation's instructions in their order on the same floats: a
# slot is a local, a literal a named constant, a cell an index into the
# run's list of cells, a self-jump reassigns the parameters and continues a
# `while True`, a call is a Python call (so each call nests one Python
# frame: the calls outside the call graph's cycles nest at most MAX_CHAIN,
# and a run that meets the caller's recursion limit runs again on _run), a
# (value, cell) return returns a tuple that the valued call unpacks, a
# record is a tuple of a function and the captures it unpacks, and the
# depth limit is counted as _run counts it, in the same places.  A run's
# functions refer to each other and to its tape, so it drops them when it
# ends: a recursive one would otherwise keep the run's cells and tape alive
# in a reference cycle until the collector ran.

_CALLS = (CALL, TCALL, PUSH)  # a record is called when the unwind pops it
MAX_CHAIN = 64  # calls nested outside the call cycles in one run, at most
_BINARY = {MUL: "*", ADD: "+", GT: ">"}
_LIMIT = "raise LIMIT(limit)"


def _compiled_codes(entry: _Code) -> list | None:
    """The codes entry reaches, callees first and entry last, when the
    program they make loops or recurses and nests chains of at most
    MAX_CHAIN calls outside its call cycles; else None.  Tarjan's strongly
    connected components, iterative, so a long chain costs no Python stack;
    a component is finished after every one it calls."""
    number = {entry: 0}  # code -> the order the search reached it in
    low = {entry: 0}  # the least number its search reaches on the stack
    chain: dict = {}  # code -> the longest chain of calls out of its component
    stack = [entry]  # the codes of the components not finished yet
    order: list = []
    cycles = False
    work = [(entry, iter(entry.instrs))]
    while work:
        code, rest = work[-1]
        for ins in rest:
            op = ins[0]
            cycles |= op == JSELF
            if op in _CALLS:
                callee = ins[1]
                if callee not in number:
                    number[callee] = low[callee] = len(number)
                    stack.append(callee)
                    work.append((callee, iter(callee.instrs)))
                    break
                if callee not in chain:  # on the stack: a cycle closes
                    low[code] = min(low[code], number[callee])
        else:
            work.pop()
            if work:
                caller = work[-1][0]
                low[caller] = min(low[caller], low[code])
            if low[code] < number[code]:
                continue
            members = [stack.pop()]  # code's component, code last
            while members[-1] is not code:
                members.append(stack.pop())
            inside = set(members)
            n = 0
            for c in members:
                for i in c.instrs:
                    if i[0] in _CALLS:
                        if i[1] in inside:
                            cycles = True
                        else:
                            n = max(n, chain[i[1]] + 1)
            if n > MAX_CHAIN:
                return None
            chain.update(dict.fromkeys(members, n))
            order += members
    return order if cycles else None


def _source(code: _Code, names: dict, consts: dict, record: bool) -> list:
    """The Python lines of one translated function, at indent 0: f<i> of
    (parameters..., depth, steps), or, for a record, r<i> of (record,
    depth), which unpacks the record's captures into the parameters."""
    instrs, n, i = code.instrs, code.nparams, names[code]

    def val(s: int) -> str:
        if s < n or code.blank[s - n] is _UNDEF:
            return f"a{s}"
        k = f"k{i}_{s}"  # bound by name, so every bit of the literal stays
        consts[k] = code.blank[s - n]
        return k

    def call(ins, depth: str, steps: str) -> str:
        args = "".join(f"{val(s)}, " for s in ins[3])
        return f"f{names[ins[1]]}({args}{depth}, {steps})"

    def lines(pc: int) -> list:
        ins = instrs[pc]
        op = ins[0]
        if op in _BINARY:
            return [f"a{ins[1]} = {val(ins[2])} {_BINARY[op]} {val(ins[3])}"]
        if op == OP1:  # only a tree op reads attributes
            k = f"o{i}_{pc}"
            consts[k] = ins[2]
            return ["try:", f"    a{ins[1]} = {k}({val(ins[3])})",
                    "except AttributeError:", "    raise IREvalError(NON_TREE) from None"]
        if op == CNEW:
            return [f"a{ins[1]} = len(cells)", f"cells.append({val(ins[2])})"]
        if op == CMACC:
            return [f"cells[{val(ins[1])}] += cells[{val(ins[2])}] * {val(ins[3])}"]
        if op == CRACC:
            return [f"cells[{val(ins[1])}] += cells[{val(ins[2])}]"]
        if op == CACC:
            return [f"cells[{val(ins[1])}] += {val(ins[2])}"]
        if op == CSET:
            return [f"cells[{val(ins[1])}] = {val(ins[2])}"]
        if op == CREAD:
            return [f"a{ins[1]} = cells[{val(ins[2])}]"]
        if op == RET:
            return [f"return {val(ins[1])}"]
        if op == RETR:
            return [f"return {val(ins[1])}, {val(ins[2])}"]
        if op == END:
            return ["return"]
        if op == CALL:  # a valued call unpacks the pair into its RECV's slots
            nxt = instrs[pc + 1]
            got = f"a{nxt[1]}, a{nxt[2]} = " if nxt[0] == RECV else ""
            return [f"if depth > top: {_LIMIT}", got + call(ins, "depth + 1", "1")]
        if op == RECV:
            return []
        if op == TCALL:
            return ["steps += 1", f"if steps > limit: {_LIMIT}",
                    f"return {call(ins, 'depth', 'steps')}"]
        if op == JSELF:
            out = ["steps += 1", f"if steps > limit: {_LIMIT}"]
            if ins[3]:
                out.append(", ".join(f"a{j}" for j in range(len(ins[3]))) + " = "
                           + ", ".join(map(val, ins[3])))
            return out + ["continue"]
        if op == PUSH:
            rec = "".join(f"{val(s)}, " for s in ins[3])
            return [f"tape.append((r{names[ins[1]]}, {rec}))"]
        if op == MARK:
            return ["tape.append(MARK)"]
        # UNWIND: run the records above the mark, newest first
        return ["rec = tape.pop()", "while rec is not MARK:",
                f"    if depth > top: {_LIMIT}",
                "    rec[0](rec, depth + 1)", "    rec = tape.pop()"]

    params = [f"a{j}" for j in range(n)]
    if record:
        out = [f"def r{i}(rec, depth):", "    steps = 1"]
        if n:
            out.append(f"    _, {', '.join(params)} = rec")
    else:
        out = [f"def f{i}({''.join(p + ', ' for p in params)}depth, steps):"]
    base = 1
    if any(ins[0] == JSELF for ins in instrs):
        out.append("    while True:")
        base = 2
    # (first pc, end pc, indent, header): a Cond's then-branch runs to the
    # JUMP over its else-branch, or to the JF's target when there is none
    # (then no else-branch, or a then-branch that never falls through)
    work = [(0, len(instrs), base, None)]
    while work:
        pc, end, indent, header = work.pop()
        pad = "    " * indent
        if header is not None:
            out.append(pad[4:] + header)
            if pc == end:
                out.append(pad + "pass")
        while pc < end:
            ins = instrs[pc]
            if ins[0] == JF:
                target = ins[2]
                if target - 1 > pc and instrs[target - 1][0] == JUMP:
                    join = instrs[target - 1][1]
                    work += [(join, end, indent, None),
                             (target, join, indent + 1, "else:")]
                    target -= 1
                else:
                    work.append((target, end, indent, None))
                work.append((pc + 1, target, indent + 1, f"if {val(ins[1])}:"))
                break
            out += [pad + line for line in lines(pc)]
            pc += 1
    return out


def _compile(codes: dict, entry: str):
    """For a program that loops or recurses, a function of (the depth
    limit, the entry's arguments) that runs the entry as generated Python;
    else None."""
    order = _compiled_codes(codes[entry])
    if order is None:
        return None
    names = {code: i for i, code in enumerate(order)}  # the entry is last
    pushed = {ins[1] for code in order for ins in code.instrs if ins[0] == PUSH}
    called = {ins[1] for code in order for ins in code.instrs
              if ins[0] == CALL or ins[0] == TCALL} | {order[-1]}
    consts: dict = {}
    src = ["def make(limit, args):", "    cells = []", "    tape = []",
           "    top = limit - 2"]
    made = []
    for code in order:
        for record in (False, True):
            if code in (pushed if record else called):
                made.append(f"{'r' if record else 'f'}{names[code]}")
                src += ["    " + line for line in _source(code, names, consts, record)]
    src += ["    try:", f"        return f{len(order) - 1}(*args, 0, 1)",
            "    finally:  # no reference cycle outlives the run",
            f"        cells = tape = {' = '.join(made)} = None"]
    space = {"MARK": _MARK, "LIMIT": _limit_error,
             "IREvalError": IREvalError, "NON_TREE": _NON_TREE, **consts}
    try:
        exec(compile("\n".join(src), f"<ir_eval {entry}>", "exec"), space)
    except (SyntaxError, RecursionError):  # nesting too deep for Python
        return None
    return space["make"]


def _translation(prog: IRProgram) -> tuple:
    """(codes by function name, the compiled tier's maker or None), made on
    the program's first run, once `verify` has passed it, and kept on it."""
    if prog.translation is None:
        verify(prog)
        codes = _translate(prog)
        prog.translation = codes, _compile(codes, prog.entry)
    return prog.translation


def _evaluate(prog: IRProgram, x0: float, tree, depth_limit: int, compiled: bool):
    codes, make = _translation(prog)
    if depth_limit < 1:
        raise _limit_error(depth_limit)
    code = codes[prog.entry]
    args = [float(x0)] if code.nparams == 1 else [tree, float(x0)]
    if compiled and make is not None:
        try:
            return make(depth_limit, args)
        except RecursionError:  # its calls nest more frames than the caller has left
            pass
    return _run(code, args + list(code.blank), depth_limit)


def ir_eval(prog: IRProgram, x0: float, tree: TreeData | None = None,
            depth_limit: int = DEFAULT_DEPTH_LIMIT) -> float:
    """Execute the program entry on one real input (plus the runtime tree
    for tree-fold programs); returns the entry's result.  A program that
    loops or recurses runs as compiled Python, any other on the
    interpreter."""
    return _evaluate(prog, x0, tree, depth_limit, True)


def interpret(prog: IRProgram, x0: float, tree: TreeData | None = None,
              depth_limit: int = DEFAULT_DEPTH_LIMIT) -> float:
    """ir_eval on the interpreter alone: the reference the compiled tier
    must equal, bit for bit and error for error."""
    return _evaluate(prog, x0, tree, depth_limit, False)
