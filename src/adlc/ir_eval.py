"""Reference executor for the staged IR.

Both tiers run the `IRFunction`s they are given, with no second instruction
language between the IR and them.  The interpreter (`_run`) walks a
function's body statement by statement:

- an activation is a dict from the function's symbols to their values; a
  literal operand is its own value;
- a `Bind` calls its op's `OPS` function on its operands; a cell is an
  index into the run's list of cells;
- a `Cond` pushes the branch it takes onto the activation's stack of
  blocks, so nesting costs no Python stack; a statement is in tail
  position when it ends its block and every block below it on the stack;
- a non-tail call pushes a return frame (the caller's blocks, activation,
  steps and the call) onto an explicit stack, and a tail call (a `Jump`,
  or a plain `Call` in tail position) replaces the activation, so nesting
  (a tree fold's calls on the subtrees) costs no Python stack either;
- a valued call's results receive the (value, cell) that the callee
  returns with `RetReal`; any other return value is dropped;
- the tape is a list of records, tuples (function, captures...):
  `TapePush` appends one; an unwinding `Call` puts a mark on the tape
  before the call and, after it, pops and runs each record above the mark
  as a non-tail call, newest first, then pops the mark.

The depth limit, given per run, bounds the nesting depth and the length of
any one tail chain, where a jump counts as one tail call, so a runaway
staged loop stops with a diagnostic instead of spinning forever.  A record
the unwind runs is one level of nesting, and starts a chain of its own.  A
tree fold nests the entry, `fold` and one call per tree level, the empty
tree's included, so a tree of height h needs a limit of h + 3.

Every run first passes the program through `ir.verify`, which raises
`IRError` on an ill-formed program whether or not a run would reach the
fault, and keeps its verdict on the program, so no statement checks
anything.  A run raises only `IREvalError`: at the depth limit, or on a
tree operation on the empty tree.

A program that loops or recurses (some function jumps to itself, or the
call graph has a cycle, as a tree fold's `rec` calls itself) also gets a
compiled tier, made on its first `ir_eval` run and kept on it
(`IRProgram.compiled`): its functions become Python functions, compiled
once, that run the same statements in the same order, so it computes the
same bits and raises the same errors (see `_compile`).  Straight-line
programs run on the interpreter, which `interpret` runs on any program.
"""

from __future__ import annotations

from operator import length_hint

from .ir import (
    OPS, Bind, Call, CellAccum, CellNew, CellRead, CellSet, Cond, IRError, IRProgram,
    Jump, Return, RetReal, TapePush, callee, records, verify, walk,
)

DEFAULT_DEPTH_LIMIT = 100_000


class IREvalError(IRError):
    """An error that only a run can find: the depth limit, or a tree
    operation on the empty tree."""


_MARK = object()  # on the tape below the records an unwinding call pushed
_UNWIND = object()  # what a frame waits on while a record the unwind runs runs
_NON_TREE = "tree operation on a non-tree (empty tree?)"


def _limit_error(limit: int) -> IREvalError:
    return IREvalError(f"recursion depth limit exceeded ({limit})")


def _activation(fn, args) -> dict:
    env = {}
    for (p, _k), a in zip(fn.params, args):
        env[p] = a
    return env


def _run(prog: IRProgram, args: list, limit: int):
    """Run prog's entry on args; returns what it returns."""
    functions = prog.functions
    frames: list = []  # (blocks, env, steps, the call or _UNWIND) per caller
    cells: list = []
    tape: list = []
    top = limit - 2  # a non-tail call from depth len(frames) + 1
    fn = functions[prog.entry]
    blocks = [iter(fn.body)]  # the rest of each block the activation is in
    env = _activation(fn, args)
    get = env.get  # get(o, o): the value of a symbol, or a literal itself
    steps = 1  # calls in the current tail chain
    while True:
        for s in blocks[-1]:
            cls = type(s)
            if cls is CellRead:
                env[s.dest] = cells[env[s.cell]]
            elif cls is CellAccum:
                c, v = env[s.cell], s.value
                cells[c] = cells[c] + get(v, v)
            elif cls is Bind:
                # operands one by one: a star-call over a map costs several
                # times as much, on the statement the programs run most
                if len(s.args) == 2:
                    a, b = s.args
                    env[s.dest] = OPS[s.op][1](get(a, a), get(b, b))
                else:
                    a = s.args[0]
                    try:
                        env[s.dest] = OPS[s.op][1](get(a, a))
                    except AttributeError:  # only a tree op reads attributes
                        raise IREvalError(_NON_TREE) from None
            elif cls is CellNew:
                env[s.dest], v = len(cells), s.init
                cells.append(get(v, v))
            elif cls is CellSet:
                v = s.value
                cells[env[s.cell]] = get(v, v)
            elif cls is TapePush:
                tape.append((functions[s.fn], *[get(o, o) for o in s.captures]))
            elif cls is Cond:
                blocks.append(iter(s.then if get(s.guard, s.guard) else s.orelse))
                break
            elif cls is Call or cls is Jump:
                args = [get(o, o) for o in s.args]
                if cls is Jump or not (s.unwind or s.results or any(map(length_hint, blocks))):
                    steps += 1  # a tail call
                    if steps > limit:
                        raise _limit_error(limit)
                else:
                    if len(frames) > top:
                        raise _limit_error(limit)
                    if s.unwind:
                        tape.append(_MARK)
                    frames.append((blocks, env, steps, s))
                    steps = 1
                fn = functions[s.target]
                blocks, env = [iter(fn.body)], _activation(fn, args)
                get = env.get
                break
            elif cls is Return:
                if not frames:
                    return get(s.value, s.value)
                # nothing follows s in its block; without the blocks around
                # it, the function ends when that block does, just below
                del blocks[1:]
            else:  # RetReal: a valued call receives the pair, any other drops it
                _, caller, _, waiting = frames[-1]
                if waiting is not _UNWIND:
                    caller.update(zip(waiting.results, (get(s.value, s.value), env[s.cell])))
                del blocks[1:]
        else:  # the block ends
            blocks.pop()
            if blocks:
                continue
            # and so does the function: back in its caller, the call ends,
            # or its unwind runs the next record or ends at the mark
            blocks, env, steps, waiting = frames.pop()
            get = env.get
            if waiting is not _UNWIND and not waiting.unwind:
                continue
            rec = tape.pop()
            if rec is not _MARK:
                frames.append((blocks, env, steps, _UNWIND))
                fn = rec[0]
                blocks, env, steps = [iter(fn.body)], _activation(fn, rec[1:]), 1
                get = env.get


# ---------------------------------------------------------------------------
# The compiled tier.  A program that loops or recurses, one in which some
# function jumps to itself or the call graph has a cycle (a fold's `rec`,
# `nested-loops`' outer loop through its inner one), runs many statements
# per compile(), so it earns that cost: each function becomes a Python
# function, all compiled once and kept on the program (Rompf & Odersky,
# "Lightweight Modular Staging", GPCE 2010).  Straight-line programs never
# do, and stay on _run.  The generated code runs the IR's statements in
# their order on the same floats: a symbol is a local, a literal a named
# constant, a cell an index into the run's list of cells, a `Cond` an
# if/else, a self-jump reassigns the parameters and continues a `while
# True`, a call is a Python call (so each call nests one Python frame: the
# calls outside the call graph's cycles nest at most MAX_CHAIN, and a run
# that meets the caller's recursion limit runs again on _run), a (value,
# cell) return returns a tuple that the valued call unpacks, a record is a
# tuple of a function and the captures it unpacks, and the depth limit is
# counted as _run counts it, in the same places.  A run's functions refer
# to each other and to its tape, so it drops them when it ends: a recursive
# one would otherwise keep the run's cells and tape alive in a reference
# cycle until the collector ran.

MAX_CHAIN = 64  # calls nested outside the call cycles in one run, at most
_INFIX = {"add": "+", "mul": "*", "greater": ">"}
_LIMIT = "raise LIMIT(limit)"


def _callees(name: str, fn) -> list:
    """What fn's statements call, jump to or push as a record, in order; a
    jump to fn itself, which loops in place, as None."""
    return [None if type(s) is Jump and t == name else t
            for s in walk(fn.body) for t in [callee(s)] if t is not None]


def _compiled_functions(prog: IRProgram) -> list | None:
    """The names of the functions the entry reaches, callees first and the
    entry last, when the program they make loops or recurses and nests
    chains of at most MAX_CHAIN calls outside its call cycles; else None.
    Tarjan's strongly connected components, iterative, so a long chain
    costs no Python stack; a component is finished after every one it
    calls."""
    entry = prog.entry
    calls = {entry: _callees(entry, prog.functions[entry])}
    number = {entry: 0}  # name -> the order the search reached it in
    low = {entry: 0}  # the least number its search reaches on the stack
    chain: dict = {}  # name -> the longest chain of calls out of its component
    stack = [entry]  # the functions of the components not finished yet
    order: list = []
    cycles = False
    work = [(entry, iter(calls[entry]))]
    while work:
        name, rest = work[-1]
        for t in rest:
            if t is None:
                cycles = True
            elif t not in number:
                number[t] = low[t] = len(number)
                calls[t] = _callees(t, prog.functions[t])
                stack.append(t)
                work.append((t, iter(calls[t])))
                break
            elif t not in chain:  # on the stack: a cycle closes
                low[name] = min(low[name], number[t])
        else:
            work.pop()
            if work:
                caller = work[-1][0]
                low[caller] = min(low[caller], low[name])
            if low[name] < number[name]:
                continue
            members = [stack.pop()]  # name's component, name last
            while members[-1] != name:
                members.append(stack.pop())
            inside = set(members)
            n = 0
            for m in members:
                for t in calls[m]:
                    if t is None or t in inside:
                        cycles = True
                    else:
                        n = max(n, chain[t] + 1)
            if n > MAX_CHAIN:
                return None
            chain.update(dict.fromkeys(members, n))
            order += members
    return order if cycles else None


def _source(name: str, fn, names: dict, consts: dict, record: bool) -> list:
    """The Python lines of one function, at indent 0: f<i> of (parameters...,
    depth, steps), or, for a record, r<i> of (record, depth), which unpacks
    the record's captures into the parameters."""
    local: dict = {}  # symbol -> its Python local

    def val(o) -> str:
        if type(o) is str:
            return local.setdefault(o, f"a{len(local)}")
        k = f"k{len(consts)}"  # bound by name, so every bit of the literal stays
        consts[k] = o
        return k

    def call(s, depth: str, steps: str) -> str:
        return f"f{names[s.target]}({''.join(val(o) + ', ' for o in s.args)}{depth}, {steps})"

    def lines(s, tail: bool) -> list:
        cls = type(s)
        if cls is Bind:
            args = [val(o) for o in s.args]
            if s.op in _INFIX:
                return [f"{val(s.dest)} = {args[0]} {_INFIX[s.op]} {args[1]}"]
            k = f"o{len(consts)}"  # only a tree op reads attributes
            consts[k] = OPS[s.op][1]
            return ["try:", f"    {val(s.dest)} = {k}({', '.join(args)})",
                    "except AttributeError:", "    raise IREvalError(NON_TREE) from None"]
        if cls is CellNew:
            return [f"{val(s.dest)} = len(cells)", f"cells.append({val(s.init)})"]
        if cls is CellRead:
            return [f"{val(s.dest)} = cells[{val(s.cell)}]"]
        if cls is CellAccum:
            return [f"cells[{val(s.cell)}] += {val(s.value)}"]
        if cls is CellSet:
            return [f"cells[{val(s.cell)}] = {val(s.value)}"]
        if cls is TapePush:
            caps = "".join(val(o) + ", " for o in s.captures)
            return [f"tape.append((r{names[s.fn]}, {caps}))"]
        if cls is Return:
            return [f"return {val(s.value)}"]
        if cls is RetReal:
            return [f"return {val(s.value)}, {val(s.cell)}"]
        out = ["steps += 1", f"if steps > limit: {_LIMIT}"]
        if cls is Jump and s.target == name:  # reads every argument, then assigns
            if s.args:
                out.append(", ".join(params) + " = " + ", ".join(map(val, s.args)))
            return out + ["continue"]
        if cls is Jump or (tail and not s.unwind and not s.results):
            return out + [f"return {call(s, 'depth', 'steps')}"]
        got = f"{val(s.results[0])}, {val(s.results[1])} = " if s.results else ""
        out = [f"if depth > top: {_LIMIT}", got + call(s, "depth + 1", "1")]
        if not s.unwind:
            return out
        # mark the tape, then run the records above the mark, newest first
        return ["tape.append(MARK)", *out, "rec = tape.pop()", "while rec is not MARK:",
                "    rec[0](rec, depth + 1)", "    rec = tape.pop()"]

    i = names[name]
    params = [val(p) for p, _k in fn.params]
    if record:
        out = [f"def r{i}(rec, depth):", "    steps = 1"]
        if params:
            out.append(f"    _, {', '.join(params)} = rec")
    else:
        out = [f"def f{i}({''.join(p + ', ' for p in params)}depth, steps):"]
    loops = None in _callees(name, fn)
    if loops:
        out.append("    while True:")
    # (indent, in tail position, a statement or a line of its own)
    work: list = []

    def block(stmts: list, indent: int, tail: bool) -> None:
        if not stmts:
            work.append((indent, False, "pass"))
        last = len(stmts) - 1
        work.extend((indent, tail and j == last, stmts[j]) for j in range(last, -1, -1))

    block(fn.body, 1 + loops, True)
    while work:
        indent, tail, s = work.pop()
        pad = "    " * indent
        if type(s) is str:
            out.append(pad + s)
        elif type(s) is Cond:
            out.append(f"{pad}if {val(s.guard)}:")
            if s.orelse:
                block(s.orelse, indent + 1, tail)
                work.append((indent, False, "else:"))
            block(s.then, indent + 1, tail)
        else:
            out += [pad + line for line in lines(s, tail)]
    if loops:  # the end of the body leaves the loop
        out.append("        return")
    return out


def _compile(prog: IRProgram):
    """For a program that loops or recurses, a function of (the depth
    limit, the entry's arguments) that runs the entry as generated Python;
    else None."""
    order = _compiled_functions(prog)
    if order is None:
        return None
    names = {name: i for i, name in enumerate(order)}  # the entry is last
    pushed = records(prog.functions)
    # f<i> for the entry and what a Call or Jump names, r<i> for a record
    called = {prog.entry} | {s.target for name in order for s in walk(prog.functions[name].body)
                             if type(s) in (Call, Jump)}
    consts: dict = {}
    src = ["def make(limit, args):", "    cells = []", "    tape = []",
           "    top = limit - 2"]
    made = []
    for name in order:
        for record in (False, True):
            if name in (pushed if record else called):
                made.append(f"{'r' if record else 'f'}{names[name]}")
                src += ["    " + line
                        for line in _source(name, prog.functions[name], names, consts, record)]
    src += ["    try:", f"        return f{len(order) - 1}(*args, 0, 1)",
            "    finally:  # no reference cycle outlives the run",
            f"        cells = tape = {' = '.join(made)} = None"]
    space = {"MARK": _MARK, "LIMIT": _limit_error,
             "IREvalError": IREvalError, "NON_TREE": _NON_TREE, **consts}
    try:
        exec(compile("\n".join(src), f"<ir_eval {prog.entry}>", "exec"), space)
    except (SyntaxError, RecursionError):  # nesting too deep for Python
        return None
    return space["make"]


def _compiled_tier(prog: IRProgram):
    """The compiled tier's maker, or False when prog has none: made on the
    program's first ir_eval run, once `verify` has passed it, and kept on
    it."""
    if prog.compiled is None:
        verify(prog)
        prog.compiled = _compile(prog) or False
    return prog.compiled


def _evaluate(prog: IRProgram, x0: float, tree, depth_limit: int, compiled: bool):
    verify(prog)
    if depth_limit < 1:
        raise _limit_error(depth_limit)
    args = [float(x0)] if len(prog.functions[prog.entry].params) == 1 else [tree, float(x0)]
    make = compiled and _compiled_tier(prog)
    if make:
        try:
            return make(depth_limit, args)
        except RecursionError:  # its calls nest more frames than the caller has left
            pass
    return _run(prog, args, depth_limit)


def ir_eval(prog: IRProgram, x0: float, tree=None,
            depth_limit: int = DEFAULT_DEPTH_LIMIT) -> float:
    """Execute the program entry on one real input (plus the runtime tree
    for tree-fold programs); returns the entry's result.  A program that
    loops or recurses runs as compiled Python, any other on the
    interpreter."""
    return _evaluate(prog, x0, tree, depth_limit, True)


def interpret(prog: IRProgram, x0: float, tree=None,
              depth_limit: int = DEFAULT_DEPTH_LIMIT) -> float:
    """ir_eval on the interpreter alone: the reference the compiled tier
    must equal, bit for bit and error for error."""
    return _evaluate(prog, x0, tree, depth_limit, False)
