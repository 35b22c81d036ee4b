"""Reference executor for the staged IR.

Calls in tail position reuse the current frame, so staged loops and the
backward-chain unwind run in constant Python stack.  The depth limit bounds
the nesting depth and the length of any one tail chain, so a runaway staged
loop stops with a diagnostic instead of spinning forever.
"""

from __future__ import annotations

from .staging import (
    OPS, TAPE_END, TAPE_SLOT, Bind, Call, CellAccum, CellNew, CellRead,
    CellSet, ClosureNew, Cond, IRProgram, Return, SlotRead, SlotSet,
    StagingError, TreeData,
)

DEFAULT_DEPTH_LIMIT = 100_000


class IREvalError(StagingError):
    pass


class _Closure:
    __slots__ = ("fn", "captures")

    def __init__(self, fn: str, captures: tuple):
        self.fn = fn
        self.captures = captures


class _Machine:
    def __init__(self, prog: IRProgram, depth_limit: int):
        self.prog = prog
        self.cells: list = []
        self.slots = ({TAPE_SLOT: _Closure(TAPE_END, ())}
                      if TAPE_END in prog.functions else {})
        self.depth = 0
        self.depth_limit = depth_limit

    def operand(self, env: dict, o):
        if isinstance(o, str):
            try:
                return env[o]
            except KeyError:
                raise IREvalError(f"undefined symbol {o!r}") from None
        return o

    def new_cell(self, v) -> int:
        self.cells.append(v)
        return len(self.cells) - 1

    def call(self, fn_name: str, args: tuple):
        """Run a function; tail calls loop instead of recursing.  The limit
        bounds both the nesting depth and the length of one tail chain."""
        self.depth += 1
        steps = 0
        try:
            while True:
                steps += 1
                if steps > self.depth_limit or self.depth > self.depth_limit:
                    raise IREvalError(
                        f"recursion depth limit exceeded ({self.depth_limit})")
                fn = self.prog.functions.get(fn_name)
                if fn is None:
                    raise IREvalError(f"unknown function {fn_name!r}")
                if len(fn.params) != len(args):
                    raise IREvalError(
                        f"{fn_name} expects {len(fn.params)} args, got {len(args)}")
                env = {p: a for (p, _k), a in zip(fn.params, args)}
                out = self.block(env, fn.body, tail=True)
                if isinstance(out, tuple) and out and out[0] is _TAIL:
                    _, fn_name, args = out
                    continue
                return out
        finally:
            self.depth -= 1

    def block(self, env: dict, stmts: list, tail: bool):
        """Execute statements; returns a Return value, a tail-call marker,
        or None for falling off the end."""
        n = len(stmts)
        for i, s in enumerate(stmts):
            last = tail and i == n - 1
            cls = type(s)
            if cls is Bind:
                env[s.dest] = self.prim(env, s.op, s.args)
            elif cls is CellNew:
                env[s.dest] = self.new_cell(self.operand(env, s.init))
            elif cls is CellRead:
                env[s.dest] = self.cells[self.operand(env, s.cell)]
            elif cls is CellAccum:
                c = self.operand(env, s.cell)
                self.cells[c] = self.cells[c] + self.operand(env, s.value)
            elif cls is CellSet:
                self.cells[self.operand(env, s.cell)] = self.operand(env, s.value)
            elif cls is ClosureNew:
                env[s.dest] = _Closure(
                    s.fn, tuple(self.operand(env, c) for c in s.captures))
            elif cls is Call:
                if s.indirect:
                    clo = self.operand(env, s.target)
                    if not isinstance(clo, _Closure):
                        raise IREvalError(f"calling a non-closure {s.target!r}")
                    fn_name = clo.fn
                    args = tuple(self.operand(env, a) for a in s.args) + clo.captures
                else:
                    fn_name = s.target
                    args = tuple(self.operand(env, a) for a in s.args)
                if last:
                    return (_TAIL, fn_name, args)
                self.call(fn_name, args)
            elif cls is SlotRead:
                env[s.dest] = self.slots[s.slot]
            elif cls is SlotSet:
                self.slots[s.slot] = self.operand(env, s.value)
            elif cls is Cond:
                g = self.operand(env, s.guard)
                out = self.block(env, s.then if g else s.orelse, tail=last)
                if out is not None:
                    return out
            elif cls is Return:
                return (_RET, self.operand(env, s.value))
            else:
                raise IREvalError(f"unknown statement {s!r}")
        return None

    def prim(self, env: dict, op: str, args: tuple):
        a = [self.operand(env, x) for x in args]
        try:
            return OPS[op][1](*a)
        except KeyError:  # no op function raises one
            raise IREvalError(f"unknown operation {op!r}") from None
        except AttributeError:  # only a tree op reads attributes
            raise IREvalError("tree operation on a non-tree (empty tree?)") from None


_TAIL = object()
_RET = object()


def ir_eval(prog: IRProgram, x0: float, tree: TreeData | None = None,
            depth_limit: int = DEFAULT_DEPTH_LIMIT) -> float:
    """Execute the program entry on one real input (plus the runtime tree
    for tree-fold programs); returns the entry's result."""
    m = _Machine(prog, depth_limit)
    entry = prog.functions[prog.entry]
    kinds = [k for _, k in entry.params]
    if kinds and kinds[0] == "tree":
        args: tuple = (tree, float(x0))
    else:
        args = (float(x0),)
    if len(args) != len(entry.params):
        raise IREvalError("entry arity mismatch")
    out = m.call(prog.entry, args)
    if not (isinstance(out, tuple) and out and out[0] is _RET):
        raise IREvalError("entry did not return a value")
    v = out[1]
    if not isinstance(v, float):
        raise IREvalError(f"entry returned a non-real: {v!r}")
    return v
