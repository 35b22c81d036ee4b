"""Semantics-preserving cleanup of staged IR: constant folding, copy
propagation, cell forwarding, dead code elimination.

Cell forwarding (turning set/accumulate/read sequences into pure binds) runs
only in straight-line functions on cells that never escape, where the whole
lifetime is visible; everything else gets the conservative treatment.
`_Folder.rewrite` holds every rewrite, for a Bind and for an accumulate
into a forwarded cell alike, so -0.0 accumulated into a 0.0 cell gives
0.0, as running it does.  Both passes walk blocks from explicit stacks.
Of the algebraic rules, x+x = 2*x is exact; 0+x, 0*x and 1*x are not at
every input.  At x = inf, -inf and nan the staged gradient of
(lam x (* 0.0 (* x x))) is nan unoptimized and 0.0 optimized, and at
x = -0.0 that of (lam x (* (* x x) (* x x))) is 0.0 unoptimized and -0.0
optimized.  Making these folds bit-exact is ROADMAP item 4.
"""

from __future__ import annotations

from dataclasses import replace

from .ir import (
    OPS, Bind, Call, CellAccum, CellNew, CellRead, CellSet, Cond, IRFunction, IRProgram,
    Jump, escaping, map_operands, reachable, uses, verify, walk,
)

_UNKNOWN = object()


def _has_control(block) -> bool:
    return any(isinstance(s, (Cond, Call, Jump)) for s in block)


def _escaping_syms(prog: IRProgram) -> set:
    return set().union(*map(escaping, prog.functions.values()))


def _read_cells(prog: IRProgram) -> set:
    return _escaping_syms(prog) | {s.cell for fn in prog.functions.values()
                                   for s in walk(fn.body) if isinstance(s, CellRead)}


def _forget(cells: dict) -> None:
    """Make the value of every non-local cell unknown: a Cond's branch or a
    callee may have written it."""
    for c, (_, local) in cells.items():
        if not local:
            cells[c] = (_UNKNOWN, False)


class _Folder:
    def __init__(self, fn: IRFunction, escaping: set, counter: list):
        self.env: dict = {}  # folded symbol -> its value, stored resolved
        self.counter = counter
        self.straight = not _has_control(fn.body)
        self.escaping = escaping
        self.changed = False

    def resolve(self, o):
        return self.env.get(o, o)

    def fresh(self) -> str:
        self.counter[0] += 1
        return f"o{self.counter[0]}"

    def fold(self, body: list) -> list:
        """The folded body, walked from a stack of frames (the rest of a
        block, its output, its cells), so nesting costs no Python stack.  A
        Cond on a literal guard continues in place; each branch of any
        other folds from a copy of the cells, the then-branch first."""
        top: list = []
        stack = [(iter(body), top, {})]
        while stack:
            frame = rest, out, cells = stack.pop()
            for s in rest:
                cls = type(s)
                if cls is Bind:
                    v = self.rewrite(s.op, tuple(map(self.resolve, s.args)), out, s.dest)
                    if v is not s.dest:
                        self.env[s.dest] = v
                elif cls is CellNew:
                    init = self.resolve(s.init)
                    local = self.straight and s.dest not in self.escaping
                    cells[s.dest] = (init, local)
                    if local:
                        self.changed = True
                    else:
                        out.append(CellNew(s.dest, init))
                elif cls is CellSet:
                    v = self.resolve(s.value)
                    state = cells.get(s.cell)
                    if state is not None and state[1]:
                        cells[s.cell] = (v, True)
                        self.changed = True
                    else:
                        cells[s.cell] = (v, False)
                        out.append(map_operands(s, self.resolve))
                elif cls is CellAccum:
                    v = self.resolve(s.value)
                    state = cells.get(s.cell)
                    if state is not None and state[1]:
                        cells[s.cell] = (self.rewrite("add", (state[0], v), out), True)
                        self.changed = True
                    else:
                        if state is not None:
                            cells[s.cell] = (_UNKNOWN, False)
                        out.append(map_operands(s, self.resolve))
                elif cls is CellRead:
                    state = cells.get(s.cell)
                    if state is not None and state[0] is not _UNKNOWN:
                        self.env[s.dest] = state[0]
                        self.changed = True
                    else:
                        out.append(map_operands(s, self.resolve))
                elif cls is Cond:
                    stack.append(frame)
                    g = self.resolve(s.guard)
                    if isinstance(g, bool):
                        stack.append((iter(s.then if g else s.orelse), out, cells))
                        self.changed = True
                    else:
                        then, orelse = [], []
                        stack.append((iter(s.orelse), orelse, dict(cells)))
                        stack.append((iter(s.then), then, dict(cells)))
                        _forget(cells)
                        out.append(Cond(g, then, orelse))
                    break
                else:
                    if cls is Call:
                        _forget(cells)
                    out.append(map_operands(s, self.resolve))
        return top

    def rewrite(self, op: str, args: tuple, out: list, dest=None):
        """The value of op on the resolved args, and the one home of the
        rewrites: literals fold through OPS, 0+x, x+0, 1*x and x*1 give x,
        0*x gives 0 and x+x becomes 2*x.  When it cannot fold, a Bind of
        dest (a fresh symbol if None) goes to out, and the value is its
        symbol."""
        a, b = args[0], args[-1]  # every op takes one or two operands
        if isinstance(a, float) and isinstance(b, float):
            v = OPS[op][1](*args)
        elif op == "add" and a == 0.0 and isinstance(a, float):
            v = b
        elif op == "add" and b == 0.0 and isinstance(b, float):
            v = a
        elif op == "mul" and a == 1.0 and isinstance(a, float):
            v = b
        elif op == "mul" and b == 1.0 and isinstance(b, float):
            v = a
        elif op == "mul" and 0.0 in [x for x in args if isinstance(x, float)]:
            v = 0.0
        else:
            v = self.fresh() if dest is None else dest
            if op == "add" and a == b and isinstance(a, str):
                out.append(Bind(v, "mul", (2.0, a)))
                self.changed = True
            else:
                out.append(Bind(v, op, args))
            return v
        self.changed = True
        return v


def _fold(prog: IRProgram, counter: list) -> bool:
    escaping = _escaping_syms(prog)
    changed = False
    for fn in prog.functions.values():
        f = _Folder(fn, escaping, counter)
        fn.body = f.fold(fn.body)
        changed |= f.changed
    return changed


def _dce_function(fn: IRFunction, read_cells: set) -> bool:
    """Drop fn's dead statements, each block walked backwards from a stack
    of frames (the rest of a block, its output reversed, the symbols live
    after it).  Below a Cond's two branch frames, a pending entry keeps the
    Cond when a branch kept a statement.  Whether any went."""
    changed = False
    # writes through cell parameters always matter: the caller's reads are
    # not visible from here
    param_cells = {p for p, k in fn.params if k == "cell"}
    body: list = []
    stack: list = [(reversed(fn.body), body, set())]
    while stack:
        frame = rest, out, live = stack.pop()
        for s in rest:
            cls = type(s)
            if cls is Bind or cls is CellRead:
                keep = s.dest in live
            elif cls is CellNew:
                keep = s.dest in read_cells or s.dest in live
            elif cls in (CellAccum, CellSet):
                keep = s.cell in read_cells or s.cell in param_cells or s.cell in live
            elif cls is Cond:
                then, orelse, then_live, orelse_live = [], [], set(live), set(live)
                pending = iter([(s.guard, then, orelse, then_live, orelse_live)])
                stack += [frame, (pending, out, live), (reversed(s.orelse), orelse, orelse_live),
                          (reversed(s.then), then, then_live)]
                break
            elif cls is tuple:  # a pending Cond, its branches walked
                guard, then, orelse, then_live, orelse_live = s
                live |= then_live | orelse_live
                keep = bool(then or orelse)
                s = Cond(guard, then[::-1], orelse[::-1])
            else:
                keep = True
            if not keep:
                changed = True
                continue
            for o in uses(s):
                if isinstance(o, str):
                    live.add(o)
            out.append(s)
    fn.body = body[::-1]
    return changed


def ir_optimize(prog: IRProgram) -> IRProgram:
    """Return an equivalent program with constants folded, copies
    propagated, dead binds and dead cells removed.  The input must pass
    `verify`, which raises `IRError` on any other.  The passes only
    reassign function bodies and the function table, never a statement, so
    copying those shells leaves the input intact."""
    verify(prog)
    prog = replace(prog, functions={n: replace(f, params=list(f.params))
                                    for n, f in prog.functions.items()})
    counter = [0]
    for _ in range(12):
        changed = _fold(prog, counter)
        read = _read_cells(prog)
        for fn in prog.functions.values():
            changed |= _dce_function(fn, read)
        reach = reachable(prog.functions, [prog.entry])
        if len(reach) < len(prog.functions):
            prog.functions = {n: f for n, f in prog.functions.items() if n in reach}
            changed = True
        if not changed:
            break
    return prog
