"""Semantics-preserving cleanup of staged IR: constant folding, copy
propagation, cell forwarding, dead code elimination.

Cell forwarding (turning set/accumulate/read sequences into pure binds) runs
only in straight-line functions on cells that never escape, where the whole
lifetime is visible; everything else gets the conservative treatment.
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


class _Folder:
    def __init__(self, fn: IRFunction, escaping: set, counter: list):
        self.env: dict = {}
        self.counter = counter
        self.straight = not _has_control(fn.body)
        self.escaping = escaping
        self.changed = False

    def resolve(self, o):
        while isinstance(o, str) and o in self.env:
            o = self.env[o]
        return o

    def fresh(self) -> str:
        self.counter[0] += 1
        return f"o{self.counter[0]}"

    def fold_block(self, block: list, cells: dict) -> list:
        out: list = []
        for s in block:
            cls = type(s)
            if cls is Bind:
                self._bind(s, out)
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
                    cur = state[0]
                    if cur == 0.0 and isinstance(cur, float):
                        cells[s.cell] = (v, True)
                    else:
                        summed = self._emit_add(cur, v, out)
                        cells[s.cell] = (summed, True)
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
                g = self.resolve(s.guard)
                if isinstance(g, bool):
                    out.extend(self.fold_block(s.then if g else s.orelse, cells))
                    self.changed = True
                    continue
                then = self.fold_block(s.then, dict(cells))
                orelse = self.fold_block(s.orelse, dict(cells))
                for c in cells:
                    if not cells[c][1]:
                        cells[c] = (_UNKNOWN, False)
                out.append(Cond(g, then, orelse))
            else:
                if cls is Call:
                    for c in cells:
                        if not cells[c][1]:
                            cells[c] = (_UNKNOWN, False)
                out.append(map_operands(s, self.resolve))
        return out

    def _emit_add(self, a, b, out: list):
        if isinstance(a, float) and isinstance(b, float):
            return a + b
        if isinstance(a, float) and a == 0.0:
            return b
        if isinstance(b, float) and b == 0.0:
            return a
        if a == b:
            d = self.fresh()
            out.append(Bind(d, "mul", (2.0, a)))
            return d
        d = self.fresh()
        out.append(Bind(d, "add", (a, b)))
        return d

    def _bind(self, s: Bind, out: list) -> None:
        args = tuple(self.resolve(a) for a in s.args)
        op = s.op
        if all(isinstance(a, float) for a in args):
            self.env[s.dest] = OPS[op][1](*args)
        elif op == "add" and args[0] == 0.0 and isinstance(args[0], float):
            self.env[s.dest] = args[1]
        elif op == "add" and args[1] == 0.0 and isinstance(args[1], float):
            self.env[s.dest] = args[0]
        elif op == "add" and args[0] == args[1] and isinstance(args[0], str):
            out.append(Bind(s.dest, "mul", (2.0, args[0])))
            self.changed = True
            return
        elif op == "mul" and args[0] == 1.0 and isinstance(args[0], float):
            self.env[s.dest] = args[1]
        elif op == "mul" and args[1] == 1.0 and isinstance(args[1], float):
            self.env[s.dest] = args[0]
        elif op == "mul" and 0.0 in [a for a in args if isinstance(a, float)]:
            self.env[s.dest] = 0.0
        else:
            out.append(Bind(s.dest, op, args))
            return
        self.changed = True


def _fold(prog: IRProgram, counter: list) -> bool:
    escaping = _escaping_syms(prog)
    changed = False
    for fn in prog.functions.values():
        f = _Folder(fn, escaping, counter)
        fn.body = f.fold_block(fn.body, {})
        changed |= f.changed
    return changed


def _dce_function(fn: IRFunction, read_cells: set) -> bool:
    changed = False
    # writes through cell parameters always matter: the caller's reads are
    # not visible from here
    param_cells = {p for p, k in fn.params if k == "cell"}

    def walk(block: list, live: set) -> list:
        nonlocal changed
        out: list = []
        for s in reversed(block):
            cls = type(s)
            keep = True
            if cls is Bind or cls is CellRead:
                keep = s.dest in live
            elif cls is CellNew:
                keep = s.dest in read_cells or s.dest in live
            elif cls in (CellAccum, CellSet):
                keep = s.cell in read_cells or s.cell in param_cells or s.cell in live
            elif cls is Cond:
                then_live, orelse_live = set(live), set(live)
                then = walk(s.then, then_live)
                orelse = walk(s.orelse, orelse_live)
                live |= then_live | orelse_live
                if not then and not orelse:
                    keep = False
                else:
                    s = Cond(s.guard, then, orelse)
            if not keep:
                changed = True
                continue
            for o in uses(s):
                if isinstance(o, str):
                    live.add(o)
            out.append(s)
        out.reverse()
        return out

    fn.body = walk(fn.body, set())
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
