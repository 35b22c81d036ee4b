"""Deterministic C-like text from staged IR.

One function per IR function; adjoint cells become double variables passed
by reference.  A staged loop is a `for (;;)` whose `Jump`s to itself
reassign the parameters and `continue` (a cell parameter is rebound
through a pointer, `d_at` for `d`), and its backward segments are records
on the tape, a growable array of (segment tag, captures) in the prelude.  An
unwinding call site saves `tape_now()`, calls the loop and runs
`tape_unwind`, a loop that pops the records down to the mark and switches
on the tag.  Cells that a record captures, or that leave their frame, in a
function the loop reaches live in a chunked arena (`tape_cell`), so their
addresses hold until the unwind, which gives back the cells made since the
mark; the entry frees the tape (one free) and the arena when it returns.  So
the loop, its unwind and its release never recurse.

A tree fold's function returns a `real`, a value and a pointer to its
adjoint cell (`RetReal`); a valued call binds the two, and the received
cell is used through its pointer, as arena cells are.  The fold nests one
C++ call per tree level, and its backward work runs from the tape.

The preludes need no standard header and appear only in programs that use
them.  Recursive functions are declared up front.  Output is stable across
runs: two-space indent, at most MAX_INDENT levels deep, LF line endings.

`emit_c` runs `ir.verify` on its input, which raises `IRError` on any
program it could not emit, and takes each function's return type from it.
"""

from __future__ import annotations

from .ir import (
    OPS, REAL, Bind, Call, CellAccum, CellNew, CellRead, CellSet, Cond, IRFunction,
    IRProgram, Jump, RetReal, Return, TapePush, escaping, records, unwound, verify, walk,
)
from .syntax import fmt_float

# the C type per symbol kind, and per return kind
_TYPES = {"val": "double", "cell": "double&", "tree": "Tree", "bool": "bool"}
_RETURNS = {"val": "double", REAL: "real", None: "void"}
_REAL = "struct real { double x; double* d; };\n"
MAX_INDENT = 32  # levels: deeper Conds print at this indent, so text grows linearly

# The record array grows by doubling; the arena grows by 4096-cell chunks
# that never move.  g++ and clang know the __builtin_ allocation functions
# without a header.
_TAPE_PRELUDE = """\
union tape_word { double v; double* c; };
struct tape_rec { int seg; tape_word w[%d]; };
struct tape_mark { long recs, cells; };
struct tape_state {
  tape_rec* recs; long n, cap;
  double** chunks; long cells, nchunks, chunk_cap;
};
static tape_state tape;
static tape_rec& tape_push(int seg) {
  if (tape.n == tape.cap) {
    tape.cap = tape.cap ? 2 * tape.cap : 64;
    tape.recs = (tape_rec*)__builtin_realloc(tape.recs, tape.cap * sizeof(tape_rec));
    if (!tape.recs) __builtin_abort();
  }
  tape_rec& r = tape.recs[tape.n++];
  r.seg = seg;
  return r;
}
static double* tape_cell(double v) {
  if (tape.cells == tape.nchunks << 12) {
    if (tape.nchunks == tape.chunk_cap) {
      tape.chunk_cap = tape.chunk_cap ? 2 * tape.chunk_cap : 8;
      tape.chunks = (double**)__builtin_realloc(tape.chunks, tape.chunk_cap * sizeof(double*));
      if (!tape.chunks) __builtin_abort();
    }
    tape.chunks[tape.nchunks] = (double*)__builtin_malloc(sizeof(double) << 12);
    if (!tape.chunks[tape.nchunks++]) __builtin_abort();
  }
  double* c = &tape.chunks[tape.cells >> 12][tape.cells & 4095];
  ++tape.cells;
  *c = v;
  return c;
}
static tape_mark tape_now() { return tape_mark{tape.n, tape.cells}; }
static void tape_free() {
  __builtin_free(tape.recs);
  for (long i = 0; i < tape.nchunks; ++i) __builtin_free(tape.chunks[i]);
  __builtin_free(tape.chunks);
  tape = tape_state{};
}
"""


class _Emitter:
    def __init__(self, prog: IRProgram):
        self.prog = prog
        # per function: the cells it holds by pointer, those it receives
        # from a call and, between a tape mark and its unwind, those it
        # creates that escape (emitted in the tape's arena)
        self.pointers: dict[str, set] = {}
        self.segments = records(prog.functions)  # record function -> tag
        self.uses_tape = bool(self.segments)
        self.rets = {n: _RETURNS[k] for n, k in verify(prog).items()}
        self._analyze()

    def _analyze(self) -> None:
        in_tape = unwound(self.prog.functions)
        for fn in self.prog.functions.values():
            local, received = set(), set()
            for s in walk(fn.body):
                match s:
                    case CellNew(dest, _):
                        local.add(dest)
                    case Call(_, _, unwind, results):
                        self.uses_tape |= unwind
                        if results:
                            received.add(results[1])
            arena = local & escaping(fn) if fn.name in in_tape else set()
            self.pointers[fn.name] = arena | received

    def signature(self, fn: IRFunction, ret: str) -> str:
        params = ", ".join(f"{_TYPES[k]} {p}" for p, k in fn.params)
        return f"{ret} {fn.name}({params})"

    def tape_unwind(self) -> list:
        """The unwind: pop records down to the mark, newest first, and run
        each; then give back the arena cells made since the mark."""
        out = ["static void tape_unwind(tape_mark m) {",
               "  while (tape.n > m.recs) {",
               "    tape_rec r = tape.recs[--tape.n];",
               "    switch (r.seg) {"]
        for f, tag in self.segments.items():
            args = ", ".join(f"*r.w[{i}].c" if k == "cell" else f"r.w[{i}].v"
                             for i, (_p, k) in enumerate(self.prog.functions[f].params))
            out.append(f"    case {tag}: {f}({args}); break;")
        out += ["    }", "  }", "  tape.cells = m.cells;", "}"]
        return out

    def emit_function(self, fn: IRFunction, ret: str, out: list) -> None:
        pointers = self.pointers[fn.name]
        jumps = any(type(s) is Jump and s.target == fn.name for s in walk(fn.body))
        # a loop's cell parameters, rebound through a pointer by its jumps
        rebound = {p: f"{p}_at" for p, k in fn.params if k == "cell"} if jumps else {}
        is_entry = fn.name == self.prog.entry

        def operand(o) -> str:
            if type(o) is bool:  # a guard that ir_optimize folded
                return "true" if o else "false"
            return o if isinstance(o, str) else fmt_float(o)

        def cell_lvalue(sym: str) -> str:
            if sym in rebound:
                return f"*{rebound[sym]}"
            return f"*{sym}" if sym in pointers else sym

        def cell_pointer(sym: str) -> str:
            if sym in rebound:
                return rebound[sym]
            return sym if sym in pointers else f"&{cell_lvalue(sym)}"

        def call_args(target: str, args) -> str:
            # a cell is passed where the callee expects double&
            return ", ".join(cell_lvalue(a) if k == "cell" else operand(a) for (_p, k), a
                             in zip(self.prog.functions[target].params, args))

        def rebind(args) -> list:
            """Assignments that give the parameters the jump's arguments,
            all read before any is written."""
            moves = [(p, k, a) for (p, k), a in zip(fn.params, args) if a != p]
            value = {p: (cell_pointer(a) if k == "cell" else operand(a))
                     for p, k, a in moves}
            lhs = {p: rebound.get(p, p) for p, _k, _a in moves}
            if not any(a in lhs for _p, _k, a in moves):
                return [f"{lhs[p]} = {value[p]};" for p, _k, _a in moves]
            temps = [f"{'double*' if k == 'cell' else _TYPES[k]} "
                     f"{p}_next = {value[p]};" for p, k, _a in moves]
            return temps + [f"{lhs[p]} = {p}_next;" for p, _k, _a in moves]

        def line(text: str) -> None:
            out.append(pad + text)

        out.append(self.signature(fn, ret) + " {")
        ends = [(0, "}")]
        if jumps:
            for p, ptr in rebound.items():
                out.append(f"  double* {ptr} = &{p};")
            out.append("  for (;;) {")
            ends += [(1, "}"), (2, "break;")]
        # (indent, a statement or a line of its own), the next last: a Cond
        # puts its branches here, so nesting costs no Python stack
        work = ends + [(1 + jumps, s) for s in reversed(fn.body)]
        while work:
            indent, s = work.pop()
            pad = "  " * min(indent, MAX_INDENT)
            match s:
                case str():
                    line(s)
                case Bind(dest, op, args):
                    kind, _, text, _ = OPS[op]
                    line(f"{_TYPES[kind]} {dest} = {text.format(*map(operand, args))};")
                case CellNew(dest, init):
                    if dest in pointers:
                        line(f"double* {dest} = tape_cell({operand(init)});")
                    else:
                        line(f"double {dest} = {operand(init)};")
                case CellRead(dest, cell):
                    line(f"double {dest} = {cell_lvalue(cell)};")
                case CellAccum(cell, value):
                    line(f"{cell_lvalue(cell)} += {operand(value)};")
                case CellSet(cell, value):
                    line(f"{cell_lvalue(cell)} = {operand(value)};")
                case Call(target, args, unwind, results):
                    text = f"{target}({call_args(target, args)});"
                    if results:
                        text = f"auto [{', '.join(results)}] = {text}"
                    if unwind:
                        text = (f"{{ tape_mark m_ = tape_now(); {text} "
                                f"tape_unwind(m_); }}")
                    line(text)
                case Jump(target, args) if target == fn.name:
                    for text in rebind(args):
                        line(text)
                    line("continue;")
                case Jump(target, args):
                    call = f"{target}({call_args(target, args)})"
                    line(f"{call}; return;" if ret == "void" else f"return {call};")
                case TapePush(f, caps):
                    words = [f"r_.w[{i}].{'c' if k == 'cell' else 'v'} = "
                             f"{cell_pointer(a) if k == 'cell' else operand(a)};"
                             for i, ((_p, k), a) in
                             enumerate(zip(self.prog.functions[f].params, caps))]
                    line(f"{{ tape_rec& r_ = tape_push({self.segments[f]}); "
                         f"{' '.join(words)} }}")
                case Cond(guard, then, orelse):
                    line(f"if ({operand(guard)}) {{")
                    work += [(indent, "}"), *((indent + 1, t) for t in reversed(orelse)),
                             (indent, "} else {"), *((indent + 1, t) for t in reversed(then))]
                case Return(value):
                    if is_entry and self.uses_tape:
                        line("tape_free();")
                    line(f"return {operand(value)};")
                case RetReal(value, cell):
                    line(f"return real{{{operand(value)}, {cell_pointer(cell)}}};")


def emit_c(prog: IRProgram) -> str:
    """Render the program as compilable C++-flavored source text."""
    em = _Emitter(prog)
    out: list[str] = []
    uses_tree = any(k == "tree" for fn in prog.functions.values()
                    for _, k in fn.params)
    if em.uses_tape:
        words = max((len(prog.functions[f].params) for f in em.segments), default=0)
        out.append(_TAPE_PRELUDE % max(words, 1))
    if "real" in em.rets.values():
        out.append(_REAL)
    if uses_tree:
        out.append("struct Tree {")
        out.append("  bool notEmpty; double value;")
        out.append("  const Tree* lp; const Tree* rp;")
        out.append("  Tree left() const "
                   "{ return lp ? *lp : Tree{false, 0, nullptr, nullptr}; }")
        out.append("  Tree right() const "
                   "{ return rp ? *rp : Tree{false, 0, nullptr, nullptr}; }")
        out.append("};")
        out.append("")

    names = [n for n in prog.functions if n != prog.entry]
    for n in names:
        out.append(em.signature(prog.functions[n], em.rets[n]) + ";")
    if names:
        out.append("")
    if em.uses_tape:
        out += em.tape_unwind()
        out.append("")

    order = names + [prog.entry]
    for i, n in enumerate(order):
        em.emit_function(prog.functions[n], em.rets[n], out)
        if i != len(order) - 1:
            out.append("")
    return "\n".join(out) + "\n"
