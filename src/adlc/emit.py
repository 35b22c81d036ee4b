"""Deterministic C-like text from staged IR.

One function per IR function; adjoint cells become double variables passed
by reference; continuation closures become `kont1` handles wrapping a call
to their named body.  A handle is an intrusively ref-counted pointer to one
heap copy of the lambda, so copying, assigning or dropping it touches a
counter and never the chain of closures it captures.  Closures are never
mutated, so sharing a body is the same as copying it.  A closure takes
(value, adjoint cell) and captures cells by reference, so `emit_c` refuses
one that captures a cell made in its own function, which would not outlive
that function's frame.

A staged loop needs no closure: its function is a `for (;;)` whose `Jump`s to
itself reassign the parameters and `continue` (a cell parameter is rebound
through a pointer, `d_at` for `d`), and its backward segments are records
on the tape, a growable array of (segment tag, captures) in the prelude.  An
unwinding call site saves `tape_now()`, calls the loop and runs
`tape_unwind`, a loop that pops the records down to the mark and switches
on the tag.  Cells that a record captures, or that leave their frame, in a
function the loop reaches live in a chunked arena (`tape_cell`), so their
addresses hold until the unwind, which gives back the cells made since the
mark; the entry frees the tape (one free) and the arena when it returns.  So
the loop, its unwind and its release never recurse, and a loop-only program
needs no `kont1`.

The preludes need no standard header and appear only in programs that use
them.  Recursive functions are declared up front so the text never needs a
self-referential lambda.  Output is stable across runs: two-space indent,
LF line endings.
"""

from __future__ import annotations

from .staging import (
    ARITY, OPS, Bind, Call, CellAccum, CellNew, CellRead, CellSet, ClosureNew, Cond,
    IRFunction, IRProgram, Jump, Return, TapePush, kinds, reachable, uses,
    walk,
)
from .syntax import fmt_float

# the C type per symbol kind
_TYPES = {"val": "double", "cell": "double&", "tree": "Tree", "bool": "bool",
          "fun": "kont1"}

# Header-free on purpose: parsing <functional> and <memory> took about half
# of the g++ -O2 time of an emitted loop.  The last release of a handle
# deletes the body, and so drops the handles and cells it captured.
_KONT_PRELUDE = """\
template <class Sig> struct kont_fn;
template <class... A> struct kont_fn<void(A...)> {
  struct body { long refs = 1; virtual ~body() {} virtual void call(A... a) = 0; };
  template <class F> struct lam : body {
    F fn;
    lam(const F& f) : fn(f) {}
    void call(A... a) { fn(a...); }
  };
  body* p;
  explicit kont_fn(body* b) : p(b) {}
  kont_fn(const kont_fn& o) : p(o.p) { ++p->refs; }
  kont_fn& operator=(const kont_fn& o) { ++o.p->refs; release(); p = o.p; return *this; }
  ~kont_fn() { release(); }
  void release() { if (--p->refs == 0) delete p; }
  void operator()(A... a) const { p->call(a...); }
  template <class F> static kont_fn make(const F& f) { return kont_fn(new lam<F>(f)); }
};
typedef kont_fn<void(double, double&)> kont1;
"""
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


def _returns_value(fn: IRFunction) -> bool:
    return any(isinstance(s, Return) for s in walk(fn.body))


def _tape_functions(prog: IRProgram) -> set:
    """The functions an unwinding call's target reaches: those that run
    between a tape mark and its unwind."""
    return reachable(prog.functions, [
        s.target for fn in prog.functions.values() for s in walk(fn.body)
        if type(s) is Call and s.unwind and not s.indirect])


class _Emitter:
    def __init__(self, prog: IRProgram):
        self.prog = prog
        self.kinds = kinds(prog.functions)
        # per function between a tape mark and its unwind: the cells it
        # creates that escape (emitted in the tape's arena)
        self.tape_cells: dict[str, set] = {}
        self.segments: dict[str, int] = {}  # record function -> tag
        self.uses_tape = False
        self._analyze()

    def _analyze(self) -> None:
        in_tape = _tape_functions(self.prog)
        for fn in self.prog.functions.values():
            local, escaping = set(), set()
            for s in walk(fn.body):
                match s:
                    case CellNew(dest, _):
                        local.add(dest)
                    case ClosureNew(_, f, captures):
                        target = self.prog.functions.get(f)
                        if target is None or len(target.params) - len(captures) != 2:
                            raise ValueError(f"cannot emit a closure of arity "
                                             f"other than 2: {s!r}")
                        if local.intersection(captures):
                            raise ValueError(f"cannot emit a closure capturing a cell "
                                             f"made in {fn.name}: {s!r}")
                    case Call(_, _, _, unwind):
                        self.uses_tape |= unwind
                    case TapePush(f, _):
                        self.uses_tape = True
                        self.segments.setdefault(f, len(self.segments))
                if type(s) in (Call, Jump, ClosureNew, TapePush):
                    escaping.update(uses(s))
            self.tape_cells[fn.name] = local & escaping if fn.name in in_tape else set()

    def signature(self, fn: IRFunction, ret: str) -> str:
        params = ", ".join(f"{_TYPES[k]} {p}" for p, k in fn.params)
        return f"{ret} {fn.name}({params})"

    def segment_params(self, f: str) -> list:
        fn = self.prog.functions.get(f)
        if fn is None:
            raise ValueError(f"cannot emit a record of unknown function {f!r}")
        for p, k in fn.params:
            if k not in ("val", "cell"):
                raise ValueError(f"cannot emit a record capturing {p!r} ({k})")
        return fn.params

    def tape_unwind(self) -> list:
        """The unwind: pop records down to the mark, newest first, and run
        each; then give back the arena cells made since the mark."""
        out = ["static void tape_unwind(tape_mark m) {",
               "  while (tape.n > m.recs) {",
               "    tape_rec r = tape.recs[--tape.n];",
               "    switch (r.seg) {"]
        for f, tag in self.segments.items():
            args = ", ".join(f"*r.w[{i}].c" if k == "cell" else f"r.w[{i}].v"
                             for i, (_p, k) in enumerate(self.segment_params(f)))
            out.append(f"    case {tag}: {f}({args}); break;")
        out += ["    }", "  }", "  tape.cells = m.cells;", "}"]
        return out

    def emit_function(self, fn: IRFunction, ret: str, out: list) -> None:
        arena = self.tape_cells[fn.name]
        jumps = any(type(s) is Jump and s.target == fn.name for s in walk(fn.body))
        # a loop's cell parameters, rebound through a pointer by its jumps
        rebound = {p: f"{p}_at" for p, k in fn.params if k == "cell"} if jumps else {}
        is_entry = fn.name == self.prog.entry

        def operand(o) -> str:
            if not isinstance(o, str):
                return fmt_float(o)
            return o

        def cell_lvalue(sym: str) -> str:
            if sym in rebound:
                return f"*{rebound[sym]}"
            return f"*{sym}" if sym in arena else sym

        def cell_pointer(sym: str) -> str:
            if sym in rebound:
                return rebound[sym]
            return sym if sym in arena else f"&{cell_lvalue(sym)}"

        def cell_argument(o) -> str:
            # a cell passed where the callee expects double&
            return cell_lvalue(o) if isinstance(o, str) else fmt_float(o)

        def call_args(target: str, args, captures=()) -> str:
            fn_t = self.prog.functions.get(target)
            rendered = []
            seq = list(args) + list(captures)
            for i, a in enumerate(seq):
                kind = fn_t.params[i][1] if fn_t and i < len(fn_t.params) else None
                if kind == "cell":
                    rendered.append(cell_argument(a))
                else:
                    rendered.append(operand(a))
            return ", ".join(rendered)

        def captures_of(lam_caps) -> str:
            # by-value for everything except cells: a captured cell is a
            # parameter, whose object outlives the closure's calls
            refs = [c for c in lam_caps if self.kinds.get(c) == "cell"]
            if refs:
                return "=, " + ", ".join(f"&{c}" for c in refs)
            return "="

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

        def stmt(s, indent: int) -> None:
            pad = "  " * indent

            def line(text: str) -> None:
                out.append(pad + text)

            match s:
                case Bind(dest, op, args) if ARITY.get(op) == len(args):
                    kind, _, text = OPS[op]
                    line(f"{_TYPES[kind]} {dest} = {text.format(*map(operand, args))};")
                case CellNew(dest, init):
                    if dest in arena:
                        line(f"double* {dest} = tape_cell({operand(init)});")
                    else:
                        line(f"double {dest} = {operand(init)};")
                case CellRead(dest, cell):
                    line(f"double {dest} = {cell_lvalue(cell)};")
                case CellAccum(cell, value):
                    line(f"{cell_lvalue(cell)} += {operand(value)};")
                case CellSet(cell, value):
                    line(f"{cell_lvalue(cell)} = {operand(value)};")
                case ClosureNew(dest, f, caps):
                    body_args = call_args(f, ["a0", "a1"], caps)
                    line(f"kont1 {dest} = kont1::make([{captures_of(caps)}]"
                         f"(double a0, double& a1) {{ {f}({body_args}); }});")
                case Call(target, args, indirect, unwind):
                    if indirect:
                        # a kont1 takes (double, double&)
                        rendered = [operand(a) if i == 0 else cell_argument(a)
                                    for i, a in enumerate(args)]
                        text = f"{target}({', '.join(rendered)});"
                    else:
                        text = f"{target}({call_args(target, args)});"
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
                    line(f"return {call};" if ret == "double" else f"{call}; return;")
                case TapePush(f, caps):
                    words = [f"r_.w[{i}].{'c' if k == 'cell' else 'v'} = "
                             f"{cell_pointer(a) if k == 'cell' else operand(a)};"
                             for i, ((_p, k), a) in
                             enumerate(zip(self.segment_params(f), caps))]
                    line(f"{{ tape_rec& r_ = tape_push({self.segments[f]}); "
                         f"{' '.join(words)} }}")
                case Cond(guard, then, orelse):
                    line(f"if ({guard}) {{")
                    for t in then:
                        stmt(t, indent + 1)
                    line("} else {")
                    for t in orelse:
                        stmt(t, indent + 1)
                    line("}")
                case Return(value):
                    if is_entry and self.uses_tape:
                        line("tape_free();")
                    line(f"return {operand(value)};")
                case _:
                    raise ValueError(f"cannot emit {s!r}")

        out.append(self.signature(fn, ret) + " {")
        if jumps:
            for p, ptr in rebound.items():
                out.append(f"  double* {ptr} = &{p};")
            out.append("  for (;;) {")
            for s in fn.body:
                stmt(s, 2)
            out.append("    break;")
            out.append("  }")
        else:
            for s in fn.body:
                stmt(s, 1)
        out.append("}")


def emit_c(prog: IRProgram) -> str:
    """Render the program as compilable C++-flavored source text."""
    em = _Emitter(prog)
    out: list[str] = []
    uses_tree = any(k == "tree" for fn in prog.functions.values()
                    for _, k in fn.params)
    if "fun" in em.kinds.values():
        out.append(_KONT_PRELUDE)
    if em.uses_tape:
        words = max((len(em.segment_params(f)) for f in em.segments), default=0)
        out.append(_TAPE_PRELUDE % max(words, 1))
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
    rets = {n: ("double" if _returns_value(prog.functions[n]) else "void")
            for n in prog.functions}

    for n in names:
        out.append(em.signature(prog.functions[n], rets[n]) + ";")
    if names:
        out.append("")
    if em.uses_tape:
        out += em.tape_unwind()
        out.append("")

    order = names + [prog.entry]
    for i, n in enumerate(order):
        em.emit_function(prog.functions[n], rets[n], out)
        if i != len(order) - 1:
            out.append("")
    return "\n".join(out) + "\n"
