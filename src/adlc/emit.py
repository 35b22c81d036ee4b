"""Deterministic C-like text from staged IR.

One function per IR function; adjoint cells become double variables passed
by reference; continuation closures become `kont`/`kont1` handles wrapping a
call to their named body.  A handle is an intrusively ref-counted pointer to
one heap copy of the lambda, so copying, assigning or dropping it touches a
counter and never the chain of closures it captures: a staged loop's tape
grows by one node per iteration, not by a copy of everything before it.
Closures are never mutated, so sharing a body is the same as copying it.
Cells that escape into a closure outlive their frame (the backward chain of
a staged loop runs after the loop returns), so those are emitted as
ref-counted `heap_cell`s, read and written through `*`; everything else
stays a plain local.  The prelude that defines both types needs no standard
header and appears only in programs that use them.  Recursive functions are
declared up front so the text never needs a self-referential lambda.
Output is stable across runs: two-space indent, LF line endings.
"""

from __future__ import annotations

from .staging import (
    OPS, TAPE_END, TAPE_SLOT, Bind, Call, CellAccum, CellNew, CellRead,
    CellSet, ClosureNew, Cond, IRFunction, IRProgram, Return, SlotRead,
    SlotSet, kinds, walk,
)
from .syntax import fmt_float

# the C type per symbol kind; a "fun" symbol's depends on its arity
_TYPES = {"val": "double", "cell": "double&", "tree": "Tree", "bool": "bool"}
_KONT = {0: "kont", 2: "kont1"}

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
typedef kont_fn<void()> kont;
typedef kont_fn<void(double, double&)> kont1;
"""
_HEAP_PRELUDE = """\
struct heap_cell {
  struct box { long refs; double v; };
  box* p;
  explicit heap_cell(double v) : p(new box{1, v}) {}
  heap_cell(const heap_cell& o) : p(o.p) { ++p->refs; }
  heap_cell& operator=(const heap_cell&) = delete;
  ~heap_cell() { if (--p->refs == 0) delete p; }
  double& operator*() const { return p->v; }
};
"""


def _returns_value(fn: IRFunction) -> bool:
    return any(isinstance(s, Return) for s in walk(fn.body))


class _Emitter:
    def __init__(self, prog: IRProgram):
        self.prog = prog
        self.fun_arity: dict[str, int] = {}
        self.kinds = kinds(prog.functions)
        # per function: the cells it creates that escape into closures
        # (emitted on the heap)
        self.heap_cells: dict[str, set] = {}
        self._analyze()

    def _analyze(self) -> None:
        for fn in self.prog.functions.values():
            local, captured = set(), set()
            for s in walk(fn.body):
                match s:
                    case CellNew(dest, _):
                        local.add(dest)
                    case ClosureNew(dest, f, captures):
                        captured.update(captures)
                        target = self.prog.functions.get(f)
                        if target is not None:
                            self.fun_arity[dest] = len(target.params) - len(captures)
                    case Call(target, args, indirect):
                        if indirect:
                            self.fun_arity.setdefault(target, len(args))
            self.heap_cells[fn.name] = local & captured
        for fn in self.prog.functions.values():
            for p, k in fn.params:
                if k == "fun":
                    self.fun_arity.setdefault(p, 0)

    def kont_type(self, sym: str) -> str:
        return _KONT.get(self.fun_arity.get(sym, 0), "kont")

    def param(self, p: str, k: str) -> str:
        return f"{self.kont_type(p) if k == 'fun' else _TYPES[k]} {p}"

    def signature(self, fn: IRFunction, ret: str) -> str:
        params = ", ".join(self.param(p, k) for p, k in fn.params)
        return f"{ret} {fn.name}({params})"

    def emit_function(self, fn: IRFunction, ret: str, out: list) -> None:
        heap = self.heap_cells[fn.name]

        def operand(o) -> str:
            if not isinstance(o, str):
                return fmt_float(o)
            return o

        def cell_lvalue(sym: str) -> str:
            return f"*{sym}" if sym in heap else sym

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
            # by-value for everything except plain (non-heap) cells, whose
            # underlying object outlives the closure's invocation
            refs = [c for c in lam_caps
                    if self.kinds.get(c) == "cell" and c not in heap]
            if refs:
                return "=, " + ", ".join(f"&{c}" for c in refs)
            return "="

        def stmt(s, indent: int) -> None:
            pad = "  " * indent

            def line(text: str) -> None:
                out.append(pad + text)

            match s:
                case Bind(dest, op, args):
                    kind, _, text = OPS[op]
                    line(f"{_TYPES[kind]} {dest} = {text.format(*map(operand, args))};")
                case CellNew(dest, init):
                    if dest in heap:
                        line(f"heap_cell {dest}({operand(init)});")
                    else:
                        line(f"double {dest} = {operand(init)};")
                case CellRead(dest, cell):
                    line(f"double {dest} = {cell_lvalue(cell)};")
                case CellAccum(cell, value):
                    line(f"{cell_lvalue(cell)} += {operand(value)};")
                case CellSet(cell, value):
                    line(f"{cell_lvalue(cell)} = {operand(value)};")
                case ClosureNew(dest, f, caps):
                    arity = self.fun_arity.get(dest, 0)
                    body_args = call_args(f, ["a0", "a1"][:arity], caps) \
                        if arity else call_args(f, [], caps)
                    if arity == 2:
                        line(f"kont1 {dest} = kont1::make([{captures_of(caps)}]"
                             f"(double a0, double& a1) {{ {f}({body_args}); }});")
                    else:
                        line(f"kont {dest} = kont::make([{captures_of(caps)}] "
                             f"{{ {f}({body_args}); }});")
                case Call(target, args, indirect):
                    if indirect:
                        # a kont1 takes (double, double&): deref heap cells
                        rendered = [operand(a) if i == 0 else cell_argument(a)
                                    for i, a in enumerate(args)]
                        line(f"{target}({', '.join(rendered)});")
                    else:
                        line(f"{target}({call_args(target, args)});")
                case SlotRead(dest, slot):
                    line(f"kont {dest} = {slot};")
                case SlotSet(slot, value):
                    line(f"{slot} = {operand(value)};")
                case Cond(guard, then, orelse):
                    line(f"if ({guard}) {{")
                    for t in then:
                        stmt(t, indent + 1)
                    line("} else {")
                    for t in orelse:
                        stmt(t, indent + 1)
                    line("}")
                case Return(value):
                    line(f"return {operand(value)};")
                case _:
                    raise ValueError(f"cannot emit {s!r}")

        if fn.name == TAPE_END and not fn.body:
            out.append(self.signature(fn, ret) + " {}")
            return
        out.append(self.signature(fn, ret) + " {")
        for s in fn.body:
            stmt(s, 1)
        out.append("}")


def emit_c(prog: IRProgram) -> str:
    """Render the program as compilable C++-flavored source text."""
    em = _Emitter(prog)
    out: list[str] = []
    uses_tape = TAPE_END in prog.functions
    uses_fun = bool(em.fun_arity) or uses_tape
    uses_tree = any(k == "tree" for fn in prog.functions.values()
                    for _, k in fn.params)
    uses_heap = any(em.heap_cells.values())
    if uses_fun or uses_heap:
        out.append(_KONT_PRELUDE)
        if uses_heap:
            out.append(_HEAP_PRELUDE)
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
    if uses_tape:
        out.append(f"static kont {TAPE_SLOT} = kont::make([]{{}});")
        out.append("")

    names = [n for n in prog.functions if n != prog.entry]
    rets = {n: ("double" if _returns_value(prog.functions[n]) else "void")
            for n in prog.functions}

    for n in names:
        out.append(em.signature(prog.functions[n], rets[n]) + ";")
    if names:
        out.append("")

    order = names + [prog.entry]
    for i, n in enumerate(order):
        em.emit_function(prog.functions[n], rets[n], out)
        if i != len(order) - 1:
            out.append("")
    return "\n".join(out) + "\n"
