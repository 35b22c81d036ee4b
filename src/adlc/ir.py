"""The staged IR: its statements, their one declaration, the walkers built
on it and the verifier.

A staged program (`IRProgram`) is a table of first-order functions over
four kinds of symbol: values, adjoint cells, runtime trees and bools.  A
function's body is a list of statements; a `Cond` nests two more lists, so
a walk over a body follows an explicit stack.  `staging` makes programs;
`ir_eval`, `ir_opt` and `emit` consume them, and read the IR from here
alone, as Lightweight Modular Staging's back ends read its IR without its
front end (Rompf & Odersky, GPCE 2010).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .syntax import LangError


class IRError(LangError):
    """An ill-formed IR program, as `verify` finds it."""


# ---------------------------------------------------------------------------
# IR data types


@dataclass
class Bind:
    dest: str
    op: str  # a key of OPS
    args: tuple


@dataclass
class CellNew:
    dest: str
    init: object


@dataclass
class CellRead:
    dest: str
    cell: str


@dataclass
class CellAccum:
    cell: str
    value: object


@dataclass
class CellSet:
    cell: str
    value: object


@dataclass
class Call:
    target: str
    args: tuple
    # after the call returns, pop the tape records it pushed and run each
    unwind: bool = False
    # the symbols that receive the (value, cell) the callee returns with
    # RetReal, or () when the call's value is unused
    results: tuple = ()


@dataclass
class Jump:
    """Tail transfer to the function `target` with `args`: a jump to the
    enclosing function reassigns its parameters and runs its body again."""

    target: str
    args: tuple


@dataclass
class TapePush:
    """Push the record (fn, captures) onto the tape; an unwinding call site
    runs it as fn(*captures)."""

    fn: str
    captures: tuple


@dataclass
class Cond:
    guard: str
    then: list
    orelse: list


@dataclass
class Return:
    value: object


@dataclass
class RetReal:
    """Return a staged real, its value and its adjoint cell, to a valued
    `Call`."""

    value: object
    cell: object


@dataclass
class IRFunction:
    name: str
    params: list  # of (symbol, kind); kind in {"val", "cell", "tree", "bool"}
    body: list = field(default_factory=list)


@dataclass
class IRProgram:
    """A staged program: functions by name, run from `entry`.  A loop's
    functions are its body (which `Jump`s to itself), one backward segment
    per self-call (run from the tape) and the continuations they call; a
    fold's are `fold`, `rec` and the records `rec` pushes.  It is not
    changed after `stage_*` or `ir_optimize` returns it: `verify` keeps the
    return kinds of a program it passes in `returns`, and `ir_eval` keeps
    in `compiled` the maker of its compiled tier, or False for a program
    that has none, from its first run on; `dataclasses.replace` copies
    neither."""

    functions: dict
    entry: str
    returns: dict | None = field(default=None, init=False, repr=False,
                                 compare=False)
    compiled: object = field(default=None, init=False, repr=False,
                             compare=False)


# ---------------------------------------------------------------------------
# Statement kernel: the one declaration of the IR's shape.  STMTS gives, per
# statement class, its operand fields in read order (a starred field holds a
# tuple of operands; a call's or a jump's target names a function, and is no
# operand), the kinds those operands must have (None where they come from
# the op or the named function's parameters) and the kind of the symbol it
# defines in `dest` (None if it defines none; a Bind's is the kind of its
# op's result; a Call's, REAL, says that it defines its `results`, a value
# and a cell).  `uses`, `defs`, `map_operands`, `kinds` and `verify` read it;
# a new statement class is one row here plus its arm in the passes that act
# on it.  OPS gives, per Bind op, the kind of its result, the host function
# that computes it (ir_eval runs it and ir_opt folds literal operands with
# it; a tree op's operand is never a literal), its C text, whose holes give
# the number of its operands, and the kind of its operands.

OPS = {
    "add": ("val", operator.add, "{} + {}", "val"),
    "mul": ("val", operator.mul, "{} * {}", "val"),
    "greater": ("bool", operator.gt, "{} > {}", "val"),
    "tree_value": ("val", operator.attrgetter("value"), "{}.value", "tree"),
    "tree_left": ("tree", operator.attrgetter("left"), "{}.left()", "tree"),
    "tree_right": ("tree", operator.attrgetter("right"), "{}.right()", "tree"),
    "tree_nonempty": ("bool", lambda t: t is not None, "{}.notEmpty", "tree"),
}
ARITY = {op: row[2].count("{}") for op, row in OPS.items()}
REAL = ("val", "cell")  # the kinds of a staged real's value and adjoint cell
KINDS = ("val", "cell", "tree", "bool")

STMTS = {
    Bind: (("*args",), None, OPS),
    CellNew: (("init",), ("val",), "cell"),
    CellRead: (("cell",), ("cell",), "val"),
    CellAccum: (("cell", "value"), ("cell", "val"), None),
    CellSet: (("cell", "value"), ("cell", "val"), None),
    Call: (("*args",), None, REAL),
    Jump: (("*args",), None, None),
    TapePush: (("*captures",), None, None),
    Cond: (("guard",), ("bool",), None),
    Return: (("value",), ("val",), None),
    RetReal: (("value", "cell"), REAL, None),
}
# per class: (field, holds a tuple) for each operand field
_OPERANDS = {cls: tuple((f.lstrip("*"), f[0] == "*") for f in row[0])
             for cls, row in STMTS.items()}


def walk(block: list):
    """Every statement of a block in pre-order, a Cond's then-branch before
    its orelse-branch; iterative, so nesting costs no Python stack."""
    stack = block[::-1]
    while stack:
        s = stack.pop()
        yield s
        if type(s) is Cond:
            stack.extend(s.orelse[::-1])
            stack.extend(s.then[::-1])


def uses(s) -> list:
    """Operands the statement reads: symbols or literals, in field order."""
    out: list = []
    for name, many in _OPERANDS[type(s)]:
        if many:
            out.extend(getattr(s, name))
        else:
            out.append(getattr(s, name))
    return out


def defs(s) -> list:
    """Symbols the statement defines."""
    kind = STMTS[type(s)][2]
    if kind is REAL:
        return list(s.results)
    return [s.dest] if kind is not None else []


def map_operands(s, f):
    """A copy of the statement with f applied to each operand."""
    fields = dict(vars(s))
    for name, many in _OPERANDS[type(s)]:
        fields[name] = tuple(map(f, fields[name])) if many else f(fields[name])
    return type(s)(**fields)


def callee(s) -> str | None:
    """The function a statement names: the target of a call or a jump, or
    the function of a record."""
    cls = type(s)
    if cls is Call or cls is Jump:
        return s.target
    return s.fn if cls is TapePush else None


def reachable(functions: dict, roots) -> set:
    """The names of roots and of every function the statements of a
    reached function name."""
    seen, work = set(roots), list(roots)
    while work:
        for s in walk(functions[work.pop()].body):
            n = callee(s)
            if n is not None and n not in seen:
                seen.add(n)
                work.append(n)
    return seen


def kinds(functions: dict) -> dict:
    """The kind of every symbol of the functions, from their parameters and
    the statements that define them."""
    out: dict = {}
    for fn in functions.values():
        out.update(fn.params)
        for s in walk(fn.body):
            kind = STMTS[type(s)][2]
            if kind is REAL:
                out.update(zip(s.results, kind))
            elif kind is not None:
                out[s.dest] = kind[s.op][0] if kind is OPS else kind
    return out


def escaping(fn: IRFunction) -> set:
    """The symbols whose value leaves fn's frame or comes from another: the
    operands of its calls, jumps, records and RetReals, and the (value,
    cell) its valued calls receive; cells among them may be aliased."""
    return {o for s in walk(fn.body) if type(s) in (Call, Jump, TapePush, RetReal)
            for o in uses(s) + defs(s) if isinstance(o, str)}


def records(functions: dict) -> dict:
    """The functions that records on the tape run, each with its tag: the
    order of its first TapePush, over the functions in order."""
    tags: dict = {}
    for fn in functions.values():
        for s in walk(fn.body):
            if type(s) is TapePush:
                tags.setdefault(s.fn, len(tags))
    return tags


def ir_stmt_count(p: IRProgram) -> int:
    return sum(1 for f in p.functions.values() for _ in walk(f.body))


def ir_cell_op_count(p: IRProgram) -> int:
    return sum(isinstance(s, (CellNew, CellRead, CellAccum, CellSet))
               for f in p.functions.values() for s in walk(f.body))


# ---------------------------------------------------------------------------
# The verifier: the one place that decides what well-formed IR is.  ir_eval,
# emit_c and ir_optimize run it on their input and trust what it passed (the
# LLVM IR verifier; Appel, "SSA is Functional Programming", 1998).


def unwound(functions: dict) -> set:
    """The functions an unwinding call's target reaches: those that run
    between a tape mark and its unwind."""
    return reachable(functions, [s.target for fn in functions.values()
                                 for s in walk(fn.body) if type(s) is Call and s.unwind])


_LITERAL_KINDS = {float: "val", bool: "bool"}


@dataclass
class _Join:
    """On verify's work stack after each branch of a Cond: where the
    symbols the branches define start in the log and, once the then-branch
    is done, whether control passes its end."""

    mark: int
    then_falls: bool | None = None


def _show(s) -> str:
    """A statement as an error names it: a Cond without its branches."""
    return f"Cond(guard={s.guard!r})" if type(s) is Cond else repr(s)


def _verify_body(fn: IRFunction, functions: dict, valued: list, local: list) -> tuple:
    """Check fn in one pass driven by an explicit work stack, and add its
    valued calls to `valued` and its RetReals of cells it makes to `local`.
    Returns how its paths end, a set of "val" (Return), REAL (RetReal) and
    None (falling off its end), and the functions it jumps to."""
    def fail(text: str, s) -> None:
        raise IRError(f"{fn.name}: {_show(s)}: {text}")

    for p, k in fn.params:
        if k not in KINDS:
            raise IRError(f"{fn.name}: parameter {p!r} has unknown kind {k!r}")
    scope = dict(fn.params)  # symbol -> kind, for each symbol in scope
    log: list = []  # the symbols defined in scope, in order
    made: set = set()  # the cells the function's CellNews make
    ends: set = set()
    jumps: set = set()
    falls = True  # whether control reaches the next statement
    work = fn.body[::-1]
    while work:
        s = work.pop()
        cls = type(s)
        if cls is _Join:  # the symbols the branch defined leave scope
            for d in log[s.mark:]:
                del scope[d]
            del log[s.mark:]
            if s.then_falls is None:
                s.then_falls, falls = falls, True
            else:
                falls = falls or s.then_falls
            continue
        if not falls:
            fail("unreachable: it follows a statement that ends every path", s)
        if cls not in STMTS:
            fail("unknown statement", s)
        _fields, want, gives = STMTS[cls]
        operands = uses(s)
        if cls is Bind:
            op = OPS.get(s.op)
            if op is None:
                fail(f"unknown operation {s.op!r}", s)
            if ARITY[s.op] != len(operands):
                fail(f"{s.op} takes {ARITY[s.op]} operands, got {len(operands)}", s)
            want, gives = (op[3],) * len(operands), op[0]
        elif want is None:  # a call, a jump or a record: its function's params
            target = callee(s)
            t = functions.get(target)
            if t is None:
                fail(f"unknown function {target!r}", s)
            want = [k for _p, k in t.params]
            if len(operands) != len(want):
                fail(f"{target} expects {len(want)} args, got {len(operands)}", s)
            if cls is TapePush:
                for p, k in t.params:
                    if k not in REAL:
                        fail(f"a record capturing {p!r} ({k})", s)
            elif cls is Jump:
                jumps.add(s.target)
            elif s.results:
                if len(s.results) != 2:
                    fail(f"a call receives a (value, cell) pair, not {s.results!r}", s)
                valued.append((fn.name, s))
        for o, k in zip(operands, want):
            got = (scope.get(o) if type(o) is str
                   else _LITERAL_KINDS.get(type(o), type(o).__name__))
            if got != k:
                fail(f"undefined symbol {o!r}" if got is None
                     else f"operand {o!r} has kind {got}, not {k}", s)
        if gives is not None:
            for d, k in zip(s.results, REAL) if gives is REAL else [(s.dest, gives)]:
                if d in scope:
                    fail(f"{d!r} is already defined", s)
                scope[d] = k
                log.append(d)
        if cls is CellNew:
            made.add(s.dest)
        elif cls is Cond:
            join = _Join(len(log))
            work += [join, *s.orelse[::-1], join, *s.then[::-1]]
        elif cls is Return:
            ends.add("val")
            falls = False
        elif cls is RetReal:
            ends.add(REAL)
            falls = False
            if s.cell in made:
                local.append((fn.name, s))
        elif cls is Jump:
            falls = False
    if falls:
        ends.add(None)
    return ends, jumps


def verify(prog: IRProgram) -> dict:
    """Check that prog is well-formed, so that every executor (ir_eval's
    two tiers, the emitted C++) runs it, or raise IRError naming the
    function and the statement at fault.  Returns each function's return
    kind, followed through its jumps: "val", REAL (a pair) or None.  Rules:
    - a symbol is read in scope: a parameter, or defined before in its
      block or an enclosing one (as in C), once; nothing follows a Return,
      RetReal or Jump, or a Cond whose branches both end so;
    - statements and ops are known, with their number of operands; a call,
      a jump or a record names a known function, with one argument per
      parameter, and a record's function takes only vals and cells;
    - every operand has the kind its use expects (STMTS, OPS, parameters);
      a literal is a float (val) or a bool;
    - a valued call receives a value and a cell from a function that
      returns a pair; none returns both a value and a pair, and one that
      returns either returns on every path;
    - the entry takes (val) or (tree, val) and returns a value;
    - a RetReal of a cell its function makes runs under an unwinding call,
      whose tape keeps the cell alive in the emitted C++.
    The kinds are kept on prog, so each program is checked once; one that
    fails keeps nothing and fails again."""
    if prog.returns is not None:
        return prog.returns
    functions = prog.functions
    valued: list = []  # (function, valued call)
    local: list = []  # (function, RetReal of a cell it makes)
    ends: dict = {}
    jumpers: dict = {}  # function -> those that jump to it
    for name, fn in functions.items():
        ends[name], jumps = _verify_body(fn, functions, valued, local)
        for t in jumps:
            jumpers.setdefault(t, []).append(name)
    work = list(ends)  # a function ends as those it jumps to may
    while work:
        t = work.pop()
        for n in jumpers.get(t, ()):
            if not ends[t] <= ends[n]:
                ends[n] |= ends[t]
                work.append(n)
    rets = {}
    for n, e in ends.items():
        if "val" in e and REAL in e:
            raise IRError(f"{n}: it returns both a value and a (value, cell) pair")
        if None in e and len(e) > 1:
            raise IRError(f"{n}: it returns on some paths and falls off its end on others")
        rets[n] = "val" if "val" in e else REAL if REAL in e else None
    entry = functions.get(prog.entry)
    if entry is None:
        raise IRError(f"unknown entry function {prog.entry!r}")
    takes = [k for _p, k in entry.params]
    if takes != ["val"] and takes != ["tree", "val"]:
        raise IRError(f"{prog.entry}: the entry takes (val) or (tree, val), "
                      f"not ({', '.join(takes)})")
    if rets[prog.entry] is None:
        raise IRError(f"{prog.entry}: entry did not return a value")
    if rets[prog.entry] is REAL:
        raise IRError(f"{prog.entry}: a (value, cell) return with no caller")
    for n, s in valued:
        if rets[s.target] is not REAL:
            raise IRError(f"{n}: {_show(s)}: {s.target} returns no (value, cell) pair")
    taped = unwound(functions) if local else ()
    for n, s in local:
        if n not in taped:
            raise IRError(f"{n}: {_show(s)}: {s.cell} is made in {n}, "
                          "outside an unwinding call")
    prog.returns = rets
    return rets
