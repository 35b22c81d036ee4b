"""Abstract syntax, S-expression parser and printer for the object language.

The expression type is the single currency of every transformation in this
package.  Core forms are real constants, variables, + and * on reals, a
`greater` comparison producing sum-encoded booleans, lambda/application/let,
pairs, sums, mutable references, and the delimited control pair shift/reset.
The sugar forms (if, letrec, seq) are kept distinct so that parsing preserves
the input; `lang.desugar` removes them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields


class LangError(Exception):
    """Base class for all object-language errors."""


class ParseError(LangError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Expression nodes


class _Slotted(type):
    """Gives each node class a slot per annotated field and no instance
    dict; a class that declares its own __slots__ keeps them."""

    def __new__(mcls, name, bases, ns):
        ns.setdefault("__slots__", tuple(ns.get("__annotations__", ())))
        return super().__new__(mcls, name, bases, ns)


@dataclass(frozen=True)
class Expr(metaclass=_Slotted):
    def __reduce__(self):
        # pickle and copy rebuild the node through __init__, since the
        # frozen __setattr__ refuses the default protocol's slot writes; the
        # copy, like any rebuilt node, starts without NodeMemo values
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


class NodeMemo:
    """Work derived from one lambda node alone, kept on that node so a
    second call on the same object reuses it (`interp` keeps a closed
    lambda's translation, `lang.prepare` its result on a program).

    The value sits in a dict in the `_memo` slot that only `Lam` has, and
    that is not a field: ==, hash, repr, pretty and the traversal kernel,
    which read fields, never see it.  It lives exactly as long as the
    node, and a rebuilt or copied node (map_children, dataclasses.replace,
    pickle, copy) starts without one.  `put` on any other node keeps
    nothing, so its work is done again on each call."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key

    def get(self, e: Expr):
        """The value kept on e, or None."""
        memo = getattr(e, "_memo", None)
        return None if memo is None else memo.get(self.key)

    def put(self, e: Expr, value) -> None:
        memo = getattr(e, "_memo", None)
        if memo is None:
            if type(e) is not Lam:
                return
            memo = {}
            object.__setattr__(e, "_memo", memo)  # past the frozen __setattr__
        memo[self.key] = value


# A constructor is a frozen dataclass whose __init__ (see _slot_inits below)
# writes its slots directly.
_node = dataclass(frozen=True, init=False)


@_node
class Const(Expr):
    value: float


@_node
class Var(Expr):
    name: str


@_node
class Unit(Expr):
    pass


@_node
class Add(Expr):
    lhs: Expr
    rhs: Expr


@_node
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@_node
class Greater(Expr):
    lhs: Expr
    rhs: Expr


@_node
class Lam(Expr):
    __slots__ = ("param", "body", "_memo")  # _memo: NodeMemo's values; not a field
    param: str
    body: Expr


@_node
class App(Expr):
    fn: Expr
    arg: Expr


@_node
class Let(Expr):
    name: str
    bound: Expr
    body: Expr


@_node
class Pair(Expr):
    fst: Expr
    snd: Expr


@_node
class Fst(Expr):
    arg: Expr


@_node
class Snd(Expr):
    arg: Expr


@_node
class Inl(Expr):
    arg: Expr


@_node
class Inr(Expr):
    arg: Expr


@_node
class Case(Expr):
    scrutinee: Expr
    left_name: str
    left_body: Expr
    right_name: str
    right_body: Expr


@_node
class Ref(Expr):
    init: Expr


@_node
class Deref(Expr):
    cell: Expr


@_node
class Assign(Expr):
    cell: Expr
    value: Expr


@_node
class Shift(Expr):
    name: str
    body: Expr


@_node
class Reset(Expr):
    body: Expr


# Sugar forms, removed by lang.desugar.


@_node
class If(Expr):
    guard: Expr
    then: Expr
    orelse: Expr


@_node
class Letrec(Expr):
    name: str
    fn: Expr  # must be a Lam
    body: Expr


@_node
class Seq(Expr):
    first: Expr
    second: Expr


# ---------------------------------------------------------------------------
# Concrete syntax and the traversal kernel.  A constructor is declared once,
# as a dataclass above plus its keyword here; the parser, the printer and
# every pass read its fields through the table built from the declarations.

KEYWORDS: dict[type, str] = {
    Add: "+", Mul: "*", Greater: ">", Lam: "lam", App: "app", Let: "let",
    Pair: "pair", Fst: "fst", Snd: "snd", Inl: "inl", Inr: "inr",
    Case: "case", Ref: "ref", Deref: "deref", Assign: "assign",
    Shift: "shift", Reset: "reset", If: "if", Letrec: "letrec", Seq: "seq",
}
_FORMS = {kw: cls for cls, kw in KEYWORDS.items()}

# constructor -> the names of its subexpression fields, and of its
# identifier fields, in declaration order
_KIDS = {cls: tuple(f.name for f in fields(cls) if f.type == "Expr")
         for cls in Expr.__subclasses__()}
_NAMES = {cls: tuple(f.name for f in fields(cls) if f.type == "str") for cls in _KIDS}
# constructor -> ((field name, holds a subexpression), ...); None for the
# leaves Const, Var and Unit
_SHAPE = {cls: tuple((f.name, f.name in kids) for f in fields(cls)) if kids else None
          for cls, kids in _KIDS.items()}


def _slot_inits(classes) -> None:
    """Give each constructor an __init__ that writes its slots through their
    descriptors' __set__, past the frozen __setattr__: about 0.6x the cost
    of the __init__ of a frozen dataclass, which calls object.__setattr__
    once per field.  One exec compiles them all."""
    src = []
    for cls in classes:
        names = cls.__match_args__
        src.append(f"def {cls.__name__}({', '.join('set_' + n for n in names)}):\n"
                   f" def __init__(self{''.join(', ' + n for n in names)}):\n"
                   + "".join(f"  set_{n}(self, {n})\n" for n in names)
                   + ("" if names else "  pass\n") + " return __init__\n")
    ns = {"__name__": __name__}
    exec("".join(src), ns)
    for cls in classes:
        init = ns[cls.__name__](*(cls.__dict__[n].__set__ for n in cls.__match_args__))
        init.__qualname__ = f"{cls.__name__}.__init__"
        cls.__init__ = init


_slot_inits(Expr.__subclasses__())


def map_children(e: Expr, f, *args) -> Expr:
    """Rebuild e with f(child, *args) in place of each subexpression, taken
    in declaration order; names and constants are kept and leaves come back
    unchanged."""
    cls = type(e)
    try:
        shape = _SHAPE[cls]
    except KeyError:
        raise LangError(f"not an expression: {e!r}") from None
    if shape is None:
        return e
    vals = []
    for name, sub in shape:
        v = getattr(e, name)
        vals.append(f(v, *args) if sub else v)
    return cls(*vals)


def children(e: Expr) -> list[Expr]:
    """The direct subexpressions, in declaration order."""
    return [getattr(e, n) for n in _KIDS[type(e)]]


def walk(e: Expr):
    """Every node of the tree in pre-order, children in declaration order;
    iterative, so nesting depth costs no Python stack."""
    stack = [e]
    pop, push = stack.pop, stack.append
    while stack:
        e = pop()
        yield e
        for name in reversed(_KIDS[type(e)]):
            push(getattr(e, name))


def node_count(e: Expr) -> int:
    """Number of constructors in the tree, leaves included."""
    return sum(1 for _ in walk(e))


def all_names(e: Expr) -> set[str]:
    """Every identifier occurring in the tree, free or binding.  Fresh-name
    generators must avoid all of them, not just the free ones, or generated
    binders can capture existing ones."""
    return {getattr(n, f) for n in walk(e) for f in _NAMES[type(n)]}


def contains_control(e: Expr) -> bool:
    """True when the tree holds any shift or reset node."""
    return any(isinstance(n, (Shift, Reset)) for n in walk(e))


class NameGen:
    """Deterministic fresh-name supply, skipping a set of reserved names."""

    def __init__(self, avoid: set[str] | frozenset[str] = frozenset(), prefix: str = "x"):
        self.avoid = set(avoid)
        self.prefix = prefix
        self.counter = 0

    def fresh(self, prefix: str | None = None) -> str:
        p = prefix or self.prefix
        while True:
            self.counter += 1
            name = f"{p}{self.counter}"
            if name not in self.avoid:
                self.avoid.add(name)
                return name


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>;[^\n]*)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<float>[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
      | (?P<ident>[a-zA-Z_][a-zA-Z0-9_'-]*)
      | (?P<op>[+*>])
    """,
    re.VERBOSE,
)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text or 'end of input'!r}", t.line, t.col)
        return t

    def ident(self) -> str:
        t = self.next()
        if t.kind != "ident":
            raise ParseError(f"expected identifier, found {t.text or 'end of input'!r}", t.line, t.col)
        return t.text

    def expr(self) -> Expr:
        t = self.next()
        if t.kind == "float":
            return Const(float(t.text))
        if t.kind == "ident":
            return Var(t.text)
        if t.kind != "lparen":
            raise ParseError(f"expected expression, found {t.text or 'end of input'!r}", t.line, t.col)
        head = self.peek()
        if head.kind == "rparen":
            self.next()
            return Unit()
        if head.kind not in ("ident", "op"):
            raise ParseError("form name must be an identifier or operator", head.line, head.col)
        self.next()
        e = self._form(head)
        self.expect("rparen")
        return e

    def _form(self, head: _Tok) -> Expr:
        cls = _FORMS.get(head.text)
        if cls is None:
            raise ParseError(f"unknown form {head.text!r}", head.line, head.col)
        vals = []
        for name, sub in _SHAPE[cls]:
            vals.append(self.expr() if sub else self.ident())
            if cls is Letrec and name == "fn" and not isinstance(vals[-1], Lam):
                raise ParseError("letrec binds a lam form", head.line, head.col)
        return cls(*vals)


def parse(text: str) -> Expr:
    """Parse one S-expression program; sugar forms are preserved as parsed."""
    p = _Parser(_tokenize(text))
    e = p.expr()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return e


# ---------------------------------------------------------------------------
# Printing


def fmt_float(v: float) -> str:
    """Shortest round-trip decimal; integral values drop the trailing .0."""
    s = repr(v)
    if s.endswith(".0"):
        s = s[:-2]
    return s


def pretty(e: Expr) -> str:
    """Render to concrete syntax; parse(pretty(e)) is structurally e."""
    cls = type(e)
    if cls is Const:
        return fmt_float(e.value)
    if cls is Var:
        return e.name
    if cls is Unit:
        return "()"
    shape = _SHAPE.get(cls)
    if shape is None:
        raise LangError(f"cannot print {e!r}")
    parts = [KEYWORDS[cls]]
    for name, sub in shape:
        v = getattr(e, name)
        parts.append(pretty(v) if sub else v)
    return f"({' '.join(parts)})"
