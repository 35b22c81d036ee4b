"""The shared traversal kernels: syntax.map_children/children/walk over
expressions, ir.walk/uses/defs over IR statements, and the passes built on
them."""

import ast
import copy
import importlib
import os
import pickle
import pkgutil
import sys
from dataclasses import FrozenInstanceError, fields

import pytest

import adlc
from adlc import syntax
from adlc.forward import TransformError, fwd_transform
from adlc.gradcheck import gradient_fn
from adlc.ir import (
    Bind, Call, CellAccum, CellNew, CellRead, CellSet, Cond, Jump, RetReal,
    Return, TapePush, defs, kinds, map_operands, uses, walk,
)
from adlc.reverse import (
    rev_transform_full_cps, rev_transform_meta_shift, rev_transform_target_shift,
)
from adlc.staging import stage_reverse, stage_tree
from adlc.syntax import (
    Const, Expr, Lam, Var, children, map_children, parse, pretty,
)

EXPR_CLASSES = Expr.__subclasses__()


def _sample(cls) -> Expr:
    """An instance whose Expr fields are distinct leaves and whose other
    fields are distinct names or a constant."""
    vals = []
    for i, f in enumerate(fields(cls)):
        if f.type == "Expr":
            vals.append(Var(f"c{i}") if i % 2 else Const(float(i)))
        elif f.type == "str":
            vals.append(f"n{i}")
        else:
            vals.append(1.5)
    return cls(*vals)


@pytest.mark.parametrize("cls", EXPR_CLASSES, ids=lambda c: c.__name__)
def test_map_children_identity_and_fields(cls):
    e = _sample(cls)
    assert map_children(e, lambda c: c) == e
    seen = []
    out = map_children(e, lambda c, tag: seen.append(c) or Var(tag), "z")
    for f in fields(cls):
        before, after = getattr(e, f.name), getattr(out, f.name)
        if isinstance(before, Expr):
            assert after == Var("z")
        else:
            assert after is before
    expr_fields = [getattr(e, f.name) for f in fields(cls)
                   if isinstance(getattr(e, f.name), Expr)]
    assert seen == expr_fields
    assert children(e) == expr_fields
    assert list(syntax.walk(e)) == [e, *expr_fields]


@pytest.mark.parametrize("cls", EXPR_CLASSES, ids=lambda c: c.__name__)
def test_node_is_frozen_slotted_and_copies_equal(cls):
    e = _sample(cls)
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(e, f.name, getattr(e, f.name))
    assert not hasattr(e, "__dict__")
    for twin in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e), copy.copy(e)):
        assert type(twin) is cls and twin == e and hash(twin) == hash(e)


def test_each_constructor_is_one_subclass():
    assert len({c.__name__ for c in EXPR_CLASSES}) == len(EXPR_CLASSES)
    assert all(getattr(syntax, c.__name__) is c for c in EXPR_CLASSES)


def test_walk_is_preorder_in_declaration_order():
    e = parse("(case (+ a b) l (* c d) r (pair e f))")
    names = [n.name if isinstance(n, Var) else type(n).__name__
             for n in syntax.walk(e)]
    assert names == ["Case", "Add", "a", "b", "Mul", "c", "d", "Pair", "e", "f"]


def test_map_children_rejects_non_expressions():
    with pytest.raises(syntax.LangError):
        map_children(("not", "an", "expr"), lambda c: c)


_STMTS = [
    (Bind("b", "add", ("x", 1.0)), ["x", 1.0], ["b"]),
    (CellNew("d", 0.0), [0.0], ["d"]),
    (CellRead("t", "d"), ["d"], ["t"]),
    (CellAccum("d", "t"), ["d", "t"], []),
    (CellSet("d", 1.0), ["d", 1.0], []),
    (Call("f", ("x", "d")), ["x", "d"], []),
    (Call("rec", ("t", "d"), results=("y", "dy")), ["t", "d"], ["y", "dy"]),
    (Jump("loop", ("v", "d")), ["v", "d"], []),
    (TapePush("loop_bwd", ("d", "x")), ["d", "x"], []),
    (Cond("g", [Return("x")], []), ["g"], []),
    (Return("r"), ["r"], []),
    (RetReal("y", "dy"), ["y", "dy"], []),
]


@pytest.mark.parametrize("stmt,used,defined", _STMTS,
                         ids=[type(s).__name__ for s, _, _ in _STMTS])
def test_uses_and_defs(stmt, used, defined):
    assert uses(stmt) == used
    assert defs(stmt) == defined


@pytest.mark.parametrize("stmt,used,defined", _STMTS,
                         ids=[type(s).__name__ for s, _, _ in _STMTS])
def test_map_operands(stmt, used, defined):
    before = copy.deepcopy(stmt)

    def f(o):
        return ("mapped", o)

    out = map_operands(stmt, f)
    assert type(out) is type(stmt)
    assert uses(out) == [f(o) for o in used]
    assert defs(out) == defined
    assert stmt == before


def _program(name: str) -> str:
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "programs", name)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("prog", [
    stage_reverse(parse(_program("halve_loop.sexp"))),
    stage_tree(parse(_program("tree_fold.sexp")))], ids=["loop", "tree"])
def test_kinds_cover_every_symbol(prog):
    kind = kinds(prog.functions)
    assert set(kind.values()) <= {"val", "cell", "tree", "bool"}
    for fn in prog.functions.values():
        for p, k in fn.params:
            assert kind[p] == k
        for s in walk(fn.body):
            for d in defs(s):
                assert d in kind
            if type(s) is CellNew:
                assert kind[s.dest] == "cell"
            if type(s) is Call and s.results:
                assert [kind[r] for r in s.results] == ["val", "cell"]


def test_ir_walk_is_preorder_then_before_orelse():
    inner = Cond("h", [Return("a")], [Return("b")])
    outer = Cond("g", [CellRead("t", "d"), inner], [Return("c")])
    block = [CellNew("d", 0.0), outer, Return("e")]
    assert list(walk(block)) == [
        block[0], outer, outer.then[0], inner, inner.then[0], inner.orelse[0],
        outer.orelse[0], block[2]]


_SUGAR = ["(if (> x 0.0) x x)", "(letrec f (lam t t) (app f x))", "(seq x x)",
          "(lam x (pair 1.0 (seq x x)))"]


@pytest.mark.parametrize("transform", [
    fwd_transform, rev_transform_target_shift, rev_transform_meta_shift,
    rev_transform_full_cps])
@pytest.mark.parametrize("src", _SUGAR)
def test_transforms_reject_sugar(transform, src):
    with pytest.raises(TransformError, match="desugar first"):
        transform(parse(src))


def _imports(name: str) -> tuple[set, set]:
    """(modules of the package that adlc.<name> imports relatively, modules
    it imports absolutely), read from its source."""
    with open(os.path.join(os.path.dirname(syntax.__file__), name + ".py")) as f:
        tree = ast.parse(f.read())
    local = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}
    absolute = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names} | {n.module for n in ast.walk(tree)
                                     if isinstance(n, ast.ImportFrom) and not n.level}
    return local, absolute


def test_ir_passes_import_the_ir_alone():
    # ir_eval, ir_opt and emit read the IR from adlc.ir, not through the
    # stager and with it the CEK machine and the runtimes; ir itself
    # imports only syntax
    allowed = {"ir": {"syntax"}, "ir_eval": {"ir", "syntax"},
               "ir_opt": {"ir", "syntax"}, "emit": {"ir", "syntax"}}
    for name, ok in allowed.items():
        local, absolute = _imports(name)
        assert local <= ok, (name, local)
        assert not any(m.split(".")[0] == "adlc" for m in absolute), (name, absolute)


def test_transformations_import_no_evaluator():
    # the transformations map expressions to expressions: running a
    # gradient program is the mode table's work (gradcheck.MODES), so
    # neither the CEK machine nor the table is imported by them
    for name in ("forward", "reverse", "lang"):
        local, absolute = _imports(name)
        assert not local & {"interp", "gradcheck"}, (name, local)
        assert not any(m.split(".")[0] == "adlc" for m in absolute), (name, absolute)


# one-shot gradient wrappers that the mode table replaced
REMOVED_WRAPPERS = ("apply_real", "grad_forward", "grad_forward_over_reverse",
                    "grad_forward_tagged", "grad_reverse", "grad_reverse_of_reverse",
                    "grad_symbolic", "perturbation_confusion_probe")


def test_package_exports_resolve_and_no_wrapper_is_left():
    assert not [n for n in adlc.__all__ if not hasattr(adlc, n)]
    modules = [adlc] + [importlib.import_module(f"adlc.{m.name}")
                        for m in pkgutil.iter_modules(adlc.__path__)]
    for module in modules:
        left = [n for n in REMOVED_WRAPPERS if hasattr(module, n)]
        assert not left, (module.__name__, left)


def test_deep_nesting_at_default_recursion_limit():
    depth = 400
    src = "(lam x " + "(+ x " * depth + "x" + ")" * depth + ")"
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        f = parse(src)
        assert isinstance(f, Lam)
        assert pretty(f) == src
        assert pretty(parse(pretty(f))) == src
        assert gradient_fn(f, "forward")(1.0) == 401.0
        assert gradient_fn(f, "reverse-target-shift")(1.0) == 401.0
    finally:
        sys.setrecursionlimit(saved)
