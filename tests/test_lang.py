import pytest

from adlc.interp import eval_expr
from adlc.lang import AnfError, anf, desugar, freshen, prepare
from adlc.syntax import (
    Add, App, Case, Const, Lam, Let, Mul, Var, map_children, node_count, parse,
    pretty,
)


def _binders(e, acc=None):
    from adlc.syntax import Case as C, Lam as L, Let as Le, Letrec as Lr, Shift as S, children
    acc = [] if acc is None else acc
    if isinstance(e, L):
        acc.append(e.param)
    elif isinstance(e, Le):
        acc.append(e.name)
    elif isinstance(e, Lr):
        acc.append(e.name)
    elif isinstance(e, S):
        acc.append(e.name)
    elif isinstance(e, C):
        acc.extend([e.left_name, e.right_name])
    for c in children(e):
        _binders(c, acc)
    return acc


# --- desugar ---------------------------------------------------------------

def test_desugar_if_is_case():
    e = desugar(parse("(if b 1.0 2.0)"))
    assert isinstance(e, Case)
    assert e.left_body == Const(1.0) and e.right_body == Const(2.0)


def test_desugar_if_runs_on_sums():
    # True = inl (), False = inr ()
    assert eval_expr(desugar(parse("(if (> 2.0 1.0) 10.0 20.0)")))[0] == 10.0
    assert eval_expr(desugar(parse("(if (> 1.0 2.0) 10.0 20.0)")))[0] == 20.0


def test_desugar_letrec_self_application():
    e = desugar(parse("(letrec f (lam x x) (app f 3.0))"))
    # let f0 = \f1. \x. let f = f1 f1 in body in let f = f0 f0 in ...
    assert isinstance(e, Let)
    inner = e.bound
    assert isinstance(inner, Lam) and isinstance(inner.body, Lam)
    assert isinstance(inner.body.body, Let)
    assert isinstance(inner.body.body.bound, App)
    assert eval_expr(e)[0] == 3.0


def test_desugar_letrec_recursion_works():
    src = "(letrec f (lam t (if (> t 1.0) (app f (* t 0.5)) t)) (app f 40.0))"
    v, _ = eval_expr(freshen(desugar(parse(src))))
    assert v == 0.625  # 40 -> 20 -> 10 -> 5 -> 2.5 -> 1.25 -> 0.625


def test_desugar_seq_fresh_name_unused():
    e = desugar(parse("(seq 1.0 2.0)"))
    assert isinstance(e, Let)
    assert eval_expr(e)[0] == 2.0


def test_desugar_core_unchanged():
    e = parse("(lam x (+ (* x x) 1.0))")
    assert desugar(e) == e


def test_desugar_avoids_capturing_existing_binders():
    # the seq-let's fresh name must not capture the x1 already in scope
    src = "(lam x1 (seq (ref x1) (+ x1 1.0)))"
    e = desugar(parse(src))
    v, _ = eval_expr(App(e, Const(2.0)))
    assert v == 3.0


# --- freshen ---------------------------------------------------------------

def test_freshen_distinct_binders():
    e = freshen(parse("(lam x (lam x x))"))
    bs = _binders(e)
    assert len(bs) == len(set(bs))
    assert isinstance(e, Lam) and e.body.body == Var(e.body.param)


def test_freshen_preserves_structure_and_meaning():
    e = parse("(let a 1.0 (let b 2.0 (+ a b)))")
    f = freshen(e)
    assert node_count(f) == node_count(e)
    assert eval_expr(f)[0] == 3.0


def test_freshen_deterministic():
    e = parse("(lam x (let y x (+ y y)))")
    assert freshen(e) == freshen(e)


def test_freshen_keeps_free_variables():
    e = freshen(parse("(+ x (lam y y))"))
    assert isinstance(e, Add) and e.lhs == Var("x")


def test_freshen_shadowing():
    # inner x shadows outer; renaming must keep the reference structure
    e = freshen(parse("(lam x (let x (+ x 1.0) (* x x)))"))
    v, _ = eval_expr(App(e, Const(3.0)))
    assert v == 16.0


# --- anf -------------------------------------------------------------------

def test_anf_cubic_is_four_let_chain():
    # the worked example: 2*x + x*x*x becomes four bindings
    e = anf(parse("(+ (* 2.0 x) (* (* x x) x))"))
    names = []
    cur = e
    while isinstance(cur, Let):
        assert isinstance(cur.bound, (Add, Mul))
        assert all(isinstance(a, (Const, Var))
                   for a in (cur.bound.lhs, cur.bound.rhs))
        names.append(cur.name)
        cur = cur.body
    assert len(names) == 4
    assert cur == Var(names[-1])


def test_anf_lone_variable():
    assert anf(parse("x")) == Var("x")


def test_anf_meaning_exact():
    for src in ["(+ (* 2.0 x) (* (* x x) x))",
                "(* (+ x 1.5) (+ x (* x x)))",
                "(let a (* x x) (+ a (* a x)))"]:
        e = parse(src)
        for x in (-2.0, -0.5, 0.3, 1.7):
            assert eval_expr(e, env={"x": x})[0] == eval_expr(anf(e), env={"x": x})[0]


def test_anf_idempotent_on_normal_input():
    e = parse("(let y1 (* 2.0 x) (let y2 (+ y1 x) y2))")
    assert anf(anf(e)) == anf(e)


def test_anf_size_bound_on_corpus():
    # measured bound: |anf(p)| <= 3|p| + 2 over corpus programs and some
    # nested expressions
    from adlc.gradcheck import CorpusSpec, random_program

    spec = CorpusSpec(count=60)
    exprs = [random_program(spec, i).body for i in range(spec.count)]
    exprs += [parse("(+ (* 2.0 x) (* (* x x) x))"),
              parse("(* (* (* x x) (* x x)) (* (* x x) (* x x)))")]
    for e in exprs:
        assert node_count(anf(e)) <= 3 * node_count(e) + 2


def test_anf_rejects_non_arithmetic():
    with pytest.raises(AnfError):
        anf(parse("(lam x x)"))


# --- prepare, and the work kept on a node -----------------------------------

def test_prepare_returns_an_independent_supply_each_call():
    f = parse("(lam x (if (> x 0.0) (let y (* x x) y) x))")
    a, ga = prepare(f)
    b, gb = prepare(f)
    assert a == b
    assert ga is not gb and ga.avoid is not gb.avoid
    first = ga.fresh()
    assert first in ga.avoid and first not in gb.avoid
    assert gb.fresh() == first
    # a third call starts from the kept state, not from either supply's
    _, gc = prepare(f)
    assert gc.fresh() == first


def test_kept_work_is_invisible_and_not_inherited():
    import copy
    import pickle
    from dataclasses import fields, replace

    from adlc.interp import _TRANSLATION
    from adlc.lang import _PREPARED

    src = "(lam x (let y (* x x) (+ y 1.0)))"
    f = parse(src)
    prepare(f)
    eval_expr(App(f, Const(2.0)))
    assert _PREPARED.get(f) is not None and _TRANSLATION.get(f) is not None
    fresh = parse(src)
    assert f == fresh and fresh == f and hash(f) == hash(fresh)
    assert repr(f) == repr(fresh) and pretty(f) == pretty(fresh)
    assert [fl.name for fl in fields(f)] == ["param", "body"]
    for rebuilt in (map_children(f, lambda c: c), replace(f), replace(f, param="z"),
                    copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert _PREPARED.get(rebuilt) is None and _TRANSLATION.get(rebuilt) is None


def test_only_a_lambda_keeps_work():
    # the memo slot is Lam's alone: any other node has none, keeps nothing,
    # and still pickles and copies to an equal node
    import copy
    import pickle

    from adlc.lang import _PREPARED
    from adlc.syntax import Expr

    assert all(("_memo" in c.__slots__) is (c is Lam) for c in Expr.__subclasses__())
    e = parse("(let y (* 2.0 3.0) (if (> y 1.0) y (+ y 1.0)))")
    assert not hasattr(e, "_memo")
    (a, ga), (b, gb) = prepare(e), prepare(e)
    assert a == b and ga.avoid == gb.avoid and ga.fresh() == gb.fresh()
    assert _PREPARED.get(e) is None
    for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e and hash(twin) == hash(e) and prepare(twin)[0] == a
