import random
import re
import resource
import shutil
import subprocess
import sys
import tracemalloc

import pytest

from adlc.emit import emit_c
from adlc.gradcheck import CorpusSpec, random_program
from adlc.ir_eval import IREvalError, ir_eval
from adlc.ir_opt import ir_optimize
from adlc.reverse import grad_reverse
from adlc.runtime import grad_tape_expr
from adlc.staging import (
    Bind, Call, CellAccum, CellNew, CellRead, CellSet, ClosureNew, Cond,
    IRFunction, IRProgram, Jump, Return, StagingError, TreeData, ir_cell_op_count,
    ir_stmt_count, parse_tree, stage_reverse, stage_tree, tree_to_expr,
)
from adlc.syntax import Add, App, Const, Greater, If, Lam, Let, Letrec, Mul, Var, parse
from fuzz import FEATURE_CASES
from scaling import frames_in_use, seeded_chain, sequential_ifs

SQUARE = parse("(lam x (* x x))")
IF_EXAMPLE = parse("(lam x (if (> x 0.0) (* (* -1.0 x) x) (* x x)))")
WHILE_EXAMPLE = parse(
    "(lam x (letrec loop (lam t (if (> t 1.0) (app loop (* t 0.5)) t))"
    " (app loop x)))")
TREE_BODY = parse("(* (* l r) v)")
# a loop that never terminates
RUNAWAY = parse("(lam x (letrec f (lam t (if (> t 1.0)"
                " (app f (* t 2.0)) t)) (app f x)))")


def _stmts(block):
    for s in block:
        yield s
        if isinstance(s, Cond):
            yield from _stmts(s.then)
            yield from _stmts(s.orelse)


def _all_stmts(p: IRProgram):
    for fn in p.functions.values():
        yield from _stmts(fn.body)


# --- straight-line ---------------------------------------------------------------

def test_square_ir_shape():
    p = stage_reverse(SQUARE)
    body = p.functions[p.entry].body
    kinds = [type(s).__name__ for s in body]
    # d0 = ref 0; v = in*in; d = ref 0; d := 1; two read/mul/accum rounds; read; return
    assert kinds == ["CellNew", "Bind", "CellNew", "CellSet", "CellRead",
                     "Bind", "CellAccum", "CellRead", "Bind", "CellAccum",
                     "CellRead", "Return"]
    mul = body[1]
    assert mul.op == "mul" and mul.args == ("in", "in")
    assert body[3].value == 1.0


def test_square_values():
    p = stage_reverse(SQUARE)
    assert ir_eval(p, 3.0) == 6.0
    assert ir_eval(p, -2.0) == -4.0


def test_staged_equals_unstaged_straight_line():
    spec = CorpusSpec(count=40)
    for i in range(spec.count):
        f = random_program(spec, i)
        p = stage_reverse(f)
        for x in (-2.0, -0.5, 1.0, 2.0):
            assert ir_eval(p, x) == grad_reverse(f, x, "meta-shift")


# --- conditionals -----------------------------------------------------------------

def test_if_values():
    p = stage_reverse(IF_EXAMPLE)
    # branches are -x^2 and x^2, so the gradient is -2x then 2x: -4 at +-2
    assert ir_eval(p, 2.0) == -4.0
    assert ir_eval(p, -2.0) == -4.0


def test_if_bitwise_equal_to_unstaged():
    p = stage_reverse(IF_EXAMPLE)
    for x in (2.0, -2.0, 0.5, -0.5):
        assert ir_eval(p, x) == grad_reverse(IF_EXAMPLE, x, "meta-shift")


def test_if_continuation_body_exactly_once():
    # the continuation is a named function; branches only call it
    p = stage_reverse(IF_EXAMPLE)
    conds = [s for s in _all_stmts(p) if isinstance(s, Cond)]
    assert len(conds) == 1
    k_sets = [s for s in _all_stmts(p)
              if isinstance(s, CellSet) and s.value == 1.0]
    assert len(k_sets) == 1
    # both branches end by calling the same named continuation
    then_calls = [s for s in conds[0].then if isinstance(s, Call)]
    else_calls = [s for s in conds[0].orelse if isinstance(s, Call)]
    assert then_calls[-1].target == else_calls[-1].target


# --- loops -------------------------------------------------------------------------

def test_while_value():
    p = stage_reverse(WHILE_EXAMPLE)
    # three halvings at x = 8, so the gradient is 0.5^3
    assert ir_eval(p, 8.0) == 0.125
    assert ir_eval(p, 100.0) == 0.5 ** 7
    assert ir_eval(p, 0.5) == 1.0  # loop body never runs


def test_while_bitwise_equal_to_unstaged():
    p = stage_reverse(WHILE_EXAMPLE)
    for x in (8.0, 100.0, 0.5, 3.0):
        assert ir_eval(p, x) == grad_reverse(WHILE_EXAMPLE, x, "meta-shift")


def _tail_self_calls_only(p: IRProgram, fn_name: str) -> bool:
    """Every call of fn_name inside fn_name sits in tail position."""
    fn = p.functions[fn_name]

    def check(block, tail: bool) -> bool:
        for i, s in enumerate(block):
            last = tail and i == len(block) - 1
            if isinstance(s, Call) and not s.indirect and s.target == fn_name:
                if not last:
                    return False
            elif isinstance(s, Cond):
                if not check(s.then, last) or not check(s.orelse, last):
                    return False
        return True

    return check(fn.body, True)


def test_while_self_calls_in_tail_position():
    p = stage_reverse(WHILE_EXAMPLE)
    loops = [n for n in p.functions if n.startswith("loop") and "bwd" not in n]
    assert loops
    for n in loops:
        assert _tail_self_calls_only(p, n)


def test_while_loop_signature_and_accumulation():
    p = stage_reverse(WHILE_EXAMPLE)
    loop = next(fn for n, fn in p.functions.items()
                if n.startswith("loop") and "bwd" not in n)
    assert [k for _, k in loop.params] == ["val", "cell"]
    # the iteration backward work d += 0.5 * !d1 lives on the chain
    bwd = next(fn for n, fn in p.functions.items() if "bwd" in n)
    ops = [type(s).__name__ for s in bwd.body]
    assert "CellAccum" in ops and "CellRead" in ops
    muls = [s for s in bwd.body if isinstance(s, Bind) and s.op == "mul"]
    assert any(0.5 in m.args for m in muls)


def test_while_runs_deep_in_constant_stack():
    # a 50000-iteration countdown loop: 50000 non-tail Python frames would
    # blow the interpreter stack, so finishing proves tail calls are flat
    countdown = parse("(lam x (letrec f (lam t (if (> t 0.0)"
                      " (app f (+ t -1.0)) t)) (app f x)))")
    p = stage_reverse(countdown)
    assert ir_eval(p, 50000.0) == 1.0
    # 2^400 halves 400 times
    pw = stage_reverse(WHILE_EXAMPLE)
    assert ir_eval(pw, 2.0 ** 400, depth_limit=5000) == 0.5 ** 400


def test_while_memory_is_linear_in_iterations():
    # the tape holds one record, and the loop makes its cells, per
    # iteration, so the peak of a run twice as long is about twice as high
    countdown = parse("(lam x (letrec f (lam t (if (> t 1.0)"
                      " (app f (* t 0.99999)) t)) (app f x)))")
    p = ir_optimize(stage_reverse(countdown))
    n = 100_000
    ir_eval(p, 2.0)  # the translation is kept on p, outside the peaks
    peaks = []
    for iters in (n, 2 * n):
        x = 0.99999 ** -(iters - 0.5)
        tracemalloc.start()
        try:
            assert ir_eval(p, x, depth_limit=3 * n) > 0.0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.3 * peaks[0]


def test_runaway_loop_stops_at_limit():
    # a loop that never terminates must trip the limit, tail calls included
    p = stage_reverse(RUNAWAY)
    with pytest.raises(IREvalError, match="depth limit"):
        ir_eval(p, 2.0, depth_limit=2000)


def test_depth_limit_enforced():
    deep = parse("(lam x (if (> x 0.0) (if (> x 1.0) (* x x) (* x 2.0)) x))")
    p = stage_reverse(deep)
    with pytest.raises(IREvalError, match="depth limit"):
        ir_eval(p, 2.0, depth_limit=1)


def test_letrec_non_loop_rejected():
    # a letrec whose body never calls itself is a loop of one iteration,
    # and its result flows on into the rest of the program
    once = parse("(lam x (letrec f (lam t t) (+ (app f x) 1.0)))")
    p = stage_reverse(once)
    for x in (2.0, -0.5):
        assert ir_eval(p, x).hex() == grad_reverse(once, x, "meta-shift").hex()
    # a self-call whose result the body still uses is not a loop
    bad = parse("(lam x (letrec f (lam t (if (> t 1.0) (+ 1.0 (app f (* t 0.5))) t))"
                " (app f x)))")
    with pytest.raises(StagingError, match="loop form"):
        stage_reverse(bad)
    # nor is one that ends a branch of a case not in tail position: it is a
    # non-tail application whose value the join still uses (staged as a
    # jump, it would give 0.5 at x = 3, where the gradient is 2.0)
    bad = parse("(lam x (letrec f (lam t (let y (if (> t 1.0) (app f (* t 0.5)) t)"
                " (* y 2.0))) (app f x)))")
    with pytest.raises(StagingError, match="letrec stages only in loop form"):
        stage_reverse(bad)


def test_staged_branch_may_not_assign_an_older_ref():
    # the rest after the join is staged once, from the store as it was at
    # the case, so a branch may not change a ref that the rest can read
    f = parse("(lam x (let r (ref 0.0) (+ (if (> x 0.0) (seq (assign r (* x x)) x) x)"
              " (deref r))))")
    with pytest.raises(StagingError, match="assigns a ref made before it"):
        stage_reverse(f)
    # nor in the rest of a case nested in the branch: the outer join checks
    # the store on every path to it (unchecked, this staged to 2.0 at x = 2
    # and 3.0 at x = 0.5, where the gradient is 4.0 and 6.0)
    f = parse("(lam x (let r (ref 0.0) (let y (if (> x 0.0) (let z (if (> x 1.0)"
              " (* x 2.0) (* x 3.0)) (seq (assign r z) z)) x) (+ y (deref r)))))")
    with pytest.raises(StagingError,
                       match="a branch on a staged guard assigns a ref made before it"):
        stage_reverse(f)
    # a ref made inside the branch is the branch's own
    f = parse("(lam x (if (> x 0.0) (let r (ref x) (seq (assign r (* x x)) (deref r))) x))")
    p = stage_reverse(f)
    for x in (2.0, -2.0):
        assert ir_eval(p, x).hex() == grad_reverse(f, x, "meta-shift").hex()


def test_staged_branch_reads_a_ref_as_it_was_at_the_case():
    # the rest, staged before the branches, assigns r; each branch still
    # reads the value r held at the case (3x or x, not 5)
    f = parse("(lam x (let r (ref x) (let y (if (> x 0.0) (* (deref r) 3.0) (deref r))"
              " (seq (assign r 5.0) (* y (deref r))))))")
    p = stage_reverse(f)
    for x in (2.0, -2.0):
        assert ir_eval(p, x).hex() == grad_reverse(f, x, "meta-shift").hex()
    assert [ir_eval(p, x) for x in (2.0, -2.0)] == [15.0, 5.0]


def test_staged_loop_body_may_not_assign_an_older_ref():
    # the body is staged once, from the store as it was at the loop's first
    # application, so an iteration may not change a ref the next one reads
    # (staged silently, this gave 1.0 at x = 4, where the sum is 7.0)
    f = parse("(lam x (let r (ref 0.0) (letrec f (lam t (seq (assign r (+ (deref r) t))"
              " (if (> t 1.0) (app f (* t 0.5)) (deref r)))) (app f x))))")
    with pytest.raises(StagingError, match="assigns a ref made before the loop"):
        stage_reverse(f)
    # reading an older ref, and assigning one the iteration makes, are fine
    for src in ("(lam x (let r (ref 3.0) (letrec f (lam t (if (> t 1.0)"
                " (app f (* t (* (deref r) 0.25))) (* t (deref r)))) (app f x))))",
                "(lam x (letrec f (lam t (let s (ref t) (seq (assign s (* (deref s) 0.5))"
                " (if (> t 1.0) (app f (deref s)) (deref s))))) (app f x)))"):
        f = parse(src)
        p = stage_reverse(f)
        for x in (5.0, 0.5):
            assert ir_eval(p, x).hex() == grad_reverse(f, x, "meta-shift").hex()


def test_staged_loop_lifts_a_literal_argument():
    # the guard is staged but the argument is a literal: the loop is still
    # staged once, not unrolled without bound
    f = parse("(lam x (letrec f (lam n (if (> x n) (app f (+ n 1.0)) (* n x))) (app f 0.0)))")
    p = stage_reverse(f)
    for x in (3.5, -1.0, 0.25):
        assert ir_eval(p, x).hex() == grad_reverse(f, x, "meta-shift").hex()
    pair = parse("(lam x (letrec f (lam p (if (> (fst p) 1.0) (app f (pair (* (fst p) 0.5)"
                 " 0.0)) (fst p))) (app f (pair x 0.0))))")
    with pytest.raises(StagingError, match="loop argument is not a staged real"):
        stage_reverse(pair)


def test_stage_reverse_runs_deep_inputs_on_the_machines_stack():
    # the machine's explicit stacks carry the nesting, so a 10^4-op chain
    # and a 10^4-deep nest stage within 1000 frames of this test's own
    nest = Var("x")
    for i in range(10_000):
        nest = Add(Var("x"), nest) if i % 2 else Mul(nest, Const(1.0001))
    progs = (seeded_chain(10_000), Lam("x", nest))
    xs = (0.5, -1.25)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(frames_in_use() + 1000)
    try:
        got = [[ir_eval(stage_reverse(f), x).hex() for x in xs] for f in progs]
    finally:
        sys.setrecursionlimit(saved)
    assert got == [[grad_tape_expr(f, x).hex() for x in xs] for f in progs]


def _sequential_loops(n: int) -> Lam:
    """n staged loops one after another, each from the one before's result."""
    body = Var(f"y{n}")
    for i in range(n, 0, -1):
        f, t = Var(f"f{i}"), Var("t")
        loop = Lam("t", If(Greater(t, Const(2.0)), App(f, Mul(t, Const(0.5))),
                           Mul(t, Const(1.5))))
        body = Let(f"y{i}", Letrec(f.name, loop, App(f, Var(f"y{i - 1}"))), body)
    return Lam("x", Let("y0", Var("x"), body))


def test_stage_reverse_runs_sequential_ifs_and_loops_on_a_work_list():
    # each conditional and loop queues its runs on the stager's work list
    # instead of staging them inside the machine's hook, so 2000 staged ifs
    # with a value live across all of them, and 1000 staged loops, stage
    # within 1000 frames of this test's own
    progs = (sequential_ifs(2000), _sequential_loops(1000))
    xs = (0.3, 0.7), (0.7, 5.0)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(frames_in_use() + 1000)
    try:
        staged = [stage_reverse(f) for f in progs]
    finally:
        sys.setrecursionlimit(saved)
    for f, p, probes in zip(progs, staged, xs):
        assert [ir_eval(p, x).hex() for x in probes] == \
            [grad_tape_expr(f, x).hex() for x in probes]


def test_lambda_lifting_carries_a_value_across_many_ifs():
    # the value made before the first conditional passes through the
    # continuation of every one of them, one more per round of lifting
    f = sequential_ifs(100)
    p = stage_reverse(f)
    for x in (0.3, 0.7):
        assert ir_eval(p, x).hex() == grad_tape_expr(f, x).hex()


def test_staging_rejects_control():
    with pytest.raises(StagingError):
        stage_reverse(parse("(lam x (reset (shift k (app k x))))"))


# --- trees -------------------------------------------------------------------------

def _dual_fold(t, x):
    """Independent oracle: dual-number fold over the same tree."""
    if t is None:
        return x
    l = _dual_fold(t.left, x)
    r = _dual_fold(t.right, x)
    return (l[0] * r[0] * t.value, (l[1] * r[0] + l[0] * r[1]) * t.value)


def test_tree_single_node():
    p = stage_tree(TREE_BODY)
    t = parse_tree("(node 3.0 (leaf) (leaf))")
    # f(x) = x * x * 3, gradient 2 x v = 12 at x = 2
    assert ir_eval(p, 2.0, tree=t) == 12.0


def test_tree_empty_is_identity():
    p = stage_tree(TREE_BODY)
    assert ir_eval(p, 2.0, tree=None) == 1.0


def test_tree_against_dual_oracle():
    p = stage_tree(TREE_BODY)
    trees = [
        parse_tree("(node 2.0 (leaf) (leaf))"),
        parse_tree("(node 2.0 (node 0.5 (leaf) (leaf)) (node 1.5 (leaf) (leaf)))"),
        parse_tree("(node 1.25 (node 2.0 (node 0.5 (leaf) (leaf)) (leaf)) (leaf))"),
    ]
    for t in trees:
        for x in (0.5, 1.0, 2.0):
            _, expect = _dual_fold(t, (x, 1.0))
            got = ir_eval(p, x, tree=t)
            assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


def test_tree_bitwise_equal_to_unstaged():
    p = stage_tree(TREE_BODY)
    for src in ["(node 3.0 (leaf) (leaf))",
                "(node 2.0 (node 0.5 (leaf) (leaf)) (node 1.5 (leaf) (leaf)))"]:
        t = parse_tree(src)
        unstaged = tree_to_expr(t, TREE_BODY)
        for x in (0.5, 1.0, 2.0):
            assert ir_eval(p, x, tree=t) == grad_reverse(unstaged, x, "meta-shift")


def _pow2_tree(rng, depth):
    """A full tree with node values 0.5, 1 and 2: at x = 1 or -1 every
    product in the fold is a signed power of two and every sum adds equal
    terms, so any evaluation order gives the same bits."""
    if depth == 0:
        return None
    return TreeData(rng.choice((0.5, 1.0, 2.0)), _pow2_tree(rng, depth - 1),
                    _pow2_tree(rng, depth - 1))


def test_deep_tree_fold_needs_no_python_stack():
    # a depth-12 fold (4095 nodes) nests a continuation call per node; the
    # explicit frame stack runs it within 100 frames of this test's own,
    # and the depth limit still counts that nesting
    rng = random.Random(12)
    t = _pow2_tree(rng, 12)
    p = stage_tree(TREE_BODY)
    progs = (p, ir_optimize(p))
    want = {x: _dual_fold(t, (x, 1.0))[1].hex() for x in (1.0, -1.0)}
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(frames_in_use() + 100)
    try:
        got = {x: [ir_eval(q, x, tree=t).hex() for q in progs] for x in want}
    finally:
        sys.setrecursionlimit(saved)
    assert got == {x: [w, w] for x, w in want.items()}
    with pytest.raises(IREvalError, match="depth limit"):
        ir_eval(p, 1.0, tree=_pow2_tree(rng, 6), depth_limit=50)


def test_parse_tree_errors():
    from adlc.syntax import ParseError

    with pytest.raises(ParseError):
        parse_tree("(branch 1.0)")
    with pytest.raises(ParseError):
        parse_tree("(node x (leaf) (leaf))")


# --- optimizer ------------------------------------------------------------------------

def test_optimize_square_shrinks_to_2in():
    p = stage_reverse(SQUARE)
    po = ir_optimize(p)
    assert ir_stmt_count(po) < ir_stmt_count(p)
    assert ir_cell_op_count(po) == 0
    assert "2 * in" in emit_c(po)
    for x in (-2.0, 0.0, 3.5):
        assert ir_eval(po, x) == ir_eval(p, x)


def test_optimize_fixpoint():
    p = ir_optimize(stage_reverse(SQUARE))
    q = ir_optimize(p)
    assert ir_stmt_count(q) == ir_stmt_count(p)


def test_optimize_removes_unused_bind():
    p = stage_reverse(SQUARE)
    entry = p.functions[p.entry]
    entry.body.insert(1, Bind("zz_unused", "mul", ("in", "in")))
    po = ir_optimize(p)
    assert not any(isinstance(s, Bind) and s.dest == "zz_unused"
                   for s in _all_stmts(po))
    assert ir_eval(po, 3.0) == 6.0


def test_optimize_sound_at_random_probes():
    rng = random.Random(20240809)
    spec = CorpusSpec(count=15)
    cases = [(stage_reverse(random_program(spec, i)), None) for i in range(spec.count)]
    cases += [(stage_reverse(IF_EXAMPLE), None), (stage_reverse(WHILE_EXAMPLE), None),
              (stage_tree(TREE_BODY), parse_tree("(node 2.0 (node 0.5 (leaf) (leaf)) (leaf))"))]
    for p, tree in cases:
        po = ir_optimize(p)
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0)
            assert ir_eval(p, x, tree=tree) == ir_eval(po, x, tree=tree)


def _entry(*body, **fns) -> IRProgram:
    """An entry on `in` plus the functions given as name=(params, body)."""
    functions = {n: IRFunction(n, params, fbody) for n, (params, fbody) in fns.items()}
    functions["snippet"] = IRFunction("snippet", [("in", "val")], list(body))
    return IRProgram(functions, "snippet")


LITERALS = (0.0, -0.0, 1.5, -1.5, float("inf"), float("-inf"), float("nan"),
            1e300, 1e-300)


@pytest.mark.parametrize("op", ["add", "mul", "greater"])
def test_literal_fold_matches_ir_eval_bitwise(op):
    for a in LITERALS:
        for b in LITERALS:
            if op == "greater":
                p = _entry(Bind("g", op, (a, b)), Cond("g", [Return(1.0)], [Return(0.0)]))
            else:
                p = _entry(Bind("r", op, (a, b)), Return("r"))
            po = ir_optimize(p)
            assert not any(isinstance(s, (Bind, Cond)) for s in _all_stmts(po))
            assert ir_eval(po, 0.0).hex() == ir_eval(p, 0.0).hex()


def test_ir_eval_op_errors():
    with pytest.raises(IREvalError, match="unknown operation 'sub'"):
        ir_eval(_entry(Bind("r", "sub", ("in", 1.0)), Return("r")), 1.0)
    for op in ("tree_value", "tree_left", "tree_right"):
        with pytest.raises(IREvalError, match="non-tree"):
            ir_eval(_entry(Bind("r", op, ("in",)), Return("r")), 1.0)
    # a Bind takes as many operands as its op's C text has holes: any other
    # count is an error, unoptimized and after ir_optimize, which leaves it
    # unfolded
    for op, args, n in WRONG_ARITY:
        p = _entry(Bind("r", op, args), Return("r"))
        for q in (p, ir_optimize(p)):
            with pytest.raises(IREvalError, match=f"^{op} takes {n} operands, got {len(args)}$"):
                ir_eval(q, 1.0)


# (op, operands, the op's arity)
WRONG_ARITY = (("add", ("in",), 2), ("mul", ("in", "in", "in"), 2),
               ("tree_value", ("in", "in"), 1), ("greater", (), 2))


def test_ir_eval_structural_errors():
    two = ([("a", "val"), ("b", "val")], [])
    cases = [
        ("undefined symbol 'zz'", _entry(Bind("r", "add", ("in", "zz")), Return("r"))),
        ("unknown function 'nope'", _entry(Call("nope", ("in",)), Return("in"))),
        ("unknown function 'nope'", _entry(Call("nope", ("in",)))),
        ("f expects 2 args, got 1", _entry(Call("f", ("in",)), Return("in"), f=two)),
        ("f expects 2 args, got 1", _entry(ClosureNew("c", "f", ()),
                                           Call("c", ("in",), indirect=True), f=two)),
        ("calling a non-closure 'in'", _entry(Call("in", (), indirect=True))),
        ("entry did not return a value", _entry(Bind("r", "add", ("in", 1.0)))),
        ("entry returned a non-real", _entry(CellNew("d", 0.0), Return("d"))),
    ]
    for text, p in cases:
        with pytest.raises(IREvalError, match=re.escape(text)):
            ir_eval(p, 1.0)
    # errors are raised when reached: an undefined symbol in an untaken
    # branch raises nothing, and one defined on one branch only is
    # undefined after the other
    p = _entry(Bind("g", "greater", ("in", 0.0)),
               Cond("g", [Return("in")], [Return("zz")]))
    assert ir_eval(p, 2.0) == 2.0
    with pytest.raises(IREvalError, match="undefined symbol 'zz'"):
        ir_eval(p, -2.0)
    p = _entry(Bind("g", "greater", ("in", 0.0)),
               Cond("g", [Bind("y", "mul", ("in", 2.0))], []), Return("y"))
    assert ir_eval(p, 2.0) == 4.0
    with pytest.raises(IREvalError, match="undefined symbol 'y'"):
        ir_eval(p, -2.0)


def test_translation_is_kept_per_program_and_the_limit_per_call():
    # ir_eval keeps a program's translation on the program: the depth limit
    # is still each call's own, and ir_optimize's copy gets its own
    p = stage_reverse(RUNAWAY)
    with pytest.raises(IREvalError, match=r"depth limit exceeded \(2000\)"):
        ir_eval(p, 2.0, depth_limit=2000)
    with pytest.raises(IREvalError, match=r"depth limit exceeded \(100000\)"):
        ir_eval(p, 2.0)
    tree = parse_tree("(node 2.0 (node -0.5 (leaf) (leaf)) (leaf))")
    for p, t in ((stage_reverse(WHILE_EXAMPLE), None), (stage_reverse(IF_EXAMPLE), None),
                 (stage_tree(TREE_BODY), tree)):
        xs = (8.0, 0.3, -2.0, -0.0)
        before = [ir_eval(p, x, tree=t).hex() for x in xs]
        po = ir_optimize(p)
        assert po.translation is None
        assert [ir_eval(po, x, tree=t).hex() for x in xs] == before
        assert po.translation is not p.translation


def test_optimize_leaves_input_unchanged():
    # ir_optimize copies only the program and function shells, so no pass
    # may edit a statement or a block of its input
    for p in (stage_reverse(SQUARE), stage_reverse(WHILE_EXAMPLE),
              stage_reverse(parse(LOOP_COMPOSITES["nested-loops"])),
              stage_tree(TREE_BODY)):
        before = emit_c(p)
        ir_optimize(p)
        assert emit_c(p) == before


# --- emission ------------------------------------------------------------------------

def test_emit_deterministic():
    for p in (stage_reverse(IF_EXAMPLE), stage_reverse(WHILE_EXAMPLE),
              stage_tree(TREE_BODY)):
        assert emit_c(p) == emit_c(p)
        assert emit_c(ir_optimize(p)) == emit_c(ir_optimize(p))


def test_emit_while_has_reference_parameters():
    txt = emit_c(stage_reverse(WHILE_EXAMPLE))
    assert "(double x, double& d)" in txt
    assert "tape" in txt


def test_emit_tree_mentions_tree_struct():
    txt = emit_c(stage_tree(TREE_BODY))
    assert "Tree" in txt and ".notEmpty" in txt


def test_emit_lf_and_indent():
    txt = emit_c(stage_reverse(SQUARE))
    assert "\r" not in txt
    assert any(line.startswith("  ") for line in txt.split("\n"))


def test_emit_rejects_closures_it_cannot_emit():
    # a closure is a kont1 of (value, adjoint cell) that captures cells by
    # reference, so one of another arity, of an unknown function, or that
    # captures a cell made in its own function is refused, not miscompiled
    k = ([("x", "val"), ("d", "cell"), ("c", "cell")], [CellAccum("c", "x")])
    cases = [("made in snippet", _entry(CellNew("c", 0.0), ClosureNew("f", "k", ("c",)),
                                        Call("f", ("in", "c"), indirect=True),
                                        Return("in"), k=k)),
             ("arity other than 2", _entry(ClosureNew("f", "k", ()), Return("in"), k=k)),
             ("arity other than 2", _entry(ClosureNew("f", "nope", ()), Return("in")))]
    # nor is a Bind with the wrong number of operands
    cases += [("cannot emit Bind", _entry(Bind("r", op, args), Return("r")))
              for op, args, _n in WRONG_ARITY]
    for text, p in cases:
        with pytest.raises(ValueError, match=text):
            emit_c(p)


LOOP_COMPOSITES = {
    "loop-then-square": "(lam x (let z (letrec f (lam t (if (> t 1.0)"
                        " (app f (* t 0.5)) t)) (app f x)) (* z z)))",
    "square-then-loop": "(lam x (letrec f (lam t (if (> t 1.0)"
                        " (app f (* t 0.5)) t)) (app f (* x x))))",
    "two-loops": "(lam x (let a (letrec f (lam t (if (> t 1.0) (app f (* t 0.5)) t))"
                 " (app f x)) (let b (letrec g (lam u (if (> u 2.0)"
                 " (app g (* u 0.25)) u)) (app g (* a 16.0))) (* a b))))",
    "nested-loops": "(lam x (letrec outer (lam t (if (> t 1.0) (app outer"
                    " (letrec inner (lam u (if (> u (* t 0.25)) (app inner (* u 0.5)) u))"
                    " (app inner t))) t)) (app outer x)))",
    "rich-body": "(lam x (letrec f (lam t (if (> t 1.0)"
                 " (app f (+ (* t 0.25) (* t 0.25))) t)) (app f x)))",
    # the product before the conditional is backward work that follows the
    # self-call, after the backward work of its argument
    "op-before-if": "(lam x (letrec f (lam t (let u (* t 0.5) (if (> u 1.0)"
                    " (app f (* u 0.9)) u))) (app f x)))",
}


@pytest.mark.parametrize("name", sorted(LOOP_COMPOSITES))
def test_loop_composites_staged_matches_unstaged(name):
    # mid-program, sequential, and nested loops exercise the tape mark and
    # unwind at every call site
    f = parse(LOOP_COMPOSITES[name])
    p = stage_reverse(f)
    po = ir_optimize(p)
    for x in (8.0, 37.5, 0.3, 100.0, 3.0):
        want = grad_reverse(f, x, "meta-shift")
        assert ir_eval(p, x) == want
        assert ir_eval(po, x) == want


# --- emitted C++ as a backend ----------------------------------------------------------

CXX = ("g++", "-O1", "-std=c++17")
CHILD_AS_BYTES = 1 << 30
CHILD_TIMEOUT_S = 60.0
needs_gxx = pytest.mark.skipif(shutil.which("g++") is None,
                               reason="no C++ compiler available")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


def run_native(tmp_path, name: str, source: str) -> str:
    """Compile emitted text plus a main with the suite's flags, run it as a
    child under an address-space limit and a timeout, and return stdout."""
    src, exe = tmp_path / f"{name}.cc", tmp_path / name
    src.write_text(source)
    r = subprocess.run([*CXX, str(src), "-o", str(exe)],
                       capture_output=True, text=True)
    assert r.returncode == 0, f"{name}:\n{r.stderr}"
    out = subprocess.run([str(exe)], capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S,
                         preexec_fn=_limit_address_space)
    assert out.returncode == 0, f"{name}: exit code {out.returncode}"
    return out.stdout


def _bits(values) -> list[str]:
    # float.hex tells -0.0 from 0.0, which == does not
    return [float.fromhex(v).hex() if isinstance(v, str) else v.hex()
            for v in values]


def _cpp_tree(ns: str, t, decls: list) -> str:
    """Declare a TreeData as constant C++ nodes named after `ns` (after the
    `{ns}_leaf` that `decls` starts with); returns the root's name."""
    if t is None:
        return f"{ns}_leaf"
    left, right = _cpp_tree(ns, t.left, decls), _cpp_tree(ns, t.right, decls)
    name = f"{ns}_n{len(decls)}"
    decls.append(f"  const {ns}::Tree {name}{{true, {t.value.hex()}, &{left}, &{right}}};")
    return name


def _full_tree(rng, depth):
    if depth == 0:
        return None
    return TreeData(rng.uniform(0.75, 1.25), _full_tree(rng, depth - 1),
                    _full_tree(rng, depth - 1))


@needs_gxx
def test_emitted_code_compiles_and_runs(tmp_path):
    # every program goes into one translation unit, each in its own
    # namespace (the emitted text includes no header); each prints its
    # gradients with %a, which must equal ir_eval's bit for bit
    rng = random.Random(20261018)
    cases = [("square", ir_optimize(stage_reverse(SQUARE)), (3.0, -0.0, 0.0), None),
             ("branch", stage_reverse(IF_EXAMPLE), (2.0, -2.0, -0.0), None),
             ("loop", stage_reverse(WHILE_EXAMPLE), (8.0, 100.0), None),
             ("nested", stage_reverse(parse(LOOP_COMPOSITES["nested-loops"])),
              (8.0, 37.5), None),
             ("tree", stage_tree(TREE_BODY), (2.0, 1.0),
              parse_tree("(node 2.0 (node 1.5 (leaf) (leaf)) (node 3.0 (leaf) (leaf)))")),
             ("tree6", ir_optimize(stage_tree(TREE_BODY)), (1.01, -0.0),
              _full_tree(rng, 6)),
             # a jump that swaps two parameters reads both before writing
             ("swap", _entry(CellNew("d0", 0.0),
                             Call("loop", ("in", 2.5, 2.0, "d0"), unwind=True),
                             CellRead("r", "d0"), Return("r"),
                             loop=([("a", "val"), ("b", "val"), ("n", "val"),
                                    ("d", "cell")],
                                   [Bind("g", "greater", ("n", 0.0)),
                                    Cond("g", [Bind("m", "add", ("n", -1.0)),
                                               Jump("loop", ("b", "a", "m", "d"))],
                                         [CellSet("d", "a")])])),
              (1.0, -0.5), None)]
    for i, name in enumerate(sorted(LOOP_COMPOSITES)):
        cases.append((f"opt{i}", ir_optimize(stage_reverse(parse(LOOP_COMPOSITES[name]))),
                      (8.0, 37.5, 0.3, 100.0, 3.0), None))
    # pairs, sums, refs, closures and compound guards, staged away
    for i, (src, _) in enumerate(FEATURE_CASES):
        p = stage_reverse(parse(src))
        cases += [(f"feature{i}", p, (2.0, -0.5, 0.0), None),
                  (f"feature{i}_opt", ir_optimize(p), (2.0, -0.5, 0.0), None)]
    parts, body, want = [], [], []
    for ns, prog, probes, tree in cases:
        parts.append(f"namespace {ns} {{\n{emit_c(prog)}}}\n")
        args = ""
        if tree is not None:
            decls = [f"  const {ns}::Tree {ns}_leaf{{false, 0, nullptr, nullptr}};"]
            args = f"{_cpp_tree(ns, tree, decls)}, "
            body += decls
        for x in probes:
            body.append(f'  printf("%a\\n", {ns}::snippet({args}{x.hex()}));')
            want.append(ir_eval(prog, x, tree=tree))
    main = "#include <cstdio>\nint main() {\n" + "\n".join(body) + "\n}\n"
    got = run_native(tmp_path, "programs", "".join(parts) + main).split()
    assert _bits(got) == _bits(want)


@needs_gxx
def test_emitted_long_loop_is_linear(tmp_path):
    # 10^4 iterations of the optimized countdown: a tape that copies its
    # whole closure chain per iteration needs gigabytes here and fails
    # under the address-space limit
    n, c = 10_000, 0.999
    prog = ir_optimize(stage_reverse(parse(
        f"(lam x (letrec loop (lam t (if (> t 1.0) (app loop (* t {c!r})) t))"
        " (app loop x)))")))
    x = c ** -(n - 0.5)
    main = ('#include <cstdio>\nint main() { printf("%a\\n", snippet('
            f"{x.hex()})); }}\n")
    want = ir_eval(prog, x)
    assert abs(want - c ** n) <= 1e-9 * c ** n  # d/dx (x c^n): n iterations ran
    got = run_native(tmp_path, "long_loop", emit_c(prog) + main).split()
    assert _bits(got) == _bits([want])


@needs_gxx
def test_emitted_loop_runs_1e5_iterations_on_the_default_stack(tmp_path):
    # the loop, its unwind and the tape's release do not recurse, so 10^5
    # iterations run on the default stack under the address-space limit
    n, c = 100_000, 0.9999
    prog = ir_optimize(stage_reverse(parse(
        f"(lam x (letrec loop (lam t (if (> t 1.0) (app loop (* t {c!r})) t))"
        " (app loop x)))")))
    x = c ** -(n - 0.5)
    main = ('#include <cstdio>\nint main() { printf("%a\\n", snippet('
            f"{x.hex()})); }}\n")
    want = ir_eval(prog, x, depth_limit=2 * n)
    assert abs(want - c ** n) <= 1e-8 * c ** n  # n iterations ran
    got = run_native(tmp_path, "loop_1e5", emit_c(prog) + main).split()
    assert _bits(got) == _bits([want])


def test_emitted_closures_need_no_header():
    # continuations are ref-counted handles from the emitted prelude, not
    # std::function; a loop's backward work is records on a tape from the
    # emitted prelude, so a loop-only program needs no continuation at all
    loop = emit_c(ir_optimize(stage_reverse(WHILE_EXAMPLE)))
    tree = emit_c(ir_optimize(stage_tree(TREE_BODY)))
    for txt in (loop, tree):
        assert "#include" not in txt
        assert "std::" not in txt
    assert "kont_fn" not in loop
    assert "for (;;)" in loop and "tape_push(" in loop and "tape_unwind(" in loop
    assert "kont1::make(" in tree
    assert "kont_fn" not in emit_c(ir_optimize(stage_reverse(SQUARE)))
