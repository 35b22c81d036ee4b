import gc
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
from functools import partial

import pytest

from adlc import ir
from adlc.emit import MAX_INDENT, emit_c
from adlc.gradcheck import DEFAULT_PROBES, CorpusSpec, random_program
from adlc.ir import (
    REAL, Bind, Call, CellAccum, CellNew, CellRead, CellSet, Cond, IRError, IRFunction,
    IRProgram, Jump, RetReal, Return, TapePush, ir_cell_op_count, ir_stmt_count, verify,
)
from adlc.ir_eval import DEFAULT_DEPTH_LIMIT, IREvalError, _compiled_tier, interpret, ir_eval
from adlc.ir_opt import ir_optimize
from adlc.reverse import grad_reverse
from adlc.runtime import grad_tape_expr
from adlc.staging import (
    StagingError, TreeData, parse_tree, stage_reverse, stage_tree, tree_to_expr,
)
from adlc.syntax import Add, App, Const, Greater, If, Lam, Let, Letrec, Mul, Var, parse
from fuzz import FEATURE_CASES, FUZZ, fuzz_programs
from scaling import frames_in_use, nested_conds, seeded_chain, sequential_ifs

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
            if isinstance(s, Call) and s.target == fn_name:
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
    ir_eval(p, 2.0)  # the compiled tier is kept on p, outside the peaks
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
    """Independent oracle: dual-number fold over the same tree, in
    post-order from an explicit stack, so deep trees fit any Python stack."""
    done: list = []  # the results of the finished subtrees
    stack = [(t, False)]
    while stack:
        n, ready = stack.pop()
        if n is None:
            done.append(x)
        elif ready:
            r, l = done.pop(), done.pop()
            done.append((l[0] * r[0] * n.value, (l[1] * r[0] + l[0] * r[1]) * n.value))
        else:
            stack += [(n, True), (n.right, False), (n.left, False)]
    return done[0]


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


def _path_tree(rng, n):
    """A tree of n nodes, each the left child of the one above: height n."""
    t = None
    for _ in range(n):
        t = TreeData(rng.choice((0.5, 1.0, 2.0)), t, None)
    return t


def test_deep_tree_fold_needs_no_python_stack():
    # a fold nests one call per tree level: a path tree of 3,000 nodes runs
    # at the default limits, within 100 frames of this test's own, on the
    # explicit frame stack; the depth limit counts the entry, `fold` and a
    # `rec` per level and the leaf below the last, so it raises just below
    # height + 3
    rng = random.Random(12)
    n = 3000
    t = _path_tree(rng, n)
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
    for q in progs:
        assert ir_eval(q, 1.0, tree=t, depth_limit=n + 3).hex() == want[1.0]
        with pytest.raises(IREvalError, match=rf"depth limit exceeded \({n + 2}\)"):
            ir_eval(q, 1.0, tree=t, depth_limit=n + 2)
    # the limit counts the height, not the nodes: a full tree of 4,095
    # nodes has height 12
    full = _pow2_tree(rng, 12)
    assert ir_eval(p, 1.0, tree=full, depth_limit=15).hex() == _dual_fold(
        full, (1.0, 1.0))[1].hex()
    with pytest.raises(IREvalError, match="depth limit"):
        ir_eval(p, 1.0, tree=full, depth_limit=14)


def test_node_values_get_no_adjoint_cell():
    # nothing reads a node value's adjoint, so the staged fold makes no cell
    # for it, and ir_optimize finds no cell operation left to remove
    p = stage_tree(TREE_BODY)
    assert ir_cell_op_count(p) == ir_cell_op_count(ir_optimize(p)) == 11


def test_tree_fold_is_direct_style_with_one_record_per_node():
    # rec calls itself on both subtrees as valued calls and returns its
    # (value, cell); the body's backward work is one record
    p = stage_tree(TREE_BODY)
    rec = p.functions["rec"]
    calls = [s for s in _stmts(rec.body) if isinstance(s, Call)]
    assert [(c.target, len(c.results)) for c in calls] == [("rec", 2), ("rec", 2)]
    assert sum(isinstance(s, TapePush) for s in _all_stmts(p)) == 1
    assert sum(isinstance(s, RetReal) for s in _stmts(rec.body)) == 2
    [unwinding] = [s for s in _all_stmts(p) if isinstance(s, Call) and s.unwind]
    assert unwinding.target == "fold"


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
              (stage_tree(TREE_BODY), parse_tree("(node 2.0 (node 0.5 (leaf) (leaf)) (leaf))")),
              (stage_reverse(parse("(lam x (* x -0.0))")), None)]
    for p, tree in cases:
        po = ir_optimize(p)
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0)
            assert ir_eval(p, x, tree=tree).hex() == ir_eval(po, x, tree=tree).hex()


def _entry(*body, **fns) -> IRProgram:
    """An entry on `in` plus the functions given as name=(params, body)."""
    functions = {n: IRFunction(n, params, fbody) for n, (params, fbody) in fns.items()}
    functions["snippet"] = IRFunction("snippet", [("in", "val")], list(body))
    return IRProgram(functions, "snippet")


def _halving(*exit_stmts, cell: bool = True) -> tuple:
    """A loop `loop` that halves x while x > 1, then runs exit_stmts."""
    params, args = [("x", "val")], ("y",)
    if cell:
        params, args = params + [("d", "cell")], ("y", "d")
    return params, [Bind("g", "greater", ("x", 1.0)),
                    Cond("g", [Bind("y", "mul", ("x", 0.5)), Jump("loop", args)],
                         list(exit_stmts))]


def _tree_entry(*body, **fns) -> IRProgram:
    """_entry on a tree and `in`."""
    p = _entry(*body, **fns)
    p.functions[p.entry].params.insert(0, ("tree", "tree"))
    return p


LITERALS = (0.0, -0.0, 1.5, -1.5, float("inf"), float("-inf"), float("nan"),
            1e300, 1e-300)


@pytest.mark.parametrize("op", ["add", "mul", "greater"])
def test_literal_fold_matches_ir_eval_bitwise(op):
    for a in LITERALS:
        for b in LITERALS:
            if op == "greater":
                progs = [_entry(Bind("g", op, (a, b)), Cond("g", [Return(1.0)], [Return(0.0)]))]
            else:
                progs = [_entry(Bind("r", op, (a, b)), Return("r"))]
            if op == "add":  # an accumulate into a cell the optimizer forwards
                progs.append(_entry(CellNew("c", a), CellAccum("c", b), CellRead("r", "c"),
                                    Return("r")))
            for p in progs:
                po = ir_optimize(p)
                assert not any(isinstance(s, (Bind, Cond)) for s in _all_stmts(po))
                assert ir_eval(po, 0.0).hex() == ir_eval(p, 0.0).hex(), (a, b)


def test_ir_eval_op_errors():
    # verify holds a tree op's operand to a tree; the empty tree, which has
    # no value and no subtrees, is left for a run to find, on either tier
    for op in ("tree_value", "tree_left", "tree_right"):
        p = _tree_entry(Bind("r", op, ("tree",)), Return("in"))
        for run in (ir_eval, interpret):
            with pytest.raises(IREvalError, match="^tree operation on a non-tree"):
                run(p, 1.0)
            assert run(p, 1.0, tree=TreeData(2.0, None, None)) == 1.0


_ONE = [("a", "val")]
_TWO = [("a", "val"), ("b", "val")]


def _positive() -> Bind:
    return Bind("g", "greater", ("in", 0.0))


# (op, operands, the op's arity)
WRONG_ARITY = (("add", ("in",), 2), ("mul", ("in", "in", "in"), 2),
               ("tree_value", ("in", "in"), 1), ("greater", (), 2))

# (message, program): ill-formed programs, one or more per rule of verify
ILL_FORMED = (
    # a symbol is read only in scope, defined once, and no statement
    # follows one that ends every path
    ("undefined symbol 'zz'", _entry(Bind("r", "add", ("in", "zz")), Return("r"))),
    ("undefined symbol 'zz'",
     _entry(_positive(), Cond("g", [Return("in")], [Return("zz")]))),
    ("undefined symbol 'y'",
     _entry(_positive(), Cond("g", [Bind("y", "mul", ("in", 2.0))], []), Return("y"))),
    ("undefined symbol 'y'",
     _entry(_positive(), Cond("g", [Bind("y", "mul", ("in", 2.0))],
                              [Bind("y", "add", ("in", 2.0))]), Return("y"))),
    ("undefined symbol 'zz'",
     _entry(CellNew("d", 0.0), Call("f", ("in", "d"), unwind=True), Return("in"),
            f=([("t", "val"), ("c", "cell")],
               [Bind("g", "greater", ("t", 1.0)),
                Cond("g", [Bind("u", "mul", ("t", "zz")), Jump("f", ("u", "c"))], [])]))),
    ("'in' is already defined", _entry(Bind("in", "add", ("in", 1.0)), Return("in"))),
    ("unreachable", _entry(Return("in"), Return("in"))),
    ("unreachable", _entry(_positive(), Cond("g", [Return("in")], [Return(1.0)]),
                           Return("in"))),
    ("unknown statement", _entry("stmt", Return("in"))),
    # ops and their operands
    ("unknown operation 'sub'", _entry(Bind("r", "sub", ("in", 1.0)), Return("r"))),
    *((f"{op} takes {n} operands, got {len(args)}", _entry(Bind("r", op, args), Return("r")))
      for op, args, n in WRONG_ARITY),
    *(("operand 'in' has kind val, not tree", _entry(Bind("r", op, ("in",)), Return("in")))
      for op in ("tree_value", "tree_left", "tree_right")),
    ("operand 'g' has kind bool, not val",
     _entry(_positive(), Bind("r", "add", ("g", 1.0)), Return("r"))),
    ("operand 'd' has kind cell, not val", _entry(CellNew("d", 0.0), Return("d"))),
    ("operand 1 has kind int, not val", _entry(Return(1))),
    ("parameter 'in' has unknown kind 'int'",
     IRProgram({"snippet": IRFunction("snippet", [("in", "int")], [Return(1.0)])},
               "snippet")),
    # calls, jumps and records
    ("unknown function 'nope'", _entry(Call("nope", ("in",)), Return("in"))),
    ("unknown function 'nope'", _entry(Call("nope", ("in",)))),
    ("unknown function 'nope'",
     _entry(Call("nope", ("in",), results=("x", "d")), Return("x"))),
    ("unknown function 'nope'", _entry(TapePush("nope", ()), Return("in"))),
    ("f expects 2 args, got 1", _entry(Call("f", ("in",)), Return("in"), f=(_TWO, []))),
    ("f expects 2 args, got 1", _entry(Jump("f", ("in",)), f=(_TWO, [Return("a")]))),
    ("operand 'in' has kind val, not cell",
     _entry(Call("f", ("in",)), Return("in"), f=([("c", "cell")], []))),
    ("a record capturing 't' (tree)",
     _tree_entry(TapePush("f", ("tree",)), Return("in"), f=([("t", "tree")], []))),
    # what functions return, and where a pair goes
    ("snippet: entry did not return a value", _entry(Bind("r", "add", ("in", 1.0)))),
    ("snippet: the entry takes (val) or (tree, val), not (cell)",
     IRProgram({"snippet": IRFunction("snippet", [("in", "cell")], [Return(1.0)])},
               "snippet")),
    ("a (value, cell) return with no caller", _entry(CellNew("d", 0.0), RetReal("in", "d"))),
    ("a (value, cell) return with no caller",
     _entry(CellNew("d", 0.0), Call("loop", ("in", "d"), unwind=True),
            RetReal("in", "d"), loop=_halving(CellSet("d", 1.0)))),
    ("f returns no (value, cell) pair",
     _entry(Call("f", ("in",), results=("x", "d")), Return("x"), f=(_ONE, [Return("a")]))),
    ("f returns no (value, cell) pair",
     _entry(Call("f", ("in",), results=("x", "d")), Return("x"),
            f=(_ONE, [Bind("b", "add", ("a", 1.0))]))),
    ("loop returns no (value, cell) pair",
     _entry(Call("loop", ("in",), results=("x", "d")), Return("x"),
            loop=_halving(Return("x"), cell=False))),
    ("loop returns no (value, cell) pair",
     _entry(Call("loop", ("in",), results=("x", "d")), Return("x"),
            loop=_halving(cell=False))),
    ("a call receives a (value, cell) pair, not ('x',)",
     _entry(Call("f", ("in",), results=("x",)), Return("x"),
            f=(_ONE, [CellNew("c", 0.0), RetReal("a", "c")]))),
    ("f: it returns both a value and a (value, cell) pair",
     _entry(CellNew("d", 0.0), Call("f", ("in", "d")), Return("in"),
            f=([("a", "val"), ("c", "cell")],
               [Bind("g", "greater", ("a", 0.0)),
                Cond("g", [Return("a")], [RetReal("a", "c")])]))),
    ("f: it returns on some paths and falls off its end on others",
     _entry(Call("f", ("in",)), Return("in"),
            f=(_ONE, [Bind("g", "greater", ("a", 0.0)), Cond("g", [Return("a")], [])]))),
    ("c is made in f, outside an unwinding call",
     _entry(CellNew("d", 0.0), Call("f", ("in",), results=("x", "c")),
            Return("x"), f=(_ONE, [CellNew("c", 0.0), RetReal("a", "c")]))),
)


def test_ill_formed_ir_is_rejected_by_every_executor():
    # verify alone decides what well-formed IR is: ir_eval, interpret,
    # emit_c and ir_optimize each run it first, so each rejects every
    # program of the table with the same static IRError, whether or not a
    # run would reach the fault
    for text, p in ILL_FORMED:
        with pytest.raises(IRError) as first:
            verify(p)
        message = str(first.value)
        assert type(first.value) is IRError and text in message, (text, message)
        for use in (partial(ir_eval, p, 1.0), partial(interpret, p, 1.0),
                    partial(emit_c, p), partial(ir_optimize, p)):
            with pytest.raises(IRError) as got:
                use()
            assert type(got.value) is IRError and str(got.value) == message
    # the message names the function, then the statement
    with pytest.raises(IRError) as got:
        verify(ILL_FORMED[0][1])
    assert str(got.value) == ("snippet: Bind(dest='r', op='add', args=('in', 'zz')): "
                              "undefined symbol 'zz'")


def test_ir_eval_structural_errors():
    cases = [
        ("undefined symbol 'zz'", _entry(Bind("r", "add", ("in", "zz")), Return("r"))),
        ("unknown function 'nope'", _entry(Call("nope", ("in",)), Return("in"))),
        ("unknown function 'nope'", _entry(Call("nope", ("in",)))),
        ("f expects 2 args, got 1", _entry(Call("f", ("in",)), Return("in"), f=(_TWO, []))),
        ("entry did not return a value", _entry(Bind("r", "add", ("in", 1.0)))),
        ("operand 'd' has kind cell, not val", _entry(CellNew("d", 0.0), Return("d"))),
        ("a (value, cell) return with no caller",
         _entry(CellNew("d", 0.0), RetReal("in", "d"))),
        ("f returns no (value, cell) pair",
         _entry(Call("f", ("in",), results=("x", "d")), Return("x"),
                f=(_ONE, [Return("a")]))),
        ("a call receives a (value, cell) pair, not ('x',)",
         _entry(Call("f", ("in",), results=("x",)), Return("x"),
                f=(_ONE, [CellNew("c", 0.0), RetReal("a", "c")]))),
    ]
    for text, p in cases:
        with pytest.raises(IRError, match=re.escape(text)):
            ir_eval(p, 1.0)
    # a pair returned to a call that receives none is dropped, as a value is
    assert ir_eval(_entry(CellNew("d", 0.0), Call("f", ("in", "d")), Return("in"),
                          f=([("a", "val"), ("c", "cell")], [RetReal("a", "c")])),
                   3.0) == 3.0
    # errors are static: an undefined symbol in an untaken branch, or one
    # defined on one branch only, is an error on every input
    for p, text in ((_entry(_positive(), Cond("g", [Return("in")], [Return("zz")])), "zz"),
                    (_entry(_positive(), Cond("g", [Bind("y", "mul", ("in", 2.0))], []),
                            Return("y")), "y")):
        for x in (2.0, -2.0):
            with pytest.raises(IRError, match=f"undefined symbol '{text}'"):
                ir_eval(p, x)


def test_emit_rejects_closures_it_cannot_emit():
    # a (value, cell) return with no caller, and a valued call of a function
    # that returns one value or none, are refused, not miscompiled; so is a
    # cell that a function makes and returns outside an unwinding call,
    # which would not outlive its frame
    cases = [("with no caller", _entry(CellNew("d", 0.0), RetReal("in", "d"))),
             ("f returns no (value, cell) pair",
              _entry(Call("f", ("in",), results=("x", "d")), Return("x"),
                     f=(_ONE, [Return("a")]))),
             ("f returns no (value, cell) pair",
              _entry(Call("f", ("in",), results=("x", "d")), Return("x"),
                     f=(_ONE, [Bind("b", "add", ("a", 1.0))]))),
             ("unknown function 'nope'",
              _entry(Call("nope", ("in",), results=("x", "d")), Return("x"))),
             ("outside an unwinding call",
              _entry(CellNew("d", 0.0), Call("f", ("in",), results=("x", "c")),
                     Return("x"), f=(_ONE, [CellNew("c", 0.0), RetReal("a", "c")])))]
    # nor is a Bind with the wrong number of operands or an unknown op
    cases += [(f"{op} takes {n} operands", _entry(Bind("r", op, args), Return("r")))
              for op, args, n in WRONG_ARITY]
    cases.append(("unknown operation 'sub'", _entry(Bind("r", "sub", ("in", 1.0)), Return("r"))))
    for text, p in cases:
        with pytest.raises(IRError, match=re.escape(text)):
            emit_c(p)


def test_verify_returns_each_functions_return_kind():
    # followed through jumps; a pair returned to a call that receives none
    # is dropped, as a value is
    p = _entry(CellNew("d", 0.0), Call("f", ("in", "d")), Jump("j", ("in",)),
               f=([("a", "val"), ("c", "cell")], [RetReal("a", "c")]),
               j=(_ONE, [Bind("g", "greater", ("a", 0.0)),
                         Cond("g", [Return("a")], [Jump("k", ("a",))])]),
               k=(_ONE, [Return(2.0)]), n=([], []))
    assert verify(p) == {"f": REAL, "j": "val", "k": "val", "n": None, "snippet": "val"}
    assert [run(p, x) for run in (ir_eval, interpret) for x in (3.0, -3.0)] == [3.0, 2.0] * 2
    assert "real f(double a, double& c)" in emit_c(p)


def test_translation_is_kept_per_program_and_the_limit_per_call():
    # ir_eval keeps a program's compiled tier, or that it has none, on the
    # program: the depth limit is still each call's own, and ir_optimize's
    # copy gets its own
    p = stage_reverse(RUNAWAY)
    with pytest.raises(IREvalError, match=r"depth limit exceeded \(2000\)"):
        ir_eval(p, 2.0, depth_limit=2000)
    make = p.compiled
    with pytest.raises(IREvalError, match=r"depth limit exceeded \(100000\)"):
        ir_eval(p, 2.0)
    assert make and p.compiled is make
    tree = parse_tree("(node 2.0 (node -0.5 (leaf) (leaf)) (leaf))")
    for p, t, loops in ((stage_reverse(WHILE_EXAMPLE), None, True),
                        (stage_reverse(IF_EXAMPLE), None, False),
                        (stage_tree(TREE_BODY), tree, True)):
        xs = (8.0, 0.3, -2.0, -0.0)
        before = [ir_eval(p, x, tree=t).hex() for x in xs]
        assert bool(p.compiled) is loops and p.compiled is not None
        po = ir_optimize(p)
        assert po.compiled is None
        assert [ir_eval(po, x, tree=t).hex() for x in xs] == before
        assert bool(po.compiled) is loops
        assert not loops or po.compiled is not p.compiled


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
    # the join's backward work reads the adjoint that the records of the
    # later iterations accumulate, so it waits on the tape too
    "join-before-self-call": "(lam x (letrec f (lam t (let w (if (> t 1.0) (* t 0.9) t)"
                             " (if (> w 1.0) (app f (* w 0.5)) w))) (app f x)))",
}


@pytest.mark.parametrize("name", sorted(LOOP_COMPOSITES))
def test_loop_composites_staged_matches_unstaged(name):
    # mid-program, sequential, and nested loops exercise the tape mark and
    # unwind at every call site
    f = parse(LOOP_COMPOSITES[name])
    p = stage_reverse(f)
    po = ir_optimize(p)
    for x in (8.0, 37.5, 0.3, 0.5, 100.0, 3.0):
        want = grad_reverse(f, x, "meta-shift").hex()
        assert [run(q, x).hex() for run in (ir_eval, interpret) for q in (p, po)] == [want] * 4


# --- ir_eval's compiled tier ----------------------------------------------------------

def _loop_fn(p: IRProgram) -> IRFunction:
    """The one function of p that jumps to itself."""
    [fn] = [fn for fn in p.functions.values()
            if any(isinstance(s, Jump) and s.target == fn.name for s in _stmts(fn.body))]
    return fn


def test_literal_operands_get_no_adjoint_cell():
    # nothing reads a literal's adjoint, so an iteration of the optimized
    # countdown makes one cell, its new value's, and its record captures
    # that cell and the one it adds into (with the literal's cell, two
    # cells, and three captures for + or four for *)
    for step in ("(+ t -1.0)", "(* t 0.997)"):
        f = parse(f"(lam x (letrec f (lam t (if (> t 1.0) (app f {step}) t)) (app f x)))")
        body = list(_stmts(_loop_fn(ir_optimize(stage_reverse(f))).body))
        assert sum(isinstance(s, CellNew) for s in body) == 1
        assert [len(s.captures) for s in body if isinstance(s, TapePush)] == [2]


def _compiled_loops() -> dict:
    """The loop programs of these tests, which the compiled tier takes."""
    progs = {n: parse(s) for n, s in LOOP_COMPOSITES.items()}
    with open(os.path.join(os.path.dirname(__file__), "..", "programs",
                           "halve_loop.sexp")) as fh:
        progs["halve_loop"] = parse(fh.read())
    progs["while_example"] = WHILE_EXAMPLE
    return progs


COMPILED_LOOPS = _compiled_loops()
# fold bodies: the product, the bench's sum, and a staged join in `rec`
FOLD_BODIES = {"product": TREE_BODY, "sum": parse("(+ (* v l) (* r 0.75))"),
               "join": parse("(if (> l r) (* l v) (* r v))")}
# a fold body that runs a loop, which the fold's call site unwinds
FOLD_LOOP = parse("(* v (letrec f (lam t (if (> t 1.0) (app f (* t 0.5)) t))"
                  " (app f (* l r))))")


def _calling_records() -> IRProgram:
    """A loop whose records have no captures or call a function, so the
    nesting and the tail chains of the records the unwind runs count toward
    the limit."""
    loop = [Bind("g", "greater", ("x", 1.0)),
            Cond("g", [Bind("y", "mul", ("x", 0.5)), TapePush("bwd", ("d",)),
                       TapePush("nop", ()), Jump("loop", ("y", "d"))],
                 [CellSet("d", 1.0)])]
    return _entry(CellNew("d", 0.0), Call("loop", ("in", "d"), unwind=True),
                  CellRead("r", "d"), Return("r"),
                  loop=([("x", "val"), ("d", "cell")], loop),
                  nop=([], [Call("nop2", ())]), nop2=([], [Call("end", ())]),
                  end=([], []),
                  bwd=([("c", "cell")], [Call("acc", ("c",)), CellAccum("c", -1.0)]),
                  acc=([("c", "cell")], [CellAccum("c", 0.25)]))


# (message or None, program) for programs that loop or recurse and stop
# with an error of a fold's statements, or drop a (value, cell) return
COMPILED_PAIRS = (
    ("tree operation on a non-tree (empty tree?)",
     _tree_entry(CellNew("d", 0.0), Call("walk", ("tree", "in", "d"), results=("x", "c")),
                 Return("x"),
                 walk=([("t", "tree"), ("a", "val"), ("c", "cell")],
                       [Bind("l", "tree_left", ("t",)),
                        Call("walk", ("l", "a", "c"), results=("x", "e")),
                        RetReal("x", "e")]))),
    (None, _entry(CellNew("d", 0.0), Call("loop", ("in", "d")), Return("in"),
                  loop=_halving(RetReal("x", "d")))),
)


def _outcome(run, p: IRProgram, x: float, limit: int, tree=None):
    try:
        return run(p, x, tree=tree, depth_limit=limit).hex()
    except Exception as ex:  # compared, class and text
        return type(ex).__name__, str(ex)


def test_compiled_tier_equals_the_interpreter():
    # ir_eval runs a program that loops or recurses as generated Python;
    # the interpreter is the reference: the same bits, or the same error,
    # at every depth limit.  The runaway loop comes last at each limit, so
    # a tier that miscounts the limit fails on a finite loop before it can
    # spin on that one
    progs = [(name, q) for name, f in [*COMPILED_LOOPS.items(), ("runaway", RUNAWAY)]
             for p in [stage_reverse(f)] for q in (p, ir_optimize(p))]
    progs.insert(-2, ("calling-records", _calling_records()))
    for limit in (1, 2, 3, 5, 50, DEFAULT_DEPTH_LIMIT):
        for name, q in progs:
            for x in DEFAULT_PROBES + (7.5, 300.0):
                assert (_outcome(ir_eval, q, x, limit)
                        == _outcome(interpret, q, x, limit)), (name, x, limit)
    # folds over the empty tree, one node, full trees of depth 1 to 8 and a
    # path tree, at limits around the height: a tree of height h needs
    # h + 3, so h + 2 stops in the fold
    rng = random.Random(23)
    trees = [(0, None), (1, TreeData(0.75, None, None))]
    trees += [(d, _pow2_tree(rng, d)) for d in range(1, 9)] + [(40, _path_tree(rng, 40))]
    folds = [(name, q) for name, body in FOLD_BODIES.items()
             for p in [stage_tree(body)] for q in (p, ir_optimize(p))]
    probes = (0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e300, -1.25)
    for name, q in folds:
        assert _compiled(q)
        for h, t in trees:
            for limit in (1, 2, 3, 5, h + 2, h + 3, DEFAULT_DEPTH_LIMIT):
                for x in probes:
                    assert (_outcome(ir_eval, q, x, limit, t)
                            == _outcome(interpret, q, x, limit, t)), (name, h, x, limit)
    # a (value, cell) return or a tree op that goes wrong in generated code
    # raises as the interpreter does
    for text, p in COMPILED_PAIRS:
        for q in (p, ir_optimize(p)):
            assert _compiled(q)
            for h, t in trees[:4]:
                for limit in (1, 3, 5, DEFAULT_DEPTH_LIMIT):
                    for x in (0.5, 6.0):
                        got = _outcome(ir_eval, q, x, limit, t)
                        assert got == _outcome(interpret, q, x, limit, t), (text, h, x, limit)
            if text is not None:
                assert _outcome(ir_eval, q, 6.0, DEFAULT_DEPTH_LIMIT, trees[2][1]) == (
                    "IREvalError", text)
    assert ir_eval(COMPILED_PAIRS[-1][1], 6.0) == 6.0


def _compiled(p: IRProgram) -> bool:
    return bool(_compiled_tier(p))


def _staged_programs() -> list:
    """Every source program these tests stage: the corpus, the feature
    cases, the fuzz families, the loop composites and the fold bodies."""
    spec = CorpusSpec(42)
    sources = [random_program(spec, i) for i in range(spec.count)]
    sources += [parse(src) for src, _ in FEATURE_CASES]
    sources += [f for seed in FUZZ for f in fuzz_programs(seed)]
    sources += [parse(src) for src in LOOP_COMPOSITES.values()]
    return ([stage_reverse(f) for f in sources]
            + [stage_tree(body) for body in (*FOLD_BODIES.values(), TREE_BODY)])


def test_every_staged_program_verifies():
    # staging and ir_optimize make only well-formed IR
    progs = _staged_programs()
    assert len(progs) == 517
    for p in progs:
        for q in (p, ir_optimize(p)):
            assert verify(q)[q.entry] == "val"


def _looping_programs() -> dict:
    """A small program that loops or recurses for each statement class and
    each op: a halving loop whose records the unwind runs, a loop returned
    from with a (value, cell) pair, and a fold over a tree."""
    loop = _entry(CellNew("d", 0.0), Call("loop", ("in", "d"), unwind=True),
                  CellRead("r", "d"), Return("r"),
                  loop=([("x", "val"), ("d", "cell")],
                        [Bind("g", "greater", ("x", 1.0)),
                         Cond("g", [Bind("y", "mul", ("x", 0.5)), TapePush("bwd", ("d", "x")),
                                    Jump("loop", ("y", "d"))],
                              [CellSet("d", -0.0)])]),
                  bwd=([("c", "cell"), ("x", "val")], [CellAccum("c", "x")]))
    pair = _entry(CellNew("d", 0.0), Call("loop", ("in", "d"), results=("v", "c")),
                  CellRead("r", "c"), Bind("s", "add", ("v", "r")), Return("s"),
                  loop=_halving(CellAccum("d", "x"), RetReal("x", "d")))
    fold = _tree_entry(CellNew("d", 0.0), Call("walk", ("tree", "in", "d"), results=("x", "c")),
                       Return("x"),
                       walk=([("t", "tree"), ("a", "val"), ("c", "cell")],
                             [Bind("n", "tree_nonempty", ("t",)),
                              Cond("n", [Bind("v", "tree_value", ("t",)),
                                         Bind("l", "tree_left", ("t",)),
                                         Bind("rt", "tree_right", ("t",)),
                                         Call("walk", ("l", "a", "c"), results=("x", "e")),
                                         Call("walk", ("rt", "x", "e"), results=("y", "f")),
                                         Bind("z", "mul", ("y", "v")), RetReal("z", "f")],
                                   [RetReal("a", "c")])]))
    progs = dict.fromkeys([Bind, CellNew, CellRead, CellAccum, CellSet, Call, Jump,
                           TapePush, Cond, Return, "greater", "mul"], loop)
    progs.update(dict.fromkeys([RetReal, "add"], pair))
    progs.update(dict.fromkeys(["tree_value", "tree_left", "tree_right", "tree_nonempty"],
                               fold))
    return progs


LOOPING_PROGRAMS = _looping_programs()


@pytest.mark.parametrize("part", [*ir.STMTS, *ir.OPS],
                         ids=lambda part: getattr(part, "__name__", part))
def test_every_statement_and_op_runs_alike_on_both_tiers(part):
    # each statement class and each op, in a program that loops or
    # recurses, so ir_eval runs it on the compiled tier: the same bits as
    # the interpreter, or the same error, at every depth limit
    p = LOOPING_PROGRAMS[part]
    assert part in {x for fn in p.functions.values() for s in ir.walk(fn.body)
                    for x in (type(s), getattr(s, "op", None))}
    assert _compiled(p)
    rng = random.Random(31)
    trees = [None, TreeData(0.75, None, None), _pow2_tree(rng, 3), _path_tree(rng, 5)]
    for t in trees if "tree" in p.functions[p.entry].params[0] else [None]:
        for limit in (1, 2, 3, 5, 8, DEFAULT_DEPTH_LIMIT):
            for x in (0.5, 3.0, 40.0, -0.0, float("inf"), float("nan")):
                assert (_outcome(ir_eval, p, x, limit, t)
                        == _outcome(interpret, p, x, limit, t)), (x, limit)


def test_each_program_is_verified_once(monkeypatch):
    # verify keeps a passed program's return kinds on it, so ir_optimize,
    # both executors and emit_c walk each function once between them; the
    # optimized copy that dataclasses.replace makes starts unverified
    walked = []
    body = ir._verify_body

    def counting(fn, *rest):
        walked.append(fn)
        return body(fn, *rest)

    monkeypatch.setattr(ir, "_verify_body", counting)
    p = stage_reverse(WHILE_EXAMPLE)
    q = ir_optimize(p)
    for prog in (p, q):
        for run in (ir_eval, interpret):
            assert run(prog, 3.0) == run(prog, 3.0) == 0.25
    emit_c(q)
    functions = [*p.functions.values(), *q.functions.values()]
    assert len(functions) > 2 and len({id(fn) for fn in functions}) == len(functions)
    assert sorted(map(id, walked)) == sorted(map(id, functions))


def test_deeply_nested_conds_verify_and_run():
    # verify, ir_optimize, the interpreter and emit_c walk the IR with
    # explicit stacks, so an entry of 10^4 nested Conds needs no Python
    # stack to verify, optimize, run or emit within 100 frames of this
    # test's own; past MAX_INDENT levels the emitted lines indent no
    # further, so the text grows linearly with the depth
    depth = 10_000
    p = nested_conds(depth)
    assert verify(p) == {"entry": "val"}
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(frames_in_use() + 100)
    try:
        q = ir_optimize(p)
        text = emit_c(p)
    finally:
        sys.setrecursionlimit(saved)
    for run in (ir_eval, interpret):
        for prog in (p, q):
            got = [run(prog, x).hex() for x in (1.5, -0.5, -2.5)]
            assert got == [1.5.hex(), 0.0.hex(), 2.0.hex()]
    assert text.count("if (g") == text.count("} else {") == depth
    assert "\n" + "  " * MAX_INDENT + "return in;\n" in text
    lines = text.splitlines()
    assert len(lines) < 5 * depth + 20 and max(map(len, lines)) < 2 * MAX_INDENT + 40


def test_optimize_is_linear_in_cond_nesting():
    # DCE drops a symbol from the live set at its definition, so each
    # Cond's branches hand up only the guard's input; were every symbol
    # used below kept and merged at each level, 4x the depth would cost
    # about 16x (18-27x measured), where linear reads 4-5.  The runs
    # alternate, so a slow spell of the host hits both depths, and the
    # cyclic collector is off: its passes scan whatever earlier tests left
    # alive, which doubled the ratio in a full run
    best = {n: float("inf") for n in (2_000, 8_000)}
    progs = {n: nested_conds(n) for n in best}
    gc.disable()
    try:
        for _ in range(3):
            for n, p in progs.items():
                t0 = time.perf_counter()
                ir_optimize(p)
                best[n] = min(best[n], time.perf_counter() - t0)
    finally:
        gc.enable()
    assert best[8_000] < 10 * best[2_000], best


def test_compiled_tier_defines_only_the_functions_that_run():
    # the generated code defines f<i> for the entry and for what a Call or a
    # Jump names, and r<i> for each record; a record-only function (a
    # loop's backward segment, a fold's) gets no f<i>, which nothing calls
    def defined_and_ran(q, runs) -> tuple:
        ran = set()

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.startswith("<ir_eval"):
                ran.add(frame.f_code.co_name)

        saved = sys.getprofile()
        sys.setprofile(profile)
        try:
            for x, tree in runs:
                ir_eval(q, x, tree=tree)
        finally:
            sys.setprofile(saved)
        defined = {c.co_name for c in _compiled_tier(q).__code__.co_consts
                   if hasattr(c, "co_name")}
        return defined, ran - {"<module>", "make"}

    loops = [stage_reverse(f) for f in COMPILED_LOOPS.values()]
    folds = [stage_tree(body) for body in FOLD_BODIES.values()]
    tree = _pow2_tree(random.Random(5), 3)
    for p, runs in [*((p, [(x, None) for x in DEFAULT_PROBES + (7.5, 300.0)]) for p in loops),
                    *((p, [(x, tree) for x in (1.0, -1.0)]) for p in folds)]:
        for q in (p, ir_optimize(p)):
            defined, ran = defined_and_ran(q, runs)
            assert defined == ran and any(n[0] == "r" for n in ran), (defined, ran)


def test_compiled_tier_takes_only_programs_that_loop_or_recurse():
    # generated code pays compile() once per program, so it is made only
    # for a loop or a call cycle (a fold's `rec`, nested loops); one whose
    # calls outside the cycles would nest too many Python frames stays
    # interpreted
    for f in [*COMPILED_LOOPS.values(), RUNAWAY]:
        p = stage_reverse(f)
        assert _compiled(p) and _compiled(ir_optimize(p))
    for body in FOLD_BODIES.values():
        p = stage_tree(body)
        assert _compiled(p) and _compiled(ir_optimize(p))
    assert _compiled(_calling_records())
    spec = CorpusSpec(42, count=20)
    straight = [stage_reverse(random_program(spec, i)) for i in range(spec.count)]
    for p in straight + [stage_reverse(_sequential_loops(1000))]:
        assert not _compiled(p) and not _compiled(ir_optimize(p))


def test_compiled_runs_leave_no_garbage_cycle():
    # a run's generated functions call each other, and a fold's `rec`
    # itself, through the run's closure; the run drops them when it ends,
    # so its cells and tape are freed at once, not by the collector
    t = _pow2_tree(random.Random(5), 6)
    runs = [(q, tree) for p, tree in ((stage_tree(TREE_BODY), t),
                                      (stage_tree(FOLD_BODIES["join"]), t),
                                      (stage_reverse(WHILE_EXAMPLE), None),
                                      (stage_reverse(COMPILED_LOOPS["nested-loops"]), None))
            for q in (p, ir_optimize(p))]
    for p, tree in runs:
        assert _compiled(p)
    gc.disable()
    try:
        for p, tree in runs:
            gc.collect()
            ir_eval(p, 7.5, tree=tree)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_compiled_tier_runs_on_the_interpreter_near_the_recursion_limit():
    # each call in generated code nests a Python frame: a run that finds
    # too few left below the recursion limit runs again on the interpreter
    # (32 loops in a row make a chain of 64 calls)
    f = _sequential_loops(32)
    p = stage_reverse(f)
    assert _compiled(p)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(frames_in_use() + 40)
    try:
        got = [ir_eval(p, x).hex() for x in (0.7, 5.0)]
    finally:
        sys.setrecursionlimit(saved)
    assert got == [grad_tape_expr(f, x).hex() for x in (0.7, 5.0)]


# --- runs under an unwinding call ----------------------------------------------------

def test_no_staged_program_pushes_an_empty_record():
    # a run hands on control under an unwinding call by a record and a
    # tail statement; a record that got no backward step is dropped, so a
    # fold whose body joins or loops nests no deeper than one that does
    # neither: a path tree of height h needs a depth limit of h + 3
    progs = [stage_reverse(parse(src)) for src in LOOP_COMPOSITES.values()]
    folds = [stage_tree(body) for body in (*FOLD_BODIES.values(), FOLD_LOOP)]
    for p in progs + folds:
        for q in (p, ir_optimize(p)):
            pushed = {s.fn for s in _all_stmts(q) if isinstance(s, TapePush)}
            assert all(q.functions[f].body for f in pushed), sorted(pushed)
    h = 40
    t = _path_tree(random.Random(24), h)
    for p in folds:
        for q in (p, ir_optimize(p)):
            for run in (ir_eval, interpret):
                assert (run(q, 3.0, tree=t, depth_limit=h + 3).hex()
                        == run(q, 3.0, tree=t).hex())
                with pytest.raises(IREvalError, match="depth limit"):
                    run(q, 3.0, tree=t, depth_limit=h + 2)


NESTED_EXITS = parse(
    "(lam x (letrec outer (lam t (if (> t 1.0) (app outer (letrec inner (lam u"
    " (if (> u t) (app inner (* u 0.5)) (* u 0.999))) (app inner t))) t))"
    " (app outer x)))")
SEQUENTIAL_LONG = parse(
    "(lam x (let a (letrec f (lam t (if (> t 1.0) (app f (* t 0.9999)) t)) (app f x))"
    " (letrec g (lam u (if (> u 0.001) (app g (* u 0.9999)) u)) (app g a))))")


def test_nested_loops_nest_one_call_per_outer_iteration():
    # the inner loop's call unwinds its own records and its exit jumps back
    # to the outer loop, so n outer iterations nest n calls, not 2n
    x, n, t = 1000.0, 0, 1000.0
    while t > 1.0:
        t, n = t * 0.999, n + 1
    want = grad_tape_expr(NESTED_EXITS, x).hex()
    p = stage_reverse(NESTED_EXITS)
    for q in (p, ir_optimize(p)):
        for run in (ir_eval, interpret):
            assert run(q, x, depth_limit=n + 2).hex() == want


def test_sequential_loops_keep_a_tail_chain_each():
    # each loop's first call unwinds, so the 6 * 10^4 iterations of each of
    # two loops in a row make two tail chains, each within the default limit
    x = 403.0
    want = grad_tape_expr(SEQUENTIAL_LONG, x).hex()
    q = ir_optimize(stage_reverse(SEQUENTIAL_LONG))
    assert [run(q, x).hex() for run in (ir_eval, interpret)] == [want, want]


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


def _cpp_tree(ns: str, t, tree_type: str) -> tuple[list, str]:
    """Statements of a C++ main that build a non-empty TreeData as nodes of
    tree_type, from arrays named after ns of its values and child indices
    (-1 for a leaf), children first, without recursion in Python or in the
    compiler; and the root's expression."""
    order, stack = [], [t]
    while stack:
        n = stack.pop()
        if n is not None:
            order.append(n)
            stack += [n.left, n.right]
    order.reverse()
    index = {id(n): i for i, n in enumerate(order)}

    def kids(side: str) -> str:
        return ", ".join(str(index.get(id(getattr(n, side)), -1)) for n in order)

    m, nodes = len(order), f"{ns}_n"
    return [f"  static const double {ns}_v[] = {{{', '.join(n.value.hex() for n in order)}}};",
            f"  static const int {ns}_l[] = {{{kids('left')}}}, {ns}_r[] = {{{kids('right')}}};",
            f"  static {tree_type} {nodes}[{m}];",
            f"  for (int i = 0; i < {m}; ++i)",
            f"    {nodes}[i] = {tree_type}{{true, {ns}_v[i], {ns}_l[i] < 0 ? nullptr : "
            f"&{nodes}[{ns}_l[i]],",
            f"        {ns}_r[i] < 0 ? nullptr : &{nodes}[{ns}_r[i]]}};"], f"{nodes}[{m - 1}]"


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
             # a join and a loop jump on to functions that return the pair
             ("join6", stage_tree(FOLD_BODIES["join"]), (1.01, -0.5), _full_tree(rng, 6)),
             ("fold_loop", ir_optimize(stage_tree(FOLD_LOOP)), (3.0, 1.5),
              _full_tree(rng, 5)),
             # ir_optimize folds a guard passed on to a join into a bool literal
             ("folded_guard", ir_optimize(stage_reverse(parse(
                 "(lam x (let g (> (* 0.0 x) 1.0) (let z (if (> x 0.0) x (* x x))"
                 " (if g z (* z 2.0)))))"))), (2.0, -3.0), None),
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
              (1.0, -0.5), None),
             # a guard that is a bool literal prints as C++
             ("literal_guard", _entry(Cond(True, [Return("in")], [Return(0.0)])),
              (1.5, -0.5), None)]
    for i, name in enumerate(sorted(LOOP_COMPOSITES)):
        cases.append((f"opt{i}", ir_optimize(stage_reverse(parse(LOOP_COMPOSITES[name]))),
                      (8.0, 37.5, 0.3, 0.5, 100.0, 3.0), None))
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
            built, root = _cpp_tree(ns, tree, f"{ns}::Tree")
            body += built
            args = f"{root}, "
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


@needs_gxx
def test_emitted_deep_folds_run_on_the_default_stack(tmp_path):
    # the fold nests one C++ call per tree level and runs its backward work
    # from the tape: full trees of depth 14 and 16 and a 20,000-node path
    # tree run on the default stack under the address-space limit, equal to
    # ir_eval
    rng = random.Random(14)
    prog = ir_optimize(stage_tree(TREE_BODY))
    trees = {"full": _pow2_tree(rng, 14), "full16": _pow2_tree(rng, 16),
             "path": _path_tree(rng, 20_000)}
    decls, body, want = [], [], []
    for name, t in trees.items():
        built, root = _cpp_tree(name, t, "Tree")
        decls += built
        for x in (1.0, -1.0):
            body.append(f'  printf("%a\\n", snippet({root}, {x.hex()}));')
            want.append(ir_eval(prog, x, tree=t))
    assert want[0] == _dual_fold(trees["full"], (1.0, 1.0))[1]
    main = "#include <cstdio>\nint main() {\n" + "\n".join(decls + body) + "\n}\n"
    got = run_native(tmp_path, "deep_folds", emit_c(prog) + main).split()
    assert _bits(got) == _bits(want)


def test_emitted_closures_need_no_header():
    # the backward work of loops and tree folds is records on a tape from
    # the emitted prelude, so no program needs a continuation at all, nor a
    # standard header
    loop = emit_c(ir_optimize(stage_reverse(WHILE_EXAMPLE)))
    tree = emit_c(ir_optimize(stage_tree(TREE_BODY)))
    for p in (stage_reverse(SQUARE), stage_reverse(IF_EXAMPLE),
              stage_reverse(WHILE_EXAMPLE), stage_tree(TREE_BODY),
              stage_reverse(parse(LOOP_COMPOSITES["nested-loops"]))):
        for txt in (emit_c(p), emit_c(ir_optimize(p))):
            assert "#include" not in txt
            assert "std::" not in txt
            assert "kont" not in txt
    assert "for (;;)" in loop and "tape_push(" in loop and "tape_unwind(" in loop
    assert "real rec(" in tree and "tape_push(" in tree and "tape_unwind(" in tree
