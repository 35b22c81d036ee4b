"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Tolerances are pinned here and nowhere else."""

import random
import time

from adlc.emit import emit_c
from adlc.forward import grad_forward_tagged
from adlc.gradcheck import (
    ALL_MODES, CorpusSpec, ProgramGradients, crosscheck, gradient_descent,
    random_program,
)
from adlc.ir import Call, Cond, ir_cell_op_count
from adlc.ir_eval import ir_eval
from adlc.ir_opt import ir_optimize
from adlc.reverse import grad_reverse, grad_reverse_of_reverse, reverse_gradient_program
from adlc.runtime import grad_forward_over_reverse, perturbation_confusion_probe
from adlc.staging import parse_tree, stage_reverse, stage_tree, tree_to_expr
from adlc.syntax import (
    App, Lam, Let, Var, contains_control, children, node_count, parse,
)

CUBIC = parse("(lam x (+ (* 2.0 x) (* (* x x) x)))")
SQUARE = parse("(lam x (* x x))")
IF_EXAMPLE = parse("(lam x (if (> x 0.0) (* (* -1.0 x) x) (* x x)))")
WHILE_EXAMPLE = parse(
    "(lam x (letrec loop (lam t (if (> t 1.0) (app loop (* t 0.5)) t))"
    " (app loop x)))")
TREE_BODY = parse("(* (* l r) v)")
QUAD = parse("(lam x (+ (+ (* x x) (* -6.0 x)) 9.0))")

SECOND_ORDER_PROBES = (-2.0, -1.0, 0.0, 1.0, 2.0)


def _report(n: int, label: str, ok: bool) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {n} failed: {label}"


def _rel_ok(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def test_criterion_1_worked_example_all_paths():
    t0 = time.perf_counter()
    pg = ProgramGradients(CUBIC)
    ok = True
    for x in SECOND_ORDER_PROBES:
        want = 2 + 3 * x * x
        for mode in ALL_MODES:
            ok = ok and _rel_ok(pg.grad(mode, x), want, 1e-10)
    elapsed = time.perf_counter() - t0
    _report(1, f"2x+x^3 gradients, 10 modes x 5 probes ({elapsed:.2f}s)",
            ok and elapsed < 1.0)


def test_criterion_2_second_order():
    t0 = time.perf_counter()
    from adlc.runtime import dual_fn

    host = dual_fn(CUBIC)
    ok = True
    for x in SECOND_ORDER_PROBES:
        want = 6.0 * x
        ok = ok and _rel_ok(grad_forward_tagged(host, x, order=2), want, 1e-9)
        ok = ok and _rel_ok(grad_forward_over_reverse(CUBIC, x), want, 1e-9)
        ok = ok and _rel_ok(grad_reverse_of_reverse(CUBIC, x), want, 1e-9)
    elapsed = time.perf_counter() - t0
    _report(2, f"second order forward2/reverse2 = 6x ({elapsed:.2f}s)",
            ok and elapsed < 1.0)


def test_criterion_3_perturbation_confusion():
    t0 = time.perf_counter()
    naive, tagged = perturbation_confusion_probe()
    elapsed = time.perf_counter() - t0
    _report(3, f"naive inner = {naive}, tagged inner = {tagged} ({elapsed:.2f}s)",
            naive == 2.0 and tagged == 1.0 and elapsed < 1.0)


def test_criterion_4_control_flow():
    results = []

    t0 = time.perf_counter()
    p_if = stage_reverse(IF_EXAMPLE)
    for x in (2.0, -2.0):
        staged = ir_eval(p_if, x)
        unstaged = grad_reverse(IF_EXAMPLE, x, "meta-shift")
        results.append(_rel_ok(staged, -4.0, 1e-12) and staged == unstaged)
    t_if = time.perf_counter() - t0

    t0 = time.perf_counter()
    p_wh = stage_reverse(WHILE_EXAMPLE)
    staged = ir_eval(p_wh, 8.0)
    unstaged = grad_reverse(WHILE_EXAMPLE, 8.0, "meta-shift")
    results.append(_rel_ok(staged, 0.125, 1e-12) and staged == unstaged)
    t_wh = time.perf_counter() - t0

    t0 = time.perf_counter()
    p_tr = stage_tree(TREE_BODY)
    tree = parse_tree("(node 3.0 (leaf) (leaf))")
    staged = ir_eval(p_tr, 2.0, tree=tree)
    unstaged = grad_reverse(tree_to_expr(tree, TREE_BODY), 2.0, "meta-shift")
    results.append(_rel_ok(staged, 12.0, 1e-12) and staged == unstaged)
    t_tr = time.perf_counter() - t0

    ok = all(results) and max(t_if, t_wh, t_tr) < 1.0
    _report(4, f"staged if/while/tree = -4, 0.125, 12; bitwise vs unstaged "
               f"({t_if:.2f}s/{t_wh:.2f}s/{t_tr:.2f}s)", ok)


def test_criterion_5_corpus_crosscheck():
    t0 = time.perf_counter()
    reports = crosscheck(CorpusSpec(seed=42, count=200, ops_per_program=12))
    elapsed = time.perf_counter() - t0
    n_pass = sum(r.passed for r in reports)
    _report(5, f"corpus: {n_pass}/{len(reports)} cells pass ({elapsed:.1f}s)",
            n_pass == len(reports) == 1200 and elapsed < 30.0)


def _walk(e):
    yield e
    for c in children(e):
        yield from _walk(c)


def _wavy_normal(e) -> bool:
    for n in _walk(e):
        match n:
            case Lam(p, App(Var(h), Var(a))) if a == p and h != p:
                return False
            case Let(_, Var(_), _):
                return False
    return True


def _tail_self_calls_only(prog, fn_name: str) -> bool:
    def check(block, tail):
        for i, s in enumerate(block):
            last = tail and i == len(block) - 1
            if isinstance(s, Call) and s.target == fn_name:
                if not last:
                    return False
            elif isinstance(s, Cond):
                if not check(s.then, last) or not check(s.orelse, last):
                    return False
        return True

    return check(prog.functions[fn_name].body, True)


def _stmts(block):
    for s in block:
        yield s
        if isinstance(s, Cond):
            yield from _stmts(s.then)
            yield from _stmts(s.orelse)


def test_criterion_6_structural_properties():
    spec = CorpusSpec(seed=42, count=200, ops_per_program=12)
    progs = [random_program(spec, i) for i in range(spec.count)]
    progs += [CUBIC, SQUARE, IF_EXAMPLE, WHILE_EXAMPLE]

    ok = True
    for f in progs:
        for variant in ("meta-shift", "full-cps"):
            out = reverse_gradient_program(f, variant)
            ok = ok and not contains_control(out) and _wavy_normal(out)

    # staged IF: the continuation body exists exactly once, as a function
    p_if = stage_reverse(IF_EXAMPLE)
    from adlc.ir import CellSet

    ones = [s for fn in p_if.functions.values() for s in _stmts(fn.body)
            if isinstance(s, CellSet) and s.value == 1.0]
    ok = ok and len(ones) == 1

    # staged WHILE: every self-call of the loop function is a tail call
    p_wh = stage_reverse(WHILE_EXAMPLE)
    loops = [n for n in p_wh.functions if n.startswith("loop") and "bwd" not in n]
    ok = ok and bool(loops)
    for n in loops:
        ok = ok and _tail_self_calls_only(p_wh, n)

    _report(6, "no control residue, wavy normal forms, if-join emitted once, "
               "while self-calls in tail position", ok)


def test_criterion_7_optimizer_soundness_and_progress():
    rng = random.Random(42)
    spec = CorpusSpec(count=20)
    staged = [(stage_reverse(random_program(spec, i)), None)
              for i in range(spec.count)]
    staged += [(stage_reverse(IF_EXAMPLE), None),
               (stage_reverse(WHILE_EXAMPLE), None),
               (stage_tree(TREE_BODY),
                parse_tree("(node 2.0 (node 0.5 (leaf) (leaf)) (leaf))"))]
    ok = True
    for p, tree in staged:
        po = ir_optimize(p)
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0)
            ok = ok and ir_eval(p, x, tree=tree) == ir_eval(po, x, tree=tree)

    po = ir_optimize(stage_reverse(SQUARE))
    ok = ok and ir_cell_op_count(po) == 0
    ok = ok and "2 * in" in emit_c(po)
    _report(7, "optimization exact at 20 probes/program; square folds to 2*in "
               "with zero cell ops", ok)


def test_criterion_8_growth_bounds():
    from adlc.forward import fwd_transform, symbolic_diff
    from adlc.lang import anf, freshen

    spec = CorpusSpec(seed=42, count=200, ops_per_program=12)
    ok = True
    for i in range(spec.count):
        body = random_program(spec, i).body
        t = fwd_transform(freshen(body))
        ok = ok and node_count(t) <= 6 * node_count(body) + 10
        a = anf(body)
        ok = ok and node_count(symbolic_diff(a, "x")) <= 6 * node_count(a) + 10
    _report(8, "node growth within 6n+10 for forward transform and "
               "symbolic-over-ANF across the corpus", ok)


def test_criterion_9_gradient_descent():
    t0 = time.perf_counter()
    traj = gradient_descent(QUAD, 0.0, 0.1, 100)
    elapsed = time.perf_counter() - t0
    converged = abs(traj[-1][0] - 3.0) < 1e-3
    # monotone up to the ~1e-15 rounding noise of the expanded quadratic
    monotone = all(f1 <= f0 + 1e-12 for (_, f0), (_, f1) in zip(traj, traj[1:]))
    _report(9, f"descent reaches |x-3| = {abs(traj[-1][0]-3.0):.2e} "
               f"with monotone loss ({elapsed:.2f}s)",
            converged and monotone and elapsed < 1.0)
