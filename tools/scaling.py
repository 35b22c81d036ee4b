"""Print how the cost of each program transformation, and of running staged
loops and tree folds in ir_eval, grows with size.

    python3 tools/scaling.py [--root CHECKOUT]

Transforms: forward, symbolic (forward.*_gradient_program), target-shift,
meta-shift, full-cps (reverse_gradient_program) and stage_reverse, each on
straight-line let chains of n ops (seed 1; sizes 25, 50, 100, 200, 400,
800, each twice the last).  One row per transform and size:

  calls   Python "call" events of one build, counted with sys.setprofile;
          deterministic, so the same on any host
  x2      calls(n) / calls(n/2): a linear transform reads about 2
  min_s   the least wall time of 3 builds (perf_counter, no profiler)
  x2      min_s(n) / min_s(n/2); noisy on a shared host, so read it beside
          the call ratio and beside target-shift's as the linear reference

Then ir_eval on optimized staged IR (ir_optimize of stage_reverse or
stage_tree), one row per program and size:

  loop    the countdown (lam x (letrec f ... (app f (+ t -1.0)) ...)) at
          x = n, so n iterations; n = 1000 to 50000
  tree    the fold (+ (* v l) (* r 0.75)) over a seeded full tree of depth
          d (2^d - 1 nodes, values in [0.25, 0.5]); d = 6 to 12
  us/unit the least wall time of 3 calls per iteration or per node
  x2      the call's time ratio per doubling of iterations or nodes, from
          the row above: a cost linear in size reads about 2

A build or call that raises prints its exception class in place of its
numbers.
The CPS translators nest Python frames per let, so the script raises the
recursion limit of its own process, and runs the builds on a thread with a
larger stack; the header says both.  Standard library only; --root (default:
the checkout this script lives in) puts that checkout's src/ first on
sys.path, so two checkouts can be compared.  The tests import
`seeded_chain`, `call_events` and `frames_in_use` from here, so they
measure the same chains the same way.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
import threading
import time
from functools import partial

RECURSION_LIMIT = 100_000
STACK_BYTES = 512 * 2 ** 20
SEED = 1
SIZES = (25, 50, 100, 200, 400, 800)
REPEAT = 3
COUNTDOWN = ("(lam x (letrec f (lam t (if (> t 0.0) (app f (+ t -1.0)) t))"
             " (app f x)))")
LOOP_SIZES = (1000, 2000, 4000, 8000, 16000, 32000, 50000)
TREE_BODY = "(+ (* v l) (* r 0.75))"
TREE_DEPTHS = (6, 7, 8, 9, 10, 11, 12)


def seeded_chain(n: int, seed: int = SEED):
    """(lam x (let y1 (op x p) ... yn)): y_t = y_(t-1) op p for t = 1..n
    (y_0 is the input), op + or *, p a constant in [0.5, 1.5], the input
    or, for +, an earlier y; so values grow at most geometrically and stay
    finite."""
    from adlc.syntax import Add, Const, Lam, Let, Mul, Var

    rng = random.Random(f"chain:{seed}")
    names = ["x"]
    lets = []
    for t in range(1, n + 1):
        r = rng.random()
        op = Add if rng.random() < 0.5 else Mul
        p = (Const(rng.uniform(0.5, 1.5)) if r < 0.6 else Var("x")
             if r < 0.8 or op is Mul else Var(rng.choice(names)))
        lets.append((f"y{t}", op(Var(names[-1]), p)))
        names.append(f"y{t}")
    body = Var(names[-1])
    for name, rhs in reversed(lets):
        body = Let(name, rhs, body)
    return Lam("x", body)


def transforms() -> dict:
    from adlc.forward import forward_gradient_program, symbolic_gradient_program
    from adlc.reverse import VARIANTS, reverse_gradient_program
    from adlc.staging import stage_reverse

    out = {"forward": forward_gradient_program, "symbolic": symbolic_gradient_program}
    out.update({v: partial(reverse_gradient_program, variant=v) for v in VARIANTS})
    out["stage_reverse"] = stage_reverse
    return out


def frames_in_use() -> int:
    """Python frames on the calling thread's stack, this one's included; a
    test adds its own headroom to this to set a recursion limit."""
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def call_events(build, *args) -> int:
    """Python "call" events while build(*args) runs."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call":
            count += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        build(*args)
    finally:
        sys.setprofile(saved)
    return count


def seeded_tree(rng: random.Random, depth: int):
    from adlc.staging import TreeData

    if depth == 0:
        return None
    return TreeData(rng.uniform(0.25, 0.5), seeded_tree(rng, depth - 1),
                    seeded_tree(rng, depth - 1))


def min_wall(run, *args) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        run(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _ratio(a, b) -> str:
    return "-" if a is None or b is None else f"{a / b:.2f}"


def rows():
    """(transform, n, calls, calls x2, min_s, min_s x2) as printed cells."""
    chains = {n: seeded_chain(n) for n in SIZES}
    for name, build in transforms().items():
        prev_calls = prev_s = None
        for n in SIZES:
            try:
                calls = call_events(build, chains[n])
                secs = min_wall(build, chains[n])
            except Exception as ex:  # printed, not raised
                calls = secs = None
                yield (name, str(n), type(ex).__name__, "-", "-", "-")
            else:
                yield (name, str(n), str(calls), _ratio(calls, prev_calls),
                       f"{secs:.4f}", _ratio(secs, prev_s))
            prev_calls, prev_s = calls, secs


def ir_eval_cases():
    """(program, size, units, call): units are iterations or tree nodes."""
    from adlc.ir_eval import ir_eval
    from adlc.ir_opt import ir_optimize
    from adlc.staging import stage_reverse, stage_tree
    from adlc.syntax import parse

    loop = ir_optimize(stage_reverse(parse(COUNTDOWN)))
    for n in LOOP_SIZES:
        yield "loop", n, n, partial(ir_eval, loop, float(n))
    fold = ir_optimize(stage_tree(parse(TREE_BODY)))
    rng = random.Random(f"tree:{SEED}")
    for d in TREE_DEPTHS:
        tree = seeded_tree(rng, d)
        yield "tree", d, 2 ** d - 1, partial(ir_eval, fold, 1.25, tree=tree)


def ir_eval_rows():
    """(program, size, us/unit, min_s, x2) as printed cells."""
    prev = (None, None, None)
    for program, size, units, call in ir_eval_cases():
        try:
            secs = min_wall(call)
        except Exception as ex:  # printed, not raised
            secs = None
            yield (program, str(size), type(ex).__name__, "-", "-")
        else:
            x2 = "-"
            if prev[0] == program and prev[2] is not None:
                x2 = f"{(secs / prev[2]) ** (math.log(2) / math.log(units / prev[1])):.2f}"
            yield (program, str(size), f"{secs / units * 1e6:.2f}", f"{secs:.4f}", x2)
        prev = (program, units, secs)


def main() -> None:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=here, help="checkout to measure")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))

    old = sys.getrecursionlimit()
    print(f"# seeded let chains (seed {SEED}); wall time is the min of {REPEAT} builds")
    print(f"# recursion limit raised from {old} to {RECURSION_LIMIT} in this "
          f"process; builds run on a thread with a {STACK_BYTES >> 20} MiB stack")
    print(f"{'transform':<14}{'n':>5}{'calls':>11}{'x2':>6}{'min_s':>10}{'x2':>6}")

    def run():
        for row in rows():
            print("{:<14}{:>5}{:>11}{:>6}{:>10}{:>6}".format(*row), flush=True)
        print(f"# ir_eval on optimized staged IR; wall time is the min of {REPEAT} calls")
        print(f"{'program':<14}{'size':>6}{'us/unit':>10}{'min_s':>10}{'x2':>6}")
        for row in ir_eval_rows():
            print("{:<14}{:>6}{:>10}{:>10}{:>6}".format(*row), flush=True)

    sys.setrecursionlimit(RECURSION_LIMIT)
    threading.stack_size(STACK_BYTES)
    worker = threading.Thread(target=run)
    worker.start()
    worker.join()


if __name__ == "__main__":
    main()
