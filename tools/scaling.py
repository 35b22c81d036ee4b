"""Print how the cost of each program transformation, of translating and
running the gradient programs, of running staged programs, loops and tree
folds in ir_eval, and of the corpus cross-check grows with size.

    python3 tools/scaling.py [--root CHECKOUT]

Each table below is one `Table` declaration in `tables` or `child_tables`:
its title, its columns and its rows, which `print_table` prints.  Columns
that recur:

  calls   Python "call" events, counted with sys.setprofile;
          deterministic, so the same on any host
  x2      the ratio of the cost to its left per doubling of the size (n,
          nodes or iterations), from the last row above that did not
          fail: a cost linear in size reads about 2.  Time ratios are
          noisy on a shared host, so read them beside the call ratios
  min_s, ms, us/node
          the least wall time of 3 calls or builds (perf_counter, no
          profiler)
  ns/iter, ns/node, rss_mb
          in the child-process tables: the median wall time of 5
          children's timed calls per iteration or node, and the largest
          peak RSS (VmHWM) of those children
  bits    a gradient's float.hex, plus "= compiled" or "= ir_eval" when it
          matches the reference named below

A build, call or child that fails prints its exception class in place of
its numbers (a child that exits nonzero, RuntimeError).

Transforms: forward, symbolic (forward.*_gradient_program), target-shift,
meta-shift, full-cps (reverse_gradient_program) and stage_reverse, each on
straight-line let chains of n ops (seed 1; sizes 25, 50, 100, 200, 400,
800, each twice the last).  One row per transform and size: calls and
min_s of one build, each with its x2, and

  B/node  bytes that tracemalloc sees held by one build's gradient program,
          once its input chain is gone, per node of that program; "-" for
          stage_reverse, whose output is IR.  It moves by up to 9 between
          runs of one checkout

Every build, counted or timed, is on a chain of its own: `lang.prepare`
keeps its result on its input node, so a build on a chain an earlier build
saw would skip that work.

Then stage_reverse on n conditionals on staged guards, one after another,
with a value live across all of them (`sequential_ifs`; n = 250, 500,
1000, 2000, 4000): ms of a build and its x2, one row per size.

Then ir_optimize alone, on programs staged once per size: the let chains
above (n = 25 to 800 ops), `sequential_ifs` (n = 250 to 4000) and an entry
of n nested Conds built as IR (`nested_conds`; n = 10^3 and 10^4): calls
and ms of one run, each with its x2, one row per program set and size.
The nested entries run at the recursion limit the process started with,
so an optimizer that recurses once per Cond prints RecursionError there.

Then each gradient program (forward, symbolic and the three reverse
variants, built on the same chains) is run by each entry point,
`eval_expr` of (app prog x) and `real_fn(prog)(x)`, at x = 1.0, one row per
program, size and entry point:

  first   calls and least wall time of 3 first calls, each on a program
          of its own: translation plus run
  later   calls and least wall time of 3 later calls on one program, whose
          closed lambdas keep their translation: the run, and the
          translation of the application around it
  x       first_s / later_s

Then ir_eval, gradcheck's staged mode, on the staged gradient programs of
CorpusSpec(42) (200 programs) and of seeded 100-op chains (seeds 1 to 10),
unoptimized and optimized, at x = 1.0; these are straight-line, so they
run on the interpreter.  One row per program set and optimization:

  first_us  the mean over the programs of the least wall time of 3 first
            calls, each on a program staged afresh: verify, the compiled
            tier's check and the run
  later_us  the same mean for 3 later calls on one program
  x         first_us / later_us

Then the optimized staged tree fold (ir_optimize of stage_tree), the fold
(+ (* v l) (* r 0.75)) over a seeded full tree of depth d (2^d - 1 nodes,
values in [0.25, 0.5]; d = 6 to 12, the same trees on both tiers): us/node
and min_s of a call and the x2 per doubling of nodes, one row per tier and
depth:

  compiled  ir_eval: `rec` calls itself, so the fold runs as generated
            Python (ir_eval's compiled tier)
  interp    ir_eval.interpret on the same program and tree

Then two loops, optimized, each call in a fresh child process, so that
every size pays for its own memory: the countdown (lam x (letrec f ...
(app f (+ t -1.0)) ...)) at 10^3, 10^4, 10^5 and 10^6 iterations, and
op-before-if, whose body adds before its conditional (let u (+ t -0.5) (if
(> u 0.0) (app f (+ u -0.5)) u)), so each iteration pushes two records, at
10^3, 10^4 and 10^5 iterations (x = n for both).  Each child first runs one
iteration, so verify and the compiled tier (or the lazy binding of the
allocator) are outside the timed call.  ns/iter, x2, rss_mb and bits
(against the compiled row of that loop and size), one row per loop,
backend and size:

  compiled  ir_eval, depth limit 2n, in a Python child: a program that
            loops runs as generated Python (ir_eval's compiled tier)
  interp    ir_eval.interpret on the same program and limit: the
            interpreter, which runs every straight-line program
  c++       emit_c of the same IR built with g++ -O2 (skipped without g++),
            run under a 1 GiB address-space limit with the default stack

Then the same fold (optimized) as emitted C++, built with g++ -O2 (skipped
without g++) and run on seeded full trees of depth 12, 14 and 16 (up to
65,535 nodes), each call in a fresh child under the 1 GiB address-space
limit with the default stack; the child reads the tree from a file, runs
one warm-up call and times a second: ns/node, x2, rss_mb and bits
(against ir_eval on the same tree).

Then the countdown at 10^5 iterations and the default depth limit, once per
tier: both stop with the same limit error, which the row prints.

Then the two programs whose compiled run meets the recursion limit and
runs again on the interpreter, in a fresh child process at Python's default
recursion limit: the optimized join-before-self-call loop (its `loop` and
`k` jump to each other every iteration, one Python frame each on the
compiled tier) at x = 1e200 and 1e300, and the optimized fold above on a
3,000-node path tree (each node the left child of the one above).  One row
per program and tier: ms of a call after one warm-up call, and bits (the
interp row against the compiled one).

Then crosscheck(CorpusSpec(42)) at 50, 100 and 200 programs, each size in
a fresh child process that runs 3 passes (crosscheck checks the programs
in forked workers, one per usable CPU):

  wall_s   the median wall time of a pass
  cpu_s    the median CPU time (user + system) of a pass, the process's
           own (RUSAGE_SELF) plus that of its reaped children
           (RUSAGE_CHILDREN), so the workers' work is counted
  workers  os.fork calls per pass; 0 when the programs are checked in
           process
  rss_mb   the child's own peak RSS (VmHWM)
  wrk_mb   the largest peak RSS of its workers (RUSAGE_CHILDREN
           ru_maxrss); a forked worker's peak counts the pages it shares
           with the process that forked it

The CPS translators nest Python frames per let, so the script raises the
recursion limit of its own process, and runs the builds on a thread with a
larger stack; the header says both.  Standard library only; --root (default:
the checkout this script lives in) puts that checkout's src/ first on
sys.path, so two checkouts can be compared.  The tests import
`seeded_chain`, `sequential_ifs`, `nested_conds`, `call_events` and
`frames_in_use` from here, so they measure the same programs the same way.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from collections.abc import Callable, Iterable
from functools import partial
from typing import NamedTuple

RECURSION_LIMIT = 100_000
STACK_BYTES = 512 * 2 ** 20
SEED = 1
SIZES = (25, 50, 100, 200, 400, 800)
STAGED_IF_SIZES = (250, 500, 1000, 2000, 4000)
NEST_DEPTHS = (1_000, 10_000)
REPEAT = 3
COUNTDOWN = ("(lam x (letrec f (lam t (if (> t 0.0) (app f (+ t -1.0)) t))"
             " (app f x)))")
OP_BEFORE_IF = ("(lam x (letrec f (lam t (let u (+ t -0.5) (if (> u 0.0)"
                " (app f (+ u -0.5)) u))) (app f x)))")
JOIN_BEFORE_SELF_CALL = ("(lam x (letrec f (lam t (let w (if (> t 1.0) (* t 0.9) t)"
                         " (if (> w 1.0) (app f (* w 0.5)) w))) (app f x)))")
FALLBACK_XS = (1e200, 1e300)
FALLBACK_PATH_NODES = 3_000
STAGED_CHAIN_SEEDS = range(1, 11)
# loop -> (program, iteration counts n); each runs n iterations at x = n
CHILD_LOOPS = {"countdown": (COUNTDOWN, (1_000, 10_000, 100_000, 1_000_000)),
               "op-before-if": (OP_BEFORE_IF, (1_000, 10_000, 100_000))}
LIMIT_LOOP_SIZE = 100_000
TIERS = ("compiled", "interp")
CHILD_AS_BYTES = 1 << 30
CHILD_TIMEOUT_S = 120.0
CHILD_REPEAT = 5
CORPUS_SIZES = (50, 100, 200)
TREE_BODY = "(+ (* v l) (* r 0.75))"
TREE_DEPTHS = (6, 7, 8, 9, 10, 11, 12)
CXX_TREE_DEPTHS = (12, 14, 16)
TREE_X = 1.25
X = 1.0  # where run_rows runs the gradient programs


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


def sequential_ifs(n: int):
    """(lam x (let a (* x 1.5) (let y1 (if (> x 0.5) (* x 1.01) (* x 0.99))
    ... (+ yn a)))): n conditionals one after another, each on a guard the
    one before computed, and a value live across all of them."""
    from adlc.syntax import Add, Const, Greater, If, Lam, Let, Mul, Var

    body = Add(Var(f"y{n}"), Var("a"))
    for t in range(n, 0, -1):
        y = Var(f"y{t - 1}" if t > 1 else "x")
        body = Let(f"y{t}", If(Greater(y, Const(0.5)), Mul(y, Const(1.01)),
                               Mul(y, Const(0.99))), body)
    return Lam("x", Let("a", Mul(Var("x"), Const(1.5)), body))


def nested_conds(n: int):
    """IR of an entry on `in` of n nested Conds, each on a guard of its
    own: (in > -(n-1) ? ... (in > 0 ? in : 0) ... : n-1)."""
    from adlc.ir import Bind, Cond, IRFunction, IRProgram, Return

    body = [Return("in")]
    for i in range(n):
        body = [Bind(f"g{i}", "greater", ("in", float(-i))),
                Cond(f"g{i}", body, [Return(float(i))])]
    return IRProgram({"entry": IRFunction("entry", [("in", "val")], body)}, "entry")


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


def min_wall(run, make_args=tuple) -> float:
    """The least wall time of REPEAT calls run(*make_args()), the arguments
    made outside the timed span."""
    best = float("inf")
    for _ in range(REPEAT):
        args = make_args()
        t0 = time.perf_counter()
        run(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _per_doubling(value: float, units: int, prev) -> str:
    """value's ratio per doubling of units from prev, (units, value) of the
    row above or None."""
    if prev is None:
        return "-"
    return f"{(value / prev[1]) ** (math.log(2) / math.log(units / prev[0])):.2f}"


def _failed(keys: tuple, ex: BaseException, width: int) -> tuple:
    """A row of width cells: keys, then ex's class in place of the numbers."""
    return (*keys, type(ex).__name__) + ("-",) * (width - len(keys) - 1)


def held_bytes_per_node(build, n: int) -> str:
    """Bytes held by build(seeded_chain(n)) per node of its result, as
    tracemalloc counts them after the chain, and what `lang.prepare` kept
    on it, are freed; "-" when the result is not an expression."""
    from adlc.syntax import Expr, node_count

    chain = seeded_chain(n)
    gc.collect()
    tracemalloc.start()
    try:
        out = build(chain)
        del chain
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return f"{held / node_count(out):.0f}" if isinstance(out, Expr) else "-"


def _sized_rows(keys: tuple, sizes: dict, measure, width: int):
    """A row of width cells per size (sizes: size -> units): keys, the size
    and measure(size)'s cells, of which a (cost, text) pair prints text and
    then the cost's x2 from the row above; the exception's class in place
    of the numbers when measure raises."""
    prev: dict = {}
    for size, units in sizes.items():
        try:
            cells = measure(size)
        except Exception as ex:  # printed, not raised
            yield _failed((*keys, str(size)), ex, width)
            continue
        row = [*keys, str(size)]
        for i, cell in enumerate(cells):
            if isinstance(cell, tuple):
                row += [cell[1], _per_doubling(cell[0], units, prev.get(i))]
                prev[i] = units, cell[0]
            else:
                row.append(cell)
        yield tuple(row)


def transform_rows():
    for name, build in transforms().items():
        def measure(n):
            calls = call_events(build, seeded_chain(n))
            secs = min_wall(build, lambda: (seeded_chain(n),))
            return (calls, str(calls)), (secs, f"{secs:.4f}"), held_bytes_per_node(build, n)

        yield from _sized_rows((name,), {n: n for n in SIZES}, measure, 7)


def staged_if_rows():
    from adlc.staging import stage_reverse

    def measure(n):
        secs = min_wall(stage_reverse, lambda: (sequential_ifs(n),))
        return [(secs, f"{secs * 1e3:.1f}")]

    return _sized_rows(("stage_reverse",), {n: n for n in STAGED_IF_SIZES}, measure, 4)


def optimize_rows(start_limit: int):
    """The nested Conds run at the recursion limit start_limit, the rest at
    the limit this is called at."""
    from adlc.ir_opt import ir_optimize
    from adlc.staging import stage_reverse

    limit = sys.getrecursionlimit()
    sets = (("chain", SIZES, lambda n: stage_reverse(seeded_chain(n))),
            ("seq_ifs", STAGED_IF_SIZES, lambda n: stage_reverse(sequential_ifs(n))),
            ("nested_conds", NEST_DEPTHS, nested_conds))
    for name, sizes, make in sets:
        def measure(n):
            prog = make(n)
            sys.setrecursionlimit(start_limit if make is nested_conds else limit)
            try:
                calls = call_events(ir_optimize, prog)
                secs = min_wall(ir_optimize, lambda: (prog,))
            finally:
                sys.setrecursionlimit(limit)
            return (calls, str(calls)), (secs, f"{secs * 1e3:.2f}")

        yield from _sized_rows((name,), {n: n for n in sizes}, measure, 6)


def run_rows():
    from adlc.interp import eval_expr, real_fn
    from adlc.syntax import App, Const

    entries = {"eval_expr": lambda prog: eval_expr(App(prog, Const(X)))[0],
               "real_fn": lambda prog: real_fn(prog)(X)}
    builders = {name: build for name, build in transforms().items()
                if name != "stage_reverse"}
    for name, build in builders.items():
        for n in SIZES:
            for entry, run in entries.items():
                try:
                    first_calls = call_events(run, build(seeded_chain(n)))
                    first_s = min_wall(run, lambda: (build(seeded_chain(n)),))
                    prog = build(seeded_chain(n))
                    run(prog)
                    later_calls = call_events(run, prog)
                    later_s = min_wall(run, lambda: (prog,))
                except Exception as ex:  # printed, not raised
                    yield _failed((name, str(n), entry), ex, 8)
                    continue
                yield (name, str(n), entry, str(first_calls), str(later_calls),
                       f"{first_s:.4f}", f"{later_s:.4f}", f"{first_s / later_s:.2f}")


def staged_call_rows():
    from adlc.gradcheck import CorpusSpec, corpus
    from adlc.ir_eval import ir_eval
    from adlc.ir_opt import ir_optimize
    from adlc.staging import stage_reverse

    sets = {"corpus42": lambda: corpus(CorpusSpec(42)),
            "chain100": lambda: [seeded_chain(100, seed) for seed in STAGED_CHAIN_SEEDS]}
    for name, sources in sets.items():
        for opt in ("none", "all"):
            def build(f):
                p = stage_reverse(f)
                return (ir_optimize(p) if opt == "all" else p,)

            first = later = 0.0
            progs = sources()
            for f in progs:
                first += min_wall(partial(ir_eval, x0=X), partial(build, f))
                p = build(f)[0]
                ir_eval(p, X)
                later += min_wall(partial(ir_eval, p, X))
            n = len(progs)
            yield (name, opt, str(n), f"{first / n * 1e6:.1f}", f"{later / n * 1e6:.1f}",
                   f"{first / later:.2f}")


def ir_eval_rows():
    from adlc.ir_eval import interpret, ir_eval
    from adlc.ir_opt import ir_optimize
    from adlc.staging import stage_tree
    from adlc.syntax import parse

    fold = ir_optimize(stage_tree(parse(TREE_BODY)))
    rng = random.Random(f"tree:{SEED}")
    trees = {d: seeded_tree(rng, d) for d in TREE_DEPTHS}
    for tier, run in zip(TIERS, (ir_eval, interpret)):
        def measure(d):
            secs = min_wall(partial(run, fold, TREE_X, tree=trees[d]))
            return f"{secs / (2 ** d - 1) * 1e6:.2f}", (secs, f"{secs:.4f}")

        yield from _sized_rows((tier,), {d: 2 ** d - 1 for d in trees}, measure, 5)


# Every child program starts with this: the checkout's src/ (argv[1]) goes
# first on sys.path, and vm_hwm_kb() reads the peak RSS of the child's own
# image (VmHWM): a child's ru_maxrss also counts the image of the process
# that forked it.
_CHILD_PREAMBLE = """
import sys
sys.path.insert(0, sys.argv[1])
def vm_hwm_kb():
    with open("/proc/self/status") as fh:
        return next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
"""

# One call at n iterations on a tier (compiled: ir_eval; interp:
# ir_eval.interpret) and a depth limit, after a one-iteration call; prints
# the gradient, the call's ns and the peak RSS in kB, or the IREvalError it
# raised.
_IR_EVAL_CHILD = """
import time
from adlc.ir_eval import IREvalError, interpret, ir_eval
from adlc.ir_opt import ir_optimize
from adlc.staging import stage_reverse
from adlc.syntax import parse
n, limit = int(sys.argv[3]), int(sys.argv[5])
run = {"compiled": ir_eval, "interp": interpret}[sys.argv[4]]
prog = ir_optimize(stage_reverse(parse(sys.argv[2])))
run(prog, 1.0)
t0 = time.perf_counter()
try:
    g = run(prog, float(n), depth_limit=limit)
except IREvalError as ex:
    print("IREvalError:", ex)
    raise SystemExit(0)
ns = int((time.perf_counter() - t0) * 1e9)
print(g.hex(), ns, vm_hwm_kb())
"""

# the same for the emitted C++: usage loop N; the timed call is CALL, after
# one SETUP, with `x` its input
_CXX_MAIN = r"""
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <vector>
%(globals)s
int main(int argc, char** argv) {
  %(setup)s
  timespec a, b;
  clock_gettime(CLOCK_MONOTONIC, &a);
  double g = %(call)s;
  clock_gettime(CLOCK_MONOTONIC, &b);
  long hwm = -1;
  FILE* f = fopen("/proc/self/status", "r");
  char line[256];
  while (f && fgets(line, sizeof line, f))
    if (sscanf(line, "VmHWM: %%ld", &hwm) == 1) break;
  if (f) fclose(f);
  printf("%%a %%lld %%ld\n", g, (b.tv_sec - a.tv_sec) * 1000000000LL + (b.tv_nsec - a.tv_nsec), hwm);
  return 0;
}
"""
_LOOP_MAIN = _CXX_MAIN % {
    "globals": "", "call": "snippet(x)",
    "setup": "if (argc != 2) return 2;\n  snippet(1.0);\n  double x = atof(argv[1]);"}
# usage: fold FILE X, FILE holding the node count, then the values in
# preorder with '#' for a leaf (_preorder)
_FOLD_MAIN = _CXX_MAIN % {
    "globals": r"""
static std::vector<Tree> nodes;
static Tree read_tree(FILE* f) {
  char tok[64];
  if (fscanf(f, "%63s", tok) != 1) exit(3);
  if (tok[0] == '#') return Tree{false, 0, nullptr, nullptr};
  double v = strtod(tok, nullptr);
  Tree l = read_tree(f), r = read_tree(f);
  nodes.push_back(l);
  const Tree* lp = l.notEmpty ? &nodes.back() : nullptr;
  nodes.push_back(r);
  const Tree* rp = r.notEmpty ? &nodes.back() : nullptr;
  return Tree{true, v, lp, rp};
}
""", "call": "snippet(t, x)",
    "setup": """if (argc != 3) return 2;
  FILE* in = fopen(argv[1], "r");
  long count = 0;
  if (!in || fscanf(in, "%ld", &count) != 1) return 3;
  nodes.reserve(2 * count);
  Tree t = read_tree(in);
  fclose(in);
  double x = strtod(argv[2], nullptr);
  snippet(t, x);"""}


def _python_child(src: str, program: str, *args) -> list:
    """argv of a Python child that runs program with src on its path."""
    return [sys.executable, "-c", _CHILD_PREAMBLE + program, src, *map(str, args)]


def _child(argv: list, limit: bool = False) -> str:
    """Run one child to completion, under the address-space limit if limit;
    its stdout.  Raises RuntimeError when it exits nonzero."""
    r = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                       preexec_fn=partial(resource.setrlimit, resource.RLIMIT_AS,
                                          (CHILD_AS_BYTES, CHILD_AS_BYTES)) if limit else None)
    if r.returncode != 0:
        raise RuntimeError(f"exit code {r.returncode}")
    return r.stdout


def _bits(runs: list, reference, mark: str) -> str:
    """The runs' common float.hex, plus " = mark" when it equals reference;
    every run's after "differ:" when they disagree."""
    if any(b != runs[0] for b in runs):
        return "differ: " + " ".join(runs)
    return runs[0] + (f" = {mark}" if runs[0] == reference else "")


def _build_cxx(code: str, build_dir: str, name: str) -> str:
    """Build code with g++ -O2 in build_dir; the executable's path.  Raises
    CalledProcessError when g++ fails."""
    cc, exe = os.path.join(build_dir, f"{name}.cc"), os.path.join(build_dir, name)
    with open(cc, "w") as fh:
        fh.write(code)
    subprocess.run(["g++", "-O2", "-std=c++17", cc, "-o", exe], check=True,
                   capture_output=True, env=dict(os.environ, TMPDIR=build_dir))
    return exe


def _child_rows(keys: tuple, sizes: dict, argv, limit: bool, reference: dict, mark: str):
    """_sized_rows of CHILD_REPEAT children of argv(size) per size, each
    printing (gradient hex, call ns, peak RSS in kB): the median call's ns
    per unit and its x2, the largest peak RSS in MB and the bits against
    reference.get(size)."""
    def measure(size):
        runs = [_child(argv(size), limit).split() for _ in range(CHILD_REPEAT)]
        secs = statistics.median(int(ns) for _, ns, _ in runs) / 1e9
        return ((secs, f"{secs / sizes[size] * 1e9:.0f}"),
                f"{max(int(kb) for _, _, kb in runs) / 1024:.1f}",
                _bits([float.fromhex(b).hex() for b, _, _ in runs], reference.get(size), mark))

    return _sized_rows(keys, sizes, measure, len(keys) + 5)


def loop_child_rows(src: str):
    """The interp and c++ rows' bits against the compiled row's; the c++
    rows only when g++ builds the emitted loop."""
    from adlc.emit import emit_c
    from adlc.ir_opt import ir_optimize
    from adlc.staging import stage_reverse
    from adlc.syntax import parse

    with tempfile.TemporaryDirectory() as build_dir:
        for loop, (prog, sizes) in CHILD_LOOPS.items():
            backends = {tier: (lambda n, tier=tier: _python_child(
                src, _IR_EVAL_CHILD, prog, n, tier, 2 * n), False) for tier in TIERS}
            if shutil.which("g++") is not None:
                try:
                    exe = _build_cxx(emit_c(ir_optimize(stage_reverse(parse(prog)))) + _LOOP_MAIN,
                                     build_dir, loop)
                except subprocess.CalledProcessError as ex:
                    yield _failed((loop, "c++", "-"), ex, 7)
                else:
                    backends["c++"] = (lambda n: [exe, str(n)], True)
            compiled: dict = {}
            for backend, (argv, limit) in backends.items():
                for row in _child_rows((loop, backend), {n: n for n in sizes}, argv, limit,
                                       compiled, TIERS[0]):
                    compiled.setdefault(int(row[2]), row[-1])
                    yield row


def _preorder(t) -> list:
    """t's values in preorder (float.hex), with '#' for a leaf."""
    return ["#"] if t is None else [t.value.hex(), *_preorder(t.left), *_preorder(t.right)]


def cxx_fold_rows():
    """The optimized tree fold as emitted C++, against ir_eval's bits."""
    from adlc.emit import emit_c
    from adlc.ir_eval import ir_eval
    from adlc.ir_opt import ir_optimize
    from adlc.staging import stage_tree
    from adlc.syntax import parse

    if shutil.which("g++") is None:
        return
    fold = ir_optimize(stage_tree(parse(TREE_BODY)))
    rng = random.Random(f"cxx-tree:{SEED}")
    with tempfile.TemporaryDirectory() as build_dir:
        try:
            exe = _build_cxx(emit_c(fold) + _FOLD_MAIN, build_dir, "fold")
        except subprocess.CalledProcessError as ex:
            yield _failed(("c++ fold", "-"), ex, 6)
            return
        paths = {d: os.path.join(build_dir, f"tree{d}.txt") for d in CXX_TREE_DEPTHS}
        bits = {}
        for d, path in paths.items():
            t = seeded_tree(rng, d)
            toks = _preorder(t)
            with open(path, "w") as fh:
                fh.write(f"{len(toks) // 2} {' '.join(toks)}\n")
            bits[d] = ir_eval(fold, TREE_X, tree=t).hex()
        yield from _child_rows(("c++ fold",), {d: 2 ** d - 1 for d in CXX_TREE_DEPTHS},
                               lambda d: [exe, paths[d], TREE_X.hex()], True, bits, "ir_eval")


def limit_rows(src: str):
    """The countdown past the default depth limit on each tier."""
    from adlc.ir_eval import DEFAULT_DEPTH_LIMIT

    keys = (str(LIMIT_LOOP_SIZE), str(DEFAULT_DEPTH_LIMIT))
    for tier in TIERS:
        try:
            out = _child(_python_child(src, _IR_EVAL_CHILD, COUNTDOWN, LIMIT_LOOP_SIZE, tier,
                                       DEFAULT_DEPTH_LIMIT))
        except Exception as ex:  # printed, not raised
            yield _failed((tier, *keys), ex, 4)
        else:
            yield (tier, *keys, out.strip())


# Each program that falls back from the compiled tier on each tier, after
# one warm-up call: prints its name, the tier, the least ms of REPEAT calls
# and the result's float.hex, a line each.
_FALLBACK_CHILD = """
import random, time
from adlc.ir_eval import interpret, ir_eval
from adlc.ir_opt import ir_optimize
from adlc.staging import TreeData, stage_reverse, stage_tree
from adlc.syntax import parse
loop_src, fold_src, xs, nodes, repeat = sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5], sys.argv[6]
loop = ir_optimize(stage_reverse(parse(loop_src)))
fold = ir_optimize(stage_tree(parse(fold_src)))
rng, path = random.Random("path:1"), None
for _ in range(int(nodes)):
    path = TreeData(rng.uniform(0.25, 0.5), path, None)
cases = [(f"join x={x}", loop, float(x), None) for x in xs.split(",")]
cases.append((f"path n={nodes}", fold, 1.25, path))
for name, prog, x, tree in cases:
    for tier, run in (("compiled", ir_eval), ("interp", interpret)):
        run(prog, x, tree=tree)
        best = float("inf")
        for _ in range(int(repeat)):
            t0 = time.perf_counter()
            g = run(prog, x, tree=tree)
            best = min(best, time.perf_counter() - t0)
        print(name, tier, best * 1e3, g.hex(), sep="\t")
"""


def fallback_rows(src: str):
    try:
        out = _child(_python_child(src, _FALLBACK_CHILD, JOIN_BEFORE_SELF_CALL, TREE_BODY,
                                   ",".join(map(str, FALLBACK_XS)), FALLBACK_PATH_NODES,
                                   REPEAT))
    except Exception as ex:  # printed, not raised
        yield _failed(("-", "-"), ex, 4)
        return
    compiled = None
    for line in out.splitlines():
        name, tier, ms, bits = line.split("\t")
        if tier == TIERS[0]:
            compiled = bits
        else:
            bits = _bits([bits], compiled, TIERS[0])
        yield (name, tier, f"{float(ms):.2f}", bits)


# CORPUS_SIZES[k] programs of CorpusSpec(42) through crosscheck, REPEAT
# passes; prints the median wall and CPU seconds of a pass, os.fork calls
# per pass, and the process's and its children's peak RSS in kB.
_CROSSCHECK_CHILD = """
import os, resource, statistics, time
from adlc.gradcheck import CorpusSpec, crosscheck
forks, fork = 0, os.fork
def counting_fork():
    global forks
    forks += 1
    return fork()
os.fork = counting_fork
def cpu_s():
    return sum(r.ru_utime + r.ru_stime for r in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
spec, repeat = CorpusSpec(42, count=int(sys.argv[2])), int(sys.argv[3])
wall, cpu = [], []
for _ in range(repeat):
    t0, c0 = time.perf_counter(), cpu_s()
    crosscheck(spec)
    wall.append(time.perf_counter() - t0)
    cpu.append(cpu_s() - c0)
print(statistics.median(wall), statistics.median(cpu), forks // repeat, vm_hwm_kb(),
      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def crosscheck_rows(src: str):
    for count in CORPUS_SIZES:
        try:
            wall, cpu, forks, self_kb, children_kb = _child(
                _python_child(src, _CROSSCHECK_CHILD, count, REPEAT)).split()
        except Exception as ex:  # printed, not raised
            yield _failed((str(count),), ex, 6)
            continue
        yield (str(count), f"{float(wall):.3f}", f"{float(cpu):.3f}", forks,
               f"{int(self_kb) / 1024:.1f}",
               f"{int(children_kb) / 1024:.1f}" if int(forks) else "-")


class Table(NamedTuple):
    """One printed table: its title (comment lines), its columns as
    "name:<width" (left-aligned) or "name:>width" (right-aligned) separated
    by spaces, and a function that yields its rows, each a tuple of printed
    cells, one per column."""

    title: str
    columns: str
    rows: Callable[[], Iterable[tuple]]


def tables(start_limit: int) -> list:
    """The tables whose rows are computed in this process, in print order;
    start_limit is the recursion limit the process started with."""
    return [
        Table(f"# seeded let chains (seed {SEED}); wall time is the min of {REPEAT} builds\n"
              f"# recursion limit raised from {start_limit} to {RECURSION_LIMIT} in this process;"
              f" builds run on a thread with a {STACK_BYTES >> 20} MiB stack",
              "transform:<14 n:>5 calls:>11 x2:>6 min_s:>10 x2:>6 B/node:>8", transform_rows),
        Table("# stage_reverse on n sequential staged ifs with a value live across them; wall"
              f" time is the min of {REPEAT} builds", "transform:<14 n:>5 ms:>10 x2:>6",
              staged_if_rows),
        Table("# ir_optimize alone on programs staged once per size; wall time is the min of"
              f" {REPEAT} runs; nested_conds at recursion limit {start_limit}",
              "programs:<14 n:>6 calls:>16 x2:>6 ms:>10 x2:>6",
              partial(optimize_rows, start_limit)),
        Table(f"# gradient programs run at x = {X}; wall time is the min of {REPEAT} first calls"
              f" (each on a program of its own) and of {REPEAT} later calls",
              "program:<14 n:>5 entry:<10 first:>10 later:>8 first_s:>10 later_s:>10 x:>8",
              run_rows),
        Table(f"# ir_eval on staged gradient programs at x = {X}, each staged afresh; the mean"
              f" over the programs of the min of {REPEAT} calls",
              "programs:<10 opt:<6 count:>6 first_us:>10 later_us:>10 x:>7", staged_call_rows),
        Table("# the optimized staged tree fold on each tier; wall time is the min of"
              f" {REPEAT} calls", "tier:<14 depth:>6 us/node:>10 min_s:>10 x2:>6", ir_eval_rows),
    ]


def child_tables(src: str) -> list:
    """The tables whose rows come from child processes, in print order; src
    is the src/ directory the children import adlc from."""
    return [
        Table("# the two loops in fresh child processes; ns/iter is the median of"
              f" {CHILD_REPEAT} children, rss_mb the max",
              "loop:<14 backend:<9 n:>9 ns/iter:>9 x2:>6 rss_mb:>9 bits:<",
              partial(loop_child_rows, src)),
        Table("# the optimized tree fold as emitted C++ in fresh child processes; ns/node is"
              f" the median of {CHILD_REPEAT} children, rss_mb the max",
              "backend:<9 depth:>9 ns/node:>9 x2:>6 rss_mb:>9 bits:<", cxx_fold_rows),
        Table("# the countdown past the default depth limit, once per tier",
              "tier:<9 n:>9 limit:>9 outcome:<", partial(limit_rows, src)),
        Table("# programs whose compiled run meets the recursion limit, in a fresh child at"
              f" the default limit; the min of {REPEAT} calls",
              "program:<16 tier:<10 ms:>9 bits:<", partial(fallback_rows, src)),
        Table("# crosscheck of CorpusSpec(42) in a fresh child per size; the median of"
              f" {REPEAT} passes, CPU time of the child and its workers",
              "programs:<9 wall_s:>8 cpu_s:>8 workers:>9 rss_mb:>8 wrk_mb:>8",
              partial(crosscheck_rows, src)),
    ]


def _line(columns: str, cells) -> str:
    """cells laid out in columns; two spaces set a left-aligned column off
    from a right-aligned one before it."""
    out, after_right = [], False
    for column, cell in zip(columns.split(), cells, strict=True):
        align_width = column.rsplit(":", 1)[1]
        out.append(f"{'  ' if after_right and align_width[0] == '<' else ''}"
                   f"{cell:{align_width}}")
        after_right = align_width[0] == ">"
    return "".join(out)


def print_table(table: Table) -> None:
    print(table.title)
    print(_line(table.columns, [c.rsplit(":", 1)[0] for c in table.columns.split()]))
    for row in table.rows():
        print(_line(table.columns, row), flush=True)


def main() -> None:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=here, help="checkout to measure")
    args = ap.parse_args()
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)

    start_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(RECURSION_LIMIT)
    threading.stack_size(STACK_BYTES)

    def run():
        for table in tables(start_limit) + child_tables(src):
            print_table(table)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join()


if __name__ == "__main__":
    main()
