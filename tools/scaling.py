"""Print how the cost of each program transformation, of translating and
running the gradient programs, of running staged programs, loops and tree
folds in ir_eval, and of the corpus cross-check grows with size.

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
  B/node  bytes that tracemalloc sees held by one build's gradient program,
          once its input chain is gone, per node of that program; "-" for
          stage_reverse, whose output is IR

Every build, counted or timed, is on a chain of its own: `lang.prepare`
keeps its result on its input node, so a build on a chain an earlier build
saw would skip that work.

Then stage_reverse on n conditionals on staged guards, one after another,
with a value live across all of them (`sequential_ifs`; n = 250, 500,
1000, 2000, 4000), one row per size:

  ms      the least wall time of 3 builds
  x2      ms(n) / ms(n/2): a linear staging reads about 2

Then ir_optimize alone, on programs staged once per size: the let chains
above (n = 25 to 800 ops), `sequential_ifs` (n = 250 to 4000) and an entry
of n nested Conds built as IR (`nested_conds`; n = 10^3 and 10^4).  The
nested entries run at the recursion limit the process started with, so an
optimizer that recurses once per Cond prints RecursionError there.  One row
per program set and size:

  calls   Python "call" events of one ir_optimize
  x2      the calls ratio per doubling of n, from the row above: a pass
          linear in program size reads about 2
  ms      the least wall time of 3 runs
  x2      the same ratio for ms

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
  later_us  the mean over the programs of the least wall time of 3 later
            calls on one program
  x         first_us / later_us

Then the optimized staged tree fold (ir_optimize of stage_tree), the fold
(+ (* v l) (* r 0.75)) over a seeded full tree of depth d (2^d - 1 nodes,
values in [0.25, 0.5]; d = 6 to 12, the same trees on both tiers), one row
per tier and depth:

  compiled  ir_eval: `rec` calls itself, so the fold runs as generated
            Python (ir_eval's compiled tier)
  interp    ir_eval.interpret on the same program and tree
  us/node   the least wall time of 3 calls per node
  x2        the call's time ratio per doubling of nodes, from the row
            above: a cost linear in size reads about 2

Then two loops, optimized, each call in a fresh child process, so that
every size pays for its own memory: the countdown (lam x (letrec f ...
(app f (+ t -1.0)) ...)) at 10^3, 10^4, 10^5 and 10^6 iterations, and
op-before-if, whose body adds before its conditional (let u (+ t -0.5) (if
(> u 0.0) (app f (+ u -0.5)) u)), so each iteration pushes two records, at
10^3, 10^4 and 10^5 iterations (x = n for both); one row per loop,
backend and size:

  compiled  ir_eval, depth limit 2n, in a Python child: a program that
            loops runs as generated Python (ir_eval's compiled tier)
  interp    ir_eval.interpret on the same program and limit: the
            interpreter, which runs every straight-line program
  c++       emit_c of the same IR built with g++ -O2 (skipped without g++),
            run under a 1 GiB address-space limit with the default stack
  ns/iter   the median wall time of 5 children's timed calls, per
            iteration; each child first runs one iteration, so verify
            and the compiled tier (or the lazy binding of the allocator)
            are outside the timed call
  x2        the time ratio per doubling of iterations, from the row above:
            a cost linear in iterations reads about 2
  rss_mb    the largest peak RSS (VmHWM) of those children
  bits      the gradient's float.hex; interp and c++ rows add
            "= compiled" when the bits match the compiled row of that
            loop and size

Then the same fold (optimized) as emitted C++, built with g++ -O2 (skipped
without g++) and run on seeded full trees of depth 12, 14 and 16 (up to
65,535 nodes), each call in a fresh child under the 1 GiB address-space
limit with the default stack; the child reads the tree from a file, runs
one warm-up call and times a second:

  ns/node   the median wall time of 5 children's timed calls, per node
  x2        the time ratio per doubling of nodes, from the row above
  rss_mb    the largest peak RSS (VmHWM) of those children
  bits      the gradient's float.hex, plus "= ir_eval" when it matches
            ir_eval's on the same tree

Then the countdown at 10^5 iterations and the default depth limit, once per
tier: both stop with the same limit error, which the row prints.

Then the two programs whose compiled run meets the recursion limit and
runs again on the interpreter, in a fresh child process at Python's default
recursion limit: the optimized join-before-self-call loop (its `loop` and
`k` jump to each other every iteration, one Python frame each on the
compiled tier) at x = 1e200 and 1e300, and the optimized fold above on a
3,000-node path tree (each node the left child of the one above); one row
per program and tier:

  ms        the least wall time of 3 calls, after one warm-up call
  bits      the result's float.hex, plus "= compiled" on the interp row
            when it matches

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

A build or call that raises prints its exception class in place of its
numbers.
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
from functools import partial

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


def _ratio(a, b) -> str:
    return "-" if a is None or b is None else f"{a / b:.2f}"


def _per_doubling(secs: float, units: int, prev) -> str:
    """The time ratio per doubling of units from prev, (units, secs) of
    the row above or None."""
    if prev is None:
        return "-"
    return f"{(secs / prev[1]) ** (math.log(2) / math.log(units / prev[0])):.2f}"


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


def rows():
    """(transform, n, calls, calls x2, min_s, min_s x2, B/node) as printed
    cells."""
    for name, build in transforms().items():
        prev_calls = prev_s = None
        for n in SIZES:
            try:
                calls = call_events(build, seeded_chain(n))
                secs = min_wall(build, lambda: (seeded_chain(n),))
                per_node = held_bytes_per_node(build, n)
            except Exception as ex:  # printed, not raised
                calls = secs = None
                yield (name, str(n), type(ex).__name__, "-", "-", "-", "-")
            else:
                yield (name, str(n), str(calls), _ratio(calls, prev_calls),
                       f"{secs:.4f}", _ratio(secs, prev_s), per_node)
            prev_calls, prev_s = calls, secs


def staged_if_rows():
    """(n, ms, ms x2) as printed cells."""
    from adlc.staging import stage_reverse

    prev = None
    for n in STAGED_IF_SIZES:
        try:
            secs = min_wall(stage_reverse, lambda: (sequential_ifs(n),))
        except Exception as ex:  # printed, not raised
            secs = None
            yield (str(n), type(ex).__name__, "-")
        else:
            yield (str(n), f"{secs * 1e3:.1f}", _ratio(secs, prev))
        prev = secs


def optimize_rows(start_limit: int):
    """(programs, n, calls, calls x2, ms, ms x2) as printed cells, the
    nested Conds at the recursion limit start_limit."""
    from adlc.ir_opt import ir_optimize
    from adlc.staging import stage_reverse

    sets = (("chain", SIZES, lambda n: stage_reverse(seeded_chain(n))),
            ("seq_ifs", STAGED_IF_SIZES, lambda n: stage_reverse(sequential_ifs(n))),
            ("nested_conds", NEST_DEPTHS, nested_conds))
    for name, sizes, make in sets:
        prev_calls = prev_s = None
        for n in sizes:
            prog = make(n)
            sys.setrecursionlimit(start_limit if make is nested_conds else RECURSION_LIMIT)
            try:
                calls = call_events(ir_optimize, prog)
                secs = min_wall(ir_optimize, lambda: (prog,))
            except Exception as ex:  # printed, not raised
                prev_calls = prev_s = None
                yield (name, str(n), type(ex).__name__, "-", "-", "-")
            else:
                yield (name, str(n), str(calls), _per_doubling(calls, n, prev_calls),
                       f"{secs * 1e3:.2f}", _per_doubling(secs, n, prev_s))
                prev_calls, prev_s = (n, calls), (n, secs)
            finally:
                sys.setrecursionlimit(RECURSION_LIMIT)


def run_rows():
    """(program, n, entry, first calls, later calls, first_s, later_s,
    first_s / later_s) as printed cells."""
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
                    yield (name, str(n), entry, type(ex).__name__, "-", "-", "-", "-")
                else:
                    yield (name, str(n), entry, str(first_calls), str(later_calls),
                           f"{first_s:.4f}", f"{later_s:.4f}", _ratio(first_s, later_s))


def staged_call_rows():
    """(programs, opt, count, first_us, later_us, x) as printed cells."""
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
                   _ratio(first, later))


def ir_eval_rows():
    """(tier, depth, us/node, min_s, x2) as printed cells, one per tier and
    tree depth."""
    from adlc.ir_eval import interpret, ir_eval
    from adlc.ir_opt import ir_optimize
    from adlc.staging import stage_tree
    from adlc.syntax import parse

    fold = ir_optimize(stage_tree(parse(TREE_BODY)))
    rng = random.Random(f"tree:{SEED}")
    trees = {d: seeded_tree(rng, d) for d in TREE_DEPTHS}
    for tier, run in zip(TIERS, (ir_eval, interpret)):
        prev = None
        for d, t in trees.items():
            units = 2 ** d - 1
            try:
                secs = min_wall(partial(run, fold, TREE_X, tree=t))
            except Exception as ex:  # printed, not raised
                prev = None
                yield (tier, str(d), type(ex).__name__, "-", "-")
            else:
                yield (tier, str(d), f"{secs / units * 1e6:.2f}", f"{secs:.4f}",
                       _per_doubling(secs, units, prev))
                prev = units, secs


# One call at n iterations on a tier (compiled: ir_eval; interp:
# ir_eval.interpret) and a depth limit, after a one-iteration call; prints
# the gradient, the call's ns and the peak RSS in kB, or the IREvalError it
# raised.  The peak is VmHWM of the child's own image: a child's ru_maxrss
# also counts the image of the process that forked it.
_IR_EVAL_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
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
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(g.hex(), ns, hwm)
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
# preorder with '#' for a leaf (tree_file)
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


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


def run_child(argv: list, limit: bool) -> tuple[str, int, float]:
    """Run one child to completion: (gradient hex, call ns, peak RSS in
    MB).  Raises RuntimeError when it fails."""
    r = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                       preexec_fn=_limit_address_space if limit else None)
    if r.returncode != 0:
        raise RuntimeError(f"exit code {r.returncode}")
    bits, ns, hwm_kb = r.stdout.split()
    return float.fromhex(bits).hex(), int(ns), int(hwm_kb) / 1024.0


def _ir_eval_child(src: str, prog: str, n: int, tier: str, limit: int) -> list:
    return [sys.executable, "-c", _IR_EVAL_CHILD, src, prog, str(n), tier, str(limit)]


def loop_children(src: str, build_dir: str):
    """(loop, backend, n, argv, address-space limit) per row; the c++ rows
    only when g++ builds the emitted loop."""
    from adlc.emit import emit_c
    from adlc.ir_opt import ir_optimize
    from adlc.staging import stage_reverse
    from adlc.syntax import parse

    for loop, (prog, sizes) in CHILD_LOOPS.items():
        for tier in TIERS:
            for n in sizes:
                yield loop, tier, n, _ir_eval_child(src, prog, n, tier, 2 * n), False
        if shutil.which("g++") is None:
            continue
        cc, exe = os.path.join(build_dir, f"{loop}.cc"), os.path.join(build_dir, loop)
        with open(cc, "w") as fh:
            fh.write(emit_c(ir_optimize(stage_reverse(parse(prog)))) + _LOOP_MAIN)
        subprocess.run(["g++", "-O2", "-std=c++17", cc, "-o", exe], check=True,
                       capture_output=True, env=dict(os.environ, TMPDIR=build_dir))
        for n in sizes:
            yield loop, "c++", n, [exe, str(n)], True


def loop_child_rows(src: str):
    """(loop, backend, n, ns/iter, x2, rss_mb, bits) as printed cells."""
    prev: dict = {}
    bits_of: dict = {}
    with tempfile.TemporaryDirectory() as build_dir:
        try:
            for loop, backend, n, argv, limit in loop_children(src, build_dir):
                try:
                    runs = [run_child(argv, limit) for _ in range(CHILD_REPEAT)]
                except (RuntimeError, OSError, ValueError,
                        subprocess.TimeoutExpired) as ex:
                    yield (loop, backend, str(n), type(ex).__name__, "-", "-", str(ex))
                    prev.pop((loop, backend), None)
                    continue
                secs = statistics.median(ns for _, ns, _ in runs) / 1e9
                bits = runs[0][0]
                if any(b != bits for b, _, _ in runs):
                    bits = "differ: " + " ".join(b for b, _, _ in runs)
                elif backend == TIERS[0]:
                    bits_of[loop, n] = bits
                elif bits_of.get((loop, n)) == bits:
                    bits += f" = {TIERS[0]}"
                yield (loop, backend, str(n), f"{secs / n * 1e9:.0f}",
                       _per_doubling(secs, n, prev.get((loop, backend))),
                       f"{max(r for _, _, r in runs):.1f}", bits)
                prev[loop, backend] = n, secs
        except subprocess.CalledProcessError as ex:  # a c++ build failed
            yield ("-", "c++", "-", type(ex).__name__, "-", "-", "-")


def tree_file(t, path: str) -> None:
    """Write t as its node count, then its values in preorder (float.hex)
    with '#' for a leaf."""
    toks, stack = [], [t]
    while stack:
        n = stack.pop()
        if n is None:
            toks.append("#")
        else:
            toks.append(n.value.hex())
            stack += [n.right, n.left]
    with open(path, "w") as fh:
        fh.write(f"{len(toks) // 2} {' '.join(toks)}\n")


def cxx_fold_rows():
    """(backend, depth, ns/node, x2, rss_mb, bits) as printed cells: the
    optimized tree fold as emitted C++, against ir_eval's bits."""
    from adlc.emit import emit_c
    from adlc.ir_eval import ir_eval
    from adlc.ir_opt import ir_optimize
    from adlc.staging import stage_tree
    from adlc.syntax import parse

    if shutil.which("g++") is None:
        return
    fold = ir_optimize(stage_tree(parse(TREE_BODY)))
    rng = random.Random(f"cxx-tree:{SEED}")
    prev = None
    with tempfile.TemporaryDirectory() as build_dir:
        cc, exe = os.path.join(build_dir, "fold.cc"), os.path.join(build_dir, "fold")
        with open(cc, "w") as fh:
            fh.write(emit_c(fold) + _FOLD_MAIN)
        try:
            subprocess.run(["g++", "-O2", "-std=c++17", cc, "-o", exe], check=True,
                           capture_output=True, env=dict(os.environ, TMPDIR=build_dir))
        except subprocess.CalledProcessError as ex:
            yield ("c++ fold", "-", type(ex).__name__, "-", "-", "-")
            return
        for d in CXX_TREE_DEPTHS:
            units, t = 2 ** d - 1, seeded_tree(rng, d)
            path = os.path.join(build_dir, f"tree{d}.txt")
            tree_file(t, path)
            try:
                runs = [run_child([exe, path, TREE_X.hex()], True)
                        for _ in range(CHILD_REPEAT)]
            except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as ex:
                yield ("c++ fold", str(d), type(ex).__name__, "-", "-", str(ex))
                prev = None
                continue
            secs = statistics.median(ns for _, ns, _ in runs) / 1e9
            bits = runs[0][0]
            if any(b != bits for b, _, _ in runs):
                bits = "differ: " + " ".join(b for b, _, _ in runs)
            elif ir_eval(fold, TREE_X, tree=t).hex() == bits:
                bits += " = ir_eval"
            yield ("c++ fold", str(d), f"{secs / units * 1e9:.0f}",
                   _per_doubling(secs, units, prev),
                   f"{max(r for _, _, r in runs):.1f}", bits)
            prev = units, secs


def limit_rows(src: str):
    """(tier, n, limit, outcome) as printed cells: the countdown past the
    default depth limit on each tier."""
    from adlc.ir_eval import DEFAULT_DEPTH_LIMIT

    for tier in TIERS:
        argv = _ir_eval_child(src, COUNTDOWN, LIMIT_LOOP_SIZE, tier, DEFAULT_DEPTH_LIMIT)
        r = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        outcome = r.stdout.strip() if r.returncode == 0 else f"exit code {r.returncode}"
        yield tier, str(LIMIT_LOOP_SIZE), str(DEFAULT_DEPTH_LIMIT), outcome


# Each program that falls back from the compiled tier on each tier, after
# one warm-up call: prints its name, the tier, the least ms of REPEAT calls
# and the result's float.hex, a line each.
_FALLBACK_CHILD = """
import random, sys, time
sys.path.insert(0, sys.argv[1])
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
    """(program, tier, ms, bits) as printed cells."""
    argv = [sys.executable, "-c", _FALLBACK_CHILD, src, JOIN_BEFORE_SELF_CALL, TREE_BODY,
            ",".join(map(str, FALLBACK_XS)), str(FALLBACK_PATH_NODES), str(REPEAT)]
    r = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        yield ("-", "-", f"exit {r.returncode}", "-")
        return
    compiled_bits = None
    for line in r.stdout.splitlines():
        name, tier, ms, bits = line.split("\t")
        if tier == TIERS[0]:
            compiled_bits = bits
        elif bits == compiled_bits:
            bits += f" = {TIERS[0]}"
        yield (name, tier, f"{float(ms):.2f}", bits)


# CORPUS_SIZES[k] programs of CorpusSpec(42) through crosscheck, REPEAT
# passes; prints the median wall and CPU seconds of a pass, os.fork calls
# per pass, and the process's (VmHWM, as above) and its children's peak RSS
# in kB.
_CROSSCHECK_CHILD = """
import os, resource, statistics, sys, time
sys.path.insert(0, sys.argv[1])
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
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(statistics.median(wall), statistics.median(cpu), forks // repeat, hwm,
      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def crosscheck_rows(src: str):
    """(programs, wall_s, cpu_s, workers, rss_mb, wrk_mb) as printed cells."""
    for count in CORPUS_SIZES:
        argv = [sys.executable, "-c", _CROSSCHECK_CHILD, src, str(count), str(REPEAT)]
        r = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if r.returncode != 0:
            yield (str(count), f"exit {r.returncode}", "-", "-", "-", "-")
            continue
        wall, cpu, forks, self_kb, children_kb = r.stdout.split()
        yield (str(count), f"{float(wall):.3f}", f"{float(cpu):.3f}", forks,
               f"{int(self_kb) / 1024:.1f}",
               f"{int(children_kb) / 1024:.1f}" if int(forks) else "-")


def main() -> None:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=here, help="checkout to measure")
    args = ap.parse_args()
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)

    old = sys.getrecursionlimit()
    print(f"# seeded let chains (seed {SEED}); wall time is the min of {REPEAT} builds")
    print(f"# recursion limit raised from {old} to {RECURSION_LIMIT} in this "
          f"process; builds run on a thread with a {STACK_BYTES >> 20} MiB stack")
    print(f"{'transform':<14}{'n':>5}{'calls':>11}{'x2':>6}{'min_s':>10}{'x2':>6}"
          f"{'B/node':>8}")

    def run():
        for row in rows():
            print("{:<14}{:>5}{:>11}{:>6}{:>10}{:>6}{:>8}".format(*row), flush=True)
        print(f"# stage_reverse on n sequential staged ifs with a value live "
              f"across them; wall time is the min of {REPEAT} builds")
        print(f"{'transform':<14}{'n':>5}{'ms':>10}{'x2':>6}")
        for row in staged_if_rows():
            print("{:<14}{:>5}{:>10}{:>6}".format("stage_reverse", *row), flush=True)
        print(f"# ir_optimize alone on programs staged once per size; wall time "
              f"is the min of {REPEAT} runs; nested_conds at recursion limit {old}")
        print(f"{'programs':<14}{'n':>6}{'calls':>16}{'x2':>6}{'ms':>10}{'x2':>6}")
        for row in optimize_rows(old):
            print("{:<14}{:>6}{:>16}{:>6}{:>10}{:>6}".format(*row), flush=True)
        print(f"# gradient programs run at x = {X}; wall time is the min of "
              f"{REPEAT} first calls (each on a program of its own) and of "
              f"{REPEAT} later calls")
        print(f"{'program':<14}{'n':>5}  {'entry':<10}{'first':>10}{'later':>8}"
              f"{'first_s':>10}{'later_s':>10}{'x':>8}")
        for row in run_rows():
            print("{:<14}{:>5}  {:<10}{:>10}{:>8}{:>10}{:>10}{:>8}".format(*row),
                  flush=True)
        print(f"# ir_eval on staged gradient programs at x = {X}, each staged "
              f"afresh; the mean over the programs of the min of {REPEAT} calls")
        print(f"{'programs':<10}{'opt':<6}{'count':>6}{'first_us':>10}{'later_us':>10}"
              f"{'x':>7}")
        for row in staged_call_rows():
            print("{:<10}{:<6}{:>6}{:>10}{:>10}{:>7}".format(*row), flush=True)
        print(f"# the optimized staged tree fold on each tier; wall time is "
              f"the min of {REPEAT} calls")
        print(f"{'tier':<14}{'depth':>6}{'us/node':>10}{'min_s':>10}{'x2':>6}")
        for row in ir_eval_rows():
            print("{:<14}{:>6}{:>10}{:>10}{:>6}".format(*row), flush=True)
        print(f"# the two loops in fresh child processes; ns/iter is the median "
              f"of {CHILD_REPEAT} children, rss_mb the max")
        print(f"{'loop':<14}{'backend':<9}{'n':>9}{'ns/iter':>9}{'x2':>6}{'rss_mb':>9}  bits")
        for row in loop_child_rows(src):
            print("{:<14}{:<9}{:>9}{:>9}{:>6}{:>9}  {}".format(*row), flush=True)
        print(f"# the optimized tree fold as emitted C++ in fresh child processes; "
              f"ns/node is the median of {CHILD_REPEAT} children, rss_mb the max")
        print(f"{'backend':<9}{'depth':>9}{'ns/node':>9}{'x2':>6}{'rss_mb':>9}  bits")
        for row in cxx_fold_rows():
            print("{:<9}{:>9}{:>9}{:>6}{:>9}  {}".format(*row), flush=True)
        print("# the countdown past the default depth limit, once per tier")
        print(f"{'tier':<9}{'n':>9}{'limit':>9}  outcome")
        for row in limit_rows(src):
            print("{:<9}{:>9}{:>9}  {}".format(*row), flush=True)
        print(f"# programs whose compiled run meets the recursion limit, in a "
              f"fresh child at the default limit; the min of {REPEAT} calls")
        print(f"{'program':<16}{'tier':<10}{'ms':>9}  bits")
        for row in fallback_rows(src):
            print("{:<16}{:<10}{:>9}  {}".format(*row), flush=True)
        print(f"# crosscheck of CorpusSpec(42) in a fresh child per size; the "
              f"median of {REPEAT} passes, CPU time of the child and its workers")
        print(f"{'programs':<9}{'wall_s':>8}{'cpu_s':>8}{'workers':>9}{'rss_mb':>8}"
              f"{'wrk_mb':>8}")
        for row in crosscheck_rows(src):
            print("{:<9}{:>8}{:>8}{:>9}{:>8}{:>8}".format(*row), flush=True)

    sys.setrecursionlimit(RECURSION_LIMIT)
    threading.stack_size(STACK_BYTES)
    worker = threading.Thread(target=run)
    worker.start()
    worker.join()


if __name__ == "__main__":
    main()
