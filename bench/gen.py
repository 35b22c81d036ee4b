"""Seeded inputs for the benchmark: straight-line let chains, the staged
loop, balanced trees, and the C++ harness text around emitted programs.

The same seed gives the same inputs.  Every input is plain data or source
text, so adlc receives only what a user would hand it.
"""

from __future__ import annotations

import random

CHAIN_BOUND = 1e3   # |value| at every probe and finite-difference point
WINDOW = 8          # operands come from the last WINDOW bindings


def probe_points(rng: random.Random, count: int) -> tuple[float, ...]:
    """Probes in [-1.5, -0.25] U [0.25, 1.5]."""
    return tuple(rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 1.5)
                 for _ in range(count))


def _fd_points(x: float) -> tuple[float, float, float]:
    h = 1e-6 * max(1.0, abs(x))
    return (x, x + h, x - h)


def chain(rng: random.Random, n: int, probes: tuple[float, ...]) -> list:
    """A straight-line chain [(name, op, a, b), ...] of n ops.  The first
    operand is the previous binding, so every binding is live; the second is
    the input "x", one of the last WINDOW bindings, or a constant in
    [0.5, 1].  A candidate op is redrawn when it would leave CHAIN_BOUND at
    any probe or finite-difference point, or when its central difference
    strays more than 1e-7 relative from its exact derivative, so finite
    differences stay a valid reference at every size."""
    points = [p for x in probes for p in _fd_points(x)]
    vals: dict[str, list[float]] = {"x": points}
    ders: dict[str, list[float]] = {"x": [1.0] * len(points)}
    names: list[str] = []
    out = []

    def operand():
        r = rng.random()
        if r < 0.2:
            return rng.uniform(0.5, 1.0)
        if r < 0.4 or not names:
            return "x"
        return rng.choice(names[-WINDOW:])

    def values(a):
        if isinstance(a, str):
            return vals[a], ders[a]
        return [a] * len(points), [0.0] * len(points)

    for t in range(1, n + 1):
        name = f"y{t}"
        for _ in range(100):
            op = rng.choice("+*")
            a, b = (names[-1] if names else "x"), operand()
            if op == "*" and rng.random() < 0.5:
                b = rng.uniform(0.5, 1.0)  # a scaling step keeps chains small
            (va, da), (vb, db) = values(a), values(b)
            if op == "+":
                v = [p + q for p, q in zip(va, vb)]
                d = [p + q for p, q in zip(da, db)]
            else:
                v = [p * q for p, q in zip(va, vb)]
                d = [dp * q + p * dq for p, q, dp, dq in zip(va, vb, da, db)]
            if _acceptable(v, d, probes):
                break
        else:
            raise ValueError(f"no acceptable op at step {t}")
        vals[name], ders[name] = v, d
        names.append(name)
        out.append((name, op, a, b))
    return out


def _acceptable(v: list, d: list, probes: tuple) -> bool:
    if any(abs(p) > CHAIN_BOUND for p in v):
        return False
    for i, x in enumerate(probes):
        h = 1e-6 * max(1.0, abs(x))
        fd = (v[3 * i + 1] - v[3 * i + 2]) / (2.0 * h)
        if abs(fd - d[3 * i]) > 1e-7 * max(1.0, abs(d[3 * i])):
            return False
    return True


def chain_source(ch: list) -> str:
    """Source text of a chain as a one-argument adlc program."""
    def atom(a):
        return a if isinstance(a, str) else repr(a)

    head = "".join(f"(let {name} ({op} {atom(a)} {atom(b)}) "
                   for name, op, a, b in ch)
    return f"(lam x {head}{ch[-1][0]}{')' * len(ch)})"


# ---------------------------------------------------------------------------
# Staged control flow


def loop_factor(rng: random.Random) -> float:
    return 1.0 - rng.uniform(0.002, 0.004)


def loop_source(c: float) -> str:
    """t <- t * c while t > 1: the input sets the iteration count."""
    return (f"(lam x (letrec loop (lam t (if (> t 1.0) (app loop (* t {c!r}))"
            f" t)) (app loop x)))")


def loop_iterations(c: float, x: float) -> int:
    n = 0
    while x > 1.0:
        x *= c
        n += 1
    return n


def loop_input(c: float, n: int) -> float:
    """An input that runs exactly n iterations (half a step of margin)."""
    x = c ** -(n - 0.5)
    if loop_iterations(c, x) != n:
        raise ValueError(f"loop input for {n} iterations is off")
    return x


def loop_derivative(c: float, n: int) -> float:
    """Closed form: the loop computes x * c**n, so d/dx = c**n."""
    return c ** n


def tree_scale(rng: random.Random) -> float:
    return rng.uniform(0.4, 0.6)


def tree_body(k: float) -> str:
    """Fold body over l, r (subtree results) and v (node value)."""
    return f"(+ (* v l) (* r {k!r}))"


def tree(rng: random.Random, depth: int):
    """A balanced tree (value, left, right) | None with 2**depth - 1 nodes;
    node values in [0.25, 0.5] keep the fold bounded by its input."""
    if depth == 0:
        return None
    return (rng.uniform(0.25, 0.5), tree(rng, depth - 1), tree(rng, depth - 1))


def tree_fold(t, k: float, x: float) -> tuple[float, float]:
    """Value and closed-form derivative of the fold: leaves give x."""
    if t is None:
        return x, 1.0
    v, left, right = t
    vl, dl = tree_fold(left, k, x)
    vr, dr = tree_fold(right, k, x)
    return v * vl + vr * k, v * dl + k * dr


def tree_preorder(t) -> str:
    """Node count, then values in preorder with '#' for a leaf."""
    toks: list[str] = []
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if node is None:
            toks.append("#")
            continue
        count += 1
        toks.append(node[0].hex())
        stack.append(node[2])
        stack.append(node[1])
    return f"{count} " + " ".join(toks) + "\n"


# ---------------------------------------------------------------------------
# C++ harnesses: time each snippet() call inside the process

_CLOCK = """#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <vector>

static long long bench_now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1000000000LL + ts.tv_nsec;
}
"""

LOOP_MAIN = _CLOCK + """
// usage: loop REPS X   (X as a C99 hex float); prints "%a ns" per call
int main(int argc, char** argv) {
  if (argc != 3) return 2;
  int reps = atoi(argv[1]);
  double x = strtod(argv[2], nullptr);
  for (int i = 0; i < reps; ++i) {
    long long t0 = bench_now_ns();
    double g = snippet(x);
    long long t1 = bench_now_ns();
    printf("%a %lld\\n", g, t1 - t0);
  }
  return 0;
}
"""

TREE_MAIN = _CLOCK + """
static std::vector<Tree> bench_nodes;

static const Tree* bench_read(FILE* f) {
  char tok[64];
  if (fscanf(f, "%63s", tok) != 1) exit(3);
  if (tok[0] == '#') return nullptr;
  double v = strtod(tok, nullptr);
  const Tree* l = bench_read(f);
  const Tree* r = bench_read(f);
  bench_nodes.push_back(Tree{true, v, l, r});
  return &bench_nodes.back();
}

// usage: tree REPS X FILE   (FILE: node count, preorder values, '#' leaves)
int main(int argc, char** argv) {
  if (argc != 4) return 2;
  int reps = atoi(argv[1]);
  double x = strtod(argv[2], nullptr);
  FILE* f = fopen(argv[3], "r");
  if (!f) return 3;
  int count = 0;
  if (fscanf(f, "%d", &count) != 1) return 3;
  bench_nodes.reserve(count);
  const Tree* root = bench_read(f);
  fclose(f);
  Tree empty{false, 0, nullptr, nullptr};
  for (int i = 0; i < reps; ++i) {
    long long t0 = bench_now_ns();
    double g = snippet(root ? *root : empty, x);
    long long t1 = bench_now_ns();
    printf("%a %lld\\n", g, t1 - t0);
  }
  return 0;
}
"""


def harness(emitted: str, main: str) -> str:
    return emitted + "\n" + main
