"""Cross-formulation gradient checking: the table of gradient modes, central
finite differences, a deterministic random straight-line corpus, the
comparison harness, and a gradient-descent demo.

Agreement is judged in two exact classes: the forward family (dual numbers,
forward transformation, symbolic-over-ANF) and the reverse family (cps,
tape, functional, the three reverse transformations, staged execution).
Members of a class accumulate in identical order, so they must agree
bitwise (0.0 differs from -0.0, a NaN equals a NaN of the same bits);
across classes the order differs, so a tight relative tolerance applies;
finite differences get a loose one.
"""

from __future__ import annotations

import os
import random
import struct
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator

from .forward import (
    forward_gradient_program, grad_forward_tagged, symbolic_gradient_program,
)
from .interp import real_fn
from .ir_eval import ir_eval
from .lang import prepare
from .reverse import reverse_gradient_program
from .runtime import (
    cps_gradient, dual_fn, dual_gradient, functional_gradient, tape_gradient,
)
from .staging import stage_reverse
from .syntax import Add, Const, Expr, LangError, Lam, Let, Mul, Var

FORWARD_FAMILY = ("dual", "forward", "symbolic")
REVERSE_FAMILY = ("cps", "tape", "functional", "reverse-target-shift",
                  "reverse-meta-shift", "reverse-cps-full", "staged")
ALL_MODES = FORWARD_FAMILY + REVERSE_FAMILY

DEFAULT_PROBES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
# relative tolerances: between the forward and the reverse family, and
# between the forward family and finite differences
FAMILY_TOL = 1e-10
FD_TOL = 1e-4


class DivergenceError(LangError):
    pass


def finite_diff(f: Callable[[float], float], x0: float,
                h: float | None = None) -> float:
    """Central difference (f(x+h) - f(x-h)) / 2h."""
    if h is None:
        h = 1e-6 * max(1.0, abs(x0))
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def primal_fn(f: Expr) -> Callable[[float], float]:
    """Evaluate a lambda program as an ordinary real function."""
    return real_fn(prepare(f)[0])


def _interpreted(build: Callable[[Expr], Expr]):
    """A mode that builds and translates a gradient program once and runs
    it per call."""
    return lambda f: real_fn(build(f))


# Every gradient mode: a builder that does the per-program work (prepare,
# transform, stage, translate) once and returns the derivative as a real
# function.
MODES: dict[str, Callable[[Expr], Callable[[float], float]]] = {
    "dual": dual_gradient,
    "forward": _interpreted(forward_gradient_program),
    "symbolic": _interpreted(symbolic_gradient_program),
    "cps": cps_gradient,
    "tape": tape_gradient,
    "functional": functional_gradient,
    "reverse-target-shift": _interpreted(
        lambda f: reverse_gradient_program(f, "target-shift")),
    "reverse-meta-shift": _interpreted(
        lambda f: reverse_gradient_program(f, "meta-shift")),
    "reverse-cps-full": _interpreted(
        lambda f: reverse_gradient_program(f, "full-cps")),
    "staged": lambda f: partial(ir_eval, stage_reverse(f)),
    "forward2": lambda f: partial(grad_forward_tagged, dual_fn(f), order=2),
    "reverse2": _interpreted(
        lambda f: reverse_gradient_program(reverse_gradient_program(f))),
}


def gradient_fn(f: Expr, mode: str) -> Callable[[float], float]:
    """The derivative of f as a real function, built by the named mode."""
    if mode not in MODES:
        raise LangError(f"unknown gradient mode {mode!r}")
    return MODES[mode](f)


# ---------------------------------------------------------------------------
# Corpus generation


# A corpus program has 1 to OPS_PER_PROGRAM ops.  Each operand is a constant
# with probability P_CONST, the input x with P_INPUT, and otherwise (0.375)
# a prior binding, or a constant while there is none.
OPS_PER_PROGRAM = 12
P_CONST = 0.25
P_INPUT = 0.375


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic generator parameters: same spec, same corpus."""

    seed: int = 42
    count: int = 200


def random_program(spec: CorpusSpec, index: int) -> Expr:
    """One straight-line let chain y_t = p ⊕ p; deterministic in
    (spec.seed, index).  Constants keep magnitudes in [0.5, 2] so twelve-op
    product chains stay well away from overflow."""
    rng = random.Random(f"{spec.seed}:{index}")
    n_ops = rng.randint(1, OPS_PER_PROGRAM)
    priors: list[str] = []

    def param() -> Expr:
        r = rng.random()
        if r < P_CONST or (r >= P_CONST + P_INPUT and not priors):
            return Const(rng.uniform(0.5, 2.0))
        if r < P_CONST + P_INPUT:
            return Var("x")
        return Var(rng.choice(priors))

    body: list[tuple[str, Expr]] = []
    for t in range(1, n_ops + 1):
        op = Add if rng.random() < 0.5 else Mul
        name = f"y{t}"
        body.append((name, op(param(), param())))
        priors.append(name)

    result: Expr = Var(priors[-1])
    for name, rhs in reversed(body):
        result = Let(name, rhs, result)
    return Lam("x", result)


def corpus(spec: CorpusSpec) -> list[Expr]:
    return [random_program(spec, i) for i in range(spec.count)]


# ---------------------------------------------------------------------------
# Per-program gradient bundle (transforms built once, evaluated per probe)


class ProgramGradients:
    """Every first-order gradient mode for one program, and its primal, each
    built once."""

    def __init__(self, f: Expr):
        self.fns = {mode: MODES[mode](f) for mode in ALL_MODES}
        self.primal = primal_fn(f)

    def grad(self, mode: str, x: float) -> float:
        return self.fns[mode](x)


@dataclass
class GradReport:
    program_id: int
    probe: float
    grads: dict = field(default_factory=dict)
    fd: float = float("nan")
    max_dev: float = float("nan")
    passed: bool = False
    error: str | None = None


def _rel_ok(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def same_bits(values) -> bool:
    """Whether all values have one IEEE-754 bit pattern: the agreement
    inside a family."""
    return len({struct.pack("<d", v) for v in values}) == 1


def check_one(pg: ProgramGradients, program_id: int, probe: float) -> GradReport:
    rep = GradReport(program_id, probe)
    try:
        for mode in ALL_MODES:
            rep.grads[mode] = pg.grad(mode, probe)
        rep.fd = finite_diff(pg.primal, probe)
        vals = list(rep.grads.values())
        rep.max_dev = max(abs(a - b) for a in vals for b in vals)
        fwd = [rep.grads[m] for m in FORWARD_FAMILY]
        rev = [rep.grads[m] for m in REVERSE_FAMILY]
        ok = same_bits(fwd) and same_bits(rev)
        ok = ok and _rel_ok(rev[0], fwd[0], FAMILY_TOL)
        ok = ok and _rel_ok(rep.fd, fwd[0], FD_TOL)
        rep.passed = ok
    except LangError as ex:
        rep.error = str(ex)
        rep.passed = False
    return rep


def check_program(f: Expr, program_id: int,
                  probes=DEFAULT_PROBES) -> list[GradReport]:
    """All probes for one program; construction failures become failing
    reports instead of exceptions."""
    try:
        pg = ProgramGradients(f)
    except LangError as ex:
        return [GradReport(program_id, p, error=str(ex)) for p in probes]
    return [check_one(pg, program_id, p) for p in probes]


def _check_ids(spec: CorpusSpec, probes, ids: Iterable[int]):
    """check_program on each program id that ids yields, until one raises:
    ({id: its reports} for each program checked, (the id, the exception) or
    None)."""
    done: dict[int, list[GradReport]] = {}
    for i in ids:
        try:
            done[i] = check_program(random_program(spec, i), i, probes)
        except Exception as ex:
            return done, (i, ex)
    return done, None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the next program id: the one record on the token pipe
_ID = struct.Struct("<I")


def _pull(r: int, w: int, count: int) -> Iterator[int]:
    """The ids a worker takes from the token pipe (read end r, write end w),
    which holds one record: the next id.  Each take writes back the id after
    it, before the worker checks the one it took, so the workers take 0 ..
    count - 1 between them, each once and in increasing order.  Closed
    before it runs out (one of the worker's programs raised), it takes the
    token once more and writes back count, so every other worker stops at
    its next take.  A record is written whole, with one write of fewer than
    PIPE_BUF bytes, and read whole, so no two workers get parts of one id."""
    i = 0
    try:
        while (i := _ID.unpack(os.read(r, _ID.size))[0]) < count:
            os.write(w, _ID.pack(i + 1))
            yield i
    finally:
        if i < count:
            os.read(r, _ID.size)
        os.write(w, _ID.pack(count))


def _in_workers(work: Callable[[Iterator[int]], object], count: int,
                n: int) -> list:
    """[work(ids) in each of n forked children], the children sharing the
    ids 0 .. count - 1 through one token pipe (`_pull`), which the parent
    primes with id 0 before forking and then leaves to them.  Each child
    sends its pickled result back through a pipe of its own.  The parent
    reads every result pipe at once, so a child that dies is an error as
    soon as its pipe closes, however long the others run; it then kills and
    reaps every child left.  A child leaves only through os._exit, so it
    flushes nothing of the parent's and runs none of its exit handlers."""
    import pickle
    import selectors
    import signal

    token = os.pipe()
    sel = selectors.DefaultSelector()
    running: dict[int, int] = {}  # result pipe -> child pid
    received: dict[int, list[bytes]] = {}  # every result pipe still open
    results = []
    try:
        os.write(token[1], _ID.pack(0))
        for _ in range(n):
            r, w = os.pipe()
            received[r] = []
            with open(w, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        ids = _pull(*token, count)
                        result = work(ids)
                        ids.close()  # stops the others if a program raised
                        writer.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                        writer.flush()
                        status = 0
                    finally:
                        os._exit(status)
            running[r] = pid
            sel.register(r, selectors.EVENT_READ)
        while running:
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    received[key.fd].append(data)
                    continue
                sel.unregister(key.fd)
                os.close(key.fd)
                data = b"".join(received.pop(key.fd))
                _, status = os.waitpid(running.pop(key.fd), 0)
                if status != 0:
                    raise RuntimeError(
                        f"crosscheck worker ended with wait status {status}")
                results.append(pickle.loads(data))
        return results
    finally:
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in [*received, *token]:
            os.close(fd)
        sel.close()


def crosscheck(spec: CorpusSpec, probes=DEFAULT_PROBES) -> list[GradReport]:
    """Run every mode on every (program, probe) cell; per-entry failures are
    recorded in the report rather than raised.  The programs are checked in
    forked workers, one per usable CPU, that take program ids one at a time,
    in increasing order, from one token pipe, so a worker that holds slow
    programs, or loses its CPU for a while, holds up no work it has not
    taken.  A program that raises stops every worker at its next take; the
    reports come back in program order, and if any program raised, the
    exception of the lowest such id is raised here: the same reports and
    the same exception as an in-process run.  With one CPU or no os.fork
    the same loop runs in process."""
    n = min(_usable_cpus(), spec.count)
    work = partial(_check_ids, spec, probes)
    if n > 1 and hasattr(os, "fork"):
        results = _in_workers(work, spec.count, n)
    else:
        results = [work(range(spec.count))]
    done: dict[int, list[GradReport]] = {}
    failed = []
    for reports, failure in results:
        done.update(reports)
        if failure is not None:
            failed.append(failure)
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [r for i in range(spec.count) for r in done[i]]


def report_line(r: GradReport) -> str:
    from .syntax import fmt_float

    cols = [str(r.program_id), fmt_float(r.probe)]
    cols += [f"{m}={fmt_float(r.grads[m])}" for m in r.grads]
    cols.append(f"fd={fmt_float(r.fd)}")
    cols.append(f"maxdev={r.max_dev:.3e}" if r.max_dev == r.max_dev else "maxdev=nan")
    cols.append("pass" if r.passed else f"FAIL{'(' + r.error + ')' if r.error else ''}")
    return "\t".join(cols)


def report_json(r: GradReport) -> dict:
    return {
        "program": r.program_id,
        "probe": r.probe,
        "gradients": dict(r.grads),
        "finite_diff": r.fd,
        "max_deviation": r.max_dev,
        "pass": r.passed,
        "error": r.error,
    }


# ---------------------------------------------------------------------------
# Gradient descent demo


def gradient_descent(f: Expr, x0: float, rate: float, steps: int,
                     mode: str = "reverse-meta-shift") -> list[tuple[float, float]]:
    """Iterate x <- x - rate * f'(x); returns the full (x, f(x)) trajectory,
    aborting with a diagnostic when |x| exceeds 1e12."""
    if rate < 0:
        raise LangError("rate must be nonnegative")
    if steps < 0:
        raise LangError("steps must be nonnegative")
    grad = gradient_fn(f, mode)
    fn = primal_fn(f)
    x = float(x0)
    traj = [(x, fn(x))]
    for _ in range(steps):
        x = x - rate * grad(x)
        if abs(x) > 1e12:
            raise DivergenceError(
                f"gradient descent diverged: |x| = {abs(x):.3e} exceeds 1e12")
        traj.append((x, fn(x)))
    return traj
