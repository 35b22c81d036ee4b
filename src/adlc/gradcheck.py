"""Cross-formulation gradient checking: the table of gradient modes, central
finite differences, a deterministic random straight-line corpus, the
comparison harness, and a gradient-descent demo.

Agreement is judged in two exact classes: the forward family (dual numbers,
forward transformation, symbolic-over-ANF) and the reverse family (cps,
tape, functional, the three reverse transformations, staged execution).
Members of a class accumulate in identical order, so they must agree
exactly; across classes the order differs, so a tight relative tolerance
applies; finite differences get a loose one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

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


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic generator parameters: same spec, same corpus."""

    seed: int = 42
    count: int = 200
    ops_per_program: int = 12
    # parameter-choice distribution over constant / input x / prior binding
    p_const: float = 0.25
    p_input: float = 0.375
    p_prior: float = 0.375


def random_program(spec: CorpusSpec, index: int) -> Expr:
    """One straight-line let chain y_t = p ⊕ p; deterministic in
    (spec.seed, index).  Constants keep magnitudes in [0.5, 2] so twelve-op
    product chains stay well away from overflow."""
    rng = random.Random(f"{spec.seed}:{index}")
    n_ops = rng.randint(1, spec.ops_per_program)
    priors: list[str] = []

    def param() -> Expr:
        r = rng.random()
        if r < spec.p_const or (r >= spec.p_const + spec.p_input and not priors):
            return Const(rng.uniform(0.5, 2.0))
        if r < spec.p_const + spec.p_input:
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
        ok = all(v == fwd[0] for v in fwd)
        ok = ok and all(v == rev[0] for v in rev)
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


def crosscheck(spec: CorpusSpec, probes=DEFAULT_PROBES) -> list[GradReport]:
    """Run every mode on every (program, probe) cell; per-entry failures are
    recorded in the report rather than raised."""
    out: list[GradReport] = []
    for i in range(spec.count):
        out.extend(check_program(random_program(spec, i), i, probes))
    return out


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
