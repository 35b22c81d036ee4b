"""The benchmark's three workloads.

corpus   gradcheck.crosscheck over the seeded 200-program corpus
compile  seeded let chains of 25/50/100 ops through every transform,
         staging, ir_optimize and emit_c, then every gradient mode
control  a staged loop and a staged tree fold on the optimized IR, run by
         ir_eval and by the emitted C++ compiled with g++ -O2

Each workload times its own calls into adlc's public functions, checks
every output against a reference adlc did not produce, and counts every
failure instead of stopping.  Import this module only after adlc is on
sys.path.
"""

from __future__ import annotations

import os
import random
import time
from statistics import median

from adlc.emit import emit_c
from adlc.forward import forward_gradient_program, symbolic_gradient_program
from adlc.gradcheck import (
    ALL_MODES, DEFAULT_PROBES, CorpusSpec, crosscheck, finite_diff, primal_fn,
    random_program,
)
from adlc.interp import eval_expr
from adlc.ir_eval import ir_eval
from adlc.ir_opt import ir_optimize
from adlc.lang import desugar, freshen
from adlc.reverse import VARIANTS, reverse_gradient_program
from adlc.runtime import (
    grad_cps_expr, grad_dual_expr, grad_functional_expr, grad_tape_expr,
)
from adlc.staging import (
    TreeData, ir_cell_op_count, ir_stmt_count, stage_reverse, stage_tree,
)
from adlc.syntax import Add, App, Const, Expr, Let, Mul, Var, children, parse

import gen
import native
from common import (
    FD_TOL, Outcomes, Tracer, chain_eval, chain_fd, check_gradients,
    describe_error, rel_ok, summary,
)

RUNTIME_MODES = {"dual": grad_dual_expr, "cps": grad_cps_expr,
                 "tape": grad_tape_expr, "functional": grad_functional_expr}
TRANSFORM_MODES = {"forward": "forward", "symbolic": "symbolic",
                   **{f"reverse-{'cps-full' if v == 'full-cps' else v}": v
                      for v in VARIANTS}}
RECURSION_DEFECT = ("RecursionError at the default recursion limit on deep "
                    "nesting (ROADMAP item 4)")
_MISSING = object()


def node_total(e: Expr) -> int:
    """AST constructors, counted without recursion."""
    n, stack = 0, [e]
    while stack:
        n += 1
        stack.extend(children(stack.pop()))
    return n


def _interp(prog: Expr, x: float) -> float:
    return eval_expr(App(prog, Const(x)))[0]


class Sink:
    """Where an op's outcome goes: regular ops, or a known-defect probe whose
    RecursionError is the defect and whose other failures are regular."""

    def __init__(self, out: Outcomes, defect: str | None = None):
        self.out = out
        self.defect = defect

    def __call__(self, op_id, reason: str | None, ex: BaseException | None = None):
        if self.defect is None:
            self.out.record(op_id, reason)
        else:
            self.out.probe(op_id, self.defect, reason, unexpected=(
                reason is not None and not isinstance(ex, RecursionError)))


class Workload:
    name = ""

    def __init__(self, seed: int, out: Outcomes, build_dir: str):
        self.seed = seed
        self.out = out
        self.build_dir = build_dir
        self.tr = Tracer(False)
        self.sink = Sink(out)
        self.extra_setup: dict[str, list[float]] = {}

    def attempt(self, sink: Sink, op_id, span: str, fn, *args):
        """One call into a layer: its value, or _MISSING after recording
        the failure (any exception, RecursionError included)."""
        try:
            v = self.tr.call(span, fn, *args)
        except Exception as ex:  # every failure is counted, the run goes on
            sink(op_id, describe_error(ex), ex)
            return _MISSING
        sink(op_id, None)
        return v

    # subclasses: setup(), references(), run_pass() -> (cells, seconds),
    # probe(), detail(), sizes()


# ---------------------------------------------------------------------------
# Shared gradient evaluation for straight-line programs


def build_artifacts(w: Workload, sink: Sink, key, f: Expr) -> dict:
    """The gradient programs ProgramGradients builds, one span each."""
    art = {}
    with w.tr.span("gradcheck.build"):
        art["forward"] = w.attempt(sink, (key, "forward"), "forward.forward",
                                   forward_gradient_program, f)
        art["symbolic"] = w.attempt(sink, (key, "symbolic"), "forward.symbolic",
                                    symbolic_gradient_program, f)
        for v in VARIANTS:
            art[v] = w.attempt(sink, (key, v), f"reverse.{v}",
                               reverse_gradient_program, f, v)
        art["staged"] = w.attempt(sink, (key, "stage"), "staging.stage",
                                  stage_reverse, f)
    return art


def evaluate_modes(w: Workload, f: Expr, art: dict, x: float) -> tuple[dict, list]:
    """Every gradient mode at x, in gradcheck's order.  Returns the
    gradients and (mode, exception) pairs; nothing is raised."""
    grads, errors = {}, []
    for mode in ALL_MODES:
        try:
            if mode in RUNTIME_MODES:
                fn, args = RUNTIME_MODES[mode], (f, x)
            elif mode == "staged":
                fn, args = ir_eval, (_built(art, "staged"), x)
            else:
                fn, args = _interp, (_built(art, TRANSFORM_MODES[mode]), x)
            grads[mode] = w.tr.call(mode_span(mode), fn, *args)
        except Exception as ex:  # counted against the cell
            errors.append((mode, ex))
    return grads, errors


def mode_span(mode: str) -> str:
    """The span, named after its layer, of one gradient evaluation."""
    if mode in RUNTIME_MODES:
        return f"runtime.{mode}"
    return "ir_eval.staged" if mode == "staged" else f"interp.{mode}"


def _built(art: dict, name: str):
    if art[name] is _MISSING:
        raise LookupError(f"no {name} program to run")
    return art[name]


def _messages(errors: list) -> str:
    return "; ".join(f"{m}: {describe_error(ex)}" for m, ex in errors)


def expr_chain(f: Expr) -> list:
    """A straight-line adlc program as the benchmark's chain data."""
    ren = {f.param: "x"}

    def atom(a):
        return ren[a.name] if isinstance(a, Var) else float(a.value)

    out, e = [], f.body
    while isinstance(e, Let):
        if not isinstance(e.bound, (Add, Mul)):
            raise ValueError("not a straight-line chain")
        op = "+" if isinstance(e.bound, Add) else "*"
        out.append((e.name, op, atom(e.bound.lhs), atom(e.bound.rhs)))
        ren[e.name] = e.name
        e = e.body
    if not (out and isinstance(e, Var) and e.name == out[-1][0]):
        raise ValueError("chain must return its last binding")
    return out


def chain_refs(ch: list, probes) -> list[tuple[float, float]]:
    return [(chain_eval(ch, x, 1.0)[1], chain_fd(ch, x)) for x in probes]


# ---------------------------------------------------------------------------
# corpus


class Corpus(Workload):
    name = "corpus"

    def setup(self) -> None:
        self.spec = CorpusSpec(seed=self.seed)
        self.programs = [random_program(self.spec, i)
                         for i in range(self.spec.count)]
        self.probes = tuple(DEFAULT_PROBES)
        self._sizes: dict | None = None

    def references(self) -> None:
        self.refs = [chain_refs(expr_chain(f), self.probes)
                     for f in self.programs]

    def cells(self) -> int:
        return len(self.programs) * len(self.probes)

    def run_pass(self) -> tuple[int, float]:
        if self.tr.enabled:
            return self._decomposed_pass()
        t0 = time.perf_counter()
        try:
            reports = crosscheck(self.spec)
            error = None
        except Exception as ex:  # the whole pass failed; count every cell
            reports, error = [], describe_error(ex)
        dt = time.perf_counter() - t0
        if error is not None or len(reports) != self.cells():
            for i in range(len(self.programs)):
                for x in self.probes:
                    self.sink(("cell", i, x), error or "crosscheck lost cells")
            return self.cells(), dt
        for r in reports:
            exact, fd = self.refs[r.program_id][self.probes.index(r.probe)]
            reason = r.error or check_gradients(r.grads, exact, fd)
            if reason is None and not r.passed:
                reason = "crosscheck verdict is fail"
            self.sink(("cell", r.program_id, r.probe), reason)
        return self.cells(), dt

    def _decomposed_pass(self) -> tuple[int, float]:
        """crosscheck's calls one layer call at a time, each in a span."""
        t0 = time.perf_counter()
        checking = 0.0
        sizes: dict = {}
        for i, f in enumerate(self.programs):
            self.tr.op = f"p{i}"
            art = build_artifacts(self, self.sink, i, f)
            if self._sizes is None:
                c0 = time.perf_counter()
                for k, v in _artifact_sizes(art).items():
                    sizes[k] = sizes.get(k, 0) + v
                checking += time.perf_counter() - c0
            for x, (exact, fd_ref) in zip(self.probes, self.refs[i]):
                grads, errors = evaluate_modes(self, f, art, x)
                try:
                    fd = self.tr.call("gradcheck.fd",
                                      lambda: finite_diff(primal_fn(f), x))
                except Exception as ex:  # counted against the cell
                    errors.append(("fd", ex))
                c0 = time.perf_counter()
                reason = _messages(errors) or check_gradients(grads, exact, fd_ref)
                if reason is None and not rel_ok(fd, exact, FD_TOL):
                    reason = f"gradcheck finite difference {fd!r}, exact {exact!r}"
                self.sink(("cell", i, x), reason)
                checking += time.perf_counter() - c0
        if self._sizes is None:
            self._sizes = _size_totals(sizes)
        return self.cells(), time.perf_counter() - t0 - checking

    def probe(self) -> None:
        pass

    def detail(self) -> dict:
        d = self.tr.durations()
        out: dict = {}
        if not d:
            return out
        ms = lambda xs: summary([t * 1e3 for t, _ in xs])  # noqa: E731
        us = lambda xs: summary([t * 1e6 for t, _ in xs])  # noqa: E731
        out["gradcheck.build_ms"] = ms(d.get("gradcheck.build", []))
        out["gradcheck.build_ms.forward"] = ms(
            _sum_by_op(d, ("forward.forward", "forward.symbolic")))
        for v in VARIANTS:
            out[f"gradcheck.build_ms.reverse.{v}"] = ms(d.get(f"reverse.{v}", []))
        out["gradcheck.build_ms.staging"] = ms(d.get("staging.stage", []))
        out["gradcheck.fd_us"] = us(d.get("gradcheck.fd", []))
        for mode in ALL_MODES:
            out[f"{mode_span(mode)}_us"] = us(d.get(mode_span(mode), []))
        return out

    def sizes(self) -> dict:
        return dict(self._sizes or {})


def _sum_by_op(d: dict, names) -> list:
    acc: dict = {}
    for name in names:
        for t, op in d.get(name, []):
            acc[op] = acc.get(op, 0.0) + t
    return [(t, op) for op, t in acc.items()]


# ---------------------------------------------------------------------------
# compile


class Compile(Workload):
    name = "compile"
    SIZES = (25, 50, 100)
    PER_SIZE = 2
    PROBES = 3
    PROBE_OPS = 200

    def setup(self) -> None:
        rng = random.Random(f"compile:{self.seed}")
        self.probes = gen.probe_points(rng, self.PROBES)
        self.programs = []
        for n in self.SIZES:
            for j in range(self.PER_SIZE):
                ch = gen.chain(rng, n, self.probes)
                self.programs.append((n, j, ch, gen.chain_source(ch)))
        ch = gen.chain(rng, self.PROBE_OPS, self.probes)
        self.probe_program = (self.PROBE_OPS, 0, ch, gen.chain_source(ch))
        self.transform_s: list[float] = []
        self.eval_s: list[float] = []
        self.sizes_by_n: dict = {}

    def references(self) -> None:
        self.refs = {(n, j): chain_refs(ch, self.probes)
                     for n, j, ch, _ in self.programs + [self.probe_program]}

    def _pipeline(self, sink: Sink, key, text: str) -> tuple[Expr, dict]:
        """parse -> lang -> forward, symbolic, three reverse variants ->
        stage_reverse -> ir_optimize -> emit_c."""
        art: dict = {}
        g = self.attempt(sink, (key, "parse"), "syntax.parse", parse, text)
        if g is _MISSING:
            return g, art
        self.attempt(sink, (key, "lang"), "lang.prepare",
                     lambda e: freshen(desugar(e)), g)
        art = build_artifacts(self, sink, key, g)
        art["opt"] = art["code"] = _MISSING
        if art["staged"] is not _MISSING:
            art["opt"] = self.attempt(sink, (key, "optimize"), "ir_opt.optimize",
                                      ir_optimize, art["staged"])
        if art["opt"] is not _MISSING:
            art["code"] = self.attempt(sink, (key, "emit"), "emit.emit",
                                       emit_c, art["opt"])
        return g, art

    def _cell(self, g: Expr, art: dict, x: float) -> tuple:
        """All modes, ir_eval on the optimized IR, and gradcheck's finite
        difference at x: (grads, optimized, fd, errors)."""
        grads, errors = evaluate_modes(self, g, art, x)
        opt = fd = _MISSING
        try:
            opt = self.tr.call("ir_eval.optimized", ir_eval, _built(art, "opt"), x)
        except Exception as ex:  # counted against the cell
            errors.append(("optimized", ex))
        try:
            fd = self.tr.call("gradcheck.fd", lambda: finite_diff(primal_fn(g), x))
        except Exception as ex:  # counted against the cell
            errors.append(("fd", ex))
        return grads, opt, fd, errors

    def _verdict(self, cell: tuple, exact: float, fd_ref: float) -> str | None:
        grads, opt, fd, errors = cell
        reason = _messages(errors) or check_gradients(grads, exact, fd_ref)
        if reason is None and opt != grads["staged"]:
            reason = f"optimized IR {opt!r} != staged {grads['staged']!r}"
        if reason is None and not rel_ok(fd, exact, FD_TOL):
            reason = f"gradcheck finite difference {fd!r}, exact {exact!r}"
        return reason

    def cells(self) -> int:
        return len(self.programs) * len(self.probes)

    def run_pass(self) -> tuple[int, float]:
        t_tr = t_ev = 0.0
        for n, j, _, text in self.programs:
            key = f"n{n}.p{j}"
            self.tr.op = key
            t0 = time.perf_counter()
            g, art = self._pipeline(self.sink, key, text)
            t1 = time.perf_counter()
            for x, (exact, fd_ref) in zip(self.probes, self.refs[(n, j)]):
                if g is _MISSING:
                    self.sink((key, "cell", x), "parse failed")
                    continue
                self.sink((key, "cell", x),
                          self._verdict(self._cell(g, art, x), exact, fd_ref))
            t2 = time.perf_counter()
            t_tr += t1 - t0
            t_ev += t2 - t1
            if (n, j) not in self.sizes_by_n:
                self.sizes_by_n[(n, j)] = _artifact_sizes(art)
        self.transform_s.append(t_tr)
        self.eval_s.append(t_ev)
        return self.cells(), t_tr + t_ev

    def probe(self) -> None:
        """Once per run: a 200-op chain, past the depth where meta-shift,
        full-cps and stage_reverse hit the default recursion limit."""
        n, j, _, text = self.probe_program
        key = f"probe.n{n}"
        sink = Sink(self.out, RECURSION_DEFECT)
        self.tr.op = key
        g, art = self._pipeline(sink, key, text)
        if g is _MISSING:
            return
        x = self.probes[0]
        exact = self.refs[(n, j)][0][0]
        grads, opt, _, errors = self._cell(g, art, x)
        # the modes that ran must be right; the others must have failed from
        # the recursion defect, directly or through a transform it broke
        wrong = [f"{m}={v!r}" for m, v in grads.items()
                 if not rel_ok(v, exact, 1e-10)]
        if opt is not _MISSING and not rel_ok(opt, exact, 1e-10):
            wrong.append(f"optimized={opt!r}")
        if wrong:
            self.out.record((key, "cell", x), "wrong: " + ", ".join(wrong))
        elif errors:
            known = all(isinstance(ex, (RecursionError, LookupError))
                        for _, ex in errors)
            self.out.probe((key, "cell", x), RECURSION_DEFECT,
                           _messages(errors), unexpected=not known)

    def detail(self) -> dict:
        ops = sum(n for n, *_ in self.programs)
        grad_ops = ops * len(self.probes) * len(ALL_MODES)
        out = {
            "compile_ops_per_s": summary([ops / t for t in self.transform_s]),
            "grad_ops_per_s": summary([grad_ops / t for t in self.eval_s]),
            "emitted_bytes": sum(s["emit.bytes"] for s in self.sizes_by_n.values()),
        }
        by_n = {n: [s for (m, _), s in self.sizes_by_n.items() if m == n]
                for n in self.SIZES}
        for name in ("staging.ir_stmts", "staging.cell_ops", "ir_opt.ir_stmts",
                     "ir_opt.cell_ops", "emit.bytes",
                     *(f"reverse.{v}.nodes" for v in VARIANTS)):
            vals = [s[name] for s in by_n[100] if name in s]
            if vals:
                out[f"{name}.n100"] = median(vals)
        d = self.tr.durations()
        if not d:
            return out
        for span in ("syntax.parse", "lang.prepare", "forward.forward",
                     "forward.symbolic", *(f"reverse.{v}" for v in VARIANTS),
                     "staging.stage", "ir_opt.optimize", "emit.emit"):
            for n in self.SIZES:
                xs = [t for t, op in d.get(span, []) if op.startswith(f"n{n}.")]
                if xs:
                    out[f"{span}_s.n{n}"] = summary(xs)
        for v in VARIANTS:
            a, b = out.get(f"reverse.{v}_s.n100"), out.get(f"reverse.{v}_s.n50")
            if a and b:
                out[f"reverse.{v}.doubling"] = a["median"] / b["median"]
        for mode in ALL_MODES:
            xs = [t * 1e3 for t, op in d.get(mode_span(mode), [])
                  if op.startswith("n100.")]
            if xs:
                out[f"{mode_span(mode)}_ms.n100"] = summary(xs)
        return out

    def sizes(self) -> dict:
        tot: dict = {}
        for s in self.sizes_by_n.values():
            for k, v in s.items():
                tot[k] = tot.get(k, 0) + v
        return _size_totals(tot)


def _size_totals(tot: dict) -> dict:
    """The size counters every workload reports, summed over its programs."""
    return {"staging.ir_stmts": tot.get("staging.ir_stmts", 0),
            "ir_opt.ir_stmts": tot.get("ir_opt.ir_stmts", 0),
            "ir_opt.cell_ops": tot.get("ir_opt.cell_ops", 0),
            "emit.bytes": tot.get("emit.bytes", 0),
            "reverse.nodes": sum(tot.get(f"reverse.{v}.nodes", 0)
                                 for v in VARIANTS)}


def _artifact_sizes(art: dict) -> dict:
    s: dict = {}
    for v in VARIANTS:
        if art.get(v, _MISSING) is not _MISSING:
            s[f"reverse.{v}.nodes"] = node_total(art[v])
    if art.get("staged", _MISSING) is not _MISSING:
        s["staging.ir_stmts"] = ir_stmt_count(art["staged"])
        s["staging.cell_ops"] = ir_cell_op_count(art["staged"])
    if art.get("opt", _MISSING) is not _MISSING:
        s["ir_opt.ir_stmts"] = ir_stmt_count(art["opt"])
        s["ir_opt.cell_ops"] = ir_cell_op_count(art["opt"])
    s["emit.bytes"] = (len(art["code"]) if art.get("code", _MISSING)
                       is not _MISSING else 0)
    return s


# ---------------------------------------------------------------------------
# control

CLOSED_FORM_TOL = 1e-12


class Control(Workload):
    name = "control"
    ITERS = (250, 500, 1000)
    DEPTHS = (6, 7, 8)
    PROBE_DEPTH = 9
    IR_REPS = 3
    NATIVE_LOOP_REPS = {250: 4, 500: 2, 1000: 1}
    NATIVE_TREE_REPS = 20

    def setup(self) -> None:
        rng = random.Random(f"control:{self.seed}")
        self.c = gen.loop_factor(rng)
        self.xs = {n: gen.loop_input(self.c, n) for n in self.ITERS}
        self.k = gen.tree_scale(rng)
        self.tree_x = rng.uniform(0.5, 2.0)
        self.trees = {d: gen.tree(rng, d) for d in self.DEPTHS + (self.PROBE_DEPTH,)}
        self.tree_data = {d: _tree_data(t) for d, t in self.trees.items()}
        self.loop_ir = stage_reverse(parse(gen.loop_source(self.c)))
        self.loop_opt = ir_optimize(self.loop_ir)
        self.tree_ir = stage_tree(parse(gen.tree_body(self.k)))
        self.tree_opt = ir_optimize(self.tree_ir)
        self.loop_code = emit_c(self.loop_opt)
        self.tree_code = emit_c(self.tree_opt)
        self.native = native.available()
        if self.native:
            t0 = time.perf_counter()
            self.loop_exe = self._build(self.loop_code, gen.LOOP_MAIN, "loop")
            self.tree_exe = self._build(self.tree_code, gen.TREE_MAIN, "tree")
            self.extra_setup.setdefault("native.gxx_s", []).append(
                time.perf_counter() - t0)
            self.tree_files = {}
            for d in self.DEPTHS:
                path = os.path.join(self.build_dir, f"tree{d}.txt")
                with open(path, "w") as fh:
                    fh.write(gen.tree_preorder(self.trees[d]))
                self.tree_files[d] = path
        self.samples: dict[str, list[float]] = {}
        self.rss: dict[str, list[float]] = {}

    def _build(self, emitted: str, main: str, name: str) -> str | None:
        """A harness executable, or None after counting the failed build."""
        try:
            exe = native.build(gen.harness(emitted, main), name, self.build_dir)
        except Exception as ex:  # a failed build is a failed op, not a crash
            self.sink(("native", "build", name), describe_error(ex))
            return None
        self.sink(("native", "build", name), None)
        return exe

    def references(self) -> None:
        self.loop_ref = {n: gen.loop_derivative(self.c, n) for n in self.ITERS}
        self.tree_ref = {d: gen.tree_fold(t, self.k, self.tree_x)[1]
                         for d, t in self.trees.items()}

    def cells(self) -> int:
        return len(self.ITERS) + len(self.DEPTHS)

    def _ir(self, span: str, prog, x: float, tree, reps: int, work: int,
            ref: float, op_id, sample_key: str):
        """ir_eval `reps` times; returns the gradient when every call agreed
        with the closed form and with each other, else None."""
        got = []
        try:
            for _ in range(reps):
                t0 = time.perf_counter()
                got.append(self.tr.call(span, ir_eval, prog, x, tree))
                self.samples.setdefault(sample_key, []).append(
                    (time.perf_counter() - t0) * 1e9 / work)
        except Exception as ex:  # counted, the run goes on
            self.sink(op_id, describe_error(ex))
            return None
        if any(g != got[0] for g in got):
            reason = f"repeated calls differ: {got!r}"
        elif not rel_ok(got[0], ref, CLOSED_FORM_TOL):
            reason = f"ir_eval {got[0]!r}, closed form {ref!r}"
        else:
            reason = None
        self.sink(op_id, reason)
        return got[0] if reason is None else None

    def _native(self, span: str, argv: list, work: int, want, op_id,
                key: str) -> None:
        """One harness child; its results must equal ir_eval's bitwise.
        Per-call times and the child's max RSS are kept under `key`."""
        out_path = os.path.join(self.build_dir, "child.out")
        if argv[0] is None:
            self.sink(op_id, "no executable: the build failed")
            return
        try:
            res = self.tr.call(span, native.run, argv, out_path)
            reason = res.failure()
            calls = native.parse_calls(res.stdout) if reason is None else []
        except Exception as ex:  # counted, the run goes on
            self.sink(op_id, describe_error(ex))
            return
        if reason is None and len(calls) != int(argv[1]):
            reason = f"expected {argv[1]} results, got {len(calls)}"
        if reason is None and want is None:
            reason = "no ir_eval result to compare with"
        if reason is None:
            bad = [g for g, _ in calls if g != want]
            if bad:
                reason = f"native {bad[0].hex()} != ir_eval {want.hex()}"
        self.sink(op_id, reason)
        if reason is None:
            self.samples.setdefault(key, []).extend(ns / work for _, ns in calls)
            self.rss.setdefault(key, []).append(res.max_rss_mb)

    def run_pass(self) -> tuple[int, float]:
        t0 = time.perf_counter()
        loop_g, tree_g = {}, {}
        for n in self.ITERS:
            self.tr.op = f"i{n}"
            loop_g[n] = self._ir("ir_eval.loop", self.loop_opt, self.xs[n], None,
                                 self.IR_REPS, n, self.loop_ref[n],
                                 ("ir_eval", "loop", n), f"ir_eval.loop.i{n}")
        n = self.ITERS[-1]
        self.tr.op = f"i{n}"
        unopt = self._ir("ir_eval.loop_unopt", self.loop_ir, self.xs[n], None, 1,
                         n, self.loop_ref[n], ("ir_eval", "loop_unopt", n),
                         f"ir_eval.loop_unopt.i{n}")
        if unopt is not None and loop_g[n] is not None and unopt != loop_g[n]:
            self.sink(("ir_eval", "loop_opt_vs_unopt", n),
                      f"optimized {loop_g[n]!r} != unoptimized {unopt!r}")
        for d in self.DEPTHS:
            self.tr.op = f"d{d}"
            tree_g[d] = self._ir("ir_eval.tree", self.tree_opt, self.tree_x,
                                 self.tree_data[d], self.IR_REPS, 2 ** d - 1,
                                 self.tree_ref[d], ("ir_eval", "tree", d),
                                 f"ir_eval.tree.d{d}")
        if self.native:
            for n in self.ITERS:
                self.tr.op = f"i{n}"
                argv = [self.loop_exe, str(self.NATIVE_LOOP_REPS[n]),
                        self.xs[n].hex()]
                self._native("native.loop", argv, n, loop_g[n],
                             ("native", "loop", n), f"native.loop.i{n}")
            for d in self.DEPTHS:
                self.tr.op = f"d{d}"
                argv = [self.tree_exe, str(self.NATIVE_TREE_REPS),
                        self.tree_x.hex(), self.tree_files[d]]
                self._native("native.tree", argv, 2 ** d - 1, tree_g[d],
                             ("native", "tree", d), f"native.tree.d{d}")
        return self.cells(), time.perf_counter() - t0

    def probe(self) -> None:
        """Once per run: a depth-9 tree (511 nodes), where ir_eval's
        non-tail recursion exceeds the default recursion limit."""
        d = self.PROBE_DEPTH
        sink = Sink(self.out, RECURSION_DEFECT)
        self.tr.op = f"probe.d{d}"
        g = self.attempt(sink, ("probe", "ir_eval", "tree", d), "ir_eval.tree",
                         ir_eval, self.tree_opt, self.tree_x, self.tree_data[d])
        if g is not _MISSING and not rel_ok(g, self.tree_ref[d], CLOSED_FORM_TOL):
            self.out.record(("probe", "ir_eval", "tree", d, "value"),
                            f"ir_eval {g!r}, closed form {self.tree_ref[d]!r}")

    def detail(self) -> dict:
        s, n, d = self.samples, self.ITERS[-1], self.DEPTHS[-1]
        out: dict = {"emitted_bytes": len(self.loop_code) + len(self.tree_code)}

        def put(metric, key):
            if s.get(key):
                out[metric] = summary(s[key])

        put("ir_eval_ns_per_iter", f"ir_eval.loop.i{n}")
        put("ir_eval_ns_per_node", f"ir_eval.tree.d{d}")
        put("native_ns_per_iter", f"native.loop.i{n}")
        put("native_ns_per_node", f"native.tree.d{d}")
        if self.rss.get(f"native.loop.i{n}"):
            out["native_peak_rss_mb"] = max(self.rss[f"native.loop.i{n}"])
        for m in self.ITERS:
            put(f"ir_eval.loop_ns_per_iter.i{m}", f"ir_eval.loop.i{m}")
            put(f"native.loop_ns_per_iter.i{m}", f"native.loop.i{m}")
            if self.rss.get(f"native.loop.i{m}"):
                out[f"native.loop_rss_mb.i{m}"] = max(self.rss[f"native.loop.i{m}"])
        put(f"ir_eval.loop_unopt_ns_per_iter.i{n}", f"ir_eval.loop_unopt.i{n}")
        for e in self.DEPTHS:
            put(f"ir_eval.tree_ns_per_node.d{e}", f"ir_eval.tree.d{e}")
            put(f"native.tree_ns_per_node.d{e}", f"native.tree.d{e}")
            if self.rss.get(f"native.tree.d{e}"):
                out[f"native.tree_rss_mb.d{e}"] = max(self.rss[f"native.tree.d{e}"])
        a = out.get(f"native.loop_ns_per_iter.i{n}")
        b = out.get(f"native.loop_ns_per_iter.i{n // 2}")
        if a and b:
            # time per call at n over time per call at n/2
            out["native.loop.doubling"] = 2.0 * a["median"] / b["median"]
        for name, prog in (("loop", self.loop_opt), ("tree", self.tree_opt)):
            out[f"ir_opt.{name}.ir_stmts"] = ir_stmt_count(prog)
            out[f"ir_opt.{name}.cell_ops"] = ir_cell_op_count(prog)
        out["emit.loop.bytes"] = len(self.loop_code)
        out["emit.tree.bytes"] = len(self.tree_code)
        return out

    def sizes(self) -> dict:
        return {"staging.ir_stmts": ir_stmt_count(self.loop_ir) + ir_stmt_count(self.tree_ir),
                "ir_opt.ir_stmts": ir_stmt_count(self.loop_opt) + ir_stmt_count(self.tree_opt),
                "ir_opt.cell_ops": ir_cell_op_count(self.loop_opt) + ir_cell_op_count(self.tree_opt),
                "emit.bytes": len(self.loop_code) + len(self.tree_code),
                "reverse.nodes": 0}


def _tree_data(t) -> TreeData | None:
    if t is None:
        return None
    return TreeData(t[0], _tree_data(t[1]), _tree_data(t[2]))


WORKLOADS = {w.name: w for w in (Corpus, Compile, Control)}
