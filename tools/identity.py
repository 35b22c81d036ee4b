"""Print one sha256 per artifact class, so two checkouts can be compared
for byte identity of everything a user can observe.

    python3 tools/identity.py [--root CHECKOUT] [--dump DIR]

Classes:
  gradients  float.hex of every gradient mode, forward-over-reverse, the
             primal and ir_eval of the optimized staged program (staged-opt)
             at DEFAULT_PROBES, and the adjoint-update traces of the cps and
             tape runtimes there, over the programs (below);
             and ir_eval of stage_tree of programs/tree_fold.sexp, with and
             without ir_optimize, at DEFAULT_PROBES on programs/tree_single.tree,
             the empty tree and complete trees of depth 1 to 4
  interpreted  float.hex of ir_eval.interpret, the reference interpreter
             alone, of stage_reverse and of its ir_optimize over the
             programs at DEFAULT_PROBES, and of stage_tree of
             programs/tree_fold.sexp on the trees above, each at the
             default depth limit, at 64, and at 3 and 2, where the
             programs' nesting and tail chains first meet the limit, so
             the frame and tail-chain accounting is pinned
  reports    report_line of crosscheck(CorpusSpec(42))
  cli        stdout, stderr and exit code of `adlc eval`, `grad --mode <each>`,
             `transform --mode <each>`, `codegen --opt none|all`,
             `check --seed 42 --json` and `demo`
  transforms pretty of the forward, symbolic and three reverse gradient
             programs, and of fwd_transform and each rev_transform_* of the
             prepared program, over the programs
  emitted    emit_c of stage_reverse over the programs, and of
             stage_tree of programs/tree_fold.sexp, each with and without
             ir_optimize

The programs are CorpusSpec(42), programs/*.sexp, and tools/fuzz.py's
feature cases and fuzz families, which reach refs, pairs, sums, closures,
conditionals and compound comparison operands.  Every class records an
error as its class and message instead of raising.

--root defaults to the checkout this script lives in; its src/ is put
first on sys.path.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import io
import itertools
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

# programs for `adlc eval`, beside the ones in programs/: closed terms that
# exercise delimited control, the store, shadowing and run-time errors
EVAL_PROGRAMS = (
    "(+ 1.0 (* 2.0 3.0))",
    "(reset (+ 1.0 (shift k (app k (app k 1.0)))))",
    "(let r (ref 0.0) (reset (let a (shift k (seq (assign r k) (app k 1.0)))"
    " (let inner (case (> a 1.5) u 0.0 v (app (deref r) 2.0)) (+ a inner)))))",
    "(let p (reset (let a (shift k (pair (app k 1.0) (app k 2.0))) (lam u a)))"
    " (+ (app (fst p) 0.0) (* 10.0 (app (snd p) 0.0))))",
    "(let x 1.0 (let x (+ x 1.0) x))",
    "(pair (ref 1.0) (inl (lam x x)))",
    "(letrec f (lam t (if (> t 1.0) (app f (* t 0.5)) t)) (app f 8.0))",
    "(case (inl 1.0) a a b nope)",
    "(case (inr 1.0) a a b nope)",
    "(fst 1.0)",
)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _err(ex: BaseException) -> str:
    return f"{type(ex).__name__}: {ex}"


def _programs(root: str):
    """(name, program) over CorpusSpec(42), programs/*.sexp and the
    tools/fuzz.py programs."""
    from fuzz import FEATURE_CASES, FUZZ, fuzz_programs

    from adlc.gradcheck import CorpusSpec, corpus
    from adlc.syntax import parse

    programs = [(f"corpus{i}", f) for i, f in enumerate(corpus(CorpusSpec(42)))]
    for path in sorted(glob.glob(os.path.join(root, "programs", "*.sexp"))):
        with open(path, encoding="utf-8") as fh:
            programs.append((os.path.basename(path), parse(fh.read())))
    programs += [(f"feature{i}", parse(src)) for i, (src, _) in enumerate(FEATURE_CASES)]
    for seed in FUZZ:
        programs += [(f"fuzz{seed}_{i}", f) for i, f in enumerate(fuzz_programs(seed))]
    return programs


def _attempt(build) -> str:
    try:
        return build()
    except Exception as ex:  # recorded, not raised
        return _err(ex)


def _trace(grad):
    """A gradient function whose value is its run's adjoint-update trace."""
    def run(x):
        trace: list = []
        grad(x, trace=trace)
        return ";".join(f"{i}:{d.hex()}" for i, d in trace)
    return run


def _complete_tree(depth: int, values):
    """A complete tree of the given depth, its node values drawn in
    pre-order from `values`."""
    from adlc.staging import TreeData

    if depth == 0:
        return None
    v = next(values)
    left = _complete_tree(depth - 1, values)
    return TreeData(v, left, _complete_tree(depth - 1, values))


def _trees(root: str) -> list:
    """(name, tree): programs/tree_single.tree, the empty tree and complete
    trees of depth 1 to 4."""
    from adlc.staging import parse_tree

    with open(os.path.join(root, "programs", "tree_single.tree"), encoding="utf-8") as fh:
        trees = [("tree_single.tree", parse_tree(fh.read())), ("empty", None)]
    return trees + [(f"complete{d}", _complete_tree(d, itertools.count(0.5, 0.25)))
                    for d in range(1, 5)]


def _tree_fold(root: str):
    """programs/tree_fold.sexp, parsed."""
    from adlc.syntax import parse

    with open(os.path.join(root, "programs", "tree_fold.sexp"), encoding="utf-8") as fh:
        return parse(fh.read())


def _staged(stage, f):
    """(opt, program, build error) for stage(f) as staged ("none") and
    after ir_optimize ("all"); a build that raises has program None and
    its error recorded."""
    from adlc.ir_opt import ir_optimize

    for opt in ("none", "all"):
        try:
            prog = stage(f)
            prog, err = ir_optimize(prog) if opt == "all" else prog, None
        except Exception as ex:  # recorded, not raised
            prog, err = None, _err(ex)
        yield opt, prog, err


def _tree_fold_lines(root: str):
    from adlc.gradcheck import DEFAULT_PROBES
    from adlc.ir_eval import ir_eval
    from adlc.staging import stage_tree

    trees = _trees(root)
    for opt, prog, err in _staged(stage_tree, _tree_fold(root)):
        if err:
            yield f"tree_fold.sexp\t{opt}\tbuild\t{err}"
            continue
        for name, tree in trees:
            for x in DEFAULT_PROBES:
                out = _attempt(lambda: ir_eval(prog, x, tree=tree).hex())
                yield f"tree_fold.sexp:{name}\t{opt}\t{x.hex()}\t{out}"


def gradient_lines(root: str):
    from adlc.gradcheck import DEFAULT_PROBES, MODES, primal_fn
    from adlc.ir_eval import ir_eval
    from adlc.ir_opt import ir_optimize
    from adlc.runtime import (
        cps_gradient, forward_over_reverse_gradient, tape_gradient,
    )
    from adlc.staging import stage_reverse

    builders = dict(MODES, primal=primal_fn)
    builders["forward-over-reverse"] = forward_over_reverse_gradient
    builders["staged-opt"] = lambda f: partial(ir_eval, ir_optimize(stage_reverse(f)))
    builders["trace-cps"] = lambda f: _trace(cps_gradient(f))
    builders["trace-tape"] = lambda f: _trace(tape_gradient(f))
    for name, f in _programs(root):
        for mode, build in builders.items():
            try:
                fn = build(f)
            except Exception as ex:  # recorded, not raised
                yield f"{name}\t{mode}\tbuild\t{_err(ex)}"
                continue
            for x in DEFAULT_PROBES:
                try:
                    out = fn(x)
                    out = out if isinstance(out, str) else out.hex()
                except Exception as ex:  # recorded, not raised
                    out = _err(ex)
                yield f"{name}\t{mode}\t{x.hex()}\t{out}"
    yield from _tree_fold_lines(root)


def interpreted_lines(root: str):
    from adlc.gradcheck import DEFAULT_PROBES
    from adlc.ir_eval import DEFAULT_DEPTH_LIMIT, interpret
    from adlc.staging import stage_reverse, stage_tree

    staged = [(name, stage_reverse, f, [(None, None)]) for name, f in _programs(root)]
    staged.append(("tree_fold.sexp", stage_tree, _tree_fold(root), _trees(root)))
    for name, stage, f, trees in staged:
        for opt, prog, err in _staged(stage, f):
            if err:
                yield f"{name}\t{opt}\tbuild\t{err}"
                continue
            for tree_name, tree in trees:
                for limit in (DEFAULT_DEPTH_LIMIT, 64, 3, 2):
                    for x in DEFAULT_PROBES:
                        out = _attempt(lambda: interpret(prog, x, tree=tree,
                                                         depth_limit=limit).hex())
                        yield f"{name}:{tree_name}\t{opt}\t{limit}\t{x.hex()}\t{out}"


def _of_prepared(transform):
    """The transform of the prepared program, with prepare's name supply."""
    from adlc.lang import prepare

    def run(f):
        e, gen = prepare(f)
        return transform(e, gen)
    return run


def transform_lines(root: str):
    from adlc.forward import (
        forward_gradient_program, fwd_transform, symbolic_gradient_program,
    )
    from adlc.reverse import (
        VARIANTS, reverse_gradient_program, rev_transform_full_cps,
        rev_transform_meta_shift, rev_transform_target_shift,
    )
    from adlc.syntax import pretty

    builders = {"forward": forward_gradient_program,
                "symbolic": symbolic_gradient_program}
    for v in VARIANTS:
        builders[f"reverse-{v}"] = partial(reverse_gradient_program, variant=v)
    for t in (fwd_transform, rev_transform_target_shift,
              rev_transform_meta_shift, rev_transform_full_cps):
        builders[t.__name__] = _of_prepared(t)
    for name, f in _programs(root):
        for what, build in builders.items():
            yield f"{name}\t{what}\t{_attempt(lambda: pretty(build(f)))}"


def emitted_lines(root: str):
    from adlc.emit import emit_c
    from adlc.staging import stage_reverse, stage_tree

    staged = [(name, stage_reverse, f) for name, f in _programs(root)]
    staged.append(("tree_fold.sexp:tree", stage_tree, _tree_fold(root)))
    for name, stage, f in staged:
        for opt, prog, err in _staged(stage, f):
            yield f"{name}\t{opt}\n{err or _attempt(lambda: emit_c(prog))}"


def report_lines():
    from adlc.gradcheck import CorpusSpec, crosscheck, report_line

    return [report_line(r) for r in crosscheck(CorpusSpec(42))]


def _cli(argv: list[str]) -> str:
    from adlc.cli import run

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as ex:
            code = ex.code
    return (f"$ adlc {' '.join(argv)}\n{out.getvalue()}"
            f"stderr {err.getvalue()}exit {code}")


def cli_lines(root: str):
    from adlc.cli import TRANSFORM_MODES
    from adlc.gradcheck import MODES

    progs = sorted(glob.glob(os.path.join(root, "programs", "*.sexp")))
    with tempfile.TemporaryDirectory() as tmp:
        for i, text in enumerate(EVAL_PROGRAMS):
            path = os.path.join(tmp, f"eval{i}.sexp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            progs.append(path)
        for path in progs:
            yield _cli(["eval", path]).replace(tmp, "<tmp>").replace(root, "<root>")
    for path in sorted(glob.glob(os.path.join(root, "programs", "*.sexp"))):
        for mode in MODES:
            yield _cli(["grad", "--mode", mode, "--at=-2,-0.5,0,1,3",
                        path]).replace(root, "<root>")
        for mode in TRANSFORM_MODES:
            yield _cli(["transform", "--mode", mode, path]).replace(root, "<root>")
        for opt in ("none", "all"):
            yield _cli(["codegen", "--opt", opt, path]).replace(root, "<root>")
    tree_fold = os.path.join(root, "programs", "tree_fold.sexp")
    for opt in ("none", "all"):
        yield _cli(["codegen", "--opt", opt, "--tree", tree_fold]).replace(root, "<root>")
    yield _cli(["check", "--seed", "42", "--json"])
    yield _cli(["demo"])


def main() -> None:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=here, help="checkout to fingerprint")
    ap.add_argument("--dump", help="also write each class's lines to DUMP/<class>.txt")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    classes = (("gradients", lambda: gradient_lines(root)),
               ("interpreted", lambda: interpreted_lines(root)), ("reports", report_lines),
               ("cli", lambda: cli_lines(root)),
               ("transforms", lambda: transform_lines(root)),
               ("emitted", lambda: emitted_lines(root)))
    for name, lines in classes:
        lines = list(lines())
        if args.dump:
            os.makedirs(args.dump, exist_ok=True)
            with open(os.path.join(args.dump, f"{name}.txt"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        print(f"{name:<12}{_digest(lines)}")


if __name__ == "__main__":
    main()
