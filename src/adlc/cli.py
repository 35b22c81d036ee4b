"""Command-line entry point: parse/eval/anf/transform/grad/check/codegen/
descend/demo over S-expression program files.

Every subcommand is a thin adapter over the library; exit code 0 on
success, 1 on a program error (parse/eval/usage), 2 on a check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .emit import emit_c
from .forward import fwd_transform
from .gradcheck import (
    ALL_MODES, MODES, CorpusSpec, DEFAULT_PROBES, check_program, crosscheck,
    gradient_descent, gradient_fn, report_json, report_line,
)
from .interp import eval_expr, render_value
from .ir_eval import DEFAULT_DEPTH_LIMIT, ir_eval
from .ir_opt import ir_optimize
from .lang import anf, prepare
from .reverse import (
    rev_transform_full_cps, rev_transform_meta_shift,
    rev_transform_target_shift,
)
from .staging import stage_reverse, stage_tree, parse_tree
from .syntax import LangError, Lam, fmt_float, parse, pretty

GRAD_MODES = tuple(MODES)
TRANSFORMS = {
    "forward": fwd_transform,
    "reverse-target-shift": rev_transform_target_shift,
    "reverse-meta-shift": rev_transform_meta_shift,
    "reverse-cps-full": rev_transform_full_cps,
}
TRANSFORM_MODES = tuple(TRANSFORMS)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; a prefix of a flag is an unknown flag."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _probes(text: str) -> list[float]:
    """The --at list; a malformed or empty one is a usage error."""
    try:
        probes = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        probes = []
    if not probes:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}")
    return probes


def _read_program(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="adlc", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("parse", help="parse and reprint a program")
    sp.add_argument("file")

    sp = sub.add_parser("eval", help="evaluate a program")
    sp.add_argument("file")

    sp = sub.add_parser("anf", help="A-normal form of an arithmetic program")
    sp.add_argument("file")

    sp = sub.add_parser("transform", help="print a differentiated program")
    sp.add_argument("--mode", choices=TRANSFORM_MODES, required=True)
    sp.add_argument("file")

    sp = sub.add_parser("grad", help="gradient of a one-argument lam")
    sp.add_argument("--mode", choices=GRAD_MODES, required=True)
    sp.add_argument("--at", type=_probes, default="1.0", help="comma-separated probe list")
    sp.add_argument("--tree", help="tree input file for staged tree folds")
    sp.add_argument("--depth-limit", type=int, default=DEFAULT_DEPTH_LIMIT)
    sp.add_argument("file")

    sp = sub.add_parser("check", help="cross-check gradient formulations")
    sp.add_argument("--at", type=_probes, default=None, help="comma-separated probe list")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("file", nargs="?", help="check one program instead of the corpus")

    sp = sub.add_parser("codegen", help="stage, optimize and emit C-like text")
    sp.add_argument("--opt", choices=("none", "all"), default="all")
    sp.add_argument("--tree", action="store_true",
                    help="treat the program as a tree-fold body")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("file")

    sp = sub.add_parser("descend", help="gradient descent demo")
    sp.add_argument("--rate", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--at", type=float, default=0.0, help="starting point")
    sp.add_argument("--mode", choices=ALL_MODES, default="reverse-meta-shift")
    sp.add_argument("file")

    sub.add_parser("demo", help="run the worked examples and print a table")
    return p


def _grad_fn(args, f):
    """The chosen mode, built once for every probe; staged runs also take
    the tree input and the depth limit."""
    if args.mode != "staged":
        if args.tree:
            raise LangError("--tree is only meaningful with --mode staged")
        return gradient_fn(f, args.mode)
    if not args.tree:
        return partial(ir_eval, stage_reverse(f), depth_limit=args.depth_limit)
    prog = stage_tree(f)
    with open(args.tree, encoding="utf-8") as fh:
        tree = parse_tree(fh.read())
    return partial(ir_eval, prog, tree=tree, depth_limit=args.depth_limit)


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (LangError, OSError) as ex:
        print(f"adlc: error: {ex}", file=sys.stderr)
    except RecursionError:
        print("adlc: error: program nested too deeply", file=sys.stderr)
    return 1


def _dispatch(args) -> int:
    cmd = args.cmd
    if cmd == "parse":
        print(pretty(_read_program(args.file)))
    elif cmd == "eval":
        v, store = eval_expr(prepare(_read_program(args.file))[0])
        print(render_value(v, store))
    elif cmd == "anf":
        e = _read_program(args.file)
        if isinstance(e, Lam):
            print(pretty(Lam(e.param, anf(e.body))))
        else:
            print(pretty(anf(e)))
    elif cmd == "transform":
        e, gen = prepare(_read_program(args.file))
        print(pretty(TRANSFORMS[args.mode](e, gen)))
    elif cmd == "grad":
        grad = _grad_fn(args, _read_program(args.file))
        for x in args.at:
            print(fmt_float(grad(x)))
    elif cmd == "check":
        return _check(args)
    elif cmd == "codegen":
        f = _read_program(args.file)
        prog = stage_tree(f) if args.tree else stage_reverse(f)
        if args.opt == "all":
            prog = ir_optimize(prog)
        text = emit_c(prog)
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            print(text, end="")
    elif cmd == "descend":
        f = _read_program(args.file)
        traj = gradient_descent(f, args.at, args.rate, args.steps, mode=args.mode)
        for i, (x, fx) in enumerate(traj):
            print(f"{i}\t{fmt_float(x)}\t{fmt_float(fx)}")
    elif cmd == "demo":
        _demo()
    return 0


def _check(args) -> int:
    probes = args.at or list(DEFAULT_PROBES)
    if args.file:
        f = _read_program(args.file)
        reports = check_program(f, 0, probes)
    else:
        spec = CorpusSpec(seed=args.seed)
        reports = crosscheck(spec, probes)
    if args.json:
        print(json.dumps([report_json(r) for r in reports], indent=2))
    else:
        for r in reports:
            print(report_line(r))
    return 0 if all(r.passed for r in reports) else 2


def _demo() -> None:
    from .runtime import perturbation_confusion_probe

    cubic = parse("(lam x (+ (* 2.0 x) (* (* x x) x)))")
    grads = {m: gradient_fn(cubic, m) for m in MODES}
    probes = (-2.0, -1.0, 0.0, 1.0, 2.0)
    print("gradients of 2x + x^3 (analytic 2 + 3x^2):")
    header = ["x"] + list(ALL_MODES) + ["analytic"]
    print("\t".join(header))
    for x in probes:
        row = [fmt_float(x)]
        row += [fmt_float(grads[m](x)) for m in ALL_MODES]
        row.append(fmt_float(2 + 3 * x * x))
        print("\t".join(row))

    print("\nsecond order (analytic 6x):")
    for x in probes:
        f2, r2 = grads["forward2"](x), grads["reverse2"](x)
        print(f"{fmt_float(x)}\tforward2={fmt_float(f2)}\treverse2={fmt_float(r2)}"
              f"\tanalytic={fmt_float(6 * x)}")

    naive, tagged = perturbation_confusion_probe()
    print(f"\nnested-gradient probe: naive inner = {fmt_float(naive)} "
          f"(confused), tagged inner = {fmt_float(tagged)} (correct)")

    ife = parse("(lam x (if (> x 0.0) (* (* -1.0 x) x) (* x x)))")
    whf = parse("(lam x (letrec loop (lam t (if (> t 1.0) (app loop (* t 0.5)) t))"
                " (app loop x)))")
    body = parse("(* (* l r) v)")
    tree = parse_tree("(node 3.0 (leaf) (leaf))")
    staged_if, staged_while = gradient_fn(ife, "staged"), gradient_fn(whf, "staged")
    print("\nstaged control flow:")
    print(f"if example @ +-2: {fmt_float(staged_if(2.0))},"
          f" {fmt_float(staged_if(-2.0))} (expect -4)")
    print(f"while example @ 8: {fmt_float(staged_while(8.0))}"
          f" (expect 0.125)")
    print(f"tree example @ 2, v=3: {fmt_float(ir_eval(stage_tree(body), 2.0, tree=tree))}"
          f" (expect 12)")

    quad = parse("(lam x (+ (+ (* x x) (* -6.0 x)) 9.0))")
    traj = gradient_descent(quad, 0.0, 0.1, 100)
    print(f"\ngradient descent on (x-3)^2 from 0, rate 0.1, 100 steps:"
          f" final x = {fmt_float(traj[-1][0])}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
