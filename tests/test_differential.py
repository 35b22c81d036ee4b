"""Differential testing beyond the straight-line corpus: nested expressions,
mutable state, pairs, sums, conditionals and higher-order functions, checked
across the transformation paths (and finite differences where smooth)."""

from functools import partial
from pathlib import Path

import pytest

from adlc.forward import (
    forward_gradient_program, grad_forward, grad_symbolic,
    symbolic_gradient_program,
)
from adlc.gradcheck import MODES, CorpusSpec, finite_diff, primal_fn, random_program
from adlc.interp import eval_expr
from adlc.reverse import VARIANTS, grad_reverse, reverse_gradient_program
from adlc.runtime import (
    grad_cps_expr, grad_dual_expr, grad_forward_over_reverse,
    grad_functional_expr, grad_tape_expr,
)
from adlc.syntax import App, Const, LangError, parse, pretty
from fuzz import FEATURE_CASES, FUZZ, fuzz_programs

PROBES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


@pytest.mark.parametrize("src,deriv", FEATURE_CASES)
def test_language_features_differentiate(src, deriv):
    f = parse(src)
    for x in PROBES:
        want = deriv(x)
        got_f = grad_forward(f, x)
        assert abs(got_f - want) <= 1e-12 * max(1.0, abs(want))
        for v in VARIANTS:
            got_r = grad_reverse(f, x, v)
            assert abs(got_r - got_f) <= 1e-10 * max(1.0, abs(got_f))


def test_fuzz_smooth_programs_all_paths_and_fd():
    for f in fuzz_programs(1318):
        fn = primal_fn(f)
        for x in PROBES:
            fwd = grad_forward(f, x)
            for v in VARIANTS:
                rev = grad_reverse(f, x, v)
                assert abs(rev - fwd) <= 1e-10 * max(1.0, abs(fwd))
            fd = finite_diff(fn, x)
            assert abs(fd - fwd) <= 1e-4 * max(1.0, abs(fwd))


def test_fuzz_branching_programs_transform_agreement():
    for f in fuzz_programs(97):
        for x in PROBES:
            fwd = grad_forward(f, x)
            for v in VARIANTS:
                rev = grad_reverse(f, x, v)
                assert abs(rev - fwd) <= 1e-10 * max(1.0, abs(fwd))


def test_fuzz_staged_branching_bitwise_vs_unstaged():
    from adlc.ir_eval import ir_eval
    from adlc.ir_opt import ir_optimize
    from adlc.reverse import grad_reverse
    from adlc.staging import stage_reverse

    checked = 0
    for f in fuzz_programs(5521):
        p = stage_reverse(f)
        po = ir_optimize(p)
        for x in PROBES:
            want = grad_reverse(f, x, "meta-shift")
            assert ir_eval(p, x) == want
            assert ir_eval(po, x) == want
            checked += 1
    assert checked == 360


def test_runtimes_run_control_flow_bitwise_with_their_families():
    # the runtimes are the CEK machine on their number types: on the fuzz
    # programs, the feature cases and the two control-flow programs,
    # each agrees bit for bit with its family's reference
    programs = [parse(src) for src, _ in FEATURE_CASES]
    for name in ("halve_loop", "sign_square"):
        with open(PROGRAMS / f"{name}.sexp", encoding="utf-8") as fh:
            programs.append(parse(fh.read()))
    # a float meeting a dual is lifted with a zero tangent, as forward's
    # constants are, so the sign of a zero tangent agrees
    programs.append(parse("(lam x (* (* x 0.0) -1.0))"))
    for seed in FUZZ:
        programs += fuzz_programs(seed)
    family = {"dual": "forward", "cps": "reverse-target-shift",
              "tape": "reverse-target-shift", "functional": "reverse-target-shift"}
    for f in programs:
        fns = {m: MODES[m](f) for m in (*family, *family.values(), "forward2")}
        for x in PROBES:
            for mode, ref in family.items():
                assert fns[mode](x).hex() == fns[ref](x).hex(), (mode, f, x)
            want = grad_forward_over_reverse(f, x)
            assert abs(fns["forward2"](x) - want) <= 1e-12 * max(1.0, abs(want))


# programs whose per-call APIs raise: not a lam, an unbound name, source
# control that some formulations reject
FAILING_SOURCES = ("(+ 1.0 2.0)", "(lam x (+ x nope))",
                   "(lam x (reset (+ x (shift k (app k x)))))")


def _per_call_apis():
    """(name, call of a program) for every public one-shot entry point."""
    apis = [("eval", lambda f: eval_expr(App(f, Const(0.5)))[0]),
            ("primal", lambda f: primal_fn(f)(0.5)),
            ("forward_program", forward_gradient_program),
            ("symbolic_program", symbolic_gradient_program),
            ("forward", lambda f: grad_forward(f, 0.5)),
            ("symbolic", lambda f: grad_symbolic(f, 0.5))]
    for name, grad in (("dual", grad_dual_expr), ("cps", grad_cps_expr),
                       ("tape", grad_tape_expr), ("functional", grad_functional_expr)):
        apis.append((name, lambda f, grad=grad: grad(f, 0.5)))
    for v in VARIANTS:
        apis.append((f"{v}_program", partial(reverse_gradient_program, variant=v)))
        apis.append((v, partial(grad_reverse, x0=0.5, variant=v)))
    return apis


def _observed(call, f) -> str:
    """What a user sees of one call: float bits, printed program or error."""
    try:
        v = call(f)
    except LangError as ex:
        return f"{type(ex).__name__}: {ex}"
    return v.hex() if isinstance(v, float) else pretty(v)


def test_repeated_calls_on_one_object_match_a_fresh_parse():
    # work kept on a program object (its closed lambdas' translations and
    # prepare's result) must not change anything a second call shows
    spec = CorpusSpec(42)
    makers = [partial(random_program, spec, i) for i in range(50)]
    makers += [partial(parse, src) for src, _ in FEATURE_CASES]
    makers += [partial(parse, src) for src in FAILING_SOURCES]
    apis = _per_call_apis()
    for make in makers:
        f = make()
        first = {name: _observed(call, f) for name, call in apis}
        again = {name: _observed(call, f) for name, call in apis}
        cold = {name: _observed(call, make()) for name, call in apis}
        assert again == first == cold, pretty(f)
