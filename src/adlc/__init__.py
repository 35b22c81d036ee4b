"""adlc: a compiler laboratory for automatic differentiation.

One small functional language with delimited control, forward- and
reverse-mode AD as source transformations, four operator-overloading
runtimes, a staging pipeline producing an optimizable IR with C-like
emission, and a cross-formulation gradient-check harness.  Every gradient
mode is a builder in `MODES`: `gradient_fn(f, mode)` is the derivative of
the program f as a real function.
"""

from .emit import emit_c
from .forward import fwd_transform, symbolic_diff
from .gradcheck import (
    MODES, CorpusSpec, GradReport, crosscheck, finite_diff, gradient_descent,
    gradient_fn, random_program,
)
from .interp import Store, eval_expr
from .ir_eval import ir_eval
from .ir_opt import ir_optimize
from .lang import anf, desugar, freshen
from .reverse import (
    normalize_tail, rev_transform_full_cps, rev_transform_meta_shift,
    rev_transform_target_shift,
)
from .runtime import (
    forward_over_reverse_gradient, grad_cps, grad_functional, grad_tape,
    probe_outer_gradients,
)
from .staging import parse_tree, stage_reverse, stage_tree
from .syntax import Expr, parse, pretty

__all__ = [
    "MODES", "CorpusSpec", "Expr", "GradReport", "Store", "anf", "crosscheck",
    "desugar", "emit_c", "eval_expr", "finite_diff",
    "forward_over_reverse_gradient", "freshen", "fwd_transform", "grad_cps",
    "grad_functional", "grad_tape", "gradient_descent", "gradient_fn",
    "ir_eval", "ir_optimize", "normalize_tail", "parse", "parse_tree",
    "pretty", "probe_outer_gradients", "random_program",
    "rev_transform_full_cps", "rev_transform_meta_shift",
    "rev_transform_target_shift", "stage_reverse", "stage_tree",
    "symbolic_diff",
]
