"""adlc: a compiler laboratory for automatic differentiation.

One small functional language with delimited control, forward- and
reverse-mode AD as source transformations, four operator-overloading
runtimes, a staging pipeline producing an optimizable IR with C-like
emission, and a cross-formulation gradient-check harness.
"""

from .emit import emit_c
from .forward import (
    fwd_transform, grad_forward, grad_forward_tagged, grad_symbolic,
    symbolic_diff,
)
from .gradcheck import (
    CorpusSpec, GradReport, crosscheck, finite_diff, gradient_descent,
    random_program,
)
from .interp import Store, eval_expr
from .ir_eval import ir_eval
from .ir_opt import ir_optimize
from .lang import anf, desugar, freshen
from .reverse import (
    grad_reverse, grad_reverse_of_reverse, normalize_tail,
    rev_transform_full_cps, rev_transform_meta_shift,
    rev_transform_target_shift,
)
from .runtime import (
    grad_cps, grad_forward_over_reverse, grad_functional,
    grad_tape, perturbation_confusion_probe,
)
from .staging import parse_tree, stage_reverse, stage_tree
from .syntax import Expr, parse, pretty

__all__ = [
    "CorpusSpec", "Expr", "GradReport", "Store", "anf", "crosscheck",
    "desugar", "emit_c", "eval_expr", "finite_diff", "freshen",
    "fwd_transform", "grad_cps", "grad_forward",
    "grad_forward_over_reverse", "grad_forward_tagged", "grad_functional",
    "grad_reverse", "grad_reverse_of_reverse", "grad_symbolic", "grad_tape",
    "gradient_descent", "ir_eval", "ir_optimize", "normalize_tail",
    "parse", "parse_tree", "perturbation_confusion_probe", "pretty",
    "random_program", "rev_transform_full_cps", "rev_transform_meta_shift",
    "rev_transform_target_shift", "stage_reverse", "stage_tree",
    "symbolic_diff",
]
