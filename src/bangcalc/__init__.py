"""Interpreter and quantitative type checkers for a bang calculus with
explicit substitutions, plus its call-by-name / call-by-value fragment."""

from .syntax import (
    Abs, App, Bang, Der, Sub, Term, Var,
    alpha_eq, free_vars, parse_term, print_term, subst_meta,
    w_size,
)
from .reduction import (
    RuleKind, Trace, FuelExhausted,
    classify_nf, classify_wcf_nf, detect_clash, normalize_dw, redexes,
    step_at, step_dw,
)
from .system_u import (
    Derivation, Untypable, check_derivation_u, infer_u, size_u,
    type_normal_form_u,
)
from .system_e import (
    DerivationE, check_derivation_e, infer_tight, is_tight,
    type_normal_form_tight,
)
from .cbn_cbv import (
    classify_lambda_nf, embed_cbn, embed_cbv, infer_n, infer_v,
    normalize_n, normalize_v,
)

__all__ = [name for name in dir() if not name.startswith("_")]
