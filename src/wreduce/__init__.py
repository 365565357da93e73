"""Symbolic reduction and certified evaluation of small-rank Witten zeta values."""

import importlib

from .errors import (
    ConvergenceUnverified,
    InadmissibleIndex,
    InadmissibleOutput,
    InternalNoncancellation,
    ToleranceUnreachable,
    UnsupportedParams,
    WreduceError,
)
from .exact import (
    Atom,
    EulerSum,
    LinearCombination,
    MordellTornheim3,
    SingleZeta,
    Term,
    WittenSl4,
    canonicalize,
    parse,
)
from .reduce import (
    VARIANTS,
    exchange_weights,
    four_term_lhs,
    four_term_rhs,
    pair_recurrence_weights,
    reduce_any,
    reduce_general_witten,
    reduce_mt,
    reduce_unit_witten,
    reduce_witten,
    unit_pair_split,
    unit_tail_expand,
)

# The numeric layers load numpy, so they and their names resolve on first
# use (PEP 562): ``import wreduce`` and symbolic work load neither of them.
_LAZY = dict.fromkeys(
    ("series", "Evaluation", "SummationConfig", "clear_caches", "eval_atom", "eval_lincomb"),
    "series",
) | dict.fromkeys(
    (
        "verify",
        "DEFAULT_SWEEP_IDS",
        "IDENTITY_IDS",
        "IdentityRecord",
        "Report",
        "build_identity",
        "check",
        "default_parameters",
        "failure_count",
        "format_report_lines",
        "format_summary_csv",
        "inconclusive_count",
        "probe_summary",
        "sweep",
        "symmetry_tuples",
        "write_reports",
    ),
    "verify",
)


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


__all__ = [
    "Atom",
    "ConvergenceUnverified",
    "DEFAULT_SWEEP_IDS",
    "EulerSum",
    "Evaluation",
    "IDENTITY_IDS",
    "IdentityRecord",
    "InadmissibleIndex",
    "InadmissibleOutput",
    "InternalNoncancellation",
    "LinearCombination",
    "MordellTornheim3",
    "Report",
    "SingleZeta",
    "SummationConfig",
    "Term",
    "ToleranceUnreachable",
    "UnsupportedParams",
    "VARIANTS",
    "WittenSl4",
    "WreduceError",
    "build_identity",
    "canonicalize",
    "check",
    "clear_caches",
    "default_parameters",
    "eval_atom",
    "eval_lincomb",
    "exchange_weights",
    "failure_count",
    "format_report_lines",
    "format_summary_csv",
    "four_term_lhs",
    "four_term_rhs",
    "inconclusive_count",
    "pair_recurrence_weights",
    "parse",
    "probe_summary",
    "reduce_any",
    "reduce_general_witten",
    "reduce_mt",
    "reduce_unit_witten",
    "reduce_witten",
    "sweep",
    "symmetry_tuples",
    "unit_pair_split",
    "unit_tail_expand",
    "write_reports",
]
