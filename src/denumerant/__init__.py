"""Exact counting of non-negative integer solutions of
a_1 x_1 + ... + a_k x_k = n, with proven two-sided polynomial bounds,
Frobenius number machinery, and a reproducible verification harness.
"""

from .bfnum import bf_explicit, bf_recursive
from .bounds import (
    BoundReport,
    BoundSequences,
    bound_sequences,
    inequality_a,
    inequality_b_lower,
    prefix_sum_count,
    relaxed_count_chain,
)
from .core import (
    BudgetExceededError,
    DenumerantError,
    DomainError,
    IndexRangeError,
    InvariantViolationError,
    NotApplicableError,
    NotCoprimeError,
    TooShortTupleError,
    as_coeffs,
    format_rational,
    gcd_chain,
)
from .exact import (
    CountResult,
    denumerant,
    extended_count,
    oracle_count,
    popoviciu,
)
from .frobenius import FrobeniusReport, bound_frobenius, frobenius_exact
from .powersum import (
    PowerSumQuery,
    check_sum_bounds,
    power_sum,
    refined_upper_bound,
)
from .sweep import (
    SUITE_NAMES,
    Failure,
    SplitMix64,
    SweepConfig,
    VerificationReport,
    run_verify,
    shrink_failure,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundSequences",
    "BudgetExceededError",
    "CountResult",
    "DenumerantError",
    "DomainError",
    "Failure",
    "FrobeniusReport",
    "IndexRangeError",
    "InvariantViolationError",
    "NotApplicableError",
    "NotCoprimeError",
    "PowerSumQuery",
    "SUITE_NAMES",
    "SplitMix64",
    "SweepConfig",
    "TooShortTupleError",
    "VerificationReport",
    "as_coeffs",
    "bf_explicit",
    "bf_recursive",
    "bound_frobenius",
    "bound_sequences",
    "check_sum_bounds",
    "denumerant",
    "extended_count",
    "format_rational",
    "frobenius_exact",
    "gcd_chain",
    "inequality_a",
    "inequality_b_lower",
    "oracle_count",
    "popoviciu",
    "power_sum",
    "prefix_sum_count",
    "refined_upper_bound",
    "relaxed_count_chain",
    "run_verify",
    "shrink_failure",
]
