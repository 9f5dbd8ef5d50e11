"""primefold: a folded prime enumerator built from +, floor, /, sums and gcd.

f(x) = 1 + sum_{i=1}^{U(x)} A(i, x) returns the (x+1)-st prime for any
schedule U with U(x) >= p_{x+1} - 1.  The package pairs the enumerator with
an independent sieve oracle, instrumented operation-count audits, and
numeric verification of every schedule bound and separation claim.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    SignatureFamily,
    SignatureVector,
    check_forward_count_axiom,
    check_minimality,
    check_schedule_divergence,
    check_signature_separation,
    signature,
)
from .audit import (
    AuditRow,
    OpCounts,
    audit_range,
    closed_form_incremental,
    closed_form_naive,
    run_counted,
)
from .core import IndicatorVariant, delta, divisor_hit, indicator, prefix_count, step
from .enumerator import (
    EvalMode,
    PostconditionError,
    TraceRecord,
    TraceRow,
    evaluate,
    record_lift,
    trace,
)
from .nat import NAT_MAX, DomainError, RangeError, as_nat, checked_add, checked_mul
from .oracle import SieveTable, build_sieve, sieve_for_nth
from .reports import BoundsReport
from .schedules import (
    Schedule,
    check_lin_growth_bound,
    schedule_limit,
    square_schedule_base_cases,
    u_lin,
    u_sq,
    validate_schedule,
    w_willans_exact,
    w_willans_log2,
)

__version__ = "0.1.0"

# every public name imported above; the submodules themselves stay out
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType))
