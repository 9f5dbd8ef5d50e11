"""Summation-limit schedules for the folded enumerator.

A schedule U is valid when U(x) >= p_{x+1} - 1 for every x, so the folded
sum has room to count all of 1..p_{x+1}-1.  Two enumerator schedules are
provided, plus the classical Willans limit W(x) = 2^(x+1) (a baseline for
growth-rate comparison only, valid by Bertrand's postulate):

    u_sq(x)  = (x + 1)^2
    u_lin(x) = ceil((x + 1) * (ln(x + e) + ln ln(x + e))) + 10

u_lin uses double-precision logarithms and an exact ceiling.  The budget
admits `evaluate` only for x <= 4,853 and its count never decreases in x
(tested to 10^6), so validate_schedule's sieve check of u_lin on [0, 10^4]
covers every admitted x; a sieve test holds Dusart's p_lower there too.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

from .nat import NAT_MAX, RangeError, as_nat, checked_add, checked_mul
from .oracle import SieveTable, sieve_for_nth
from .reports import BoundsReport

WILLANS_EXACT_MAX_X = 62  # 2^(x+1) fits a 64-bit natural iff x <= 62


class Schedule(enum.Enum):
    SQUARE = "sq"
    LINLOG = "lin"
    WILLANS = "willans"


def u_sq(x: int) -> int:
    """(x + 1)^2."""
    n = checked_add(as_nat(x, "x"), 1)
    return checked_mul(n, n)


def u_lin(x: int) -> int:
    """ceil((x+1) * (ln(x+e) + ln ln(x+e))) + 10."""
    x = as_nat(x, "x")
    inner = math.log(x + math.e)
    value = math.ceil((x + 1) * (inner + math.log(inner))) + 10
    if value > NAT_MAX:
        raise OverflowError(f"u_lin({x}) exceeds the 64-bit natural range")
    return value


def p_lower(n: int) -> float:
    """n(ln n + ln ln n - 1), Dusart's (1999) lower bound on p_n for n >= 2."""
    return n * (math.log(n) + math.log(math.log(n)) - 1.0)


def w_willans_log2(x: int) -> int:
    """Base-2 logarithm of the Willans limit W(x) = 2^(x+1)."""
    return checked_add(as_nat(x, "x"), 1)


def w_willans_exact(x: int) -> int:
    """W(x) = 2^(x+1) as an exact natural; only representable for x <= 62."""
    x = as_nat(x, "x")
    if x > WILLANS_EXACT_MAX_X:
        raise RangeError(
            f"2^{x + 1} is not representable; use w_willans_log2 beyond x={WILLANS_EXACT_MAX_X}"
        )
    return 1 << (x + 1)


def schedule_limit(kind: Schedule, x: int) -> int:
    if kind is Schedule.SQUARE:
        return u_sq(x)
    if kind is Schedule.LINLOG:
        return u_lin(x)
    return w_willans_exact(x)


def _willans_covers(x: int, p: int) -> bool:
    # exact integer test of p <= 2^(x+1) in log2 space
    m = x + 1
    bits = p.bit_length()
    if bits <= m:
        return True
    return bits == m + 1 and p & (p - 1) == 0


def validate_schedule(
    kind: Schedule, x_max: int, table: Optional[SieveTable] = None
) -> BoundsReport:
    """Certify the defining inequality of `kind` on [0, x_max] via the sieve.

    Square/Linlog rows require U(x) >= p_{x+1} - 1; Willans rows require the
    stronger W(x) >= p_{x+1} (checked in log2 space past the exact range).
    """
    x_max = as_nat(x_max, "x_max")
    if table is None:
        table = sieve_for_nth(x_max + 1)
    violations = []
    min_slack: Optional[float] = None  # not reported for Willans (mixed units)
    for x in range(x_max + 1):
        p = table.nth_prime(x + 1)
        if kind is Schedule.WILLANS:
            if x <= WILLANS_EXACT_MAX_X:
                if w_willans_exact(x) < p:
                    violations.append((x, float(w_willans_exact(x)), float(p)))
            elif not _willans_covers(x, p):
                # log2-space row: exponent vs. integer log of p
                violations.append((x, float(x + 1), float(p.bit_length())))
        else:
            limit = schedule_limit(kind, x)
            slack = float(limit - (p - 1))
            if limit < p - 1:
                violations.append((x, float(limit), float(p - 1)))
            if min_slack is None or slack < min_slack:
                min_slack = slack
    return BoundsReport(
        f"schedule-{kind.value}-covers-next-prime", (0, x_max), tuple(violations), min_slack
    )


def square_schedule_base_cases(table: Optional[SieveTable] = None) -> BoundsReport:
    """The finite base check p_n - 1 <= n^2 for n = 1..5."""
    if table is None:
        table = sieve_for_nth(5)
    violations = []
    for n in range(1, 6):
        lhs = table.nth_prime(n) - 1
        rhs = n * n
        if lhs > rhs:
            violations.append((n, float(lhs), float(rhs)))
    return BoundsReport("square-schedule-base-cases", (1, 5), tuple(violations))


def check_lin_growth_bound(
    x_max: int, table: Optional[SieveTable] = None
) -> BoundsReport:
    """p_{x+1} <= (x+1)(ln(x+e) + ln ln(x+e)) with positive margin, x in [5, x_max].

    This is the real-valued middle link that justifies u_lin; below x=5 only
    the +10 slack carries the schedule, so the sweep starts at 5.
    """
    x_max = as_nat(x_max, "x_max")
    if table is None:
        table = sieve_for_nth(x_max + 1)
    violations = []
    min_margin: Optional[float] = None
    for x in range(5, x_max + 1):
        p = table.nth_prime(x + 1)
        inner = math.log(x + math.e)
        bound = (x + 1) * (inner + math.log(inner))
        margin = bound - p
        if margin <= 0.0:
            violations.append((x, bound, float(p)))
        if min_margin is None or margin < min_margin:
            min_margin = margin
    return BoundsReport("lin-schedule-real-bound", (5, x_max), tuple(violations), min_margin)
