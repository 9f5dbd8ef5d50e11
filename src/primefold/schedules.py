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

The sieve sweeps run over arrays of x, with math.log on each element: numpy's
SIMD log may differ in the last ulp between builds and move a ceiling.  A
float margin within 4 ulps of its bound counts as a violation, not as proof.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np

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


def _log(v):
    """math.log of a float, or of each element of a float array."""
    return np.fromiter(map(math.log, v), float) if np.ndim(v) else math.log(v)


def _lin_bound(x):
    """(x+1)(ln(x+e) + ln ln(x+e)) for a natural x, or for each x of an int64 array."""
    inner = _log(x + math.e)
    return (x + 1) * (inner + _log(inner))


def u_lin(x: int) -> int:
    """ceil((x+1) * (ln(x+e) + ln ln(x+e))) + 10."""
    value = math.ceil(_lin_bound(as_nat(x, "x"))) + 10
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
    """p <= 2^(x+1), exactly, for a natural p >= 1: p - 1 < 2^(x+1) has at most x+1 bits."""
    return (p - 1).bit_length() <= x + 1


def validate_schedule(
    kind: Schedule, x_max: int, table: Optional[SieveTable] = None
) -> BoundsReport:
    """Certify the defining inequality of `kind` on [0, x_max] via the sieve.

    Square/Linlog rows require U(x) >= p_{x+1} - 1, checked over arrays;
    Willans rows require the stronger W(x) >= p_{x+1}, one x at a time,
    tested exactly on the bit length of p.
    """
    x_max = as_nat(x_max, "x_max")
    if table is None:
        table = sieve_for_nth(x_max + 1)
    table.nth_prime(x_max + 1)  # a short table raises RangeError here; a slice would truncate
    need = table.prime_list[: x_max + 1] - 1
    violations, min_slack = [], None
    if kind is Schedule.WILLANS:  # rows hold the exponent x + 1 and the bits of p
        for x, p in enumerate((need + 1).tolist()):
            if not _willans_covers(x, p):
                violations.append((x, float(x + 1), float(p.bit_length())))
    else:
        xs = np.arange(x_max + 1)
        if kind is Schedule.SQUARE:  # x_max < pi(SIEVE_LIMIT_MAX) < 6e6, so int64 holds (x+1)^2
            limits = (xs + 1) ** 2
        else:
            limits = np.ceil(_lin_bound(xs)).astype(np.int64) + 10
        slack = limits - need
        violations = [(int(x), float(limits[x]), float(need[x])) for x in np.flatnonzero(slack < 0)]
        min_slack = float(slack.min())
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
    """p_{x+1} < (x+1)(ln(x+e) + ln ln(x+e)) by over 4 ulps, x in [5, x_max].

    This is the real-valued middle link that justifies u_lin; below x=5 only
    the +10 slack carries the schedule, so the sweep starts at 5.
    """
    x_max = as_nat(x_max, "x_max")
    if table is None:
        table = sieve_for_nth(x_max + 1)
    if x_max >= 5:
        table.nth_prime(x_max + 1)  # a short table raises RangeError here; a slice would truncate
    p = table.prime_list[5 : x_max + 1]
    bound = _lin_bound(np.arange(5, x_max + 1))
    margin = bound - p
    tight = np.flatnonzero(margin <= 4 * np.spacing(bound))
    violations = tuple((int(i) + 5, float(bound[i]), float(p[i])) for i in tight)
    min_margin = float(margin.min()) if margin.size else None
    return BoundsReport("lin-schedule-real-bound", (5, x_max), violations, min_margin)
