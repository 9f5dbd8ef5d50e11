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

Every sweep over x lives here and runs over one grid of _BLOCK x's, so no
array grows with x_max.  _lin_blocks is the one block source of u_lin: it
yields each block with its real bound and its u_lin.  validate_schedules takes
each x's two logarithms once and builds the square, lin and real-bound reports
together; validate_schedule and check_lin_growth_bound each return one of
them.  check_minimality checks the Omega(x log x) lower-bound chain of any
forward-count enumerator, and check_schedule_divergence the growth of the
Willans limit past u_lin.  The Willans rows are an exact integer loop over the
same grid.  The float sweeps take math.log of each element: numpy's SIMD log
may differ in the last ulp between builds and move a ceiling.  A float margin
within 4 ulps of its bound counts as a violation, not as proof.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional, Tuple

import numpy as np

from .nat import NAT_MAX, DomainError, RangeError, as_nat, checked_add, checked_mul
from .oracle import SieveTable
from .reports import BoundsReport

WILLANS_EXACT_MAX_X = 62  # 2^(x+1) fits a 64-bit natural iff x <= 62
_BLOCK = 1 << 12  # x's per sweep block: no array of a sweep grows with x_max
DIVERGENCE_X_MIN = 10  # r(x) is swept from here on


class Schedule(enum.Enum):
    SQUARE = "sq"
    LINLOG = "lin"
    WILLANS = "willans"


def u_sq(x: int) -> int:
    """(x + 1)^2."""
    n = checked_add(as_nat(x, "x"), 1)
    return checked_mul(n, n)


def _log(v):
    """math.log of a number, or of each element of an array through a memoryview (no list)."""
    if isinstance(v, np.ndarray):
        return np.fromiter(map(math.log, memoryview(v)), float, v.size)
    return math.log(v)


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


def p_lower(n):
    """n(ln n + ln ln n - 1), Dusart's (1999) lower bound on p_n, n >= 2, for an int or an array."""
    ln = _log(n)
    return n * (ln + _log(ln) - 1.0)


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


def _blocks(x_min: int, x_max: int):
    for lo in range(x_min - x_min % _BLOCK, x_max + 1, _BLOCK):
        yield np.arange(max(lo, x_min), min(lo + _BLOCK, x_max + 1))


def _lin_blocks(x_min: int, x_max: int):
    """(xs, _lin_bound(xs), u_lin of each x) for each block of x in [x_min, x_max]; every
    swept x's u_lin fits int64."""
    for xs in _blocks(x_min, x_max):
        bound = _lin_bound(xs)
        yield xs, bound, np.ceil(bound).astype(np.int64) + 10


class _Claim:
    """One claim's (x, lhs, rhs) violation rows and least slack, gathered block by block."""

    def __init__(self, claim_id: str, x_min: int, x_max: int) -> None:
        self.claim_id, self.x_range = claim_id, (x_min, x_max)
        self.rows: List[Tuple[int, float, float]] = []
        self.least: Optional[float] = None

    def add(self, xs, lhs, rhs, slack, bad) -> None:
        self.rows += [(int(x), float(a), float(b)) for x, a, b in zip(xs[bad], lhs[bad], rhs[bad])]
        if slack.size:
            least = float(slack.min())
            self.least = least if self.least is None else min(self.least, least)

    def report(self) -> BoundsReport:
        return BoundsReport(self.claim_id, self.x_range, tuple(self.rows), self.least)


def validate_schedules(x_max: int, table: SieveTable) -> List[BoundsReport]:
    """validate_schedule's SQUARE and LINLOG reports, then check_lin_growth_bound's, from one
    pass over x in [0, x_max] in the blocks of _lin_blocks."""
    x_max = as_nat(x_max, "x_max")
    primes = table.first(x_max + 1)
    square, lin = (_Claim(f"schedule-{kind.value}-covers-next-prime", 0, x_max)
                   for kind in (Schedule.SQUARE, Schedule.LINLOG))
    real = _Claim("lin-schedule-real-bound", 5, x_max)
    for xs, bound, lin_limits in _lin_blocks(0, x_max):
        p = primes[xs[0] : xs[-1] + 1]
        need = p - 1
        # x_max < pi(SIEVE_LIMIT_MAX) < 6e6, so int64 holds (x+1)^2
        for claim, limits in ((square, (xs + 1) ** 2), (lin, lin_limits)):
            slack = limits - need
            claim.add(xs, limits, need, slack, slack < 0)
        g = slice(max(5 - xs[0], 0), None)  # the real bound is claimed from x = 5
        margin = bound[g] - p[g]
        real.add(xs[g], bound[g], p[g], margin, margin <= 4 * np.spacing(bound[g]))
    return [square.report(), lin.report(), real.report()]


def validate_schedule(kind: Schedule, x_max: int, table: SieveTable) -> BoundsReport:
    """Certify the defining inequality of `kind` on [0, x_max] via the sieve.

    Square/Linlog rows require U(x) >= p_{x+1} - 1: validate_schedules' report.
    Willans rows require the stronger W(x) >= p_{x+1}, tested exactly on the
    bit length of p over the same blocks of x.
    """
    if kind is not Schedule.WILLANS:
        return validate_schedules(x_max, table)[0 if kind is Schedule.SQUARE else 1]
    x_max = as_nat(x_max, "x_max")
    primes = table.first(x_max + 1)
    rows = []
    for xs in _blocks(0, x_max):  # the exponent x + 1 against the bits of p
        rows += [(x, float(x + 1), float(q.bit_length())) for x, q in
                 zip(xs.tolist(), primes[xs[0] : xs[-1] + 1].tolist()) if not _willans_covers(x, q)]
    return BoundsReport(f"schedule-{kind.value}-covers-next-prime", (0, x_max), tuple(rows))


def square_schedule_base_cases(table: SieveTable) -> BoundsReport:
    """The finite base check p_n - 1 <= n^2 for n = 1..5."""
    violations = []
    for n in range(1, 6):
        lhs = table.nth_prime(n) - 1
        rhs = n * n
        if lhs > rhs:
            violations.append((n, float(lhs), float(rhs)))
    return BoundsReport("square-schedule-base-cases", (1, 5), tuple(violations))


def check_lin_growth_bound(x_max: int, table: SieveTable) -> BoundsReport:
    """p_{x+1} < (x+1)(ln(x+e) + ln ln(x+e)) by over 4 ulps, x in [5, x_max].

    This is the real-valued middle link that justifies u_lin; below x=5 only
    the +10 slack carries the schedule, so the sweep starts at 5.
    """
    x_max = as_nat(x_max, "x_max")
    if x_max < 5:  # an empty range reads no table
        return BoundsReport("lin-schedule-real-bound", (5, x_max))
    return validate_schedules(x_max, table)[2]


def _log_ratios(xs, limits):
    """r(x) = (x+1) ln 2 - ln u_lin(x) for each x of a block, from the block's u_lin."""
    return (xs + 1) * math.log(2.0) - _log(limits)


def check_schedule_divergence(x_max: int) -> BoundsReport:
    """r(x) = (x+1) ln 2 - ln u_lin(x) strictly increases for x >= 10.

    A finite sweep cannot certify a limit, so divergence is operationalized
    as strict monotonicity on [10, x_max] plus r(x_max) > r(10) + 10 once
    x_max >= 60.  min_slack is the smallest consecutive increase.
    """
    x_max = as_nat(x_max, "x_max")
    if x_max < DIVERGENCE_X_MIN:
        raise DomainError(f"check_schedule_divergence requires x_max >= 10, got {x_max}")
    claim = _Claim("schedule-log-ratio-divergence", 1, x_max)
    r10, r = None, np.empty(0)
    for xs, _, limits in _lin_blocks(DIVERGENCE_X_MIN, x_max):
        r = np.concatenate((r[-1:], _log_ratios(xs, limits)))  # with the last block's last r(x)
        if r10 is None:  # the first block starts at x = 10: r(10) has no gap of its own
            r10, xs = float(r[0]), xs[1:]
        gap = np.diff(r)
        claim.add(xs, r[1:], r[:-1], gap, gap <= 4 * np.spacing(r[:-1]))
    if x_max >= 60 and r[-1] - (r10 + 10.0) <= 4 * math.ulp(r10 + 10.0):
        claim.rows.append((x_max, float(r[-1]), r10 + 10.0))
    return claim.report()


def check_minimality(x_max: int, table: SieveTable) -> BoundsReport:
    """Both links of the schedule lower-bound chain on [5, x_max].

    For each x: p_{x+1} - 1 >= (x+1)(ln(x+1) + ln ln(x+1) - 1) - 1, then
    u_lin(x) >= p_{x+1} - 1, each x's rows in that order.  min_slack is the
    smallest relative margin of the first (real-valued) link.
    """
    x_max = as_nat(x_max, "x_max")
    if x_max < 5:
        raise DomainError(f"check_minimality requires x_max >= 5, got {x_max}")
    primes = table.first(x_max + 1)
    claim = _Claim("schedule-minimality-chain", 5, x_max)
    for xs, _, limits in _lin_blocks(5, x_max):
        need = primes[xs[0] : xs[-1] + 1] - 1
        lower = p_lower(xs + 1) - 1.0
        margin = need - lower
        claim.add(np.repeat(xs, 2), np.ravel((need, limits), "F"), np.ravel((lower, need), "F"),
                  margin / lower, np.ravel((margin <= 4 * np.spacing(lower), limits < need), "F"))
    return claim.report()
