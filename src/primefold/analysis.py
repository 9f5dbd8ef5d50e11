"""Non-synonymy and minimality checks at desk scale.

Three enumerator families are separated by fixed 6-bit operator-palette
fingerprints (stored constants, tested for distinctness) and by schedule
growth: the Willans limit 2^(x+1) outgrows u_lin, tested as strict growth
of r(x) = (x+1) ln 2 - ln u_lin(x) plus a concrete gap.  The lower bound
U(x) >= p_{x+1} - 1 >= (x+1)(ln(x+1) + ln ln(x+1) - 1) - 1 (x >= 5) of any
forward-count enumerator is swept against the sieve, and the axiom against
each trace's step array.  A float margin within 4 ulps of its bound counts
as a violation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .enumerator import trace
from .nat import DomainError, RangeError, as_nat
from .oracle import SieveTable, sieve_for_nth
from .reports import BoundsReport
from .schedules import Schedule, p_lower, u_lin

FORWARD_AXIOM_X_MAX = 200  # trace-backed check; keep the row volume bounded
DIVERGENCE_X_MIN = 10  # r(x) is swept from here on


class SignatureFamily(enum.Enum):
    FOLDED = "folded"
    WILLANS = "willans"
    MILLS = "mills"


@dataclass(frozen=True)
class SignatureVector:
    family: SignatureFamily
    coords: Tuple[int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.coords) != 6 or any(c not in (0, 1) for c in self.coords):
            raise DomainError(f"signature coords must be six bits, got {self.coords}")

    def packed(self) -> int:
        value = 0
        for bit in self.coords:
            value = value << 1 | bit
        return value


_SIGNATURES = {
    SignatureFamily.FOLDED: (0, 0, 0, 0, 1, 1),
    SignatureFamily.WILLANS: (1, 1, 1, 0, 0, 0),
    SignatureFamily.MILLS: (0, 0, 1, 0, 0, 0),
}


def signature(family: SignatureFamily) -> SignatureVector:
    return SignatureVector(family=family, coords=_SIGNATURES[family])


def check_signature_separation() -> BoundsReport:
    """Pairwise-distinct fingerprints; folded and willans palettes disjoint.

    Violation rows: distinctness failures as (pair index, packed lhs, packed
    rhs); palette overlaps as (coordinate index, folded bit, willans bit).
    """
    folded = signature(SignatureFamily.FOLDED)
    willans = signature(SignatureFamily.WILLANS)
    mills = signature(SignatureFamily.MILLS)
    violations = []
    pairs = [(folded, willans), (folded, mills), (willans, mills)]
    for idx, (a, b) in enumerate(pairs):
        if a.coords == b.coords:
            violations.append((idx, float(a.packed()), float(b.packed())))
    for c, (a_bit, w_bit) in enumerate(zip(folded.coords, willans.coords)):
        if a_bit and w_bit:
            violations.append((c, float(a_bit), float(w_bit)))
    return BoundsReport("operator-signature-separation", (0, 2), tuple(violations))


def _log_ratio(x: int) -> float:
    """r(x) = (x+1) ln 2 - ln u_lin(x)."""
    return (x + 1) * math.log(2.0) - math.log(u_lin(x))


def check_schedule_divergence(x_max: int) -> BoundsReport:
    """r(x) = (x+1) ln 2 - ln u_lin(x) strictly increases for x >= 10.

    A finite sweep cannot certify a limit, so divergence is operationalized
    as strict monotonicity on [10, x_max] plus r(x_max) > r(10) + 10 once
    x_max >= 60.  min_slack is the smallest consecutive increase.
    """
    x_max = as_nat(x_max, "x_max")
    if x_max < DIVERGENCE_X_MIN:
        raise DomainError(f"check_schedule_divergence requires x_max >= 10, got {x_max}")
    r = [0.0] + [_log_ratio(x) for x in range(1, x_max + 1)]
    violations = []
    min_gap: Optional[float] = None
    for x in range(11, x_max + 1):
        gap = r[x] - r[x - 1]
        if gap <= 4 * math.ulp(r[x - 1]):
            violations.append((x, r[x], r[x - 1]))
        if min_gap is None or gap < min_gap:
            min_gap = gap
    if x_max >= 60 and r[x_max] - (r[10] + 10.0) <= 4 * math.ulp(r[10] + 10.0):
        violations.append((x_max, r[x_max], r[10] + 10.0))
    return BoundsReport("schedule-log-ratio-divergence", (1, x_max), tuple(violations), min_gap)


def check_minimality(x_max: int, table: Optional[SieveTable] = None) -> BoundsReport:
    """Both links of the schedule lower-bound chain on [5, x_max].

    For each x: p_{x+1} - 1 >= (x+1)(ln(x+1) + ln ln(x+1) - 1) - 1, and
    u_lin(x) >= p_{x+1} - 1.  min_slack is the smallest relative margin of
    the first (real-valued) link.
    """
    x_max = as_nat(x_max, "x_max")
    if x_max < 5:
        raise DomainError(f"check_minimality requires x_max >= 5, got {x_max}")
    if table is None:
        table = sieve_for_nth(x_max + 1)
    violations = []
    min_rel: Optional[float] = None
    for x in range(5, x_max + 1):
        p = table.nth_prime(x + 1)
        n = x + 1
        lower = p_lower(n) - 1.0
        lhs = float(p - 1)
        if lhs - lower <= 4 * math.ulp(lower):
            violations.append((x, lhs, lower))
        rel = (lhs - lower) / lower
        if min_rel is None or rel < min_rel:
            min_rel = rel
        if u_lin(x) < p - 1:
            violations.append((x, float(u_lin(x)), float(p - 1)))
    return BoundsReport("schedule-minimality-chain", (5, x_max), tuple(violations), min_rel)


def check_forward_count_axiom(
    x_max: int, table: Optional[SieveTable] = None
) -> BoundsReport:
    """Traced step sequences are {0,1}, nonincreasing, flipping at p_{x+1}.

    Violation rows: (x, observed flip index or offending value, expected).
    """
    x_max = as_nat(x_max, "x_max")
    if x_max > FORWARD_AXIOM_X_MAX:
        raise RangeError(
            f"check_forward_count_axiom is trace-backed; x_max <= {FORWARD_AXIOM_X_MAX}"
        )
    if table is None:
        table = sieve_for_nth(x_max + 1)
    violations = []
    for x in range(x_max + 1):
        record = trace(x, Schedule.LINLOG)
        p = table.nth_prime(x + 1)
        steps = record.steps
        off = steps[(steps != 0) & (steps != 1)]
        if off.size:
            violations.append((x, float(off[0]), 0.0))
        elif (steps[1:] > steps[:-1]).any():
            violations.append((x, -1.0, float(p)))
        elif not steps[: p - 1].all() or steps[p - 1 :].any() or record.flip_index != p:
            violations.append((x, float(record.flip_index), float(p)))
    return BoundsReport("forward-count-axiom", (0, x_max), tuple(violations))
