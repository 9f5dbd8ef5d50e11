"""Non-synonymy and minimality checks at desk scale.

Fixed six-bit operator-palette fingerprints and schedule growth separate three
enumerator families: the Willans limit 2^(x+1) outgrows u_lin, tested as strict
growth of r(x) = (x+1) ln 2 - ln u_lin(x) plus a concrete gap.  The lower bound
U(x) >= p_{x+1} - 1 >= (x+1)(ln(x+1) + ln ln(x+1) - 1) - 1 (x >= 5) of any
forward-count enumerator is checked against the sieve.  Both checks sweep x in
the blocks of schedules' grid, and the axiom is checked against each trace's
step array.  A float margin within 4 ulps of its bound counts as a violation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import prefix_count
from .enumerator import trace
from .nat import DomainError, RangeError, as_nat
from .oracle import SieveTable, sieve_for_nth  # perfbench/traced.py wraps it here by name
from .reports import BoundsReport
from .schedules import Schedule, _blocks, _Claim, _lin_bound, _lin_limits, _log, p_lower, u_lin

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


def _log_ratios(xs):
    """r(x) = (x+1) ln 2 - ln u_lin(x) for each x of a block."""
    return (xs + 1) * math.log(2.0) - _log(_lin_limits(_lin_bound(xs)))


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
    r = _log_ratios(np.array([DIVERGENCE_X_MIN]))
    r10 = float(r[0])
    for xs in _blocks(DIVERGENCE_X_MIN + 1, x_max):
        r = np.concatenate((r[-1:], _log_ratios(xs)))  # carries the previous block's last r(x)
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
    for xs in _blocks(5, x_max):
        need = primes[xs[0] : xs[-1] + 1] - 1
        lower = p_lower(xs + 1) - 1.0
        limits = _lin_limits(_lin_bound(xs))
        margin = need - lower
        claim.add(np.repeat(xs, 2), np.ravel((need, limits), "F"), np.ravel((lower, need), "F"),
                  margin / lower, np.ravel((margin <= 4 * np.spacing(lower), limits < need), "F"))
    return claim.report()


def check_forward_count_axiom(x_max: int, table: SieveTable) -> BoundsReport:
    """Traced step sequences are {0,1}, nonincreasing, flipping at p_{x+1}.

    Violation rows: (x, observed flip index or offending value, expected).
    """
    x_max = as_nat(x_max, "x_max")
    if x_max > FORWARD_AXIOM_X_MAX:
        raise RangeError(
            f"check_forward_count_axiom is trace-backed; x_max <= {FORWARD_AXIOM_X_MAX}"
        )
    primes = table.first(x_max + 1)  # a short table raises RangeError before any scan
    prefix_count(u_lin(x_max))  # one wide scan fills the store; every trace below reads it
    violations = []
    for x in range(x_max + 1):
        record = trace(x, Schedule.LINLOG)
        p = int(primes[x])
        steps = record.steps
        off = steps[(steps != 0) & (steps != 1)]
        if off.size:
            violations.append((x, float(off[0]), 0.0))
        elif (steps[1:] > steps[:-1]).any():
            violations.append((x, -1.0, float(p)))
        elif not steps[: p - 1].all() or steps[p - 1 :].any() or record.flip_index != p:
            violations.append((x, float(record.flip_index), float(p)))
    return BoundsReport("forward-count-axiom", (0, x_max), tuple(violations))
