"""The folded prime enumerator: f(x) = 1 + sum_{i=1}^{U(x)} A(i, x) = p_{x+1}.

Because S(i) = pi(i) is nondecreasing, the step A(i, x) = 1{pi(i) <= x} is a
nonincreasing {0,1} sequence that flips exactly at i = p_{x+1}.  With any
valid schedule (U(x) >= p_{x+1} - 1) the sum therefore counts p_{x+1} - 1
ones.  `evaluate` exploits the flip: it scans no j past p_{x+1}, since every
term past it is zero.  Audited runs (see `audit`) and `trace` always sweep
the full range.

From x = 5 on, `evaluate` fills the core store in one wide scan up to
floor(p_lower(x+1)) < p_{x+1} (Dusart's bound).  While S(n) <= x it then adds
the next x + 1 - S(n) j's: S rises by at most 1 per j and S(p_{x+1}) = x + 1,
so no fill passes the flip, and a cold store ends at n = p_{x+1}.  One fold
then runs over i in [1, min(U, n)].  The modes differ only in S(i):

* INCREMENTAL takes every S(i) from one running sum of the I's,
* NAIVE re-sums I(2..i) from scratch for every i, one numpy sum each
  (the triple-nested reading; cubic in the limit).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Tuple

import numpy as np

from .core import IndicatorVariant, _fill, _fold, _steps, admit, closed_form_incremental
from .nat import DomainError, as_nat
from .oracle import sieve_for_nth
from .schedules import Schedule, p_lower, schedule_limit, u_lin


class EvalMode(enum.Enum):
    NAIVE = "naive"
    INCREMENTAL = "incremental"


class TraceRow(NamedTuple):
    i: int
    indicator: int
    prefix: int
    step: int


class TraceRecord(NamedTuple):
    """Per-i breakdown of one enumerator run: I(i), S(i) and A(i, x) as arrays over i = 1..limit."""

    x: int
    schedule_used: Schedule
    limit: int
    indicators: np.ndarray
    prefix: np.ndarray
    steps: np.ndarray
    result: int
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__  # by identity

    @property
    def rows(self) -> Tuple[TraceRow, ...]:
        """One (i, I(i), S(i), A(i, x)) row per i."""
        arrays = (self.indicators.tolist(), self.prefix.tolist(), self.steps.tolist())
        return tuple(map(TraceRow, range(1, self.limit + 1), *arrays))

    @property
    def flip_index(self) -> int:
        """First i with step 0, or limit + 1 when every row steps 1."""
        zero = self.steps == 0
        return int(zero.argmax()) + 1 if zero.any() else self.limit + 1


class PostconditionError(RuntimeError):
    """A computed result failed a check that must hold for every valid input."""


def evaluate(
    x: int,
    schedule: Schedule = Schedule.LINLOG,
    mode: EvalMode = EvalMode.INCREMENTAL,
    variant: IndicatorVariant = IndicatorVariant.GCD,
) -> int:
    """f(x) = p_{x+1}.  Output is identical across schedules, modes, variants.

    The Willans schedule is accepted for x <= 62 (its limit must be exactly
    representable) but is only a comparison baseline, never the default.
    """
    x = as_nat(x, "x")
    limit = schedule_limit(schedule, x)
    # the flip p_{x+1} <= u_lin(x) (Rosser-Schoenfeld) ends the scan
    admit(closed_form_incremental(max(min(limit, u_lin(x)), 2)), f"evaluating x = {x}")
    ind = _fill(variant, min(int(p_lower(x + 1)), limit) if x >= 5 else 1)  # Dusart's floor < flip
    while ind.size <= limit and _steps(s := int(ind.sum(dtype=np.int64)), x):  # A(n, x) = 1
        ind = _fill(variant, min(ind.size + x - s, limit))  # n + x + 1 - S(n) <= the flip
    hi = min(limit, ind.size - 1)
    if mode is EvalMode.NAIVE:
        prefix = np.array([ind[2 : i + 1].sum(dtype=np.int64) for i in range(1, hi + 1)])
    else:
        prefix = np.cumsum(ind[1 : hi + 1], dtype=np.int64)
    return _fold(prefix, x)[0]  # every term past the flip is 0


def trace(x: int, schedule: Schedule = Schedule.LINLOG) -> TraceRecord:
    """Full per-i breakdown (I, S, A) over i = 1..U(x); no truncation."""
    x = as_nat(x, "x")
    limit = schedule_limit(schedule, x)
    admit(closed_form_incremental(max(limit, 2)), f"tracing x = {x} to U = {limit}")
    ind = _fill(IndicatorVariant.GCD, limit)[1 : limit + 1].copy()  # not a view of the store
    prefix = np.cumsum(ind, dtype=np.int64)
    result, a = _fold(prefix, x)
    return TraceRecord(x, schedule, limit, ind, prefix, a, result)


def record_lift(L: int, schedule: Schedule = Schedule.LINLOG) -> int:
    """For fixed L >= 2, the certified prime P* = f(L) = p_{L+1} > L."""
    L = as_nat(L, "L")
    if L < 2:
        raise DomainError(f"record_lift requires L >= 2, got {L}")
    p_star = evaluate(L, schedule, EvalMode.INCREMENTAL, IndicatorVariant.GCD)
    table = sieve_for_nth(L + 1)
    if not (table.is_prime(p_star) and p_star > L):
        raise PostconditionError(f"record-lift postcondition failed at L={L}: got {p_star}")
    return p_star
