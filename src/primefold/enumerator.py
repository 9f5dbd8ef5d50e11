"""The folded prime enumerator: f(x) = 1 + sum_{i=1}^{U(x)} A(i, x) = p_{x+1}.

Because S(i) = pi(i) is nondecreasing, the step A(i, x) = 1{pi(i) <= x} is a
nonincreasing {0,1} sequence that flips exactly at i = p_{x+1}.  With any
valid schedule (U(x) >= p_{x+1} - 1) the sum therefore counts p_{x+1} - 1
ones.  `evaluate` exploits the flip: it scans the store no further than the
block that holds it, since every term past it is zero.  Audited runs (see
`audit`) and `trace` always sweep the full range.

From x = 5 on, `evaluate` fills the core store in one wide scan up to
floor(p_lower(x+1)) < p_{x+1} (Dusart's bound), then a block at a time until
the store holds the flip; then one fold runs over i in [1, min(U, n)].  The
modes differ only in S(i):

* INCREMENTAL reads the carried S(i),
* NAIVE re-sums I(2..i) from scratch for every i, one numpy sum each
  (the triple-nested reading; cubic in the limit).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Tuple

import numpy as np

from .core import _STORES, IndicatorVariant, _steps, admit, closed_form_incremental
from .nat import DomainError, as_nat, checked_add
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


@dataclass(frozen=True, eq=False)
class TraceRecord:
    """Per-i breakdown of one enumerator run: I(i), S(i) and A(i, x) as arrays over i = 1..limit."""

    x: int
    schedule_used: Schedule
    limit: int
    indicators: np.ndarray = field(repr=False)
    prefix: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)
    result: int

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
    store = _STORES[variant]
    if x >= 5:  # one wide scan up to Dusart's floor, which lies before the flip p_{x+1}
        store.fill(min(int(p_lower(x + 1)), limit))
    while store.n < limit and _steps(store.pre[store.n], x):  # A(n, x) = 1: the flip lies past n
        store.grow()
    hi = min(limit, store.n)
    if mode is EvalMode.NAIVE:
        prefix = np.array([store.ind[2 : i + 1].sum() for i in range(1, hi + 1)])
    else:
        prefix = store.pre[1 : hi + 1]
    return checked_add(1, int(_steps(prefix, x).sum()))  # every term past the flip is 0


def trace(x: int, schedule: Schedule = Schedule.LINLOG) -> TraceRecord:
    """Full per-i breakdown (I, S, A) over i = 1..U(x); no truncation."""
    x = as_nat(x, "x")
    limit = schedule_limit(schedule, x)
    admit(closed_form_incremental(max(limit, 2)), f"tracing x = {x} to U = {limit}")
    store = _STORES[IndicatorVariant.GCD]
    store.fill(limit)
    ind, prefix = store.ind[1 : limit + 1].copy(), store.pre[1 : limit + 1].copy()  # not views
    a = _steps(prefix, x)
    return TraceRecord(x, schedule, limit, ind, prefix, a, checked_add(1, int(a.sum())))


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
