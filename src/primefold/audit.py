"""Instrumented re-execution with exact operation-count checks.

Counted runs re-evaluate the folded expression with no shortcut and no
store: the kernel that fills the store evaluates every divisor test and
tallies each row it evaluates.  Every k-range reaches j-1 and the i-loop
reaches the forced limit U.  `AuditRow.match` requires all six tallies:

    divisor tests:     (U-2)(U-1)U / 6 naive,  (U-2)(U-1) / 2 incremental
    additions:         (U+1)^2 naive,          5U incremental
    indicator floors:  U(U-1) / 2 naive,       U - 1 incremental
    step floors:       2U; inner-test floors: the tests (gcd), 2x them (delta)

`core.admit` checks the tests summed over a run's rows before the first scan.
Tally conventions: one gcd call and one floor per gcd divisor test; one
delta evaluation and two floors per gcd-free divisor test; the additions
tally covers the fold's own + sites (indicator's 1+sum, prefix update,
step's x+1 and 1+q, outer accumulation, final 1+sum) while the sum over
k inside a divisor scan belongs to the divisor-test tally.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import comb
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import IndicatorVariant, _indicators, _steps, admit
from .core import closed_form_incremental, closed_form_naive  # also exported from here
from .enumerator import EvalMode
from .nat import DomainError, as_nat, checked_add
from .oracle import SieveTable, build_sieve


@dataclass
class OpCounts:
    """Mutable tally context for one counted run."""

    gcd_calls: int = 0
    delta_calls: int = 0
    inner_test_floors: int = 0
    indicator_floors: int = 0
    step_floors: int = 0
    additions: int = 0

    @property
    def divisor_tests(self) -> int:
        return self.gcd_calls + self.delta_calls

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AuditRow:
    """One (U, mode) audit: measured tallies vs. the predicted closed form."""

    u: int
    mode: EvalMode
    variant: IndicatorVariant
    measured: OpCounts
    predicted_gcd: int
    match: bool = field(init=False)

    def __post_init__(self):
        u, tests, naive = self.u, self.predicted_gcd, self.mode is EvalMode.NAIVE
        gcd = self.variant is IndicatorVariant.GCD
        predicted = OpCounts(
            gcd_calls=tests if gcd else 0, delta_calls=0 if gcd else tests,
            inner_test_floors=tests if gcd else 2 * tests,
            indicator_floors=u * (u - 1) // 2 if naive else u - 1,
            step_floors=2 * u, additions=(u + 1) ** 2 if naive else 5 * u,
        )
        object.__setattr__(self, "match", self.measured == predicted)

    def to_dict(self) -> dict:
        return {**asdict(self), "mode": self.mode.value, "variant": self.variant.value}


def summed_tests(u_min: int, u_max: int, mode: EvalMode) -> int:
    """Divisor tests of the rows U = u_min..u_max of one mode, exactly.

    Row U runs C(U-1, 2) tests incremental and C(U, 3) naive, so the rows
    U = 2..b sum to C(b, 3) and C(b+1, 4) (the hockey-stick identity).
    """
    k = 3 if mode is EvalMode.INCREMENTAL else 4
    return comb(u_max + k - 3, k) - comb(u_min + k - 4, k)


def run_counted(
    x: int,
    u_override: int,
    mode: EvalMode = EvalMode.INCREMENTAL,
    variant: IndicatorVariant = IndicatorVariant.GCD,
) -> Tuple[int, OpCounts]:
    """Evaluate with the schedule forced to the constant `u_override`, counting.

    Returns (enumerator value, measured tallies).  Full loops, no caching,
    no early exit of any kind.
    """
    x = as_nat(x, "x")
    u_override = as_nat(u_override, "u_override")
    if u_override < 1:
        raise DomainError(f"run_counted requires U >= 1, got {u_override}")
    admit(summed_tests(u_override, u_override, mode), f"a {mode.value} run at U = {u_override}")
    counter = OpCounts()
    if mode is EvalMode.INCREMENTAL:  # one scan of I(2..U); S carries over, one update per i
        prefixes = np.cumsum([0, *_indicators(2, u_override, variant, counter)])
        counter.additions += u_override
    else:  # every i re-scans I(2..i) and re-sums S(i) from scratch
        prefixes = [_indicators(2, i, variant, counter).sum() for i in range(1, u_override + 1)]
        counter.additions += u_override * (u_override - 1) // 2  # i - 1 per S(i)
    total = int(_steps(np.array(prefixes, np.uint64), x, counter).sum())  # uint64 holds any x + 1
    counter.additions += u_override + 1  # the outer sum's U accumulations and its final 1 + sum
    return checked_add(1, total), counter


def admit_audit(
    u_min: int, u_max: int, modes: Sequence[EvalMode] = (EvalMode.NAIVE, EvalMode.INCREMENTAL)
) -> Tuple[int, int]:
    """Check the range [u_min, u_max] and admit its audit under `modes`; no scan runs."""
    u_min = as_nat(u_min, "u_min")
    u_max = as_nat(u_max, "u_max")
    if not 2 <= u_min <= u_max:
        raise DomainError(f"audit_range requires 2 <= u_min <= u_max, got [{u_min}, {u_max}]")
    admit(sum(summed_tests(u_min, u_max, m) for m in modes), f"audit of U in [{u_min}, {u_max}]")
    return u_min, u_max


def audit_range(
    u_min: int,
    u_max: int,
    modes: Sequence[EvalMode] = (EvalMode.NAIVE, EvalMode.INCREMENTAL),
    variant: IndicatorVariant = IndicatorVariant.GCD,
    table: Optional[SieveTable] = None,
) -> Tuple[AuditRow, ...]:
    """Audit every U in [u_min, u_max] under the given modes.

    x is pinned to pi(U) so the step never flips inside [1, U] and the
    closed forms apply to full loops.
    """
    u_min, u_max = admit_audit(u_min, u_max, modes)
    if table is None or table.limit < u_max:
        table = build_sieve(max(u_max, 2))
    rows = []
    for u in range(u_min, u_max + 1):
        x = table.pi(u)
        for mode in modes:
            _, measured = run_counted(x, u, mode, variant)
            form = closed_form_naive if mode is EvalMode.NAIVE else closed_form_incremental
            rows.append(AuditRow(u, mode, variant, measured, predicted_gcd=form(u)))
    return tuple(rows)
