"""Instrumented re-execution with exact operation-count checks.

Counted runs re-evaluate the folded expression with no shortcut and no
store.  A naive run at U evaluates the scans I(2..i) of i = 1..U, an
incremental one the scan of i = U.  Consecutive runs of one audit, naive or
incremental, pool their scans into one `_counted_scans` call, a k-major scan
by the kernel that fills the store, while their scans hold at most
`core._BLOCK_ELEMENTS` elements together: the kernel's one size bound also
sizes every counted scan.  Runs never share a scan.  Each scan's divisor
tests are tallied per j from the rows the kernel returns as run, and its
floors from the elements floored.  A run's tallies and `AuditRow`'s
closed-form prediction both come from `OpCounts.of`, which holds the tally
conventions; `AuditRow.match` requires all six.  `core.admit` checks the
tests summed over a run's rows before the first scan.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from . import core  # the kernel and its size bound, looked up at each call
from .core import IndicatorVariant, _fold, admit
from .core import closed_form_incremental, closed_form_naive  # also exported from here
from .enumerator import EvalMode
from .nat import DomainError, as_nat
from .oracle import build_sieve


class OpCounts(NamedTuple):
    """The tallies of one counted run at U, measured or predicted: `of` builds both.

    A gcd divisor test is one gcd call and one floor, a gcd-free one a delta evaluation and
    two floors, and a step two floors.  The additions are the fold's own + sites (each I's
    1+sum, the S updates, each step's x+1 and 1+q, the outer sum and its final 1+sum); the
    sum over k inside a scan belongs to the divisor tests.  Every k-range reaches j-1 and
    the i-loop reaches the forced limit U, so a run at U predicts:

        divisor tests:     (U-2)(U-1)U / 6 naive,  (U-2)(U-1) / 2 incremental
        additions:         (U+1)^2 naive,          5U incremental
        indicator floors:  U(U-1) / 2 naive,       U - 1 incremental
        step floors:       2U; inner-test floors: the tests (gcd), 2x them (delta)
    """

    gcd_calls: int = 0
    delta_calls: int = 0
    inner_test_floors: int = 0
    indicator_floors: int = 0
    step_floors: int = 0
    additions: int = 0

    @classmethod
    def of(cls, variant: IndicatorVariant, tests: int, indicator_floors: int, additions: int,
           u: int) -> "OpCounts":
        """The tallies of a run at U = `u` whose `tests` divisor tests were of `variant`."""
        gcd = variant is IndicatorVariant.GCD
        return cls(gcd_calls=tests if gcd else 0, delta_calls=0 if gcd else tests,
                   inner_test_floors=tests if gcd else 2 * tests,
                   indicator_floors=indicator_floors, step_floors=2 * u, additions=additions)

    @property
    def divisor_tests(self) -> int:
        return self.gcd_calls + self.delta_calls

    def to_dict(self) -> dict:
        return self._asdict()  # the six tallies, in field order


class AuditRow(NamedTuple):
    """One (U, mode) audit: measured tallies vs. the predicted closed form."""

    u: int
    mode: EvalMode
    variant: IndicatorVariant
    measured: OpCounts
    predicted_gcd: int

    @property
    def match(self) -> bool:
        u, naive = self.u, self.mode is EvalMode.NAIVE
        floors, additions = (u * (u - 1) // 2, (u + 1) ** 2) if naive else (u - 1, 5 * u)
        return self.measured == OpCounts.of(self.variant, self.predicted_gcd, floors, additions, u)

    def to_dict(self) -> dict:
        return {"u": self.u, "mode": self.mode.value, "variant": self.variant.value,
                "measured": self.measured.to_dict(), "predicted_gcd": self.predicted_gcd,
                "match": self.match}


def summed_tests(u_min: int, u_max: int, mode: EvalMode) -> int:
    """Divisor tests of the rows U = u_min..u_max of one mode, exactly.

    Row U runs C(U-1, 2) tests incremental and C(U, 3) naive, so the rows
    U = 2..b sum to C(b, 3) and C(b+1, 4) (the hockey-stick identity).
    """
    k = 3 if mode is EvalMode.INCREMENTAL else 4
    return comb(u_max + k - 3, k) - comb(u_min + k - 4, k)


def _counted_fold(x: int, prefixes, variant: IndicatorVariant, tests: int, floors: int,
                  resums: int):
    """(value, tallies) of a counted run: its scans ran `tests` divisor tests and `floors`
    indicator floors, its S(1..U) = `prefixes` took `resums` additions, and it folds them at x."""
    value, steps = _fold(prefixes, x)  # uint64 holds any x + 1
    # each I's 1 + sum, the S's, each step's x+1 and 1+q, the outer sum's U + and its 1 + sum
    return value, OpCounts.of(variant, tests, floors, floors + resums + 3 * steps.size + 1,
                              steps.size)


def _counted_scans(ends, variant: IndicatorVariant):
    """The scans I(2..i) of each i >= 1 in the uint32 array `ends`, as one counted k-major scan.

    Its vector holds each j = 2..max(ends) once per scan that reaches it, j-major, so row k
    tests each scan's own (k, j) pairs; no row reaches j = 2, so I(2) = 1 // (1 + 0).
    Returns the I's as a table (row r for ends[r], column j, 0 past i) and, per scan, its
    divisor tests and indicator floors.  A row that ran from start s tests the elements
    [s, N): every element of each j >= js[s], so a scan's tests are the rows that ran summed
    over its j's, and its floors are the elements floored.
    """
    j = np.arange(int(ends.max()) + 1, dtype=np.uint32)[:, None]
    holds = (j >= 2) & (j <= ends)  # [j, scan]
    js = np.broadcast_to(j, holds.shape)[holds]  # j-major: ascending
    hits, ran = core._k_major(js, variant)
    ind = np.zeros(holds.shape, np.uint8)
    ind[holds] = np.floor_divide(1, np.add(hits, 1, out=hits), out=hits)
    rows = np.cumsum(np.bincount(js[np.array(ran, np.intp)], minlength=j.size))  # per j
    return ind.T, np.cumsum(rows)[ends], holds.sum(axis=0)  # tests: rows summed over j <= i


def _counted_runs(xs: Sequence[int], u_min: int, u_max: int, mode: EvalMode,
                  variant: IndicatorVariant) -> list:
    """(value, tallies) of the counted run at each U = u_min..u_max, x = xs[U - u_min].

    Run U evaluates the scans I(2..i) of i = 1..U naive and of i = U incremental.  Consecutive
    runs share one `_counted_scans` call while their scans hold at most core._BLOCK_ELEMENTS
    elements together (a run over it alone is a call of its own); runs never share a scan.
    """
    naive = mode is EvalMode.NAIVE
    ends = [np.arange(1 if naive else u, u + 1, dtype=np.uint32) for u in range(u_min, u_max + 1)]
    sizes = [int(e.sum()) - e.size for e in ends]  # scan i holds j = 2..i
    runs, start = [], 0
    while start < len(ends):
        stop, held = start + 1, sizes[start]
        while stop < len(ends) and held + sizes[stop] <= core._BLOCK_ELEMENTS:
            held, stop = held + sizes[stop], stop + 1
        ind, tests, floors = _counted_scans(np.concatenate(ends[start:stop]), variant)
        first = 0
        for u_ends, x in zip(ends[start:stop], xs[start:stop]):
            scans = slice(first, first + u_ends.size)
            first = scans.stop
            floored = int(floors[scans].sum())
            if naive:  # run U re-sums each S(i) from its own scan's I's, one + per I
                prefixes, resums = ind[scans].sum(axis=1, dtype=np.uint64), floored
            else:  # run U scans I(2..U) once; S carries over, one + per i
                prefixes = np.cumsum(ind[scans.start, 1 : u_ends[0] + 1], dtype=np.uint64)
                resums = prefixes.size
            runs.append(_counted_fold(x, prefixes, variant, int(tests[scans].sum()), floored,
                                      resums))
        start = stop
    return runs


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
    return _counted_runs([x], u_override, u_override, mode, variant)[0]


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
) -> Tuple[AuditRow, ...]:
    """Audit every U in [u_min, u_max] under the given modes.

    x is pinned to pi(U), so every step over i in [1, U] is 1 and each run's
    value is U + 1.
    """
    u_min, u_max = admit_audit(u_min, u_max, modes)
    table = build_sieve(u_max)
    us = range(u_min, u_max + 1)
    runs = {mode: _counted_runs([table.pi(u) for u in us], u_min, u_max, mode, variant)
            for mode in modes}
    form = {EvalMode.NAIVE: closed_form_naive, EvalMode.INCREMENTAL: closed_form_incremental}
    return tuple(AuditRow(u, mode, variant, runs[mode][r][1], predicted_gcd=form[mode](u))
                 for r, u in enumerate(us) for mode in modes)
