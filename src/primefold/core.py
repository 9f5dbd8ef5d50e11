"""Arithmetic building blocks of the folded prime enumerator.

Three {0,1}-valued expressions built from additions, floor divisions, sums
and gcd, evaluated exactly as written (no boolean shortcuts for the floors):

    hit(k, j)  = floor(gcd(k, j) / k)                      divisor test
    delta(j,k) = floor(j / k) - floor((j - 1) / k)         gcd-free divisor test
    I(j)       = floor(1 / (1 + sum_{k=2}^{j-1} hit))      prime indicator
    S(i)       = sum_{j=2}^{i} I(j)                        prefix count = pi(i)
    A(s, x)    = floor(1 / (1 + floor(s / (x + 1))))       step, 1 iff s <= x

Both divisor tests equal 1 exactly when k divides j, so the indicator's
inner sum counts proper divisors and I(j) = 1 iff j is prime.

Two execution paths compute identical values:

* uncounted runs read a per-variant store of I(j) (int8) and S(j) (int64),
  filled by one numpy k-scan kernel: the same gcd/floor expression per
  element, in int32 below j = 2^31, chunked at _CHUNK k's.  `prefix_count(i)`
  scans exactly the j <= i the store lacks; `_Store.grow` scans one block of
  at most about _BLOCK_TESTS divisor tests, which bounds any scan past a flip;
* when an `OpCounts` tally is passed via `counter`, a plain uncached loop
  runs instead and every gcd call and floor division is tallied at its
  site.  Counted runs never short-circuit; the k-loop always reaches j-1.
"""

from __future__ import annotations

import enum
from math import gcd
from typing import TYPE_CHECKING, Dict

import numpy as np

from .nat import DomainError, as_nat, checked_add

if TYPE_CHECKING:  # pragma: no cover
    from .audit import OpCounts

_CHUNK = 1 << 20
_BLOCK_TESTS = 1 << 16


class IndicatorVariant(enum.Enum):
    """Which divisor test drives the prime indicator."""

    GCD = "gcd"
    DELTA = "delta"


def divisor_hit(k: int, j: int) -> int:
    """floor(gcd(k, j) / k) for 2 <= k <= j-1; equals 1 iff k divides j."""
    k = as_nat(k, "k")
    j = as_nat(j, "j")
    if not 2 <= k <= j - 1:
        raise DomainError(f"divisor_hit requires 2 <= k <= j-1, got k={k}, j={j}")
    return gcd(k, j) // k


def delta(j: int, k: int) -> int:
    """floor(j/k) - floor((j-1)/k) for j >= 2, 2 <= k <= j-1; 1 iff k | j."""
    j = as_nat(j, "j")
    k = as_nat(k, "k")
    if j < 2 or not 2 <= k <= j - 1:
        raise DomainError(f"delta requires j >= 2 and 2 <= k <= j-1, got j={j}, k={k}")
    return j // k - (j - 1) // k


# dtype -> rows (k = 2, 3, ... base; shifted k; two outputs), reused by every scan
_BUFFERS = {dtype: np.empty((4, 0), dtype) for dtype in (np.int32, np.int64)}


def _scan_hits(j: int, variant: IndicatorVariant) -> int:
    """sum_{k=2}^{j-1} of the variant's divisor test, every element evaluated."""
    dtype = np.int32 if j < 2**31 else np.int64
    rows = _BUFFERS[dtype]
    if rows.shape[1] < min(j - 2, _CHUNK):
        rows = _BUFFERS[dtype] = np.empty((4, min(max(j - 2, 2 * rows.shape[1]), _CHUNK)), dtype)
        rows[0] = np.arange(2, 2 + rows.shape[1])
    total = 0
    for lo in range(2, j, _CHUNK):
        base, ks, a, b = rows[:, : min(j - lo, _CHUNK)]
        ks = base if lo == 2 else np.add(base, lo - 2, out=ks)
        if variant is IndicatorVariant.GCD:
            np.floor_divide(np.gcd(ks, j, out=a), ks, out=a)
        else:
            np.subtract(np.floor_divide(j, ks, out=a), np.floor_divide(j - 1, ks, out=b), out=a)
        total += int(a.sum())
    return total


def _scan_hits_counted(j: int, variant: IndicatorVariant, counter: "OpCounts") -> int:
    # accumulator updates here belong to the divisor-test tally, not the
    # additions tally (see audit.OpCounts)
    total = 0
    calls = 0
    if variant is IndicatorVariant.GCD:
        for k in range(2, j):
            total += gcd(k, j) // k
            calls += 1
        counter.gcd_calls += calls
        counter.inner_test_floors += calls
    else:
        jm1 = j - 1
        for k in range(2, j):
            total += j // k - jm1 // k
            calls += 1
        counter.delta_calls += calls
        counter.inner_test_floors += 2 * calls
    return total


class _Store:
    """I(j) and S(j) of one variant for every j <= n; slots 0 and 1 hold 0."""

    def __init__(self, variant: IndicatorVariant) -> None:
        self.variant = variant
        self.n = 1
        self.ind = np.zeros(64, np.int8)
        self.pre = np.zeros(64, np.int64)

    def fill(self, m: int) -> None:
        """Scan every j in (n, m] into the store, doubling its capacity as needed."""
        lo = self.n + 1
        if m < lo:
            return
        if m >= self.ind.size:
            cap = max(m + 1, 2 * self.ind.size)
            self.ind, self.pre = (np.pad(a, (0, cap - a.size)) for a in (self.ind, self.pre))
        for j in range(lo, m + 1):
            self.ind[j] = 1 // (1 + _scan_hits(j, self.variant))
        self.pre[lo : m + 1] = self.pre[self.n] + np.cumsum(self.ind[lo : m + 1], dtype=np.int64)
        self.n = m

    def grow(self) -> None:
        """Scan the next j's past n: at most _BLOCK_TESTS divisor tests, at least one j."""
        m, tests = self.n + 1, self.n - 1
        while tests + m - 1 <= _BLOCK_TESTS:  # j = m + 1 runs m - 1 tests
            m, tests = m + 1, tests + m - 1
        self.fill(m)


_STORES: Dict[IndicatorVariant, _Store] = {}


def _reset_stores() -> None:
    _STORES.update((variant, _Store(variant)) for variant in IndicatorVariant)


_reset_stores()


def indicator(
    j: int,
    variant: IndicatorVariant = IndicatorVariant.GCD,
    *,
    counter: "OpCounts | None" = None,
) -> int:
    """Prime indicator floor(1 / (1 + sum of divisor hits)); 1 iff j prime.

    `counter` routes the evaluation through the uncached scalar loop and
    tallies every operation.
    """
    j = as_nat(j, "j")
    if j < 2:
        raise DomainError(f"indicator requires j >= 2, got {j}")
    if counter is not None:
        hits = _scan_hits_counted(j, variant, counter)
        value = 1 // (1 + hits)
        counter.indicator_floors += 1
        counter.additions += 1
        return value
    store = _STORES[variant]
    if j == store.n + 1:  # the next j costs the same scan stored or not
        store.fill(j)
    if j <= store.n:
        return int(store.ind[j])
    return 1 // (1 + _scan_hits(j, variant))


def prefix_count(i: int, variant: IndicatorVariant = IndicatorVariant.GCD) -> int:
    """S(i) = sum_{j=2}^{i} I(j) for i >= 1; equals pi(i).  Empty sum at i=1."""
    i = as_nat(i, "i")
    if i < 1:
        raise DomainError(f"prefix_count requires i >= 1, got {i}")
    store = _STORES[variant]
    store.fill(i)
    return int(store.pre[i])


def step(s: int, x: int, *, counter: "OpCounts | None" = None) -> int:
    """Folded step floor(1 / (1 + floor(s / (x+1)))); equals 1 iff s <= x."""
    s = as_nat(s, "s")
    x = as_nat(x, "x")
    q = s // checked_add(x, 1)
    a = 1 // checked_add(1, q)
    if counter is not None:
        counter.step_floors += 2
        counter.additions += 2
    return a
