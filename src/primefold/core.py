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

One numpy k-scan kernel, `_scan_hits`, evaluates every divisor test: j's up
to _SMALL_J as one pass over their (k, j) pairs, larger j's in uint32.  A
wide slice of those (lo' <= hi // 2) runs k-major, one row per k with the
j's as the vector, so each numpy call divides by one scalar; a narrower one
runs j-major, one row per j over k = 2, 3, ... in chunks of _CHUNK k's.
Given an `OpCounts` via `counter`, it reads no store and tallies every row it
evaluates.  Uncounted runs read a per-variant store of I(j) (int8) and S(j)
(int64) that the kernel fills: `_Store.fill(m)` scans exactly the j <= m the
store lacks, so `prefix_count(i)` scans no j past i.
Entry points, store fills and single-j scans first pass their count of
divisor tests to `admit`, which raises a RangeError over MAX_DIVISOR_TESTS.
"""

from __future__ import annotations

import enum
from math import gcd
from typing import TYPE_CHECKING, Dict

import numpy as np

from .nat import DomainError, RangeError, as_nat, checked_add, checked_mul

if TYPE_CHECKING:  # pragma: no cover
    from .audit import OpCounts

_CHUNK = 1 << 20  # k's per j-major row: bounds a single-j scan's memory
_SMALL_J = 256  # j's up to here scan as one pass over their (k, j) pairs
MAX_DIVISOR_TESTS = 1_331_334_000  # closed_form_naive(2000)


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


def closed_form_naive(u: int) -> int:
    """(U-2)(U-1)U / 6, exactly (three consecutive integers divide by 6)."""
    u = as_nat(u, "u")
    if u < 2:
        raise DomainError(f"closed_form_naive requires U >= 2, got {u}")
    return checked_mul(checked_mul(u - 2, u - 1), u) // 6


def closed_form_incremental(u: int) -> int:
    """(U-2)(U-1) / 2, exactly."""
    u = as_nat(u, "u")
    if u < 2:
        raise DomainError(f"closed_form_incremental requires U >= 2, got {u}")
    return checked_mul(u - 2, u - 1) // 2


def admit(tests: int, what: str) -> None:
    """Raise RangeError if `what`, predicted to run `tests` divisor tests, is over budget."""
    if tests > MAX_DIVISOR_TESTS:
        raise RangeError(f"{what} predicts {tests} divisor tests (budget {MAX_DIVISOR_TESTS})")


_PAIRS = None  # rows k, j and two outputs of the (k, j) pairs of j = 3.._SMALL_J, j-major


def _offset(j):
    """Index of j's first pair in _PAIRS: sum_{i=3}^{j-1} (i - 2)."""
    return (j - 3) * (j - 2) // 2


def _divisor_tests(ks, js, a, b, variant: IndicatorVariant, counter: "OpCounts | None"):
    """The variant's divisor test of every (k, j) element into `a` (`b` is scratch)."""
    gcd_test = variant is IndicatorVariant.GCD
    if gcd_test:
        np.floor_divide(np.gcd(ks, js, out=a), ks, out=a)
    else:
        np.subtract(np.floor_divide(js, ks, out=a), np.floor_divide(js - 1, ks, out=b), out=a)
    if counter is not None:  # the sum over k belongs to this tally too (see audit.OpCounts)
        counter.gcd_calls += a.size if gcd_test else 0
        counter.delta_calls += 0 if gcd_test else a.size
        counter.inner_test_floors += a.size if gcd_test else 2 * a.size
    return a


def _scan_hits(lo: int, hi: int, variant: IndicatorVariant, counter: "OpCounts | None" = None):
    """sum_{k=2}^{j-1} of the divisor test for every j in [lo, hi]; every element evaluated."""
    global _PAIRS
    hits = np.zeros(max(hi - lo + 1, 0), np.int64)
    first, last = max(lo, 3), min(hi, _SMALL_J)  # j = 2 has no k
    if first <= last:
        if _PAIRS is None or _PAIRS.shape[1] < _offset(last + 1):
            js = np.arange(3, _SMALL_J + 1, dtype=np.int32)
            ks = np.concatenate([np.arange(2, j, dtype=np.int32) for j in js])
            _PAIRS = np.stack([ks, np.repeat(js, js - 2), ks, ks])
        ks, js, a, b = _PAIRS[:, _offset(first) : _offset(last + 1)]
        tests = _divisor_tests(ks, js, a, b, variant, counter)
        starts = _offset(np.arange(first, last + 1)) - _offset(first)
        hits[first - lo : last - lo + 1] = np.add.reduceat(tests, starts)
    first = max(lo, _SMALL_J + 1)
    if first <= hi // 2:  # k-major: one row per k, the j's as the vector
        js = np.arange(first, hi + 1, dtype=np.uint32)
        acc, a, b = np.zeros((3, js.size), np.uint32)
        for k in range(2, hi):
            s = max(k + 1 - first, 0)
            acc[s:] += _divisor_tests(k, js[s:], a[s:], b[s:], variant, counter)
        hits[first - lo :] = acc
        return hits
    for j in range(first, hi + 1):  # j-major: one row per j, k chunked; admit keeps j < 2^31
        for k0 in range(2, j, _CHUNK):
            ks = np.arange(k0, min(j, k0 + _CHUNK), dtype=np.uint32)
            a, b = np.empty((2, ks.size), np.uint32)
            hits[j - lo] += int(_divisor_tests(ks, j, a, b, variant, counter).sum())
    return hits


def _indicators(lo: int, hi: int, variant: IndicatorVariant, counter: "OpCounts | None" = None):
    """I(j) for every j in [lo, hi]; `counter` also tallies each floor and 1 + sum."""
    hits = _scan_hits(lo, hi, variant, counter)
    if counter is not None:
        counter.indicator_floors += hits.size
        counter.additions += hits.size
    return 1 // (1 + hits)


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
        admit((m - self.n) * (m + self.n - 3) // 2, f"scanning j in [{lo}, {m}]")  # sum of j - 2
        if m >= self.ind.size:
            cap = max(m + 1, 2 * self.ind.size)
            self.ind, self.pre = (np.pad(a, (0, cap - a.size)) for a in (self.ind, self.pre))
        self.ind[lo : m + 1] = _indicators(lo, m, self.variant)
        self.pre[lo : m + 1] = self.pre[self.n] + np.cumsum(self.ind[lo : m + 1], dtype=np.int64)
        self.n = m


_STORES: Dict[IndicatorVariant, _Store] = {}


def _reset_stores() -> None:
    _STORES.update((variant, _Store(variant)) for variant in IndicatorVariant)


_reset_stores()


def indicator(j: int, variant: IndicatorVariant = IndicatorVariant.GCD) -> int:
    """Prime indicator floor(1 / (1 + sum of divisor hits)); 1 iff j prime."""
    j = as_nat(j, "j")
    if j < 2:
        raise DomainError(f"indicator requires j >= 2, got {j}")
    store = _STORES[variant]
    if j == store.n + 1:  # the next j costs the same scan stored or not
        store.fill(j)
    if j <= store.n:
        return int(store.ind[j])
    admit(j - 2, f"the indicator of j = {j}")
    return int(_indicators(j, j, variant)[0])


def prefix_count(i: int, variant: IndicatorVariant = IndicatorVariant.GCD) -> int:
    """S(i) = sum_{j=2}^{i} I(j) for i >= 1; equals pi(i).  Empty sum at i=1."""
    i = as_nat(i, "i")
    if i < 1:
        raise DomainError(f"prefix_count requires i >= 1, got {i}")
    store = _STORES[variant]
    store.fill(i)
    return int(store.pre[i])


def _steps(prefix, x: int, counter: "OpCounts | None" = None):
    """A(i, x) = floor(1 / (1 + floor(S(i) / (x+1)))) of one S(i) or an array of them."""
    a = 1 // (1 + prefix // checked_add(x, 1))
    if counter is not None:  # two floors and two additions (x+1 and 1+q) per element
        counter.step_floors += 2 * np.size(a)
        counter.additions += 2 * np.size(a)
    return a


def step(s: int, x: int) -> int:
    """Folded step floor(1 / (1 + floor(s / (x+1)))); equals 1 iff s <= x."""
    checked_add(1, as_nat(s, "s") // checked_add(as_nat(x, "x"), 1))  # 1 + q stays in range
    return _steps(s, x)
