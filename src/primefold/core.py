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
A counted naive run's rescans of I(2..i) are one k-major scan (`_rescan_sums`)
over each j once per rescan that reaches it, (U-2)(U-1)/2 elements in all.
Uncounted gcd k-major rows are dealt out over the _WORKERS usable CPUs, since
np.gcd waits on one hardware division per Euclid step with the GIL released.
Delta rows stay on the caller's thread: each takes a few microseconds, so
threads would contend for the GIL.  Counted rows stay there too, so a counter
has one writer.
Given an `OpCounts` via `counter`, it reads no store and tallies every row it
evaluates.  Uncounted runs read a per-variant store of I(j) (int8) and S(j)
(int64) that the kernel fills: `_Store.fill(m)` scans exactly the j <= m the
store lacks, so `prefix_count(i)` scans no j past i.
Entry points, store fills and single-j scans first pass their count of
divisor tests to `admit`, which raises a RangeError over MAX_DIVISOR_TESTS.
"""

from __future__ import annotations

import enum
import os
import threading
from dataclasses import dataclass
from math import gcd
from typing import Dict

import numpy as np

from .nat import DomainError, RangeError, as_nat, checked_add, checked_mul

_CHUNK = 1 << 20  # k's per j-major row: bounds a single-j scan's memory
_SMALL_J = 256  # j's up to here scan as one pass over their (k, j) pairs
MAX_DIVISOR_TESTS = 1_331_334_000  # closed_form_naive(2000)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # usable CPUs: the threads of a gcd k-major scan


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


@dataclass
class OpCounts:
    """Mutable tally context for one counted run (conventions: the audit module)."""

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
        return dict(vars(self))  # the six tallies, in field order


_PAIRS = None  # rows k, j, j - 1 and two outputs of the (k, j) pairs of j = 3.._SMALL_J, j-major


def _offset(j):
    """Index of j's first pair in _PAIRS: sum_{i=3}^{j-1} (i - 2)."""
    return (j - 3) * (j - 2) // 2


def _divisor_tests(ks, js, js1, a, b, variant: IndicatorVariant, counter: OpCounts | None):
    """The variant's divisor test of every (k, j) element into `a` (`b` is scratch).

    `js1` is `js - 1`, which only the delta test reads; callers hoist it out of their rows.
    """
    gcd_test = variant is IndicatorVariant.GCD
    if gcd_test:
        np.floor_divide(np.gcd(ks, js, out=a), ks, out=a)
    else:
        np.subtract(np.floor_divide(js, ks, out=a), np.floor_divide(js1, ks, out=b), out=a)
    if counter is not None:  # the sum over k belongs to this tally too (see the audit module)
        counter.gcd_calls += a.size if gcd_test else 0
        counter.delta_calls += 0 if gcd_test else a.size
        counter.inner_test_floors += a.size if gcd_test else 2 * a.size
    return a


def _pair_table(last: int):
    """_PAIRS, built for j = 3.._SMALL_J when it does not yet reach j = last."""
    global _PAIRS
    if _PAIRS is None or _PAIRS.shape[1] < _offset(last + 1):
        js = np.arange(3, _SMALL_J + 1, dtype=np.int32)
        ks = np.concatenate([np.arange(2, j, dtype=np.int32) for j in js])
        _PAIRS = np.stack([ks, np.repeat(js, js - 2), np.repeat(js - 1, js - 2), ks, ks])
    return _PAIRS


def _scan_hits(lo: int, hi: int, variant: IndicatorVariant, counter: OpCounts | None = None):
    """sum_{k=2}^{j-1} of the divisor test for every j in [lo, hi]; every element evaluated."""
    hits = np.zeros(max(hi - lo + 1, 0), np.int64)
    first, last = max(lo, 3), min(hi, _SMALL_J)  # j = 2 has no k
    if first <= last:
        ks, js, js1, a, b = _pair_table(last)[:, _offset(first) : _offset(last + 1)]
        starts = _offset(np.arange(first, last + 1)) - _offset(first)
        tests = _divisor_tests(ks, js, js1, a, b, variant, counter)
        hits[first - lo : last - lo + 1] = np.add.reduceat(tests, starts)
    first = max(lo, _SMALL_J + 1)
    if first <= hi // 2:  # k-major: one row per k, the j's as the vector
        hits[first - lo :] = _k_major(np.arange(first, hi + 1, dtype=np.uint32), variant, counter)
        return hits
    for j in range(first, hi + 1):  # j-major: one row per j, k chunked; admit keeps j < 2^31
        for k0 in range(2, j, _CHUNK):
            ks = np.arange(k0, min(j, k0 + _CHUNK), dtype=np.uint32)
            a, b = np.empty((2, ks.size), np.uint32)
            hits[j - lo] += int(_divisor_tests(ks, j, j - 1, a, b, variant, counter).sum())
    return hits


def _k_major(js, variant: IndicatorVariant, counter: OpCounts | None):
    """Hits of each element of the ascending uint32 `js`, summed over rows k = 2..max(js)-1,
    each row over the suffix of elements past k.

    Worker i of w adds rows k = 2+i, 2+i+w, ... into its own buffers, the caller's thread
    being worker 0, and the caller sums the w accumulators.  An exception in any worker,
    an interrupt included, stops every worker before its next row and reaches the caller.
    """
    hi = int(js[-1]) if js.size else 2
    ks = np.arange(2, hi, dtype=np.uint32)  # a Python int k would cost each numpy call a cast
    starts = np.searchsorted(js, ks, "right").tolist()  # row k's first element
    js1 = js - 1
    split = counter is None and variant is IndicatorVariant.GCD  # see the module docstring
    w = min(_WORKERS, hi - 2) if split else 1
    buffers = np.zeros((w, 3, js.size), np.uint32)
    stop, errors = threading.Event(), []

    def rows(i):
        acc, a, b = buffers[i]
        try:
            for k, s in zip(ks[i::w], starts[i::w]):
                if stop.is_set():
                    return
                acc[s:] += _divisor_tests(k, js[s:], js1[s:], a[s:], b[s:], variant, counter)
        except BaseException as exc:  # the caller re-raises it, so no row is silently lost
            errors.append(exc)
            stop.set()

    workers = [threading.Thread(target=rows, args=(i,)) for i in range(1, w)]
    try:
        for worker in workers:
            worker.start()
        rows(0)
        for worker in workers:
            worker.join()
    finally:
        stop.set()  # an early exit stops every worker before its next row
        for worker in workers:
            if worker.is_alive():
                worker.join()
    if errors:
        raise errors[0]
    return buffers[:, 0].sum(axis=0, dtype=np.int64)


def _floor_indicators(hits, counter: OpCounts | None):
    """I = floor(1 / (1 + hits)) of each hit sum; `counter` tallies each floor and 1 + sum."""
    if counter is not None:
        counter.indicator_floors += hits.size
        counter.additions += hits.size
    return 1 // (1 + hits)


def _indicators(lo: int, hi: int, variant: IndicatorVariant, counter: OpCounts | None = None):
    """I(j) for every j in [lo, hi]; `counter` also tallies each floor and 1 + sum."""
    return _floor_indicators(_scan_hits(lo, hi, variant, counter), counter)


def _rescan_sums(u: int, variant: IndicatorVariant, counter: OpCounts | None):
    """S(i) for i = 1..u (u >= 1), each summed from its own scan of I(2..i), as the naive fold runs.

    One k-major scan evaluates every rescan: its vector holds each j = 3..u once per rescan
    i = j..u, j-major, so row k tests each rescan's own (k, j) pairs.  S(i) is rescan i's
    I(2) plus the sum of its own I(3..i).
    """
    counts = np.arange(u - 2, 0, -1)  # the rescans i = j..u of each j = 3..u
    js = np.repeat(np.arange(3, u + 1, dtype=np.uint32), counts)
    ind = _floor_indicators(_k_major(js, variant, counter), counter)
    sums = np.zeros(u + 1, np.int64)  # slot 0 is unused
    sums[2:] = _floor_indicators(np.zeros(u - 1, np.int64), counter)  # each I(2) = 1 // (1 + 0)
    firsts = np.repeat((np.cumsum(counts) - counts).astype(np.uint32), counts)  # j's first element
    np.add.at(sums, js + (np.arange(js.size, dtype=np.uint32) - firsts), ind)  # i = j + (i - j)
    return sums[1:]


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


def _steps(prefix, x: int, counter: OpCounts | None = None):
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
