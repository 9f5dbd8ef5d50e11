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

One numpy k-scan kernel evaluates every divisor test, in one of two layouts.
A wide slice (max(lo, 3) <= hi // 2) runs k-major (`_k_major`): one row per k
with the j's as a uint32 vector, consecutive rows in blocks of at most
_BLOCK_ELEMENTS elements, so each numpy call divides a block by one scalar per
row.  A narrower one runs j-major: one row per j over k = 2, 3, ... in chunks
of _BLOCK_ELEMENTS k's.  A gcd k-major scan, counted or not, deals its blocks
out over up to _WORKERS usable CPUs, one block or more per thread, since np.gcd
waits on one hardware division per Euclid step with the GIL released.  A scan
of one block and every delta scan run on the caller's thread: a delta scan is
bound by memory traffic, not by the GIL.
Uncounted runs read a per-variant store, one int8 array I(0..n) with
I(0) = I(1) = 0: `_fill(variant, m)` scans exactly the j in (n, m] and
replaces the array, never writing one in place, so `prefix_count(i)` scans no
j past i.  S is the int64 running sum each reader takes of the I's it reads.
A counted run reads no store: its scans of I(2..i) are part of one
`_counted_scans` call, one k-major scan over each j once per scan that
reaches it, which consecutive runs of one audit share.  `_k_major` returns
the start s of every row that ran, which tests every element of each
j >= js[s], so a scan's tests are the rows that ran summed over its j's, and
`OpCounts.of` makes a run's six tallies of them.  Only a delta scan
allocates the j - 1 vector and the second scratch row.
`_fold` is the one fold of S(1..U) into f, for every caller.
Entry points, store fills and single-j scans first pass their count of
divisor tests to `admit`, which raises a RangeError over MAX_DIVISOR_TESTS.
"""

from __future__ import annotations

import bisect
import enum
import os
import threading
from math import gcd
from typing import Dict, NamedTuple

import numpy as np

from .nat import DomainError, RangeError, as_nat, checked_add, checked_mul

MAX_DIVISOR_TESTS = 1_331_334_000  # closed_form_naive(2000)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # usable CPUs: most threads of a gcd k-major scan
_BLOCK_ELEMENTS = 1 << 17  # scratch bound: a k-major block of several rows, a j-major chunk
_BLOCK_WIDTH = 1 << 13  # widest row in a k-major block of several; its corner is 1/8 of this
# numpy's ufunc buffer while a k-major scan runs, in elements.  A 2-D call whose rows hold at
# most a third of the buffer copies rows of its k column into it and so divides element by
# element, about ten times slower than by one scalar per row; 16 keeps that to rows of 5.
_UFUNC_BUFFER = 16


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


def _divisor_tests(ks, js, js1, a, b, variant: IndicatorVariant, where=True):
    """The variant's divisor test of every (k, j) element `where` selects into `a` (`b` is
    scratch); the elements it leaves out are neither evaluated nor written.

    `js1` is `js - 1`, which only the delta test reads; callers hoist it out of their rows.
    """
    if variant is IndicatorVariant.GCD:
        return np.floor_divide(np.gcd(ks, js, out=a, where=where), ks, out=a, where=where)
    return np.subtract(np.floor_divide(js, ks, out=a, where=where),
                       np.floor_divide(js1, ks, out=b, where=where), out=a, where=where)


def _scan_hits(lo: int, hi: int, variant: IndicatorVariant):
    """sum_{k=2}^{j-1} of the divisor test for every j in [lo, hi]; every element evaluated."""
    if max(lo, 3) <= hi // 2:  # k-major: one row per k, the j's as the vector (no row reaches 2)
        return _k_major(np.arange(lo, hi + 1, dtype=np.uint32), variant)[0]
    hits = np.zeros(max(hi - lo + 1, 0), np.int64)
    for j in range(max(lo, 3), hi + 1):  # j-major: one row per j, k chunked; admit keeps j < 2^31
        for k0 in range(2, j, _BLOCK_ELEMENTS):
            ks = np.arange(k0, min(j, k0 + _BLOCK_ELEMENTS), dtype=np.uint32)
            a, b = np.empty((2, ks.size), np.uint32)
            hits[j - lo] += int(_divisor_tests(ks, j, j - 1, a, b, variant).sum())
    return hits


def _k_major(js, variant: IndicatorVariant):
    """(hits, ran): the hits of each element of the ascending uint32 `js`, summed over rows
    k = 2..max(js)-1, each row over the suffix of elements past k, and the start of each row
    that ran, in the order its block finished.

    Consecutive rows make a block, and each block is one 2-D numpy call per ufunc: its k's
    against its first row's suffix, whose column sums join the accumulator.  The columns
    before its last row's start, its corner, hold some j <= k, so there a mask j > k selects
    the elements each call evaluates; every (k, j) with k < j is evaluated exactly once, and
    no other.  A row wider than _BLOCK_WIDTH elements is a block alone, since its calls cost
    less than its elements; narrower rows form blocks of at most _BLOCK_ELEMENTS elements
    whose corner spans at most _BLOCK_WIDTH / 8 columns, past which its masked elements cost
    more than the calls it saves (a counted scan repeats each j once per scan).
    A gcd scan runs on w = min(_WORKERS, blocks) threads, a delta scan on w = 1.
    Worker i adds blocks i, i+w, ... into its own accumulator (worker 0 is the caller's
    thread, which sums them) and appends each block's row starts to `ran` once it has run.
    An error or interrupt in a worker stops all workers before their next block and reaches
    the caller.
    """
    n = js.size
    ks = np.arange(2, int(js[-1]) if n else 2, dtype=np.uint32)  # a Python int k costs a cast
    col = ks[:, None]  # the k's as a column, against which a block's j's broadcast
    starts = np.searchsorted(js, ks, "right").tolist()  # row k's first element
    gcd = variant is IndicatorVariant.GCD
    js1 = js if gcd else js - 1  # only the delta test reads js - 1 and the scratch b
    # block r runs the rows [edges[r], edges[r + 1]): each row wider than _BLOCK_WIDTH alone,
    # then as many narrower rows as _BLOCK_ELEMENTS holds that start within a corner's width
    edges = list(range(bisect.bisect_left(starts, n - _BLOCK_WIDTH) + 1))
    while edges[-1] < ks.size:
        r = edges[-1]
        corner = bisect.bisect_right(starts, starts[r] + _BLOCK_WIDTH // 8, r)
        edges.append(min(r + max(_BLOCK_ELEMENTS // (n - starts[r]), 1), corner))
    w = min(_WORKERS if gcd else 1, max(len(edges) - 1, 1))  # a scan of no rows has no blocks
    largest = max(((e - r) * (n - starts[r]) for r, e in zip(edges, edges[1:])), default=0)
    accs = np.zeros((w, n), np.uint32)
    stop, errors, ran = threading.Event(), [], []

    def blocks(i):
        bufsize = np.setbufsize(_UFUNC_BUFFER)  # this thread's own setting, restored below
        try:
            # a and b in one allocation, since two would fault in afresh on every call; a gcd
            # scan's one row is both
            scratch = np.empty((1 if gcd else 2, largest), np.uint32)
            acc, a, b = accs[i], scratch[0], scratch[-1]
            sums = np.empty(min(n, _BLOCK_WIDTH), np.uint32)  # a block's column sums
            for r, e in zip(edges[i::w], edges[i + 1 :: w]):
                if stop.is_set():
                    return
                s, t = starts[r], starts[e - 1]  # some j <= k in the columns [s, t), none past
                if e - r == 1:  # a block of one row adds its row directly
                    row = _divisor_tests(ks[r], js[s:], js1[s:], a[: n - s], b[: n - s], variant)
                    np.add(acc[s:], row, out=acc[s:])
                    ran.append(s)
                    continue
                k = col[r:e]
                for u, v in ((s, t), (t, n)):
                    if u < v:
                        where = True if u == t else js[u:v] > k
                        a2, b2 = (x[: k.size * (v - u)].reshape(k.size, -1) for x in (a, b))
                        hit = _divisor_tests(k, js[u:v], js1[u:v], a2, b2, variant, where)
                        np.add.reduce(hit, axis=0, where=where, out=sums[u - s : v - s])
                np.add(acc[s:], sums[: n - s], out=acc[s:])
                ran.extend(starts[r:e])
        except BaseException as exc:  # the caller re-raises it, so no block is silently lost
            errors.append(exc)
            stop.set()
        finally:
            np.setbufsize(bufsize)

    workers = [threading.Thread(target=blocks, args=(i,)) for i in range(1, w)]
    try:
        for worker in workers:
            worker.start()
        blocks(0)
        for worker in workers:
            worker.join()
    finally:
        stop.set()  # an early exit stops every worker before its next block
        for worker in workers:
            if worker.is_alive():
                worker.join()
    if errors:
        raise errors[0]
    return accs.sum(axis=0, dtype=np.uint32), ran


def _indicators(lo: int, hi: int, variant: IndicatorVariant):
    """I(j) = floor(1 / (1 + hits)) for every j in [lo, hi]."""
    return 1 // (1 + _scan_hits(lo, hi, variant))


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
    hits, ran = _k_major(js, variant)
    ind = np.zeros(holds.shape, np.uint8)
    ind[holds] = np.floor_divide(1, np.add(hits, 1, out=hits), out=hits)
    rows = np.cumsum(np.bincount(js[np.array(ran, np.intp)], minlength=j.size))  # per j
    return ind.T, np.cumsum(rows)[ends], holds.sum(axis=0)  # tests: rows summed over j <= i


_STORES: Dict[IndicatorVariant, np.ndarray] = {}


def _reset_stores() -> None:
    _STORES.update((variant, np.zeros(2, np.int8)) for variant in IndicatorVariant)


_reset_stores()


def _fill(variant: IndicatorVariant, m: int):
    """The store I(0..max(n, m)) of `variant`: any j in (n, m] scanned into a new array."""
    ind = _STORES[variant]
    n = ind.size - 1
    if m > n:
        admit((m - n) * (m + n - 3) // 2, f"scanning j in [{n + 1}, {m}]")  # sum of j - 2
        ind = np.concatenate((ind, _indicators(n + 1, m, variant)), dtype=np.int8)
        _STORES[variant] = ind
    return ind


def indicator(j: int, variant: IndicatorVariant = IndicatorVariant.GCD) -> int:
    """Prime indicator floor(1 / (1 + sum of divisor hits)); 1 iff j prime."""
    j = as_nat(j, "j")
    if j < 2:
        raise DomainError(f"indicator requires j >= 2, got {j}")
    ind = _STORES[variant]
    if j == ind.size:  # the next j costs the same scan stored or not
        ind = _fill(variant, j)
    if j < ind.size:
        return int(ind[j])
    admit(j - 2, f"the indicator of j = {j}")
    return int(_indicators(j, j, variant)[0])


def prefix_count(i: int, variant: IndicatorVariant = IndicatorVariant.GCD) -> int:
    """S(i) = sum_{j=2}^{i} I(j) for i >= 1; equals pi(i).  Empty sum at i=1."""
    i = as_nat(i, "i")
    if i < 1:
        raise DomainError(f"prefix_count requires i >= 1, got {i}")
    return int(_fill(variant, i)[: i + 1].sum(dtype=np.int64))


def _steps(prefix, x: int):
    """A(i, x) = floor(1 / (1 + floor(S(i) / (x+1)))) of one S(i) or an array of them."""
    return 1 // (1 + prefix // checked_add(x, 1))


def _fold(prefix, x: int):
    """(1 + sum of the steps, the steps) of the array S(1..U) = `prefix` at x: f's one fold."""
    a = _steps(prefix, x)
    return checked_add(1, int(a.sum())), a


def step(s: int, x: int) -> int:
    """Folded step floor(1 / (1 + floor(s / (x+1)))); equals 1 iff s <= x."""
    checked_add(1, as_nat(s, "s") // checked_add(as_nat(x, "x"), 1))  # 1 + q stays in range
    return _steps(s, x)
