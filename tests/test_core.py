"""Building-block tests: divisor tests, indicator, prefix count, step.

The in-file oracle is plain trial division, independent of both the
gcd/floor indicator and the sieve module.
"""

import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from primefold import (
    NAT_MAX,
    DomainError,
    EvalMode,
    IndicatorVariant,
    RangeError,
    audit,
    core,
    delta,
    divisor_hit,
    evaluate,
    indicator,
    prefix_count,
    run_counted,
    step,
)
from primefold.nat import as_nat, checked_add, checked_mul

GCD = IndicatorVariant.GCD
DELTA = IndicatorVariant.DELTA


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------- nat checks


def test_as_nat_accepts_range_and_rejects_rest():
    assert as_nat(0) == 0
    assert as_nat(NAT_MAX) == NAT_MAX
    with pytest.raises(DomainError):
        as_nat(-1)
    with pytest.raises(DomainError):
        as_nat(2.5)
    with pytest.raises(OverflowError):
        as_nat(NAT_MAX + 1)


def test_checked_ops_raise_instead_of_wrapping():
    assert checked_add(NAT_MAX - 1, 1) == NAT_MAX
    assert checked_mul(2**32 - 1, 2**32 - 1) == (2**32 - 1) ** 2
    with pytest.raises(OverflowError):
        checked_add(NAT_MAX, 1)
    with pytest.raises(OverflowError):
        checked_mul(2**32, 2**32)


# ------------------------------------------------------------- divisor tests


@pytest.mark.parametrize("k,j,expected", [(3, 6, 1), (4, 6, 0), (2, 7, 0)])
def test_divisor_hit_examples(k, j, expected):
    assert divisor_hit(k, j) == expected


@pytest.mark.parametrize("j,k,expected", [(6, 3, 1), (7, 3, 0), (9, 3, 1)])
def test_delta_examples(j, k, expected):
    assert delta(j, k) == expected


@pytest.mark.parametrize("fn,args", [
    (divisor_hit, (1, 6)),
    (divisor_hit, (6, 6)),
    (divisor_hit, (5, 4)),
    (delta, (1, 2)),
    (delta, (6, 1)),
    (delta, (6, 6)),
])
def test_divisor_test_preconditions(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_divisor_tests_agree_exhaustively_to_500():
    for j in range(3, 501):
        for k in range(2, j):
            hit = divisor_hit(k, j)
            assert hit == delta(j, k)
            assert hit == (1 if j % k == 0 else 0)


@given(st.integers(min_value=3, max_value=20_000).flatmap(
    lambda j: st.tuples(st.just(j), st.integers(min_value=2, max_value=j - 1))
))
def test_divisor_tests_agree_random(jk):
    j, k = jk
    assert divisor_hit(k, j) == delta(j, k) == (1 if j % k == 0 else 0)


# ----------------------------------------------------------------- indicator


@pytest.mark.parametrize("j,expected", [(2, 1), (4, 0), (7, 1)])
def test_indicator_examples(j, expected):
    assert indicator(j, GCD) == expected
    assert indicator(j, DELTA) == expected


def test_indicator_rejects_small_j():
    for j in (0, 1):
        with pytest.raises(DomainError):
            indicator(j)


def test_indicator_matches_trial_division_to_2000():
    for j in range(2, 2001):
        expected = 1 if is_prime_trial(j) else 0
        assert indicator(j, GCD) == expected
        assert indicator(j, DELTA) == expected


@given(st.integers(min_value=2, max_value=30_000))
def test_indicator_variants_agree_and_match_oracle(j):
    expected = 1 if is_prime_trial(j) else 0
    assert indicator(j, GCD) == expected
    assert indicator(j, DELTA) == expected


def scans(lo, hi):
    """The ends of the scans I(2..i), i = lo..hi, as `audit._counted_scans` takes them."""
    return np.arange(lo, hi + 1, dtype=np.uint32)


@given(st.integers(min_value=2, max_value=3_000),
       st.sampled_from([GCD, DELTA]))
def test_counted_path_matches_cached_value(j, variant):
    cached = indicator(j, variant)
    table, _, _ = audit._counted_scans(scans(j, j), variant)  # the one scan I(2..j)
    assert table[0, j] == cached
    assert table[0, :2].tolist() == [0, 0]


def trial_tests(i):
    """Divisor tests of the scan I(2..i), counted one k at a time: k = 2..j-1 for each j."""
    return sum(1 for j in range(2, i + 1) for k in range(2, j))


def test_counted_indicator_tallies_sites():
    for variant in (GCD, DELTA):
        table, tests, floors = audit._counted_scans(scans(9, 9), variant)
        assert table.tolist() == [[0, 0, 1, 1, 0, 1, 0, 1, 0, 0]]  # I(2..9)
        assert tests.tolist() == [trial_tests(9)] == [28]
        assert floors.tolist() == [8]  # one floor per j = 2..9, I(2) = 1 // (1 + 0) included
        _, counts = run_counted(4, 9, EvalMode.INCREMENTAL, variant)
        assert counts.gcd_calls == (28 if variant is GCD else 0)
        assert counts.delta_calls == (0 if variant is GCD else 28)
        assert counts.inner_test_floors == (28 if variant is GCD else 56)  # two floors per delta
        assert counts.indicator_floors == 8
        assert counts.additions == 8 + 9 + 18 + 10  # 1 + sums, S updates, steps', outer sum
        _, tests, floors = audit._counted_scans(scans(1, 9), variant)  # a naive run's I(2..i)
        assert tests.tolist() == [trial_tests(i) for i in range(1, 10)] and sum(tests) == 84
        assert floors.tolist() == list(range(9)) and sum(floors) == 36
        _, counts = run_counted(4, 9, EvalMode.NAIVE, variant)
        assert counts.gcd_calls == (84 if variant is GCD else 0)
        assert counts.delta_calls == (0 if variant is GCD else 84)
        assert counts.inner_test_floors == (84 if variant is GCD else 168)
        assert counts.indicator_floors == 36
        assert counts.step_floors == 18
        assert counts.additions == 36 + 36 + 18 + 10  # 1 + sums, S re-sums, steps', outer sum


@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_chunked_k_scan_counts_every_divisor(monkeypatch, variant):
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 7)  # most j-major rows now span several chunks
    expected = [sum(1 for k in range(2, j) if j % k == 0) for j in range(2, 300)]
    for lo in (2, 3, 17, 40, 41, 148, 149, 150, 151):  # k-major up to lo = 299 // 2, j-major past it
        assert core._scan_hits(lo, 299, variant).tolist() == expected[lo - 2 :]
    for lo in (2, 148, 151):  # counted scans I(2..i), i = lo..299, run k-major at any lo
        table, tests, floors = audit._counted_scans(scans(lo, 299), variant)
        assert tests.tolist() == [trial_tests(i) for i in range(lo, 300)]
        assert floors.tolist() == [i - 1 for i in range(lo, 300)]
        for i in (lo, 299):
            assert table[i - lo, 2:].tolist() == [
                int(n == 0) if j <= i else 0 for j, n in enumerate(expected, 2)
            ]


@pytest.mark.parametrize("variant", [GCD, DELTA])
@pytest.mark.parametrize("cap", [1, 7, 64])
def test_a_single_j_scan_runs_each_k_once_in_chunks_of_the_block_bound(monkeypatch, cap, variant):
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", cap)
    chunks, divisor_tests = [], core._divisor_tests

    def recording(ks, *args):
        chunks.append(ks.tolist())
        return divisor_tests(ks, *args)

    monkeypatch.setattr(core, "_divisor_tests", recording)
    for j in (2, 3, 4, 97, 100, 1000):  # j-major: one row of k = 2..j-1
        chunks.clear()
        hits = core._scan_hits(j, j, variant).tolist()
        assert hits == [sum(1 for k in range(2, j) if j % k == 0)]
        assert [k for ks in chunks for k in ks] == list(range(2, j))
        assert all(len(ks) <= cap for ks in chunks)


def test_worker_count_is_the_usable_cpu_count():
    assert core._WORKERS == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_split_k_major_scan_matches_trial_division(monkeypatch, variant, workers):
    monkeypatch.setattr(core, "_WORKERS", workers)  # 3 is more threads than this host may have
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 64)  # every gcd scan splits, the counted one too
    expected = [sum(1 for k in range(2, j) if j % k == 0) for j in range(2, 302)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to expose a lost update
    try:
        for lo, hi in ((2, 300), (41, 300), (41, 301), (100, 299), (150, 301)):  # 296-299 rows
            assert core._scan_hits(lo, hi, variant).tolist() == expected[lo - 2 : hi - 1]
        table, tests, _ = audit._counted_scans(scans(41, 301), variant)  # under the same workers
    finally:
        sys.setswitchinterval(interval)
    assert tests.tolist() == [trial_tests(i) for i in range(41, 302)]
    assert table[-1, 2:].tolist() == [int(n == 0) for n in expected]


# k-major vectors: store fills (consecutive j's, from 2 and from past 2) and counted scans (each
# j once per scan that reaches it: unsorted repeated ends, and a naive run at U = 40)
BLOCK_EDGE_VECTORS = [
    np.arange(2, 90, dtype=np.uint32),
    np.arange(41, 120, dtype=np.uint32),
    np.repeat(np.arange(2, 31, dtype=np.uint32), [sum(i >= j for i in (5, 1, 9, 9, 2, 30, 3))
                                                  for j in range(2, 31)]),
    np.repeat(np.arange(2, 41, dtype=np.uint32), np.arange(39, 0, -1)),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("variant", [GCD, DELTA])
@pytest.mark.parametrize("cap", [1, 2, 3, 7, 64, core._BLOCK_ELEMENTS])
def test_k_major_blocks_evaluate_each_k_below_j_exactly_once(monkeypatch, cap, variant, workers):
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", cap)  # blocks of one row up to whole scans
    monkeypatch.setattr(core, "_WORKERS", workers)  # 3 is more threads than this host may have
    divisor_tests, lock = core._divisor_tests, threading.Lock()
    # blocked rows up to 8 wide with corners of 1 column, up to 40 with 5, and every row
    for width, js in itertools.product((8, 40, core._BLOCK_WIDTH), BLOCK_EDGE_VECTORS):
        monkeypatch.setattr(core, "_BLOCK_WIDTH", width)
        evaluated = np.zeros((int(js[-1]), js.size), np.int64)  # [k, element] evaluations
        blocks = []  # (rows, columns, masked) of each call on several rows

        def recording(ks, cols, cols1, a, b, v, where=True, js=js, evaluated=evaluated):
            first = (cols.ctypes.data - js.ctypes.data) // js.itemsize  # cols = js[first:]
            chosen = np.broadcast_to(where, a.shape)
            with lock:
                np.add.at(evaluated, (np.broadcast_to(ks, a.shape)[chosen],
                                      first + np.nonzero(chosen)[-1]), 1)
                if a.ndim == 2:
                    blocks.append((*a.shape, where is not True))
            return divisor_tests(ks, cols, cols1, a, b, v, where)

        monkeypatch.setattr(core, "_divisor_tests", recording)
        hits, ran = core._k_major(js, variant)
        for rows, columns, masked in blocks:  # a block's corner, or the columns past it
            assert rows > 1 and rows * columns <= cap
            assert columns <= (width // 8 if masked else width)
        k = np.arange(evaluated.shape[0])[:, None]
        assert evaluated.tolist() == ((2 <= k) & (k < js)).astype(np.int64).tolist()
        assert hits.tolist() == [sum(1 for k in range(2, j) if j % k == 0) for j in js.tolist()]
        assert sorted(ran) == np.searchsorted(js, np.arange(2, js[-1]), "right").tolist()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_gcd_scan_allocates_no_delta_arrays_and_keeps_every_hit(monkeypatch, workers):
    monkeypatch.setattr(core, "_WORKERS", workers)
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 1024)  # every gcd scan splits
    rows, divisor_tests = set(), core._divisor_tests

    def recording(ks, js, js1, a, b, variant, where=True):
        rows.add((variant, np.shares_memory(js1, js), np.shares_memory(b, a)))
        return divisor_tests(ks, js, js1, a, b, variant, where)

    monkeypatch.setattr(core, "_divisor_tests", recording)
    expected = [sum(1 for k in range(2, j) if j % k == 0) for j in range(2, 301)]
    for variant in (GCD, DELTA):
        assert core._scan_hits(2, 300, variant).tolist() == expected
        assert core._k_major(scans(2, 300), variant)[0].tolist() == expected
    # a gcd block reads js for js - 1 and a for b; a delta block has both of its own
    assert rows == {(GCD, True, True), (DELTA, False, False)}


class _RowFailed(Exception):
    pass


def test_a_worker_error_reaches_the_caller_and_every_thread_ends(monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 2 * 260)  # blocks of two of the 260-j rows
    tests = core._divisor_tests

    def failing(ks, *args):
        if np.any(ks == 5):  # k-major blocks only here; worker 1 runs k = 4-5, 8-9, ...
            raise _RowFailed(threading.current_thread().name)
        return tests(ks, *args)

    monkeypatch.setattr(core, "_divisor_tests", failing)
    threads = threading.active_count()
    with pytest.raises(_RowFailed) as failure:
        core._scan_hits(41, 300, GCD)
    assert failure.value.args[0] != threading.current_thread().name
    assert threading.active_count() == threads


def record_thread_starts(monkeypatch):
    """A list that gets the name of every thread started from here on."""
    started, start = [], threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


def test_a_gcd_scan_splits_over_its_blocks_and_a_delta_scan_never(monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", 3)
    started = record_thread_starts(monkeypatch)
    firsts, divisor_tests = set(), core._divisor_tests

    def recording(ks, *args):  # every call of a block starts at the block's first k
        firsts.add(int(np.ravel(ks)[0]))
        return divisor_tests(ks, *args)

    monkeypatch.setattr(core, "_divisor_tests", recording)
    naive = np.repeat(np.arange(2, 61, dtype=np.uint32), np.arange(59, 0, -1))  # U = 60's scans
    blocks = set()
    for scan in (lambda v: core._scan_hits(41, 300, v),
                 lambda v: audit._counted_scans(scans(1, 60), v),
                 lambda v: core._k_major(naive, v)):
        for cap in (1, 2**15, core._BLOCK_ELEMENTS):  # a block per row, two blocks, the default
            monkeypatch.setattr(core, "_BLOCK_ELEMENTS", cap)
            for variant in (GCD, DELTA):
                firsts.clear()
                started.clear()
                scan(variant)
                assert len(started) == (min(3, len(firsts)) - 1 if variant is GCD else 0)
                blocks.add(min(len(firsts), 3))
    assert blocks == {1, 2, 3}  # one block, fewer blocks than workers, and more
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 1)
    _, ran = core._k_major(naive, GCD)  # split over 3 threads: every thread's rows come back
    assert sorted(ran) == np.searchsorted(naive, np.arange(2, 60), "right").tolist()


def test_a_split_counted_run_at_u_2_keeps_its_tallies(monkeypatch):
    unsplit = [run_counted(x, 2, EvalMode.NAIVE, GCD) for x in (0, 1, 5)]
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 1)  # U = 2 passes one element, no row, no block
    monkeypatch.setattr(core, "_WORKERS", 3)
    table, tests, floors = audit._counted_scans(scans(1, 2), GCD)
    assert table.tolist() == [[0, 0, 0], [0, 0, 1]]  # I(2) = 1 // (1 + 0)
    assert tests.tolist() == [trial_tests(1), trial_tests(2)] == [0, 0]
    assert floors.tolist() == [0, 1]
    split = [run_counted(x, 2, EvalMode.NAIVE, GCD) for x in (0, 1, 5)]
    assert split == unsplit
    assert [value for value, _ in split] == [2, 3, 3]
    assert all(counts.gcd_calls == trial_tests(2) for _, counts in split)


@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_indicator_past_the_store_scans_that_j_alone(variant):
    core._reset_stores()
    assert indicator(30_011, variant) == 1  # prime
    assert indicator(30_012, variant) == 0
    assert core._STORES[variant].size - 1 == 1


@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_store_fills_exactly_the_requested_prefix(variant):
    core._reset_stores()
    assert prefix_count(1_000, variant) == 168
    assert core._STORES[variant].size - 1 == 1_000
    assert prefix_count(500, variant) == 95 and core._STORES[variant].size - 1 == 1_000
    ind = core._fill(variant, 1_001)  # one j past the store
    assert ind is core._STORES[variant] and ind.dtype == np.int8 and ind.size - 1 == 1_001
    expected = [1 if is_prime_trial(j) else 0 for j in range(2, 1_002)]
    assert ind.tolist() == [0, 0, *expected]
    counts = [prefix_count(i, variant) for i in range(1, 1_002)]
    assert counts == [0, *itertools.accumulate(expected)]
    assert core._STORES[variant] is ind  # no read past n fills


@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_a_fill_replaces_the_store_and_never_writes_an_array(variant):
    core._reset_stores()
    held = core._fill(variant, 100)
    kept = held.copy()
    core._fill(variant, 150)
    prefix_count(200, variant)
    n = core._STORES[variant].size - 1
    indicator(n + 1, variant)  # the next j fills the store
    assert core._STORES[variant].size - 1 == n + 1
    assert evaluate(100, variant=variant) == 547  # grows the store from n + 2 to the flip
    assert core._STORES[variant].size - 1 == 547
    assert held.size == kept.size and held.tolist() == kept.tolist()


def _no_scan(*args, **kwargs):
    raise AssertionError("an over-budget call reached the k-scan kernel")


def test_over_budget_store_fills_and_single_scans_raise_before_any_scan(monkeypatch):
    core._reset_stores()
    monkeypatch.setattr(core, "_scan_hits", _no_scan)
    with pytest.raises(RangeError, match="predicts 49999985000001 divisor tests"):
        prefix_count(10**7)
    with pytest.raises(RangeError, match=f"predicts {2**40 + 13} divisor tests"):
        indicator(2**40 + 15)
    for variant in (GCD, DELTA):  # one j past the budget
        with pytest.raises(RangeError):
            indicator(core.MAX_DIVISOR_TESTS + 3, variant)


# -------------------------------------------------------------- prefix count


@pytest.mark.parametrize("i,expected", [(1, 0), (5, 3), (7, 4)])
def test_prefix_count_examples(i, expected):
    assert prefix_count(i) == expected


def test_prefix_count_rejects_zero():
    with pytest.raises(DomainError):
        prefix_count(0)


@given(st.integers(min_value=1, max_value=2_000))
def test_prefix_count_equals_pi(i):
    expected = sum(1 for m in range(2, i + 1) if is_prime_trial(m))
    assert prefix_count(i, GCD) == expected
    assert prefix_count(i, DELTA) == expected


# ---------------------------------------------------------------------- step


@pytest.mark.parametrize("s,x,expected", [(0, 0, 1), (3, 3, 1), (4, 3, 0)])
def test_step_examples(s, x, expected):
    assert step(s, x) == expected


def test_step_equivalence_exhaustive_to_200():
    for s in range(201):
        for x in range(201):
            assert step(s, x) == (1 if s <= x else 0)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_step_equivalence_random(s, x):
    assert step(s, x) == (1 if s <= x else 0)


def test_fold_of_one_prefix_counts_two_floors_and_two_additions():
    value, steps = core._fold(np.array([5]), 9)
    assert steps.tolist() == [step(5, 9)] == [1]
    assert value == 1 + 1
    _, counts = audit._counted_fold(9, np.array([5], np.uint64), GCD, 0, 0, 0)
    assert counts.step_floors == 2
    assert counts.additions == 2 + 1 + 1  # the step's x+1 and 1+q, the outer +, its 1 + sum


def test_step_overflow_at_the_nat_boundary():
    with pytest.raises(OverflowError):
        step(0, NAT_MAX)  # x + 1 leaves the range
    with pytest.raises(OverflowError):
        step(NAT_MAX, 0)  # 1 + floor(s/1) leaves the range


def test_array_fold_counts_two_floors_and_two_additions_per_element():
    value, steps = core._fold(np.array([0, 3, 4, 9]), 3)
    assert steps.tolist() == [1, 1, 0, 0]
    assert value == 1 + sum(steps.tolist()) == 3
    _, counts = audit._counted_fold(3, np.array([0, 3, 4, 9], np.uint64), GCD, 0, 0, 0)
    assert (counts.step_floors, counts.additions - 4 - 1) == (8, 8)  # less the outer sum's 4 + 1
    assert core._steps(np.array([0, 3, 4, 9]), 3).tolist() == [step(s, 3) for s in (0, 3, 4, 9)]
