"""Enumerator tests: ground truth, mode/variant/schedule agreement, traces."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primefold import (
    DomainError,
    EvalMode,
    IndicatorVariant,
    PostconditionError,
    RangeError,
    Schedule,
    TraceRecord,
    TraceRow,
    closed_form_incremental,
    core,
    enumerator,
    evaluate,
    indicator,
    prefix_count,
    record_lift,
    run_counted,
    schedule_limit,
    step,
    trace,
    u_lin,
)
from primefold.schedules import p_lower

SCHEDULES = [Schedule.SQUARE, Schedule.LINLOG]
MODES = [EvalMode.NAIVE, EvalMode.INCREMENTAL]
VARIANTS = [IndicatorVariant.GCD, IndicatorVariant.DELTA]


@pytest.mark.parametrize("x,expected", [(0, 2), (3, 7), (19, 71)])
def test_evaluate_examples(x, expected):
    assert evaluate(x) == expected


@pytest.mark.parametrize("x", [0, 1, 2, 5, 10, 25, 40, 60])
def test_all_eight_combinations_agree(x, small_sieve):
    expected = small_sieve.nth_prime(x + 1)
    for schedule in SCHEDULES:
        for mode in MODES:
            for variant in VARIANTS:
                assert evaluate(x, schedule, mode, variant) == expected


@given(st.integers(min_value=0, max_value=150))
def test_evaluate_matches_oracle(small_sieve, x):
    assert evaluate(x) == small_sieve.nth_prime(x + 1)


# store size before each run, from p = p_(x+1): none, past the flip, short of it
PREFILL = {"fresh": lambda p: 1, "larger": lambda p: p + 100, "smaller": lambda p: p // 2}


@pytest.mark.parametrize("prefill", sorted(PREFILL))
@settings(max_examples=10)
@given(x=st.integers(min_value=0, max_value=300))
def test_every_path_equals_the_sieve(small_sieve, prefill, x):
    expected = small_sieve.nth_prime(x + 1)
    runs = [(v, partial(evaluate, x, mode=m, variant=v)) for m in MODES for v in VARIANTS]
    runs.append((IndicatorVariant.GCD, lambda: trace(x).result))
    for variant, run in runs:
        core._reset_stores()
        prefix_count(PREFILL[prefill](expected), variant)
        assert run() == expected


@pytest.mark.parametrize("mode", MODES)
def test_evaluate_scans_exactly_to_the_flip(small_sieve, mode):
    core._reset_stores()
    p = small_sieve.nth_prime(101)
    assert evaluate(100, Schedule.SQUARE, mode) == p  # limit 101^2 = 10201
    assert core._STORES[IndicatorVariant.GCD].size - 1 == p


def record_scans(monkeypatch, kernel_variant=None):
    """Patch the kernel to log the (lo, hi) of every scan; return that log.

    With `kernel_variant`, every scan runs that variant's divisor test, which
    gives the same hits as the other one.
    """
    calls = []
    scan = core._scan_hits

    def recording(lo, hi, variant):
        calls.append((lo, hi))
        return scan(lo, hi, kernel_variant or variant)

    monkeypatch.setattr(core, "_scan_hits", recording)
    return calls


def scanned_tests(calls):
    """Divisor tests of the logged scans: j - 2 per scanned j."""
    return sum(j - 2 for lo, hi in calls for j in range(lo, hi + 1))


def test_cold_evaluate_scans_to_dusarts_floor_in_one_call_then_to_the_flip(monkeypatch):
    calls = record_scans(monkeypatch)
    core._reset_stores()
    assert evaluate(2000, variant=IndicatorVariant.DELTA) == 17_393
    floor = math.floor(p_lower(2001))
    assert floor == 17_268 and calls[0] == (2, floor)
    assert [lo for lo, _ in calls[1:]] == [hi + 1 for _, hi in calls[:-1]]
    assert calls[-1][1] == 17_393
    assert scanned_tests(calls) == closed_form_incremental(17_393)


def derived_scans(x, limit, table):
    """A cold evaluate's scans: to Dusart's floor from x = 5 on, then n -> n + x + 1 - pi(n)."""
    n, calls = 1, []
    if x >= 5:
        n = min(math.floor(p_lower(x + 1)), limit)
        calls.append((2, n))
    while n < limit and table.pi(n) <= x:
        calls.append((n + 1, min(n + x + 1 - table.pi(n), limit)))
        n = calls[-1][1]
    return calls


def test_derived_scans_at_x_4(small_sieve):
    expected = [(2, 6), (7, 8), (9, 9), (10, 10), (11, 11)]
    for schedule in SCHEDULES:
        assert derived_scans(4, schedule_limit(schedule, 4), small_sieve) == expected


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("x", [0, 4, 5, 100, 500])
def test_cold_evaluate_makes_the_derived_scans(
    monkeypatch, small_sieve, x, schedule, mode, variant
):
    calls = record_scans(monkeypatch)
    core._reset_stores()
    p, limit = small_sieve.nth_prime(x + 1), schedule_limit(schedule, x)
    assert evaluate(x, schedule, mode, variant) == p
    assert calls == derived_scans(x, limit, small_sieve)
    n = core._STORES[variant].size - 1
    assert n == min(p, limit)  # p itself unless the limit is p - 1 (sq at x = 0)
    assert scanned_tests(calls) == closed_form_incremental(max(n, 2))


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=10)
@given(x=st.integers(min_value=0, max_value=2000), m=st.integers(min_value=1, max_value=20_000))
def test_evaluate_grows_the_store_to_exactly_the_flip(big_sieve, variant, x, m):
    p = big_sieve.nth_prime(x + 1)
    with pytest.MonkeyPatch.context() as mp:  # the delta kernel keeps x = 2000 fast for gcd too
        calls = record_scans(mp, kernel_variant=IndicatorVariant.DELTA)
        core._reset_stores()
        assert evaluate(x, variant=variant) == p
        assert core._STORES[variant].size - 1 == p
        assert scanned_tests(calls) == closed_form_incremental(p)
        core._reset_stores()
        prefix_count(m, variant)
        assert evaluate(x, variant=variant) == p
        assert core._STORES[variant].size - 1 == max(m, p)


def test_the_delta_store_and_a_naive_delta_evaluate_are_exact_at_the_budget_edge(big_sieve):
    # x = 4853 is the largest x the budget admits, and trace(4853) fills the store to its limit
    # u_lin(4853): from cold, one k-major scan of 1.33e9 divisor tests
    x, limit, delta = 4853, u_lin(4853), IndicatorVariant.DELTA
    assert limit == 51_592
    with pytest.raises(RangeError):
        evaluate(x + 1, variant=delta)
    core._reset_stores()
    expected = np.zeros(limit + 1, np.int8)
    expected[big_sieve.first(big_sieve.pi(limit))] = 1
    assert np.array_equal(core._fill(delta, limit), expected)  # every j, from one cold scan
    assert evaluate(x, mode=EvalMode.NAIVE, variant=delta) == big_sieve.nth_prime(x + 1) == 47_051


@pytest.mark.parametrize("mode", MODES)
def test_evaluate_on_a_store_past_the_limit_scans_nothing(monkeypatch, small_sieve, mode):
    core._reset_stores()
    prefix_count(schedule_limit(Schedule.SQUARE, 100) + 1)
    calls = record_scans(monkeypatch)
    assert evaluate(100, Schedule.SQUARE, mode) == small_sieve.nth_prime(101)
    assert evaluate(4, Schedule.LINLOG, mode) == 11
    assert calls == []


def test_evaluate_skips_the_prefill_below_x_5(monkeypatch, small_sieve):
    def no_floor(n):
        raise AssertionError(f"p_lower({n}) computed")

    monkeypatch.setattr(enumerator, "p_lower", no_floor)
    for x in range(5):
        core._reset_stores()
        assert evaluate(x) == small_sieve.nth_prime(x + 1)
    with pytest.raises(AssertionError, match="p_lower"):
        evaluate(5)


@settings(max_examples=10)
@given(x=st.integers(min_value=0, max_value=300))
def test_counted_run_equals_the_sieve(small_sieve, x):
    expected = small_sieve.nth_prime(x + 1)
    assert run_counted(x, expected)[0] == expected  # reads no store


def test_willans_schedule_is_usable_up_to_62(small_sieve):
    assert evaluate(4, Schedule.WILLANS) == 11
    assert evaluate(62, Schedule.WILLANS) == small_sieve.nth_prime(63)
    with pytest.raises(RangeError):
        evaluate(63, Schedule.WILLANS)


def test_trace_worked_example_square():
    record = trace(3, Schedule.SQUARE)
    assert record.limit == 16
    assert [row.indicator for row in record.rows[1:7]] == [1, 1, 0, 1, 0, 1]
    assert [row.prefix for row in record.rows[1:7]] == [1, 2, 2, 3, 3, 4]
    assert record.rows[4].prefix == 3 and record.rows[6].prefix == 4  # S(5), S(7)
    assert all(row.step == 1 for row in record.rows[:6])
    assert all(row.step == 0 for row in record.rows[6:])
    assert record.flip_index == 7
    assert record.result == 7


def test_trace_x0_square_single_row():
    record = trace(0, Schedule.SQUARE)
    assert record.limit == 1
    assert record.rows == (TraceRow(i=1, indicator=0, prefix=0, step=1),)
    assert record.result == 2
    # the flip sits just past the single row, at p_1 = 2
    assert record.flip_index == 2


def test_trace_x4_linlog_flips_at_11():
    record = trace(4, Schedule.LINLOG)
    assert record.flip_index == 11
    assert record.result == 11


@pytest.mark.parametrize("x", range(0, 61, 5))
def test_trace_coherence(x, small_sieve):
    record = trace(x)
    assert [row.i for row in record.rows] == list(range(1, record.limit + 1))
    prefix = 0
    for row in record.rows:
        prefix += row.indicator
        assert row.prefix == prefix
    steps = [row.step for row in record.rows]
    assert all(steps[i] <= steps[i - 1] for i in range(1, len(steps)))
    assert record.result == 1 + sum(steps)
    assert record.result == evaluate(x)
    assert record.flip_index == small_sieve.nth_prime(x + 1)


def test_trace_row_guard():
    with pytest.raises(RangeError):
        trace(10_000)  # linlog limit 114332 predicts 6,535,731,615 divisor tests, over budget
    with pytest.raises(RangeError):
        trace(400, Schedule.SQUARE)  # square limit 160801


@pytest.mark.parametrize("l,expected", [(2, 5), (10, 31), (100, 547)])
def test_record_lift_examples(l, expected):
    assert record_lift(l) == expected


@pytest.mark.parametrize("bad", [33, 7])  # composite; prime but not > L
def test_record_lift_raises_when_its_postcondition_fails(monkeypatch, bad):
    monkeypatch.setattr(enumerator, "evaluate", lambda *args, **kwargs: bad)
    with pytest.raises(PostconditionError):
        record_lift(10)


def test_record_lift_requires_l_at_least_2():
    for l in (0, 1):
        with pytest.raises(DomainError):
            record_lift(l)


@given(st.integers(min_value=2, max_value=200))
def test_record_lift_output_is_prime_and_larger(small_sieve, l):
    p_star = record_lift(l)
    assert p_star > l
    assert small_sieve.is_prime(p_star)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=60))
def test_modes_agree_on_small_x(x):
    reference = evaluate(x, Schedule.LINLOG, EvalMode.INCREMENTAL)
    for schedule in SCHEDULES:
        assert evaluate(x, schedule, EvalMode.NAIVE) == reference


def scalar_rows_and_flip(x, schedule):
    """Reference: the trace rows and flip index, one i at a time from the scalar entry points."""
    limit = schedule_limit(schedule, x)
    rows = tuple(
        TraceRow(i, indicator(i) if i >= 2 else 0, prefix_count(i), step(prefix_count(i), x))
        for i in range(1, limit + 1)
    )
    return rows, next((row.i for row in rows if row.step == 0), limit + 1)


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("x", [0, 1, 2, 3, 4, 9, 40])
def test_trace_record_rows_and_flip_equal_the_tuple_construction(x, schedule):
    record = trace(x, schedule)
    rows, flip = scalar_rows_and_flip(x, schedule)
    assert record.rows == rows
    assert all(type(value) is int for row in record.rows for value in row)
    assert record.flip_index == flip


def test_flip_index_without_a_zero_step_is_limit_plus_one():
    ones = np.ones(3, np.int64)
    record = TraceRecord(5, Schedule.SQUARE, 3, np.zeros(3, np.int8), ones, ones, 4)
    assert record.flip_index == 4
    assert [row.step for row in record.rows] == [1, 1, 1]
    assert trace(0, Schedule.SQUARE).flip_index == 2  # the one real trace with no zero step


def test_trace_record_arrays_are_not_views_of_the_store():
    record = trace(3, Schedule.SQUARE)
    record.indicators[:] = 0
    record.prefix[:] = 0
    assert prefix_count(16) == 6
    assert trace(3, Schedule.SQUARE).flip_index == 7
