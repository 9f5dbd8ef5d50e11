"""Building-block tests: divisor tests, indicator, prefix count, step.

The in-file oracle is plain trial division, independent of both the
gcd/floor indicator and the sieve module.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from primefold import (
    NAT_MAX,
    DomainError,
    IndicatorVariant,
    OpCounts,
    RangeError,
    core,
    delta,
    divisor_hit,
    indicator,
    prefix_count,
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


@given(st.integers(min_value=2, max_value=3_000),
       st.sampled_from([GCD, DELTA]))
def test_counted_path_matches_cached_value(j, variant):
    cached = indicator(j, variant)
    assert core._indicators(j, j, variant, OpCounts())[0] == cached


def test_counted_indicator_tallies_sites():
    counter = OpCounts()
    assert core._indicators(9, 9, GCD, counter)[0] == 0
    assert counter.gcd_calls == 7  # k = 2..8
    assert counter.inner_test_floors == 7
    assert counter.indicator_floors == 1
    assert counter.additions == 1  # the 1 + sum
    counter = OpCounts()
    assert core._indicators(9, 9, DELTA, counter)[0] == 0
    assert counter.gcd_calls == 0
    assert counter.delta_calls == 7
    assert counter.inner_test_floors == 14  # two floors per delta


@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_chunked_k_scan_counts_every_divisor(monkeypatch, variant):
    monkeypatch.setattr(core, "_CHUNK", 7)  # most j's past the pairs now span several chunks
    monkeypatch.setattr(core, "_SMALL_J", 40)  # j <= 40 run as one pass over their (k, j) pairs
    expected = [sum(1 for k in range(2, j) if j % k == 0) for j in range(2, 300)]
    for lo in (2, 3, 17, 40, 41):
        assert core._scan_hits(lo, 299, variant).tolist() == expected[lo - 2 :]
    for lo in (148, 149, 150, 151):  # k-major up to lo = 299 // 2, j-major past it
        counter = OpCounts()
        assert core._scan_hits(lo, 299, variant, counter).tolist() == expected[lo - 2 :]
        tests = sum(j - 2 for j in range(lo, 300))
        assert counter.gcd_calls == (tests if variant is GCD else 0)
        assert counter.delta_calls == (0 if variant is GCD else tests)
        assert counter.inner_test_floors == (1 if variant is GCD else 2) * tests


@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_indicator_past_the_store_scans_that_j_alone(variant):
    core._reset_stores()
    assert indicator(30_011, variant) == 1  # prime
    assert indicator(30_012, variant) == 0
    assert core._STORES[variant].n == 1


@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_store_fills_exactly_the_requested_prefix(variant):
    core._reset_stores()
    store = core._STORES[variant]
    assert prefix_count(1_000, variant) == 168
    assert store.n == 1_000
    assert prefix_count(500, variant) == 95 and store.n == 1_000
    store.fill(1_001)  # one j past the store
    assert store.n == 1_001
    expected = [1 if is_prime_trial(j) else 0 for j in range(2, store.n + 1)]
    assert store.ind[2 : store.n + 1].tolist() == expected
    assert store.pre[1 : store.n + 1].tolist() == [0, *itertools.accumulate(expected)]


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


def test_step_counts_two_floors_and_two_additions():
    counter = OpCounts()
    core._steps(5, 9, counter)
    assert counter.step_floors == 2
    assert counter.additions == 2


def test_step_overflow_at_the_nat_boundary():
    with pytest.raises(OverflowError):
        step(0, NAT_MAX)  # x + 1 leaves the range
    with pytest.raises(OverflowError):
        step(NAT_MAX, 0)  # 1 + floor(s/1) leaves the range


def test_array_steps_count_two_floors_and_two_additions_per_element():
    counter = OpCounts()
    assert core._steps(np.array([0, 3, 4, 9]), 3, counter).tolist() == [1, 1, 0, 0]
    assert (counter.step_floors, counter.additions) == (8, 8)
    assert core._steps(np.array([0, 3, 4, 9]), 3).tolist() == [step(s, 3) for s in (0, 3, 4, 9)]
