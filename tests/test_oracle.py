"""Sieve oracle tests, including the cross-validation against the indicator."""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from primefold import (
    DomainError,
    IndicatorVariant,
    RangeError,
    SieveTable,
    build_sieve,
    indicator,
    sieve_for_nth,
)


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def nth_prime_trial(n: int) -> int:
    count, m = 0, 1
    while count < n:
        m += 1
        if is_prime_trial(m):
            count += 1
    return m


def test_build_sieve_examples():
    assert list(build_sieve(10).prime_list) == [2, 3, 5, 7]
    assert build_sieve(30).pi(30) == 10
    assert list(build_sieve(2).prime_list) == [2]


def test_table_shape_invariants(small_sieve):
    t = small_sieve
    assert not t.is_prime(0) and not t.is_prime(1) and t.is_prime(2)
    assert t.prime_count == t.pi(t.limit)
    # pi steps exactly with primality
    for m in range(1, 300):
        assert t.pi(m) - t.pi(m - 1) == (1 if t.is_prime(m) else 0)


def test_pi_examples(small_sieve):
    assert small_sieve.pi(1) == 0
    assert small_sieve.pi(7) == 4
    assert small_sieve.pi(100) == 25


def test_nth_prime_examples(small_sieve):
    assert small_sieve.nth_prime(1) == 2
    assert small_sieve.nth_prime(20) == 71
    assert small_sieve.nth_prime(101) == 547
    assert nth_prime_trial(101) == 547  # independent confirmation


def test_round_trip_nth_of_pi(small_sieve):
    for p in small_sieve.prime_list:
        assert small_sieve.nth_prime(small_sieve.pi(int(p))) == p


@pytest.mark.parametrize("limit", [2, 3, 10_000])
def test_is_prime_matches_trial_division_on_the_whole_table(limit):
    t = build_sieve(limit)
    ms = range(limit + 1)
    assert [t.is_prime(m) for m in ms] == [is_prime_trial(m) for m in ms]


def test_first_is_a_checked_view_of_the_prime_list(small_sieve):
    t = small_sieve
    for n in (0, 1, t.prime_count):
        head = t.first(n)
        assert head.tolist() == t.prime_list[:n].tolist()
        assert n == 0 or np.shares_memory(head, t.prime_list)  # a view, not a copy
    with pytest.raises(RangeError):
        t.first(t.prime_count + 1)


def test_cross_validation_against_indicator(big_sieve):
    # the central oracle-equivalence check: sieve flags vs. the gcd/floor
    # indicator, two implementations with no shared code
    for j in range(2, 10_001):
        assert big_sieve.is_prime(j) == bool(indicator(j, IndicatorVariant.GCD))


def test_errors():
    with pytest.raises(DomainError):
        build_sieve(1)
    with pytest.raises(RangeError):
        build_sieve(10**8 + 1)
    t = build_sieve(50)
    with pytest.raises(RangeError):
        t.nth_prime(t.prime_count + 1)
    with pytest.raises(RangeError):
        t.pi(51)
    with pytest.raises(RangeError):
        t.is_prime(51)
    with pytest.raises(DomainError):
        t.nth_prime(-3)


@given(st.integers(min_value=1, max_value=2_000))
def test_sieve_for_nth_always_covers(n):
    table = sieve_for_nth(n)
    assert table.prime_count >= n


@given(st.integers(min_value=1, max_value=300))
def test_nth_prime_matches_trial_division(small_sieve, n):
    assert small_sieve.nth_prime(n) == nth_prime_trial(n)


def test_pi_equals_the_running_count_of_trial_division_on_the_whole_table(small_sieve):
    t = small_sieve
    running = accumulate(is_prime_trial(m) for m in range(t.limit + 1))
    assert [t.pi(m) for m in range(t.limit + 1)] == list(running)
    assert t.pi(t.limit) == t.prime_count and t.pi(0) == 0
    # the table is its prime list; no per-integer array is kept
    assert SieveTable._fields == ("limit", "prime_list")
