"""Schedule values and the inequalities that make them valid.

u_lin golden values are frozen from an independent high-precision (mpmath)
evaluation of ceil((x+1)(ln(x+e) + ln ln(x+e))) + 10; the double-precision
implementation must land on the same integers.  At x = 0 the product is
exactly 1, the one genuine ceiling boundary: the float path is verified to
land on 11 there, and validate_schedule certifies the inequality that the
+10 slack exists to protect either way.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from primefold import (
    RangeError,
    Schedule,
    build_sieve,
    check_lin_growth_bound,
    closed_form_incremental,
    evaluate,
    schedule_limit,
    square_schedule_base_cases,
    u_lin,
    u_sq,
    validate_schedule,
    w_willans_exact,
    w_willans_log2,
)
from primefold import schedules
from primefold.core import MAX_DIVISOR_TESTS
from primefold.oracle import SieveTable
from primefold.schedules import p_lower

U_LIN_GOLDEN = {0: 11, 1: 14, 2: 16, 3: 20, 4: 23, 5: 27, 9: 44, 10: 49, 10_000: 114_332}


def u_lin_highprec(x: int) -> int:
    with mp.workdps(60):
        product = (x + 1) * (mp.log(x + mp.e) + mp.log(mp.log(x + mp.e)))
        return int(mp.ceil(product)) + 10


def p_lower_floor_highprec(n: int) -> int:
    with mp.workdps(60):
        return int(mp.floor(n * (mp.log(n) + mp.log(mp.log(n)) - 1)))


def test_u_sq_examples():
    assert [u_sq(x) for x in range(10)] == [1, 4, 9, 16, 25, 36, 49, 64, 81, 100]


def test_u_sq_overflow_boundary():
    assert u_sq(2**32 - 2) == (2**32 - 1) ** 2
    with pytest.raises(OverflowError):
        u_sq(2**32 - 1)


def test_u_lin_golden_values():
    for x, expected in U_LIN_GOLDEN.items():
        assert u_lin(x) == expected
        assert u_lin_highprec(x) == expected


def test_u_lin_matches_high_precision_sweep():
    # every x the divisor-test budget admits (x <= 4,853) and more
    assert [x for x in range(10_001) if u_lin(x) != u_lin_highprec(x)] == []


def test_p_lower_floor_matches_high_precision_sweep():
    # evaluate prefills its store to floor(p_lower(x + 1)), so the floor must be exact
    misses = [x for x in range(1, 10_001)
              if math.floor(p_lower(x + 1)) != p_lower_floor_highprec(x + 1)]
    assert misses == []


def test_u_lin_nondecreasing_to_10k():
    previous = u_lin(0)
    for x in range(1, 10_001):
        current = u_lin(x)
        assert current >= previous
        previous = current


@given(st.integers(min_value=0, max_value=10**6))
def test_u_lin_nondecreasing_random(x):
    assert u_lin(x + 1) >= u_lin(x)


def test_willans_values():
    assert w_willans_log2(0) == 1
    assert w_willans_log2(3) == 4
    assert w_willans_log2(62) == 63
    assert w_willans_exact(0) == 2
    assert w_willans_exact(3) == 16
    assert w_willans_exact(62) == 2**63
    with pytest.raises(RangeError):
        w_willans_exact(63)


def test_willans_meets_square_at_x_3():
    # both limits are 16 there; the near-linear schedule is the comparator
    assert w_willans_exact(3) == u_sq(3) == 16


def test_schedule_limit_dispatch():
    assert schedule_limit(Schedule.SQUARE, 9) == 100
    assert schedule_limit(Schedule.LINLOG, 9) == 44
    assert schedule_limit(Schedule.WILLANS, 3) == 16


@pytest.mark.parametrize("kind", [Schedule.SQUARE, Schedule.LINLOG])
def test_validate_schedule_passes(kind, small_sieve):
    report = validate_schedule(kind, 300, small_sieve)
    assert report.passed
    assert report.min_slack >= 0


def test_validate_willans_exact_and_log_ranges(small_sieve):
    assert validate_schedule(Schedule.WILLANS, 60, small_sieve).passed
    # x > 62 exercises the log2-space comparison
    assert validate_schedule(Schedule.WILLANS, 100, small_sieve).passed


def test_validate_schedule_propagates_small_oracle():
    with pytest.raises(RangeError):
        validate_schedule(Schedule.SQUARE, 100, build_sieve(50))


def test_square_base_cases_table(small_sieve):
    assert [small_sieve.nth_prime(n) - 1 for n in range(1, 6)] == [1, 2, 4, 6, 10]
    assert [n * n for n in range(1, 6)] == [1, 4, 9, 16, 25]
    assert square_schedule_base_cases(small_sieve).passed


def test_lin_growth_bound(small_sieve):
    report = check_lin_growth_bound(300, small_sieve)
    assert report.passed
    assert report.min_slack > 0
    # tightest margin sits at the threshold x = 5
    inner = math.log(5 + math.e)
    assert report.min_slack == pytest.approx(6 * (inner + math.log(inner)) - 13)


def test_lin_growth_bound_full_range(big_sieve):
    report = check_lin_growth_bound(10_000, big_sieve)
    assert report.passed
    assert report.min_slack > 0


def test_dusart_floor_lies_before_the_flip(big_sieve):
    for x in range(5, 10_001):
        assert math.floor(p_lower(x + 1)) <= big_sieve.nth_prime(x + 1) - 1


def test_admitted_evaluations_are_a_prefix_of_x():
    # u_lin is checked against the sieve on [0, 10^4] (Criterion 05), so that
    # check covers every admitted x once the admitted x's form a prefix
    assert closed_form_incremental(u_lin(4_853)) <= MAX_DIVISOR_TESTS
    with pytest.raises(RangeError, match="predicts"):
        evaluate(4_854)
    predicted = list(map(closed_form_incremental, map(u_lin, range(10**6 + 1))))
    assert all(a <= b for a, b in zip(predicted, predicted[1:]))


# ------------------------------------------ array sweeps vs. scalar reference


def scalar_covers_reference(kind, x_max, table):
    """Reference: validate_schedule's square and lin rows, one x at a time."""
    violations, min_slack = [], None
    for x in range(x_max + 1):
        p = table.nth_prime(x + 1)
        if kind is Schedule.SQUARE:
            limit = (x + 1) ** 2
        else:
            inner = math.log(x + math.e)
            limit = math.ceil((x + 1) * (inner + math.log(inner))) + 10
        if limit < p - 1:
            violations.append((x, float(limit), float(p - 1)))
        slack = float(limit - (p - 1))
        min_slack = slack if min_slack is None else min(min_slack, slack)
    return tuple(violations), min_slack


def scalar_lin_growth_reference(x_max, table):
    """Reference: check_lin_growth_bound, one x at a time."""
    violations, min_margin = [], None
    for x in range(5, x_max + 1):
        p = table.nth_prime(x + 1)
        inner = math.log(x + math.e)
        bound = (x + 1) * (inner + math.log(inner))
        margin = bound - p
        if margin <= 4 * math.ulp(bound):
            violations.append((x, bound, float(p)))
        min_margin = margin if min_margin is None else min(min_margin, margin)
    return tuple(violations), min_margin


def doctored(table, bumps):
    """`table` with p_{x+1} moved by `bumps[x]`: violations the sweeps must find."""
    primes = table.prime_list.copy()
    for x, bump in bumps.items():
        primes[x] += bump
    return SieveTable(limit=table.limit, flags=table.flags, prime_list=primes)


DOCTORINGS = [
    {},
    {0: 40, 3: 10**6, 5: 400, 6: 2, 17: -3, 250: 10**7, 299: 5_000, 4_000: 10**9},
    # p_{x+1} - 1 lands on u_lin(x) at x = 4 and 300, and one past it at x = 5 and 5000
    {4: 13, 5: 16, 300: 263, 5_000: 4_704},
]


def assert_plain_rows(violations):
    assert all(type(x) is int and type(a) is float and type(b) is float for x, a, b in violations)


@pytest.mark.parametrize("bumps", DOCTORINGS)
@pytest.mark.parametrize("x_max", [0, 4, 5, 6, 300, 5_000])
def test_array_sweeps_equal_the_scalar_loops(big_sieve, x_max, bumps):
    table = doctored(big_sieve, bumps)
    for kind in (Schedule.SQUARE, Schedule.LINLOG):
        report = validate_schedule(kind, x_max, table)
        assert (report.violations, report.min_slack) == scalar_covers_reference(kind, x_max, table)
        assert type(report.min_slack) is float
        assert_plain_rows(report.violations)
    report = check_lin_growth_bound(x_max, table)
    assert (report.violations, report.min_slack) == scalar_lin_growth_reference(x_max, table)
    assert_plain_rows(report.violations)


def test_doctored_tables_inject_violations(big_sieve):
    table = doctored(big_sieve, DOCTORINGS[1])
    sq = validate_schedule(Schedule.SQUARE, 5_000, table).violations
    assert [v[0] for v in sq] == [0, 3, 5, 250, 4_000]
    lin = validate_schedule(Schedule.LINLOG, 5_000, table).violations
    assert [v[0] for v in lin] == [0, 3, 5, 250, 299, 4_000]
    assert [v[0] for v in check_lin_growth_bound(5_000, table).violations] == [5, 250, 299, 4_000]
    edge = validate_schedule(Schedule.LINLOG, 5_000, doctored(big_sieve, DOCTORINGS[2]))
    assert edge.violations == ((5, 27.0, 28.0), (5_000, 53_321.0, 53_322.0))
    assert edge.min_slack == -1.0


def test_lin_growth_bound_rejects_a_short_table():
    with pytest.raises(RangeError):
        check_lin_growth_bound(100, build_sieve(50))
    assert check_lin_growth_bound(4, build_sieve(2)).min_slack is None  # empty range, no lookup


def test_lin_growth_margin_of_one_ulp_is_a_violation(monkeypatch, small_sieve):
    real = schedules._lin_bound
    p6 = float(small_sieve.nth_prime(6))  # p_{x+1} at x = 5

    def tight(xs):
        bound = real(xs)
        bound[xs == 5] = math.nextafter(p6, math.inf)  # margin: one ulp of the bound
        return bound

    monkeypatch.setattr(schedules, "_lin_bound", tight)
    report = check_lin_growth_bound(300, small_sieve)
    assert report.min_slack == math.ulp(p6) > 0.0
    assert report.violations == ((5, math.nextafter(p6, math.inf), p6),)


def test_willans_rows_hold_the_exponent_and_the_bits_of_p(small_sieve):
    primes = small_sieve.prime_list.astype(object)  # p past 2^101 needs more than 64 bits
    primes[10], primes[20], primes[100] = 2**11 + 1, 2**21, 2**101 + 1  # 2^21 still covers
    table = SieveTable(limit=small_sieve.limit, flags=small_sieve.flags, prime_list=primes)
    report = validate_schedule(Schedule.WILLANS, 200, table)
    assert report.violations == ((10, 11.0, 12.0), (100, 101.0, 102.0))
    assert report.min_slack is None


def test_willans_cover_is_the_exact_comparison():
    for x in range(130):
        for p in (2, 2 ** (x + 1) - 1, 2 ** (x + 1), 2 ** (x + 1) + 1, 2 ** (x + 2)):
            assert schedules._willans_covers(x, p) == (p <= 2 ** (x + 1))
