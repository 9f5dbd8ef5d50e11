"""Operation-count audits vs. the closed forms.

The in-file oracle evaluates the defining double/single sums directly
(number of divisor tests = sum over executed k-loops of their length);
closed forms were frozen from it before being asserted against measured
counts.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primefold import (
    NAT_MAX,
    AuditRow,
    DomainError,
    EvalMode,
    IndicatorVariant,
    OpCounts,
    RangeError,
    audit,
    audit_range,
    closed_form_incremental,
    closed_form_naive,
    core,
    run_counted,
)
from primefold.audit import summed_tests

GCD = IndicatorVariant.GCD
DELTA = IndicatorVariant.DELTA


def naive_tests_bruteforce(u: int) -> int:
    # fresh S(i) per i: every j-loop (j = 2..i) re-runs a full k-loop of j-2 tests
    return sum(sum(j - 2 for j in range(2, i + 1)) for i in range(1, u + 1))


def incremental_tests_bruteforce(u: int) -> int:
    # each I(j) computed once
    return sum(j - 2 for j in range(2, u + 1))


@pytest.mark.parametrize("u,expected", [(2, 0), (3, 1), (10, 120)])
def test_closed_form_naive_frozen(u, expected):
    assert naive_tests_bruteforce(u) == expected
    assert closed_form_naive(u) == expected


@pytest.mark.parametrize("u,expected", [(2, 0), (3, 1), (10, 36)])
def test_closed_form_incremental_frozen(u, expected):
    assert incremental_tests_bruteforce(u) == expected
    assert closed_form_incremental(u) == expected


def test_closed_forms_match_bruteforce_sweep():
    for u in range(2, 151):
        assert closed_form_naive(u) == naive_tests_bruteforce(u)
        assert closed_form_incremental(u) == incremental_tests_bruteforce(u)


@given(st.integers(min_value=2, max_value=2_000))
def test_closed_form_incremental_bruteforce_random(u):
    assert closed_form_incremental(u) == incremental_tests_bruteforce(u)


def test_closed_form_preconditions():
    for u in (0, 1):
        with pytest.raises(DomainError):
            closed_form_naive(u)
        with pytest.raises(DomainError):
            closed_form_incremental(u)


def test_divisor_test_budget_boundary():
    assert closed_form_naive(2000) == core.MAX_DIVISOR_TESTS  # the largest counted naive run
    core.admit(core.MAX_DIVISOR_TESTS, "a run at the budget")
    with pytest.raises(RangeError, match=f"predicts {core.MAX_DIVISOR_TESTS + 1} divisor tests"):
        core.admit(core.MAX_DIVISOR_TESTS + 1, "a run past the budget")


def test_summed_tests_equal_bruteforce_row_sums():
    rows = {
        EvalMode.NAIVE: [naive_tests_bruteforce(u) for u in range(61)],
        EvalMode.INCREMENTAL: [incremental_tests_bruteforce(u) for u in range(61)],
    }
    for mode, tests in rows.items():
        assert summed_tests(1, 1, mode) == 0  # run_counted's U = 1
        for a in range(2, 61):
            for b in range(a, 61):
                assert summed_tests(a, b, mode) == sum(tests[a : b + 1])


# -------------------------------------------------------------- counted runs


def test_run_counted_examples():
    value, counts = run_counted(3, 16, EvalMode.INCREMENTAL, GCD)
    assert value == 7
    assert counts.gcd_calls == 105
    assert counts.step_floors == 32

    value, counts = run_counted(3, 16, EvalMode.NAIVE, GCD)
    assert value == 7
    assert counts.gcd_calls == 560

    value, counts = run_counted(0, 1, EvalMode.INCREMENTAL, GCD)
    assert value == 2
    assert counts.gcd_calls == 0
    assert counts.step_floors == 2


@pytest.mark.parametrize("u", [2, 3, 5, 10, 17, 40, 80, 120])
@pytest.mark.parametrize("mode", [EvalMode.NAIVE, EvalMode.INCREMENTAL])
def test_measured_gcd_counts_match_closed_forms(u, mode):
    _, counts = run_counted(u, u, mode, GCD)  # x = u >= pi(u): no flip in range
    predicted = closed_form_naive(u) if mode is EvalMode.NAIVE else closed_form_incremental(u)
    assert counts.gcd_calls == predicted
    assert counts.delta_calls == 0
    assert counts.inner_test_floors == counts.gcd_calls
    assert counts.step_floors == 2 * u


@pytest.mark.parametrize("u", [2, 3, 10, 60, 120])
@pytest.mark.parametrize("mode", [EvalMode.NAIVE, EvalMode.INCREMENTAL])
def test_delta_runs_obey_the_same_closed_forms(u, mode):
    _, counts = run_counted(u, u, mode, DELTA)
    predicted = closed_form_naive(u) if mode is EvalMode.NAIVE else closed_form_incremental(u)
    assert counts.gcd_calls == 0
    assert counts.delta_calls == predicted
    assert counts.inner_test_floors == 2 * predicted
    assert counts.step_floors == 2 * u


def test_counts_do_not_depend_on_x():
    # the expression is counted as written: the flip never truncates work
    _, flipped = run_counted(3, 30, EvalMode.INCREMENTAL, GCD)   # pi(30) = 10 > 3
    _, unflipped = run_counted(30, 30, EvalMode.INCREMENTAL, GCD)
    assert flipped.to_dict() == unflipped.to_dict()


def test_counted_value_equals_next_prime_when_schedule_suffices(small_sieve):
    for x in (0, 1, 4, 9, 25):
        expected = small_sieve.nth_prime(x + 1)
        value, _ = run_counted(x, expected + 3, EvalMode.INCREMENTAL, GCD)
        assert value == expected


def test_incremental_additions_are_linear():
    # convention: U prefix updates + 2U step additions + U outer
    # accumulations + (U-1) indicator wrappers + the final 1+sum = 5U
    for u in (2, 10, 100, 317):
        _, counts = run_counted(u, u, EvalMode.INCREMENTAL, GCD)
        assert counts.additions == 5 * u
        assert counts.indicator_floors == u - 1


def test_additions_ratio_bounded_for_incremental():
    for u in (100, 150, 200, 250):
        _, at_u = run_counted(2 * u, u, EvalMode.INCREMENTAL, GCD)
        _, at_2u = run_counted(2 * u, 2 * u, EvalMode.INCREMENTAL, GCD)
        assert at_2u.additions / at_u.additions <= 3.0


@pytest.mark.parametrize("variant", [GCD, DELTA])
@pytest.mark.parametrize("mode", [EvalMode.NAIVE, EvalMode.INCREMENTAL])
def test_counted_runs_hold_across_both_scan_layouts(monkeypatch, small_sieve, variant, mode):
    monkeypatch.setattr(core, "_CHUNK", 7)
    monkeypatch.setattr(core, "_SMALL_J", 12)  # U = 14, 32, 104 scan j's past the pairs
    for x in (0, 4, 9, 25):
        expected = small_sieve.nth_prime(x + 1)
        u = expected + 3
        value, counts = run_counted(x, u, mode, variant)
        predicted = closed_form_naive(u) if mode is EvalMode.NAIVE else closed_form_incremental(u)
        assert value == expected
        assert counts.divisor_tests == predicted
        assert counts.inner_test_floors == (1 if variant is GCD else 2) * predicted
        assert counts.step_floors == 2 * u


@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_counted_run_at_u_600_matches_all_six_closed_forms(variant):
    # U = 600 scans the j's past the pairs k-major
    _, counts = run_counted(109, 600, EvalMode.INCREMENTAL, variant)  # pi(600) = 109
    tests = closed_form_incremental(600)
    assert counts.gcd_calls == (tests if variant is GCD else 0)
    assert counts.delta_calls == (0 if variant is GCD else tests)
    assert counts.inner_test_floors == (1 if variant is GCD else 2) * tests
    assert counts.indicator_floors == 599
    assert counts.step_floors == 1200
    assert counts.additions == 3000
    assert AuditRow(600, EvalMode.INCREMENTAL, variant, counts, tests).match


@pytest.mark.parametrize("tally", [f.name for f in dataclasses.fields(OpCounts)])
@pytest.mark.parametrize("variant", [GCD, DELTA])
@pytest.mark.parametrize("mode", [EvalMode.NAIVE, EvalMode.INCREMENTAL])
def test_audit_row_rejects_any_tally_off_by_one(tally, variant, mode):
    _, counts = run_counted(30, 30, mode, variant)
    tests = closed_form_naive(30) if mode is EvalMode.NAIVE else closed_form_incremental(30)
    assert AuditRow(30, mode, variant, counts, tests).match
    for off in (-1, 1):
        wrong = dataclasses.replace(counts, **{tally: getattr(counts, tally) + off})
        assert not AuditRow(30, mode, variant, wrong, tests).match


def test_counted_runs_never_read_or_fill_the_store():
    core._reset_stores()
    for variant in (GCD, DELTA):
        for mode in (EvalMode.NAIVE, EvalMode.INCREMENTAL):
            run_counted(5, 300, mode, variant)  # j's on both sides of _SMALL_J
        assert core._STORES[variant].n == 1


def test_run_counted_guards():
    with pytest.raises(DomainError):
        run_counted(3, 0)
    with pytest.raises(RangeError):
        run_counted(3, 2001, EvalMode.NAIVE)
    # the quadratic mode predicts 1,999,000 divisor tests here, well inside the budget
    value, _ = run_counted(0, 2001, EvalMode.INCREMENTAL, DELTA)
    assert value == 2


# --------------------------------------------------------------- audit_range


def test_audit_range_examples():
    rows = audit_range(2, 50)
    assert len(rows) == 98
    assert all(row.match for row in rows)

    rows = audit_range(2, 2)
    assert [row.measured.gcd_calls for row in rows] == [0, 0]

    rows = audit_range(10, 10)
    by_mode = {row.mode: row for row in rows}
    assert by_mode[EvalMode.NAIVE].measured.gcd_calls == 120
    assert by_mode[EvalMode.INCREMENTAL].measured.gcd_calls == 36


def test_audit_range_delta_variant():
    rows = audit_range(2, 30, variant=DELTA)
    assert all(row.match for row in rows)
    assert all(row.measured.gcd_calls == 0 for row in rows)


def test_audit_range_guards():
    with pytest.raises(DomainError):
        audit_range(1, 5)
    with pytest.raises(DomainError):
        audit_range(10, 5)
    with pytest.raises(RangeError):
        audit_range(2, 2001)
    # incremental-only rows past U = 2000 are well inside the budget
    rows = audit_range(2040, 2042, modes=(EvalMode.INCREMENTAL,))
    assert all(row.match for row in rows)


@pytest.mark.parametrize("mode", [EvalMode.NAIVE, EvalMode.INCREMENTAL])
def test_counted_runs_step_every_prefix_in_one_array_fold(monkeypatch, mode):
    folds = []
    real = audit._steps

    def recording(prefix, x, counter=None):
        folds.append(list(prefix))
        return real(prefix, x, counter)

    monkeypatch.setattr(audit, "_steps", recording)
    value, counts = run_counted(3, 12, mode)
    assert folds == [[0, 1, 2, 2, 3, 3, 4, 4, 4, 4, 5, 5]]  # S(1..12)
    assert value == 7 and counts.step_floors == 24


@pytest.mark.parametrize("x", [2**63, NAT_MAX - 1])
def test_counted_step_divides_by_any_64_bit_x_plus_1(x):
    for mode in (EvalMode.NAIVE, EvalMode.INCREMENTAL):
        assert run_counted(x, 10, mode)[0] == 11  # every S(i) <= x: all ten steps are 1
    with pytest.raises(OverflowError):
        run_counted(NAT_MAX, 10)  # x + 1 leaves the range
