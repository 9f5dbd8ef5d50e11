"""Operation-count audits vs. the closed forms.

The in-file oracle evaluates the defining double/single sums directly
(number of divisor tests = sum over executed k-loops of their length);
closed forms were frozen from it before being asserted against measured
counts.
"""

import itertools
from math import comb

import numpy as np
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
    build_sieve,
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
def test_counted_runs_return_the_prime_with_closed_form_tallies(small_sieve, variant, mode):
    for x in (0, 4, 9, 25):  # U = 5, 14, 32, 104
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
    # U = 600: one k-major scan of 598 rows
    _, counts = run_counted(109, 600, EvalMode.INCREMENTAL, variant)  # pi(600) = 109
    tests = closed_form_incremental(600)
    assert counts.gcd_calls == (tests if variant is GCD else 0)
    assert counts.delta_calls == (0 if variant is GCD else tests)
    assert counts.inner_test_floors == (1 if variant is GCD else 2) * tests
    assert counts.indicator_floors == 599
    assert counts.step_floors == 1200
    assert counts.additions == 3000
    assert AuditRow(600, EvalMode.INCREMENTAL, variant, counts, tests).match


@pytest.mark.parametrize("tally", OpCounts._fields)
@pytest.mark.parametrize("variant", [GCD, DELTA])
@pytest.mark.parametrize("mode", [EvalMode.NAIVE, EvalMode.INCREMENTAL])
def test_audit_row_rejects_any_tally_off_by_one(tally, variant, mode):
    _, counts = run_counted(30, 30, mode, variant)
    tests = closed_form_naive(30) if mode is EvalMode.NAIVE else closed_form_incremental(30)
    assert AuditRow(30, mode, variant, counts, tests).match
    for off in (-1, 1):
        wrong = counts._replace(**{tally: getattr(counts, tally) + off})
        assert not AuditRow(30, mode, variant, wrong, tests).match


def test_counted_runs_never_read_or_fill_the_store():
    core._reset_stores()
    for variant in (GCD, DELTA):
        for mode in (EvalMode.NAIVE, EvalMode.INCREMENTAL):
            run_counted(5, 300, mode, variant)
        assert core._STORES[variant].size - 1 == 1


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
    real = audit._fold

    def recording(prefix, x):
        folds.append(list(prefix))
        return real(prefix, x)

    monkeypatch.setattr(audit, "_fold", recording)
    value, counts = run_counted(3, 12, mode)
    assert folds == [[0, 1, 2, 2, 3, 3, 4, 4, 4, 4, 5, 5]]  # S(1..12)
    assert value == 7 and counts.step_floors == 24


@pytest.mark.parametrize("x", [2**63, NAT_MAX - 1])
def test_counted_step_divides_by_any_64_bit_x_plus_1(x):
    for mode in (EvalMode.NAIVE, EvalMode.INCREMENTAL):
        assert run_counted(x, 10, mode)[0] == 11  # every S(i) <= x: all ten steps are 1
    with pytest.raises(OverflowError):
        run_counted(NAT_MAX, 10)  # x + 1 leaves the range


# ------------------------------------------------------ counted naive rescans


def selected(a, where):
    """The elements of the output `a` that a `_divisor_tests` call's `where` selects."""
    return int(np.count_nonzero(np.broadcast_to(where, a.shape)))


def one_scan_at_a_time(variant, scans):
    """(I(2..i), divisor tests) of each scan i, one `_scan_hits(2, i)` call each: the tests are
    the elements that `_divisor_tests` evaluated, counted as it evaluates them."""
    tested, reference = [], []
    divisor_tests = core._divisor_tests

    def recording(ks, js, js1, a, b, variant, where=True):
        n = selected(a, where)  # counted before the +=, which another thread must not split
        tested[-1] += n
        return divisor_tests(ks, js, js1, a, b, variant, where)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_divisor_tests", recording)
        for i in scans:
            tested.append(0)
            reference.append(((1 // (1 + core._scan_hits(2, i, variant))).tolist(), tested[-1]))
    return reference


# every U up to 64, and wider scans
SPREAD = [*range(1, 65), 100, 150, 200, 255, 256, 257, 260, 300]


@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_batched_rescans_equal_one_scan_per_rescan(variant):
    reference = one_scan_at_a_time(variant, range(1, max(SPREAD) + 1))
    for u in SPREAD:  # a naive run at U evaluates the scans i = 1..U
        table, tests, floors = audit._counted_scans(np.arange(1, u + 1, dtype=np.uint32), variant)
        assert table.shape == (u, u + 1)
        for i, (ind, _) in enumerate(reference[:u], 1):
            assert table[i - 1].tolist() == [0, 0, *ind, *[0] * (u - i)]
        assert tests.tolist() == [tested for _, tested in reference[:u]]
        assert floors.tolist() == [len(ind) for ind, _ in reference[:u]]


# scan ends out of order and repeated: each scan still gets its own I's and tests
UNSORTED = [5, 1, 9, 9, 2, 30, 3]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_counted_scans_of_unsorted_ends_equal_one_scan_at_a_time(monkeypatch, variant, workers):
    reference = one_scan_at_a_time(variant, UNSORTED)
    monkeypatch.setattr(core, "_WORKERS", workers)  # 3 is more threads than this host may have
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 8)  # every gcd scan splits
    table, tests, floors = audit._counted_scans(np.array(UNSORTED, np.uint32), variant)
    for row, i, (ind, _) in zip(table, UNSORTED, reference):
        assert row.tolist() == [0, 0, *ind, *[0] * (max(UNSORTED) - i)]
    assert tests.tolist() == [tested for _, tested in reference]
    assert floors.tolist() == [len(ind) for ind, _ in reference]


@pytest.mark.parametrize("ends", [UNSORTED, list(range(1, 41))])
@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_counted_tests_come_from_the_rows_that_ran(monkeypatch, variant, ends):
    ends = np.array(ends, np.uint32)
    table, tests, floors = audit._counted_scans(ends, variant)
    k_major = core._k_major
    for k in (2, 3, 17, int(ends.max()) - 1):

        def dropping(js, v, k=k):  # row k ran, but its start is missing from `ran`
            hits, ran = k_major(js, v)
            ran.remove(int(np.searchsorted(js, k, "right")))  # row k starts at its first j > k
            return hits, ran

        monkeypatch.setattr(core, "_k_major", dropping)
        dropped = audit._counted_scans(ends, variant)
        assert dropped[0].tolist() == table.tolist()  # the I's still hold row k's hits
        fewer = [max(i - k, 0) for i in ends.tolist()]  # in scan i, row k tests the j in (k, i]
        assert dropped[1].tolist() == [t - f for t, f in zip(tests.tolist(), fewer)]
        assert dropped[2].tolist() == floors.tolist()


def one_naive_run_at_a_time(variant, us, xs):
    """(value, tallies) of each naive run at U with x, from its own scans of I(2..i), i = 1..U,
    and a fold in Python; every tally is counted from the elements it covers."""
    gcd, reference, scans = variant is GCD, [], one_scan_at_a_time(variant, range(1, max(us) + 1))
    for u, x in zip(us, xs):
        prefixes = [sum(ind) for ind, _ in scans[:u]]  # S(1..U), each re-summed from its scan
        tested, floors = sum(t for _, t in scans[:u]), sum(len(ind) for ind, _ in scans[:u])
        steps = [1 // (1 + s // (x + 1)) for s in prefixes]
        counts = OpCounts(
            gcd_calls=tested if gcd else 0, delta_calls=0 if gcd else tested,
            inner_test_floors=(1 if gcd else 2) * tested, indicator_floors=floors,
            step_floors=2 * len(steps), additions=floors + floors + 3 * len(steps) + 1,
        )
        reference.append((1 + sum(steps), counts))
    return reference


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_batched_naive_runs_equal_one_run_each(monkeypatch, variant, workers):
    us = range(2, 65)
    xs = [build_sieve(64).pi(u) for u in us]
    reference = one_naive_run_at_a_time(variant, us, xs)
    monkeypatch.setattr(core, "_WORKERS", workers)
    batches, counted_scans = [], audit._counted_scans

    def recording(ends, v):
        batches.append(ends.tolist())
        return counted_scans(ends, v)

    monkeypatch.setattr(audit, "_counted_scans", recording)
    runs_per_batch = set()
    # one run a batch; 27, ..., 2 and 1; all 63 runs in one.  The cap also bounds the kernel's
    # blocks and j-major chunks, so 1 (not 0) is the least: a block a row, split from U = 4
    for cap in (1, 4000, comb(65, 3)):
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", cap)
        batches.clear()
        assert audit._counted_runs(xs, 2, 64, EvalMode.NAIVE, variant) == reference
        assert [i for ends in batches for i in ends] == [i for u in us for i in range(1, u + 1)]
        for ends in batches:
            runs = ends.count(1)  # each naive run's scans start at i = 1
            assert sum(ends) - len(ends) <= cap or runs == 1  # scan i holds i - 1 elements
            runs_per_batch.add(runs)
    assert {1, 2, 27, 63} <= runs_per_batch


def one_row_at_a_time(variant, us, xs):
    """(value, tallies) of each incremental run at U with x, from its own scan of I(2..U) and a
    fold in Python; every tally is counted from the elements it covers."""
    gcd, reference = variant is GCD, []
    for (ind, tested), x in zip(one_scan_at_a_time(variant, us), xs):
        prefixes = list(itertools.accumulate([0, *ind]))  # S(1..U), one update per i
        steps = [1 // (1 + s // (x + 1)) for s in prefixes]  # x + 1 and 1 + q per step
        counts = OpCounts(
            gcd_calls=tested if gcd else 0, delta_calls=0 if gcd else tested,
            inner_test_floors=(1 if gcd else 2) * tested, indicator_floors=len(ind),
            step_floors=2 * len(steps),
            additions=len(ind) + len(prefixes) + 2 * len(steps) + len(steps) + 1,
        )
        reference.append((1 + sum(steps), counts))
    return reference


@pytest.mark.parametrize("variant", [GCD, DELTA])
@pytest.mark.parametrize("u_min,u_max", [(2, 80), (5, 64), (201, 260), (2040, 2042)])
def test_incremental_audit_rows_equal_one_row_at_a_time(variant, u_min, u_max):
    us = range(u_min, u_max + 1)
    xs = [build_sieve(u_max).pi(u) for u in us]
    reference = one_row_at_a_time(variant, us, xs)
    rows = audit_range(u_min, u_max, (EvalMode.INCREMENTAL,), variant)
    assert [row.u for row in rows] == list(us)
    assert [row.measured for row in rows] == [counts for _, counts in reference]
    assert audit._counted_runs(xs, u_min, u_max, EvalMode.INCREMENTAL, variant) == reference


@pytest.mark.parametrize("variant", [GCD, DELTA])
def test_each_counted_run_evaluates_exactly_its_closed_form_of_elements(monkeypatch, variant):
    evaluated, spans = [], []
    divisor_tests = core._divisor_tests

    def recording(ks, js, js1, a, b, variant, where=True):
        evaluated.append(selected(a, where))
        spans.append((a.size, a.shape[0] if a.ndim == 2 else 1))  # (elements, rows) of one call
        return divisor_tests(ks, js, js1, a, b, variant, where)

    monkeypatch.setattr(core, "_divisor_tests", recording)
    for u in (1, 2, 3, 4, 17, 100, 256, 257, 300):
        for mode, tests in ((EvalMode.NAIVE, comb(u, 3)), (EvalMode.INCREMENTAL, comb(u - 1, 2))):
            evaluated.clear()
            spans.clear()
            run_counted(u, u, mode, variant)
            assert sum(evaluated) == tests
            # each call spans at most max(_BLOCK_ELEMENTS, one row) elements, and the widest
            # row, k = 2, holds comb(u - 1, 2): one scan of I(2..u)
            assert all(size <= core._BLOCK_ELEMENTS or rows == 1 and size <= comb(u - 1, 2)
                       for size, rows in spans)


def test_audit_rows_build_the_asdict_document():
    for row in audit_range(2, 12, variant=DELTA):
        expected = {**row._asdict(), "mode": row.mode.value, "variant": row.variant.value,
                    "measured": row.measured._asdict(), "match": row.match}
        assert row.to_dict() == expected
        assert list(row.to_dict()) == list(expected)
        assert row.measured.to_dict() == row.measured._asdict()
        assert list(row.measured.to_dict()) == list(OpCounts._fields)
