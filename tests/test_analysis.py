"""Signature separation, schedule divergence, minimality, axiom conformance."""

import math
import tracemalloc

import numpy as np
import pytest
from test_enumerator import record_scans
from test_schedules import B, with_primes

from primefold import (
    BoundsReport,
    DomainError,
    RangeError,
    SignatureFamily,
    build_sieve,
    check_forward_count_axiom,
    check_minimality,
    check_schedule_divergence,
    check_signature_separation,
    sieve_for_nth,
    signature,
    u_lin,
)
from primefold import analysis, core, schedules
from primefold.schedules import DIVERGENCE_X_MIN


def log_ratio(x):
    """r(x) = (x+1) ln 2 - ln u_lin(x), one x at a time."""
    return (x + 1) * math.log(2.0) - math.log(u_lin(x))


def loop_divergence(x_max, ratios):
    """Reference: check_schedule_divergence as a loop over x, with r(x) = ratios[x] where given."""
    r10 = prev = ratios.get(DIVERGENCE_X_MIN, log_ratio(DIVERGENCE_X_MIN))
    violations = []
    min_gap = None
    for x in range(DIVERGENCE_X_MIN + 1, x_max + 1):
        r = ratios.get(x, log_ratio(x))
        gap = r - prev
        if gap <= 4 * math.ulp(prev):
            violations.append((x, r, prev))
        if min_gap is None or gap < min_gap:
            min_gap = gap
        prev = r
    if x_max >= 60 and prev - (r10 + 10.0) <= 4 * math.ulp(r10 + 10.0):
        violations.append((x_max, prev, r10 + 10.0))
    return BoundsReport("schedule-log-ratio-divergence", (1, x_max), tuple(violations), min_gap)


def loop_minimality(x_max, table, lowers):
    """Reference: check_minimality as a loop over x, with p_lower(n) = lowers[n] where given."""
    violations = []
    min_rel = None
    for x in range(5, x_max + 1):
        p = table.nth_prime(x + 1)
        n = x + 1
        lower = lowers.get(n, n * (math.log(n) + math.log(math.log(n)) - 1.0)) - 1.0
        lhs = float(p - 1)
        if lhs - lower <= 4 * math.ulp(lower):
            violations.append((x, lhs, lower))
        rel = (lhs - lower) / lower
        if min_rel is None or rel < min_rel:
            min_rel = rel
        if u_lin(x) < p - 1:
            violations.append((x, float(u_lin(x)), float(p - 1)))
    return BoundsReport("schedule-minimality-chain", (5, x_max), tuple(violations), min_rel)


def doctor(monkeypatch, name, values):
    """Replace schedules.<name>, a function of a block of keys (and of any further arrays), by
    one that returns values[key] at each key of `values`."""
    real = getattr(schedules, name)

    def doctored(keys, *rest):
        out = real(keys, *rest)
        for key, value in values.items():
            out[keys == key] = value
        return out

    monkeypatch.setattr(schedules, name, doctored)


def test_signature_constants():
    assert signature(SignatureFamily.FOLDED).coords == (0, 0, 0, 0, 1, 1)
    assert signature(SignatureFamily.WILLANS).coords == (1, 1, 1, 0, 0, 0)
    assert signature(SignatureFamily.MILLS).coords == (0, 0, 1, 0, 0, 0)


def test_signatures_pairwise_distinct():
    vectors = [signature(f).coords for f in SignatureFamily]
    assert len(set(vectors)) == 3


def test_folded_and_willans_palettes_disjoint():
    folded = signature(SignatureFamily.FOLDED).coords
    willans = signature(SignatureFamily.WILLANS).coords
    assert tuple(a & w for a, w in zip(folded, willans)) == (0, 0, 0, 0, 0, 0)
    assert folded != signature(SignatureFamily.MILLS).coords


def test_signature_separation_report():
    report = check_signature_separation()
    assert report.passed
    assert report.violations == ()


def test_schedule_divergence():
    report = check_schedule_divergence(100)
    assert report.passed
    assert report.min_slack > 0  # every consecutive log-ratio increase
    # spot value: the log ratio matches a direct evaluation
    r10 = 11 * math.log(2.0) - math.log(u_lin(10))
    r100 = 101 * math.log(2.0) - math.log(u_lin(100))
    assert r100 > r10 + 10


def test_schedule_divergence_requires_x_max_10():
    with pytest.raises(DomainError):
        check_schedule_divergence(9)


def test_minimality_chain(big_sieve):
    report = check_minimality(200, big_sieve)
    assert report.passed
    assert report.min_slack > 1e-6
    # x = 5 anchor: p_6 - 1 = 12 vs 6(ln 6 + ln ln 6 - 1) - 1
    lower = 6 * (math.log(6) + math.log(math.log(6)) - 1.0) - 1.0
    assert lower == pytest.approx(7.254, abs=5e-3)
    assert 12 >= lower


def test_minimality_requires_x_max_5(small_sieve):
    with pytest.raises(DomainError):
        check_minimality(4, small_sieve)


def test_forward_count_axiom(small_sieve):
    report = check_forward_count_axiom(50, small_sieve)
    assert report.passed


def test_forward_count_axiom_fills_a_cold_store_in_one_wide_scan(monkeypatch, small_sieve):
    # u_lin(200) = 1414: every trace of the sweep reads what this one k-major scan stored
    calls = record_scans(monkeypatch)
    core._reset_stores()
    assert check_forward_count_axiom(200, small_sieve).passed
    assert calls == [(2, 1414)]


def test_minimality_and_the_axiom_reject_a_short_table_before_any_scan(monkeypatch):
    calls = record_scans(monkeypatch)
    core._reset_stores()
    with pytest.raises(RangeError):
        check_minimality(100, build_sieve(50))
    with pytest.raises(RangeError):
        check_forward_count_axiom(100, build_sieve(50))
    assert calls == []


def test_forward_count_axiom_trace_guard(small_sieve):
    with pytest.raises(RangeError):
        check_forward_count_axiom(201, small_sieve)


def test_forward_count_axiom_reports_each_kind_of_bad_trace(monkeypatch, small_sieve):
    real = analysis.trace

    def doctored(x, schedule):
        record = real(x, schedule)
        steps = record.steps.copy()
        if x == 1:
            steps[0] = 2  # not a {0, 1} value
        elif x == 2:
            steps[-1] = 1  # rises again after the flip at p_3 = 5
        elif x == 3:
            steps[5] = 0  # flips at i = 6, before p_4 = 7
        return record._replace(steps=steps)

    monkeypatch.setattr(analysis, "trace", doctored)
    report = check_forward_count_axiom(10, small_sieve)
    assert report.violations == ((1, 2.0, 0.0), (2, -1.0, 5.0), (3, 6.0, 7.0))


def test_minimality_margin_of_one_ulp_is_a_violation(monkeypatch, small_sieve):
    lower = math.nextafter(12.0, 0.0)  # one ulp below p_6 - 1 = 12, the left side at x = 5
    tight = math.nextafter(13.0, 0.0)  # the same binade, so tight - 1.0 == lower exactly
    doctor(monkeypatch, "p_lower", {6: tight})
    assert tight - 1.0 == lower and 12.0 - lower == math.ulp(lower)
    report = check_minimality(50, small_sieve)
    assert report.violations == ((5, 12.0, lower),)
    assert report.min_slack == math.ulp(lower) / lower


@pytest.mark.parametrize("x", [20, B], ids=["inside-a-block", "across-a-block-edge"])
def test_divergence_gap_of_one_ulp_is_a_violation(monkeypatch, x):
    # at x = B the sweep's second block compares r(B) with the r(B - 1) its first block carried
    before = log_ratio(x - 1)
    tight = math.nextafter(before, math.inf)  # r(x) - r(x - 1) is one ulp of r(x - 1)
    doctor(monkeypatch, "_log_ratios", {x: tight})
    report = check_schedule_divergence(B + 100)
    assert report.violations == ((x, tight, before),)
    assert report.min_slack == math.ulp(before) > 0.0


def test_schedule_divergence_streams_its_log_ratios():
    table = sieve_for_nth(200_001)
    for check in (lambda: check_schedule_divergence(200_000),
                  lambda: check_minimality(200_000, table)):
        tracemalloc.start()
        try:
            assert check().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one list of every r(x) peaked near 8 MB here


def test_minimality_reads_the_last_prime_of_its_table_and_no_further(monkeypatch):
    table = build_sieve(50)  # 15 primes
    real, blocks = schedules._lin_bound, []
    monkeypatch.setattr(schedules, "_lin_bound", lambda xs: blocks.append(xs.size) or real(xs))
    with pytest.raises(RangeError):  # p_16 is past the table: a slice would drop it silently
        check_minimality(table.prime_count, table)
    assert blocks == []
    assert check_minimality(table.prime_count - 1, table).passed
    assert blocks == [table.prime_count - 5]


RANGES = [10, 11, 59, 60, 61, B - 1, B, B + 1, 2 * B + 5]  # B - 1 ends the sweep's first block

# r(x) dropping at x = 60, at the last x of the first block and the first x of the second
DIVERGENCE_EDGES = {60: 0.0, B - 1: 1.0, B: 0.5}


@pytest.mark.parametrize("x_max", RANGES)
@pytest.mark.parametrize("ratios", [{}, DIVERGENCE_EDGES], ids=["sieve", "edges"])
def test_divergence_blocks_equal_the_loop_over_x(monkeypatch, x_max, ratios):
    doctor(monkeypatch, "_log_ratios", ratios)
    got = check_schedule_divergence(x_max)
    assert got.to_dict() == loop_divergence(x_max, ratios).to_dict()


# p_{x+1} past u_lin(x) at the last x of the first block, too small for the real link at the
# first x of the second, and past u_lin again one x later
MINIMALITY_EDGES = ({B - 1: 10**8, B: 2, B + 1: 10**8}, {})
# both links fail at x = 7 and at x = B - 1: p_{x+1} past u_lin(x), p_lower(x + 1) past p_{x+1}
MINIMALITY_BOTH = ({7: 10**6, B - 1: 10**9}, {8: 1e7, B: 1e10})


@pytest.mark.parametrize("x_max", [5] + RANGES)
@pytest.mark.parametrize("primes,lowers", [({}, {}), MINIMALITY_EDGES, MINIMALITY_BOTH],
                         ids=["sieve", "edges", "both-links"])
def test_minimality_blocks_equal_the_loop_over_x(monkeypatch, big_sieve, x_max, primes, lowers):
    table = with_primes(big_sieve, primes)
    doctor(monkeypatch, "p_lower", lowers)
    got = check_minimality(x_max, table)
    assert got.to_dict() == loop_minimality(x_max, table, lowers).to_dict()


def test_minimality_doctorings_land_where_they_are_aimed(monkeypatch, big_sieve):
    assert [v[0] for v in check_minimality(2 * B + 5, with_primes(
        big_sieve, MINIMALITY_EDGES[0])).violations] == [B - 1, B, B + 1]
    doctor(monkeypatch, "p_lower", MINIMALITY_BOTH[1])
    rows = check_minimality(2 * B + 5, with_primes(big_sieve, MINIMALITY_BOTH[0])).violations
    assert rows == ((7, 10.0**6 - 1, 1e7 - 1), (7, float(u_lin(7)), 10.0**6 - 1),
                    (B - 1, 10.0**9 - 1, 1e10 - 1), (B - 1, float(u_lin(B - 1)), 10.0**9 - 1))
