"""Signature separation, schedule divergence, minimality, axiom conformance."""

import dataclasses
import math
import tracemalloc

import pytest
from test_enumerator import record_scans

from primefold import (
    DomainError,
    RangeError,
    SignatureFamily,
    build_sieve,
    check_forward_count_axiom,
    check_minimality,
    check_schedule_divergence,
    check_signature_separation,
    signature,
    u_lin,
)
from primefold import analysis, core


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
        return dataclasses.replace(record, steps=steps)

    monkeypatch.setattr(analysis, "trace", doctored)
    report = check_forward_count_axiom(10, small_sieve)
    assert report.violations == ((1, 2.0, 0.0), (2, -1.0, 5.0), (3, 6.0, 7.0))


def test_minimality_margin_of_one_ulp_is_a_violation(monkeypatch, small_sieve):
    real = analysis.p_lower
    lower = math.nextafter(12.0, 0.0)  # one ulp below p_6 - 1 = 12, the left side at x = 5
    tight = math.nextafter(13.0, 0.0)  # the same binade, so tight - 1.0 == lower exactly
    monkeypatch.setattr(analysis, "p_lower", lambda n: tight if n == 6 else real(n))
    assert tight - 1.0 == lower and 12.0 - lower == math.ulp(lower)
    report = check_minimality(50, small_sieve)
    assert report.violations == ((5, 12.0, lower),)


def test_divergence_gap_of_one_ulp_is_a_violation(monkeypatch):
    real = analysis._log_ratio
    r19 = real(19)
    r20 = math.nextafter(r19, math.inf)  # r(20) - r(19) is one ulp of r(19)
    monkeypatch.setattr(analysis, "_log_ratio", lambda x: r20 if x == 20 else real(x))
    report = check_schedule_divergence(100)
    assert report.violations == ((20, r20, r19),)
    assert report.min_slack == math.ulp(r19) > 0.0


def test_schedule_divergence_streams_its_log_ratios():
    tracemalloc.start()
    try:
        assert check_schedule_divergence(200_000).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one list of every r(x) peaks near 8 MB here
