"""CLI behavior: outputs, exit codes, JSON determinism and round-trip."""

import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import primefold
from primefold import closed_form_incremental, closed_form_naive, core, sieve_for_nth, u_lin
from primefold.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
# a child interpreter imports the same package as this one
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(primefold.__file__).parents[1])}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nth_prime_prints_value(capsys):
    code, out, _ = run_cli(capsys, "nth-prime", "19")
    assert code == 0
    assert out == "71\n"


def test_nth_prime_x0(capsys):
    code, out, _ = run_cli(capsys, "nth-prime", "0")
    assert code == 0
    assert out == "2\n"


@pytest.mark.parametrize("flags", [
    ("--schedule", "sq"),
    ("--mode", "naive"),
    ("--variant", "delta"),
])
def test_nth_prime_flag_combinations(capsys, flags):
    code, out, _ = run_cli(capsys, "nth-prime", "12", *flags)
    assert code == 0
    assert out == "41\n"


def test_nth_prime_rejects_negative(capsys):
    assert run_cli(capsys, "nth-prime", "-1")[0] == 2


def test_nth_prime_rejects_garbage(capsys):
    assert run_cli(capsys, "nth-prime", "seven")[0] == 2


def test_unknown_command_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_table_matches_golden_file(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "19", "--json")
    assert code == 0
    assert out == (GOLDEN_DIR / "table_max19.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv,golden", [
    (("validate", "--max", "2000"), "validate_max2000.json"),
    (("compare", "--max", "800"), "compare_max800.json"),
    (("audit", "--u-max", "30", "--variant", "delta"), "audit_umax30_delta.json"),
    (("audit", "--u-min", "2", "--u-max", "80"), "audit_umax80.json"),
    (("trace", "40", "--schedule", "sq"), "trace40_sq.json"),
    (("verify", "--max", "300", "--sweep-max", "40", "--audit-max", "30"), "verify_max300.json"),
])
def test_sweeps_match_golden_files(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


def test_table_outputs_first_twenty_primes(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "19", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "ok"
    values = [row[1] for row in doc["outputs"]["rows"]]
    assert values == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    assert all(row[3] for row in doc["outputs"]["rows"])


def test_table_max0(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "0", "--json")
    assert code == 0
    assert json.loads(out)["outputs"]["rows"] == [[0, 2, 2, True]]


def test_table_range_guard(capsys):
    assert run_cli(capsys, "table", "--max", "10001")[0] == 3


def _no_scan(*args, **kwargs):
    raise AssertionError("an over-budget command reached the k-scan kernel")


@pytest.mark.parametrize("argv,predicted", [
    (("nth-prime", "1000000000000"), None),  # the count itself overflows 64 bits
    (("record-lift", "1000000"), closed_form_incremental(u_lin(1_000_000))),
    (("table", "--max", "10001"), closed_form_incremental(u_lin(10_001))),
    (("trace", "10000"), closed_form_incremental(u_lin(10_000))),
    (("audit", "--u-max", "500"),
     sum(closed_form_naive(u) + closed_form_incremental(u) for u in range(2, 501))),
    (("verify", "--sweep-max", "100000"), closed_form_incremental(u_lin(100_000))),
    (("verify", "--audit-max", "423"),
     sum(closed_form_naive(u) + closed_form_incremental(u) for u in range(2, 424))),
])
def test_over_budget_input_exits_3_before_any_scan(monkeypatch, capsys, argv, predicted):
    core._reset_stores()  # a warm store would hide a scan that runs before the rejection
    monkeypatch.setattr(core, "_scan_hits", _no_scan)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert predicted is None or predicted > core.MAX_DIVISOR_TESTS
    assert (f"predicts {predicted} divisor tests" if predicted else "64-bit natural range") in err


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "table", "--max", "19", "--json")
    _, second, _ = run_cli(capsys, "table", "--max", "19", "--json")
    assert first == second


def test_trace_json(capsys):
    code, out, _ = run_cli(capsys, "trace", "3", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["outputs"]["result"] == 7
    assert doc["outputs"]["flip_index"] == 7
    rows = doc["outputs"]["rows"]
    assert [r[1] for r in rows[1:7]] == [1, 1, 0, 1, 0, 1]
    assert [r[2] for r in rows[1:7]] == [1, 2, 2, 3, 3, 4]


def test_trace_human_mentions_flip(capsys):
    code, out, _ = run_cli(capsys, "trace", "3")
    assert code == 0
    assert "flip at i = 7; result = 7" in out


def test_trace_range_guard_exits_3(capsys):
    assert run_cli(capsys, "trace", "10000")[0] == 3


def test_record_lift(capsys):
    code, out, _ = run_cli(capsys, "record-lift", "10")
    assert code == 0
    assert out == "P* = 31 (prime, > 10)\n"


def test_record_lift_rejects_small_l(capsys):
    assert run_cli(capsys, "record-lift", "1")[0] == 2


def test_record_lift_sieves_once(monkeypatch, capsys):
    import primefold.cli as cli
    import primefold.enumerator as enumerator

    calls = []

    def counting(n):
        calls.append(n)
        return sieve_for_nth(n)

    monkeypatch.setattr(cli, "sieve_for_nth", counting)
    monkeypatch.setattr(enumerator, "sieve_for_nth", counting)
    code, out, _ = run_cli(capsys, "record-lift", "10", "--json")
    assert code == 0
    assert json.loads(out)["outputs"] == {"exceeds_input": True, "is_prime": True, "p_star": 31}
    assert calls == [11]


def test_record_lift_postcondition_failure_exits_1(monkeypatch, capsys):
    import primefold.enumerator as enumerator

    monkeypatch.setattr(enumerator, "evaluate", lambda *a, **kw: 33)  # 3 * 11
    code, out, err = run_cli(capsys, "record-lift", "10")
    assert (code, out) == (1, "")
    assert err.startswith("error: record-lift postcondition failed at L=10")


def test_audit_all_match(capsys):
    code, out, _ = run_cli(capsys, "audit", "--u-min", "2", "--u-max", "20", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "ok"
    assert len(doc["outputs"]["rows"]) == 38
    assert all(row["match"] for row in doc["outputs"]["rows"])


def test_audit_delta_variant(capsys):
    code, out, _ = run_cli(capsys, "audit", "--u-max", "12", "--variant", "delta", "--json")
    rows = json.loads(out)["outputs"]["rows"]
    assert code == 0
    assert len(rows) == 22
    assert all(row["variant"] == "delta" and row["match"] for row in rows)
    assert all(row["measured"]["gcd_calls"] == 0 for row in rows)
    assert rows[-1]["measured"]["delta_calls"] == 55


def test_audit_human_shows_additions(capsys):
    code, out, _ = run_cli(capsys, "audit", "--u-max", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].split() == [
        "U", "mode", "divisor_tests", "predicted", "step_floors", "additions", "match",
    ]
    assert lines[1].split() == ["2", "naive", "0", "0", "4", "9", "yes"]


def test_audit_bad_range_exits_2(capsys):
    assert run_cli(capsys, "audit", "--u-min", "1", "--u-max", "5")[0] == 2


def test_validate(capsys):
    code, out, _ = run_cli(capsys, "validate", "--max", "60", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "ok"
    assert [r["passed"] for r in doc["outputs"]["reports"]] == [True] * 4


def test_compare(capsys):
    code, out, _ = run_cli(capsys, "compare", "--max", "60", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "ok"
    claims = [r["claim_id"] for r in doc["outputs"]["reports"]]
    assert claims == [
        "operator-signature-separation",
        "schedule-log-ratio-divergence",
        "schedule-minimality-chain",
        "forward-count-axiom",
    ]


VERIFY_CLAIMS = [
    "schedule-sq-covers-next-prime",
    "schedule-lin-covers-next-prime",
    "square-schedule-base-cases",
    "lin-schedule-real-bound",
    "schedule-willans-covers-next-prime",
    "operator-signature-separation",
    "schedule-log-ratio-divergence",
    "schedule-minimality-chain",
    "forward-count-axiom",
    "enumerator-matches-sieve",
    "record-lift-exceeds-input",
    "audit-closed-forms",
]
VERIFY_SMALL = ("verify", "--max", "60", "--sweep-max", "20", "--audit-max", "12", "--json")


def test_verify_passes_every_claim_in_order(capsys):
    code, out, _ = run_cli(capsys, *VERIFY_SMALL)
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["inputs"] == {"max": 60, "sweep_max": 20, "audit_max": 12}
    reports = doc["outputs"]["reports"]
    assert [r["claim_id"] for r in reports] == VERIFY_CLAIMS
    assert all(r["passed"] for r in reports)
    assert reports[9]["x_range"] == [0, 20]
    assert reports[11]["x_range"] == [2, 12]


def test_verify_human_prints_one_pass_line_per_claim(capsys):
    code, out, _ = run_cli(capsys, *VERIFY_SMALL[:-1])
    assert code == 0
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["PASS", claim] for claim in VERIFY_CLAIMS
    ]


def test_verify_violation_exits_1(monkeypatch, capsys):
    import primefold.cli as cli

    monkeypatch.setattr(cli, "evaluate", lambda x, **kw: 4)
    code, out, _ = run_cli(capsys, *VERIFY_SMALL)
    doc = json.loads(out)
    assert code == 1
    assert doc["status"] == "violation"
    failed = [r["claim_id"] for r in doc["outputs"]["reports"] if not r["passed"]]
    # the record-lift report reads the same f(L) = 4, a composite, at every L
    assert failed == ["enumerator-matches-sieve", "record-lift-exceeds-input"]


@pytest.mark.parametrize("argv,calls,first", [
    (VERIFY_SMALL, 21 * 4, 20),  # x = 0..20, both schedules, both variants
    (("table", "--max", "19"), 20, 19),
])
def test_sweeps_over_x_evaluate_each_x_once_from_the_largest(monkeypatch, capsys, argv, calls,
                                                             first):
    # the largest x admits the sweep and fills the store; verify's record lifts reuse its values
    import primefold.cli as cli

    real, xs = cli.evaluate, []

    def recording(x, **kwargs):
        xs.append(x)
        return real(x, **kwargs)

    monkeypatch.setattr(cli, "evaluate", recording)
    assert run_cli(capsys, *argv)[0] == 0
    assert (len(xs), xs[0]) == (calls, first)


def test_verify_reports_a_failed_record_lift_as_a_row(monkeypatch, capsys):
    # a wrong f(3) = 9 is neither prime nor lifted past a sieve check: the document still prints
    import primefold.cli as cli
    import primefold.enumerator as enumerator

    real = enumerator.evaluate

    def doctored(x, *args, **kwargs):
        return 9 if x == 3 else real(x, *args, **kwargs)

    for module in (cli, enumerator):
        monkeypatch.setattr(module, "evaluate", doctored)
    code, out, _ = run_cli(capsys, "verify", "--max", "10", "--sweep-max", "5", "--audit-max", "3",
                           "--json")
    doc = json.loads(out)
    assert (code, doc["status"]) == (1, "violation")
    failed = {r["claim_id"]: r["violations"] for r in doc["outputs"]["reports"] if not r["passed"]}
    assert failed["record-lift-exceeds-input"] == [[3, 9.0, 3.0]]
    assert sorted(failed) == ["enumerator-matches-sieve", "record-lift-exceeds-input"]


@pytest.mark.parametrize("flags", [
    ("--max", "3"),
    ("--max", "-1"),
    ("--sweep-max", "x"),
    ("--audit-max", "1"),
])
def test_verify_bad_input_exits_2(capsys, flags):
    assert run_cli(capsys, "verify", *flags)[0] == 2


@pytest.mark.parametrize("flags", [("--max", "1000000", "--audit-max", "1"), ("--max", "5")])
def test_verify_rejects_bad_input_before_any_report_or_scan(monkeypatch, capsys, flags):
    import primefold.cli as cli

    monkeypatch.setattr(core, "_scan_hits", _no_scan)
    for name in ("evaluate", "record_lift", "sieve_for_nth", "audit_range", "validate_schedule",
                 "_validate_reports", "_compare_reports"):
        monkeypatch.setattr(cli, name, _no_scan)
    code, out, err = run_cli(capsys, "verify", *flags)
    assert (code, out) == (2, "")
    assert "error: " in err


def test_verify_rejects_an_over_limit_sieve_before_any_report_or_scan(monkeypatch, capsys):
    import primefold.cli as cli

    monkeypatch.setattr(core, "_scan_hits", _no_scan)
    for name in ("evaluate", "record_lift", "sieve_for_nth", "audit_range", "validate_schedule",
                 "_validate_reports", "_compare_reports"):
        monkeypatch.setattr(cli, name, _no_scan)
    code, out, err = run_cli(capsys, "verify", "--max", "10000000", "--sweep-max", "1500", "--json")
    assert (code, out) == (3, "")
    assert "memory budget" in err


def test_violation_status_maps_to_exit_1(monkeypatch, capsys):
    # no real claim fails, so force a disagreement through the table path
    import primefold.cli as cli

    monkeypatch.setattr(cli, "evaluate", lambda x, **kw: 4)
    code, out, _ = run_cli(capsys, "table", "--max", "3", "--json")
    assert code == 1
    assert json.loads(out)["status"] == "violation"


def test_interrupt_exits_130_without_a_traceback(monkeypatch, capsys):
    import primefold.cli as cli

    def interrupted(x, **kw):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "evaluate", interrupted)
    assert run_cli(capsys, "nth-prime", "5") == (130, "", "interrupted\n")


def test_interrupt_during_a_split_scan_exits_130_within_two_seconds():
    # about 700M gcd tests: 2 s in, the prefill's k-major scan is running on every worker
    child = subprocess.Popen([sys.executable, "-m", "primefold", "nth-prime", "4000"],
                             env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
    try:
        time.sleep(2)
        child.send_signal(signal.SIGINT)
        sent = time.monotonic()
        out, err = child.communicate(timeout=10)
        waited = time.monotonic() - sent
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, out, err) == (130, "", "interrupted\n")
    assert waited < 2


@pytest.mark.parametrize("argv", [("nth-prime", "600"), ("table", "--max", "60")])
def test_json_output_is_the_same_on_one_worker_and_two(monkeypatch, capsys, argv):
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(core, "_WORKERS", workers)
        core._reset_stores()
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_closed_stdout_exits_141_without_a_traceback(monkeypatch, capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now raises BrokenPipeError
    with open(write_end, "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        code = main(["table", "--max", "3"])
        monkeypatch.undo()
        assert os.path.samestat(os.fstat(pipe.fileno()), os.stat(os.devnull))
    assert code == 141
    assert capsys.readouterr() == ("", "")


def test_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "validate", "--max", "30", "--json")
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


HUMAN_TEXT = {
    "nth_prime_19.txt": ("nth-prime", "19"),
    "table_max19.txt": ("table", "--max", "19"),
    "trace_3.txt": ("trace", "3"),
    "record_lift_10.txt": ("record-lift", "10"),
    "audit_umax12.txt": ("audit", "--u-max", "12"),
    "validate_max300.txt": ("validate", "--max", "300"),
    "compare_max120.txt": ("compare", "--max", "120"),
    "verify_max300.txt": ("verify", "--max", "300", "--sweep-max", "40", "--audit-max", "30"),
    "help.txt": ("--help",),
    **{
        f"help_{command}.txt": (command, "--help")
        for command in ("nth-prime", "table", "trace", "record-lift", "audit", "validate",
                        "compare", "verify")
    },
}


@pytest.mark.parametrize("golden,argv", HUMAN_TEXT.items(), ids=list(HUMAN_TEXT))
def test_human_text_matches_golden_files(monkeypatch, capsys, golden, argv):
    # argparse wraps its help to the terminal width; at 100 columns Python 3.10-3.13 agree
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "human" / golden).read_text(encoding="utf-8")


def test_verify_with_asserts_stripped_matches_its_golden_file():
    argv = ("verify", "--max", "300", "--sweep-max", "40", "--audit-max", "30", "--json")
    run = subprocess.run([sys.executable, "-O", "-m", "primefold", *argv], env=CHILD_ENV,
                         capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (GOLDEN_DIR / "verify_max300.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv,golden", [
    (("audit", "--u-min", "2", "--u-max", "80"), "audit_umax80.json"),
    (("audit", "--u-min", "2", "--u-max", "30", "--variant", "delta"), "audit_umax30_delta.json"),
    (("validate", "--max", "2000"), "validate_max2000.json"),
    (("compare", "--max", "800"), "compare_max800.json"),
    (("trace", "40", "--schedule", "sq"), "trace40_sq.json"),
])
def test_sweeps_with_asserts_stripped_match_their_golden_files(argv, golden):
    run = subprocess.run([sys.executable, "-O", "-m", "primefold", *argv, "--json"],
                         env=CHILD_ENV, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


# an intermediate interpreter reports the peak RSS of its one child alone
PEAK_RSS_PROBE = """
import resource, subprocess, sys
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)  # KiB on Linux
"""


@pytest.mark.parametrize("command", ["validate", "compare", "verify"])
def test_a_million_under_asserts_stripped_peaks_within_80_mb(command):
    argv = (sys.executable, "-O", "-m", "primefold", command, "--max", "1000000", "--json")
    probe = subprocess.run([sys.executable, "-c", PEAK_RSS_PROBE, *argv], env=CHILD_ENV,
                           capture_output=True, text=True, check=True)
    code, peak_kib = map(int, probe.stdout.split())
    assert code == 0
    assert peak_kib / 1024 <= 80


# U = 2000 stops short of the flip p_304 = 2003, so all 2000 steps are 1 and the value is 2001
LARGEST_NAIVE_RUN = """
import sys
from primefold import EvalMode, IndicatorVariant, run_counted
sys.exit(run_counted(303, 2000, EvalMode.NAIVE, IndicatorVariant.DELTA)[0] != 2001)
"""


@pytest.mark.parametrize("argv", [
    (sys.executable, "-c", LARGEST_NAIVE_RUN),
    ("timeout", "60", sys.executable, "-m", "primefold", "audit", "--u-min", "2", "--u-max", "422",
     "--variant", "delta", "--json"),  # timeout exits 124 past 60 s
])
def test_the_largest_counted_runs_peak_within_96_mb(argv):
    probe = subprocess.run([sys.executable, "-c", PEAK_RSS_PROBE, *argv], env=CHILD_ENV,
                           capture_output=True, text=True, check=True)
    code, peak_kib = map(int, probe.stdout.split())
    assert code == 0
    assert peak_kib / 1024 <= 96


def test_in_process_runs_and_the_import_freeze_nothing(capsys):
    before = gc.get_freeze_count()
    assert run_cli(capsys, "table", "--max", "3", "--json")[0] == 0
    assert gc.get_freeze_count() == before
    probe = "import gc, primefold; print(gc.get_freeze_count())"
    run = subprocess.run([sys.executable, "-c", probe], env=CHILD_ENV, capture_output=True,
                         text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "0\n", "")


def test_entry_freezes_the_heap_once_after_main_returns_and_exits_with_its_code(monkeypatch):
    import primefold.cli as cli

    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))  # this process stays unfrozen
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert (calls, exit_info.value.code) == (["main", "freeze"], 7)


@pytest.mark.parametrize("x,code", [("-1", 2), ("1000000000000", 3)], ids=["-1", "1000000000000"])
def test_a_child_exits_with_the_in_process_code_and_error_line(monkeypatch, capsys, x, code):
    # argparse wraps its usage to the terminal width, so both sides get the same one
    monkeypatch.setenv("COLUMNS", "100")
    run = subprocess.run([sys.executable, "-m", "primefold", "nth-prime", x],
                         env={**CHILD_ENV, "COLUMNS": "100"}, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == run_cli(capsys, "nth-prime", x)
    assert run.returncode == code
    assert "error: " in run.stderr.splitlines()[-1]


# stdout is a pipe, so the handler's line waits in its buffer for the exit flush
ATEXIT_CHILD = """
import atexit, sys
from primefold import cli
atexit.register(print, "atexit handler ran")
sys.argv = ["primefold", "nth-prime", "5"]
cli.entry()
"""


def test_entry_still_runs_atexit_handlers_and_flushes_stdout():
    run = subprocess.run([sys.executable, "-c", ATEXIT_CHILD], env=CHILD_ENV,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "13\natexit handler ran\n", "")
