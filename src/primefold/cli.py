"""Command-line front end.

Subcommands: nth-prime, table, trace, record-lift, audit, validate, compare,
verify (every checked claim in one document).
Human-readable text by default; `--json` emits one deterministic document
per invocation (sorted keys, no timestamps).  Exit codes: 0 ok, 1 a checked
claim failed, 2 bad input, 3 overflow/range (including input whose predicted
divisor tests exceed `core.MAX_DIVISOR_TESTS`), 130 interrupted, 141 broken pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import __version__
from .analysis import (
    DIVERGENCE_X_MIN,
    FORWARD_AXIOM_X_MAX,
    check_forward_count_axiom,
    check_minimality,
    check_schedule_divergence,
    check_signature_separation,
)
from .audit import admit_audit, audit_range
from .core import IndicatorVariant
from .enumerator import EvalMode, PostconditionError, evaluate, record_lift, trace
from .nat import DomainError, RangeError
from .oracle import SieveTable, sieve_for_nth, sieve_limit_for_nth
from .reports import BoundsReport
from .schedules import (
    Schedule,
    check_lin_growth_bound,
    square_schedule_base_cases,
    validate_schedule,
)

_SCHEDULES = {"sq": Schedule.SQUARE, "lin": Schedule.LINLOG}
_MODES = {"naive": EvalMode.NAIVE, "incremental": EvalMode.INCREMENTAL}
_VARIANTS = {"gcd": IndicatorVariant.GCD, "delta": IndicatorVariant.DELTA}


@dataclass
class ReportDocument:
    command: str
    inputs: Dict[str, object]
    outputs: Dict[str, object]
    status: str = "ok"  # ok | violation | error

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls(**json.loads(text))


def _nat_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _reports_document(
    command: str, inputs: Dict[str, object], reports: List[BoundsReport]
) -> Tuple[ReportDocument, str]:
    """One document and one PASS/FAIL line (plus violation rows) per report."""
    lines = []
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        slack = "" if r.min_slack is None else f"  min_slack={r.min_slack:.6g}"
        lines.append(f"{tag}  {r.claim_id}  x_range={list(r.x_range)}{slack}")
        for v in r.violations[:10]:
            lines.append(f"      violation at x={v[0]}: lhs={v[1]} rhs={v[2]}")
    doc = ReportDocument(
        command=command,
        inputs=inputs,
        outputs={"reports": [r.to_dict() for r in reports]},
        status="ok" if all(r.passed for r in reports) else "violation",
    )
    return doc, "\n".join(lines)


def _validate_reports(n: int, table: SieveTable) -> List[BoundsReport]:
    return [
        validate_schedule(Schedule.SQUARE, n, table),
        validate_schedule(Schedule.LINLOG, n, table),
        square_schedule_base_cases(table),
        check_lin_growth_bound(n, table),
    ]


def _compare_reports(n: int, table: SieveTable) -> List[BoundsReport]:
    return [
        check_signature_separation(),
        check_schedule_divergence(n),
        check_minimality(n, table),
        check_forward_count_axiom(min(n, FORWARD_AXIOM_X_MAX), table),
    ]


def _cmd_nth_prime(args) -> Tuple[ReportDocument, str]:
    value = evaluate(
        args.x,
        schedule=_SCHEDULES[args.schedule],
        mode=_MODES[args.mode],
        variant=_VARIANTS[args.variant],
    )
    doc = ReportDocument(
        command="nth-prime",
        inputs={
            "x": args.x,
            "schedule": args.schedule,
            "mode": args.mode,
            "variant": args.variant,
        },
        outputs={"value": value},
    )
    return doc, str(value)


def _cmd_table(args) -> Tuple[ReportDocument, str]:
    evaluate(args.max)  # admits the largest row first; the rows then read its store
    table = sieve_for_nth(args.max + 1)
    rows = []
    all_agree = True
    for x in range(args.max + 1):
        value = evaluate(x)
        expected = table.nth_prime(x + 1)
        agree = value == expected
        all_agree &= agree
        rows.append([x, value, expected, agree])
    doc = ReportDocument(
        command="table",
        inputs={"max": args.max},
        outputs={"rows": rows},
        status="ok" if all_agree else "violation",
    )
    lines = ["    x   f(x)  p_(x+1)  agree"]
    for x, value, expected, agree in rows:
        lines.append(f"{x:5d}  {value:5d}  {expected:7d}  {'yes' if agree else 'NO'}")
    return doc, "\n".join(lines)


def _cmd_trace(args) -> Tuple[ReportDocument, str]:
    record = trace(args.x, schedule=_SCHEDULES[args.schedule])
    doc = ReportDocument(
        command="trace",
        inputs={"x": args.x, "schedule": args.schedule},
        outputs={
            "limit": record.limit,
            "rows": [list(row) for row in record.rows],
            "flip_index": record.flip_index,
            "result": record.result,
        },
    )
    lines = [f"x = {record.x}, schedule limit U = {record.limit}", "    i  I(i)  S(i)  A(i,x)"]
    for row in record.rows:
        lines.append(f"{row.i:5d}  {row.indicator:4d}  {row.prefix:4d}  {row.step:6d}")
    lines.append(f"flip at i = {record.flip_index}; result = {record.result}")
    return doc, "\n".join(lines)


def _cmd_record_lift(args) -> Tuple[ReportDocument, str]:
    # record_lift raises PostconditionError unless P* is a prime > L
    p_star = record_lift(args.l, schedule=_SCHEDULES[args.schedule])
    doc = ReportDocument(
        command="record-lift",
        inputs={"l": args.l, "schedule": args.schedule},
        outputs={"p_star": p_star, "is_prime": True, "exceeds_input": True},
    )
    return doc, f"P* = {p_star} (prime, > {args.l})"


def _cmd_audit(args) -> Tuple[ReportDocument, str]:
    rows = audit_range(args.u_min, args.u_max, variant=_VARIANTS[args.variant])
    all_match = all(row.match for row in rows)
    doc = ReportDocument(
        command="audit",
        inputs={"u_min": args.u_min, "u_max": args.u_max},
        outputs={"rows": [row.to_dict() for row in rows]},
        status="ok" if all_match else "violation",
    )
    lines = ["    U  mode         divisor_tests  predicted  step_floors  additions  match"]
    for row in rows:
        lines.append(
            f"{row.u:5d}  {row.mode.value:<11s}  {row.measured.divisor_tests:13d}"
            f"  {row.predicted_gcd:9d}  {row.measured.step_floors:11d}"
            f"  {row.measured.additions:9d}  {'yes' if row.match else 'NO'}"
        )
    return doc, "\n".join(lines)


def _cmd_validate(args) -> Tuple[ReportDocument, str]:
    reports = _validate_reports(args.max, sieve_for_nth(args.max + 1))
    return _reports_document("validate", {"max": args.max}, reports)


def _cmd_compare(args) -> Tuple[ReportDocument, str]:
    reports = _compare_reports(args.max, sieve_for_nth(args.max + 1))
    return _reports_document("compare", {"max": args.max}, reports)


def _cmd_verify(args) -> Tuple[ReportDocument, str]:
    n, sweep = args.max, args.sweep_max
    if n < DIVERGENCE_X_MIN:  # every input is checked before any report or scan runs
        raise DomainError(f"verify requires --max >= {DIVERGENCE_X_MIN}, got {n}")
    admit_audit(2, args.audit_max)
    sieve_limit_for_nth(max(n, sweep) + 1)  # an over-limit sieve exits 3 before the sweeps
    for variant in IndicatorVariant:  # admits the sweeps, then runs them
        evaluate(sweep, variant=variant)
    table = sieve_for_nth(max(n, sweep) + 1)
    reports = [
        *_validate_reports(n, table),
        validate_schedule(Schedule.WILLANS, min(n, 200), table),
        *_compare_reports(n, table),
    ]
    audit_rows = audit_range(2, args.audit_max)
    mismatches = [
        (x, float(value), float(expected))
        for x in range(sweep + 1)
        for schedule in (Schedule.SQUARE, Schedule.LINLOG)
        for variant in IndicatorVariant
        if (value := evaluate(x, schedule=schedule, variant=variant))
        != (expected := table.nth_prime(x + 1))
    ]
    lifts = [(l, record_lift(l)) for l in range(2, sweep + 1)]
    reports += [
        BoundsReport("enumerator-matches-sieve", (0, sweep), tuple(mismatches)),
        BoundsReport(
            "record-lift-exceeds-input",
            (2, sweep),
            tuple((l, float(p), float(l)) for l, p in lifts if not (table.is_prime(p) and p > l)),
        ),
        BoundsReport(
            "audit-closed-forms",
            (2, args.audit_max),
            tuple(
                (row.u, float(row.measured.divisor_tests), float(row.predicted_gcd))
                for row in audit_rows
                if not row.match
            ),
        ),
    ]
    inputs = {"max": n, "sweep_max": sweep, "audit_max": args.audit_max}
    return _reports_document("verify", inputs, reports)


def _add_schedule_flag(sub) -> None:
    sub.add_argument("--schedule", choices=sorted(_SCHEDULES), default="lin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primefold",
        description="Folded prime enumerator: evaluation, traces, audits, bound checks.",
    )
    parser.add_argument("--version", action="version", version=f"primefold {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nth-prime", help="print p_(x+1)")
    p.add_argument("x", type=_nat_arg)
    _add_schedule_flag(p)
    p.add_argument("--mode", choices=sorted(_MODES), default="incremental")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="gcd")
    p.set_defaults(handler=_cmd_nth_prime)

    p = sub.add_parser("table", help="enumerator outputs vs. sieve for x = 0..max")
    p.add_argument("--max", type=_nat_arg, default=19)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("trace", help="per-i breakdown (I, S, A) of one run")
    p.add_argument("x", type=_nat_arg)
    _add_schedule_flag(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("record-lift", help="certified prime > L")
    p.add_argument("l", type=_nat_arg, metavar="L")
    _add_schedule_flag(p)
    p.set_defaults(handler=_cmd_record_lift)

    p = sub.add_parser("audit", help="measured operation counts vs. closed forms")
    p.add_argument("--u-min", type=_nat_arg, default=2)
    p.add_argument("--u-max", type=_nat_arg, default=50)
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="gcd")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("validate", help="schedule inequality sweeps")
    p.add_argument("--max", type=_nat_arg, default=1000)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("compare", help="signature, divergence, minimality, axiom checks")
    p.add_argument("--max", type=_nat_arg, default=100)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("verify", help="every checked claim of the paper in one document")
    p.add_argument("--max", type=_nat_arg, default=2000)
    p.add_argument("--sweep-max", type=_nat_arg, default=200)
    p.add_argument("--audit-max", type=_nat_arg, default=200)
    p.set_defaults(handler=_cmd_verify)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="emit a JSON document")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, human = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RangeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PostconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    try:
        print(doc.to_json() if args.json else human, flush=True)
    except BrokenPipeError:  # stdout's fd now writes to devnull, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return 0 if doc.status == "ok" else 1


def entry() -> None:  # console-script hook
    sys.exit(main())
