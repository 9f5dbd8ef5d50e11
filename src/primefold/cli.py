"""Command-line front end.

Subcommands: nth-prime, table, trace, record-lift, audit, validate, compare.
Human-readable text by default; `--json` emits one deterministic document
per invocation (sorted keys, no timestamps).  Exit codes: 0 ok, 1 a checked
claim failed, 2 bad input, 3 overflow/range, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import __version__
from .analysis import (
    check_forward_count_axiom,
    check_minimality,
    check_schedule_divergence,
    check_signature_separation,
)
from .audit import audit_range
from .core import IndicatorVariant
from .enumerator import EvalMode, evaluate, record_lift, trace
from .nat import DomainError, RangeError
from .oracle import sieve_for_nth
from .reports import BoundsReport
from .schedules import (
    Schedule,
    check_lin_growth_bound,
    square_schedule_base_cases,
    validate_schedule,
)

TABLE_X_MAX = 10**4

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


def _status_from_reports(reports: List[BoundsReport]) -> str:
    return "ok" if all(r.passed for r in reports) else "violation"


def _report_lines(reports: List[BoundsReport]) -> List[str]:
    lines = []
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        slack = "" if r.min_slack is None else f"  min_slack={r.min_slack:.6g}"
        lines.append(f"{tag}  {r.claim_id}  x_range={list(r.x_range)}{slack}")
        for v in r.violations[:10]:
            lines.append(f"      violation at x={v[0]}: lhs={v[1]} rhs={v[2]}")
    return lines


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
    if args.max > TABLE_X_MAX:
        raise RangeError(f"table is limited to --max <= {TABLE_X_MAX}")
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
    p_star = record_lift(args.l, schedule=_SCHEDULES[args.schedule])
    table = sieve_for_nth(args.l + 1)
    doc = ReportDocument(
        command="record-lift",
        inputs={"l": args.l, "schedule": args.schedule},
        outputs={
            "p_star": p_star,
            "is_prime": table.is_prime(p_star),
            "exceeds_input": p_star > args.l,
        },
    )
    return doc, f"P* = {p_star} (prime, > {args.l})"


def _cmd_audit(args) -> Tuple[ReportDocument, str]:
    rows = audit_range(args.u_min, args.u_max)
    all_match = all(row.match for row in rows)
    doc = ReportDocument(
        command="audit",
        inputs={"u_min": args.u_min, "u_max": args.u_max},
        outputs={"rows": [row.to_dict() for row in rows]},
        status="ok" if all_match else "violation",
    )
    lines = ["    U  mode         divisor_tests  predicted  step_floors  match"]
    for row in rows:
        lines.append(
            f"{row.u:5d}  {row.mode.value:<11s}  {row.measured.divisor_tests:13d}"
            f"  {row.predicted_gcd:9d}  {row.measured.step_floors:11d}"
            f"  {'yes' if row.match else 'NO'}"
        )
    return doc, "\n".join(lines)


def _cmd_validate(args) -> Tuple[ReportDocument, str]:
    table = sieve_for_nth(args.max + 1)
    reports = [
        validate_schedule(Schedule.SQUARE, args.max, table),
        validate_schedule(Schedule.LINLOG, args.max, table),
        square_schedule_base_cases(table),
        check_lin_growth_bound(args.max, table),
    ]
    doc = ReportDocument(
        command="validate",
        inputs={"max": args.max},
        outputs={"reports": [r.to_dict() for r in reports]},
        status=_status_from_reports(reports),
    )
    return doc, "\n".join(_report_lines(reports))


def _cmd_compare(args) -> Tuple[ReportDocument, str]:
    reports = [
        check_signature_separation(),
        check_schedule_divergence(args.max),
        check_minimality(args.max),
        check_forward_count_axiom(min(args.max, 200)),
    ]
    doc = ReportDocument(
        command="compare",
        inputs={"max": args.max},
        outputs={"reports": [r.to_dict() for r in reports]},
        status=_status_from_reports(reports),
    )
    return doc, "\n".join(_report_lines(reports))


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
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("validate", help="schedule inequality sweeps")
    p.add_argument("--max", type=_nat_arg, default=1000)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("compare", help="signature, divergence, minimality, axiom checks")
    p.add_argument("--max", type=_nat_arg, default=100)
    p.set_defaults(handler=_cmd_compare)

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
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    print(doc.to_json() if args.json else human)
    return 0 if doc.status == "ok" else 1


def entry() -> None:  # console-script hook
    sys.exit(main())
