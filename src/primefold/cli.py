"""Command-line front end.

Subcommands: nth-prime, table, trace, record-lift, audit, validate, compare,
verify (every checked claim in one document).  Each is one `_COMMANDS` entry:
help, handler and arguments.  A handler returns its outputs, whether every
claim held and its human text; `main` wraps them in the one document (command,
inputs, outputs, status), which `--json` prints instead of the text (sorted keys,
no timestamps).
Exit codes: 0 ok, 1 a checked claim failed, 2 bad input, 3 overflow/range
(including input whose predicted divisor tests exceed
`core.MAX_DIVISOR_TESTS`), 130 interrupted, 141 broken pipe.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from . import __version__
from .analysis import FORWARD_AXIOM_X_MAX, check_forward_count_axiom, check_signature_separation
from .audit import admit_audit, audit_range
from .core import IndicatorVariant
from .enumerator import EvalMode, PostconditionError, evaluate, record_lift, trace
from .nat import DomainError, RangeError
from .oracle import SieveTable, sieve_for_nth, sieve_limit_for_nth
from .reports import BoundsReport
from .schedules import (  # perfbench/traced.py wraps check_lin_growth_bound here by name
    DIVERGENCE_X_MIN,
    Schedule,
    check_lin_growth_bound,
    check_minimality,
    check_schedule_divergence,
    square_schedule_base_cases,
    validate_schedule,
    validate_schedules,
)

_Result = Tuple[Dict[str, object], bool, str]  # outputs, every claim held, human text
_EXIT_CODES = {PostconditionError: 1, DomainError: 2, RangeError: 3, OverflowError: 3}


def _nat_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _reports_result(reports: List[BoundsReport]) -> _Result:
    """The reports as outputs, and one PASS/FAIL line (plus violation rows) per report."""
    lines = []
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        slack = "" if r.min_slack is None else f"  min_slack={r.min_slack:.6g}"
        lines.append(f"{tag}  {r.claim_id}  x_range={list(r.x_range)}{slack}")
        for v in r.violations[:10]:
            lines.append(f"      violation at x={v[0]}: lhs={v[1]} rhs={v[2]}")
    outputs = {"reports": [r.to_dict() for r in reports]}
    return outputs, all(r.passed for r in reports), "\n".join(lines)


def _validate_reports(n: int, table: SieveTable) -> List[BoundsReport]:
    square, lin, growth = validate_schedules(n, table)
    return [square, lin, square_schedule_base_cases(table), growth]


def _compare_reports(n: int, table: SieveTable) -> List[BoundsReport]:
    return [
        check_signature_separation(),
        check_schedule_divergence(n),
        check_minimality(n, table),
        check_forward_count_axiom(min(n, FORWARD_AXIOM_X_MAX), table),
    ]


def _cmd_nth_prime(args) -> _Result:
    value = evaluate(
        args.x,
        schedule=Schedule(args.schedule),
        mode=EvalMode(args.mode),
        variant=IndicatorVariant(args.variant),
    )
    return {"value": value}, True, str(value)


def _cmd_table(args) -> _Result:
    # largest x first: it admits the table and fills the one store that every row reads
    values = [evaluate(x) for x in range(args.max, -1, -1)][::-1]
    table = sieve_for_nth(args.max + 1)
    expected = [table.nth_prime(x + 1) for x in range(args.max + 1)]
    rows = [[x, v, e, v == e] for x, (v, e) in enumerate(zip(values, expected))]
    lines = ["    x   f(x)  p_(x+1)  agree"]
    lines += [f"{x:5d}  {v:5d}  {e:7d}  {'yes' if agree else 'NO'}" for x, v, e, agree in rows]
    return {"rows": rows}, all(row[3] for row in rows), "\n".join(lines)


def _cmd_trace(args) -> _Result:
    record = trace(args.x, schedule=Schedule(args.schedule))
    outputs = {
        "limit": record.limit,
        "rows": [list(row) for row in record.rows],
        "flip_index": record.flip_index,
        "result": record.result,
    }
    lines = [f"x = {record.x}, schedule limit U = {record.limit}", "    i  I(i)  S(i)  A(i,x)"]
    lines += [f"{i:5d}  {ind:4d}  {pre:4d}  {a:6d}" for i, ind, pre, a in outputs["rows"]]
    lines.append(f"flip at i = {record.flip_index}; result = {record.result}")
    return outputs, True, "\n".join(lines)


def _cmd_record_lift(args) -> _Result:
    # record_lift raises PostconditionError unless P* is a prime > L
    p_star = record_lift(args.l, schedule=Schedule(args.schedule))
    outputs = {"p_star": p_star, "is_prime": True, "exceeds_input": True}
    return outputs, True, f"P* = {p_star} (prime, > {args.l})"


def _cmd_audit(args) -> _Result:
    rows = audit_range(args.u_min, args.u_max, variant=IndicatorVariant(args.variant))
    lines = ["    U  mode         divisor_tests  predicted  step_floors  additions  match"]
    for row in rows:
        lines.append(
            f"{row.u:5d}  {row.mode.value:<11s}  {row.measured.divisor_tests:13d}"
            f"  {row.predicted_gcd:9d}  {row.measured.step_floors:11d}"
            f"  {row.measured.additions:9d}  {'yes' if row.match else 'NO'}"
        )
    outputs = {"rows": [row.to_dict() for row in rows]}
    return outputs, all(row.match for row in rows), "\n".join(lines)


def _cmd_validate(args) -> _Result:
    return _reports_result(_validate_reports(args.max, sieve_for_nth(args.max + 1)))


def _cmd_compare(args) -> _Result:
    return _reports_result(_compare_reports(args.max, sieve_for_nth(args.max + 1)))


def _cmd_verify(args) -> _Result:
    n, sweep = args.max, args.sweep_max
    if n < DIVERGENCE_X_MIN:  # every input is checked before any report or scan runs
        raise DomainError(f"verify requires --max >= {DIVERGENCE_X_MIN}, got {n}")
    admit_audit(2, args.audit_max)
    sieve_limit_for_nth(max(n, sweep) + 1)  # an over-limit sieve exits 3 before the sweep
    runs = [(x, schedule, variant) for x in range(sweep + 1)
            for schedule in (Schedule.SQUARE, Schedule.LINLOG) for variant in IndicatorVariant]
    # largest x first, which admits the sweep and fills each variant's store for every smaller x
    values = {(x, s, v): evaluate(x, schedule=s, variant=v) for x, s, v in reversed(runs)}
    table = sieve_for_nth(max(n, sweep) + 1)
    reports = [
        *_validate_reports(n, table),
        validate_schedule(Schedule.WILLANS, min(n, 200), table),
        *_compare_reports(n, table),
    ]
    audit_rows = audit_range(2, args.audit_max)
    mismatches = [(x, float(values[x, s, v]), float(expected)) for x, s, v in runs
                  if values[x, s, v] != (expected := table.nth_prime(x + 1))]
    # P* = f(L), the (lin, gcd) value; a lift that fails is a row below, not an exit
    lifts = [(l, values[l, Schedule.LINLOG, IndicatorVariant.GCD]) for l in range(2, sweep + 1)]
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
    return _reports_result(reports)


_NAT = {"type": _nat_arg}
_SCHEDULE = ("--schedule", {"choices": ["lin", "sq"], "default": "lin"})
_MODE = ("--mode", {"choices": ["incremental", "naive"], "default": "incremental"})
_VARIANT = ("--variant", {"choices": ["delta", "gcd"], "default": "gcd"})

# name -> (help, handler, arguments the document records as inputs, *other arguments)
_COMMANDS = {
    "nth-prime": ("print p_(x+1)", _cmd_nth_prime, [("x", _NAT), _SCHEDULE, _MODE, _VARIANT]),
    "table": ("enumerator outputs vs. sieve for x = 0..max", _cmd_table,
              [("--max", {**_NAT, "default": 19})]),
    "trace": ("per-i breakdown (I, S, A) of one run", _cmd_trace, [("x", _NAT), _SCHEDULE]),
    "record-lift": ("certified prime > L", _cmd_record_lift,
                    [("l", {**_NAT, "metavar": "L"}), _SCHEDULE]),
    "audit": ("measured operation counts vs. closed forms", _cmd_audit,
              [("--u-min", {**_NAT, "default": 2}), ("--u-max", {**_NAT, "default": 50})],
              _VARIANT),
    "validate": ("schedule inequality sweeps", _cmd_validate,
                 [("--max", {**_NAT, "default": 1000})]),
    "compare": ("signature, divergence, minimality, axiom checks", _cmd_compare,
                [("--max", {**_NAT, "default": 100})]),
    "verify": ("every checked claim of the paper in one document", _cmd_verify, [
        ("--max", {**_NAT, "default": 2000}),
        ("--sweep-max", {**_NAT, "default": 200}),
        ("--audit-max", {**_NAT, "default": 200}),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primefold",
        description="Folded prime enumerator: evaluation, traces, audits, bound checks.",
    )
    parser.add_argument("--version", action="version", version=f"primefold {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, recorded, *other) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        inputs = [p.add_argument(flag, **options).dest for flag, options in recorded]
        for flag, options in other:
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.set_defaults(handler=handler, inputs=inputs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        outputs, held, human = args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    inputs = {dest: getattr(args, dest) for dest in args.inputs}
    doc = {"command": args.command, "inputs": inputs, "outputs": outputs,
           "status": "ok" if held else "violation"}
    try:
        print(json.dumps(doc, sort_keys=True, indent=2) if args.json else human, flush=True)
    except BrokenPipeError:  # stdout's fd now writes to devnull, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return 0 if held else 1


def entry() -> None:  # console-script hook
    code = main()
    # The exit-time collection skips frozen objects, so the OS alone frees the heap's
    # module cycles; atexit handlers, the stream flush and the exit code still run.
    gc.freeze()
    sys.exit(code)
