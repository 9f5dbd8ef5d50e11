"""Output checker and closed-form work counts for the primefold benchmark.

Shares no code with `primefold` and trusts nothing it reports: primes come
from the sieve below, every value and table row is compared with it, every
audit row's closed form is recomputed here, and every bounds report must
pass over exactly the range the command asked for.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

AXIOM_X_MAX = 200  # `compare` traces x = 0..min(max, 200)


class Primes:
    """Primes by index from a plain bytearray sieve, grown on demand."""

    def __init__(self) -> None:
        self._primes: List[int] = []

    def nth(self, n: int) -> int:
        """The n-th prime, 1-indexed (p_1 = 2)."""
        if n > len(self._primes):
            self._sieve(n)
        return self._primes[n - 1]

    def _sieve(self, n: int) -> None:
        limit = 100 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 16
        flags = bytearray([1]) * (limit + 1)
        flags[0] = flags[1] = 0
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        self._primes = [m for m in range(limit + 1) if flags[m]]


def scan_tests(p: int) -> int:
    """Divisor tests of a cold k-scan over j = 2..p: (p-2)(p-1)/2."""
    return (p - 2) * (p - 1) // 2


def audit_tests(u: int, mode: str) -> int:
    """Closed form of one counted audit row."""
    if mode == "naive":
        return (u - 2) * (u - 1) * u // 6
    return (u - 2) * (u - 1) // 2


def u_lin(x: int) -> int:
    """ceil((x+1)(ln(x+e) + ln ln(x+e))) + 10, the default schedule."""
    inner = math.log(x + math.e)
    return math.ceil((x + 1) * (inner + math.log(inner))) + 10


def parse_argv(argv: Sequence[str]) -> Dict[str, object]:
    """The benchmark's own CLI argument lists: subcommand, positional, flags."""
    parsed: Dict[str, object] = {"command": argv[0]}
    rest = list(argv[1:])
    while rest:
        token = rest.pop(0)
        if token == "--json":
            continue
        if token.startswith("--"):
            parsed[token[2:].replace("-", "_")] = rest.pop(0)
        else:
            parsed["x"] = int(token)
    return parsed


def divisor_tests(argv: Sequence[str], primes: Primes) -> int:
    """Closed-form divisor tests the command executes in a cold process."""
    a = parse_argv(argv)
    command = a["command"]
    if command == "nth-prime":
        return scan_tests(primes.nth(a["x"] + 1))
    if command == "table":
        return scan_tests(primes.nth(int(a["max"]) + 1))
    if command == "audit":
        return sum(
            audit_tests(u, mode)
            for u in range(int(a["u_min"]), int(a["u_max"]) + 1)
            for mode in ("naive", "incremental")
        )
    if command == "compare":
        return scan_tests(u_lin(min(int(a["max"]), AXIOM_X_MAX)))
    return 0


def scan_target(argv: Sequence[str], primes: Primes) -> Optional[Tuple[int, str, int]]:
    """(p, variant, pi(p)) of the cached k-scan a command needs, or None.

    `prefix_count(p, variant)` over a cold cache runs exactly that scan and
    must return pi(p); the command then folds over a warm cache.
    """
    a = parse_argv(argv)
    if a["command"] == "nth-prime":
        n = a["x"] + 1
        return primes.nth(n), str(a.get("variant", "gcd")), n
    if a["command"] == "table":
        n = int(a["max"]) + 1
        return primes.nth(n), "gcd", n
    return None


def fold_steps(argv: Sequence[str], primes: Primes) -> int:
    """Outer-loop steps of the incremental folds a command runs; evaluate(x)
    stops at the flip i = p_{x+1}.  Naive folds count 0 here."""
    a = parse_argv(argv)
    if a["command"] == "nth-prime" and a.get("mode", "incremental") == "incremental":
        return primes.nth(a["x"] + 1)
    if a["command"] == "table":
        return sum(primes.nth(x + 1) for x in range(int(a["max"]) + 1))
    return 0


def check(argv: Sequence[str], exit_code: int, stdout: str, primes: Primes) -> List[str]:
    """Problems with one command's result; an empty list means correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    a = parse_argv(argv)
    if a["command"] == "--version":
        return [] if stdout.startswith("primefold ") else [f"version output {stdout[:40]!r}"]
    try:
        doc = json.loads(stdout)
        problems = _check_document(a, doc, primes)
        if doc["command"] != a["command"]:
            problems.append(f"command {doc['command']!r}")
        if doc["status"] != "ok":
            problems.append(f"status {doc['status']!r}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed document: {type(exc).__name__}: {exc}"]
    return problems


def _check_document(a: Dict[str, object], doc: dict, primes: Primes) -> List[str]:
    command = a["command"]
    inputs, outputs = doc["inputs"], doc["outputs"]
    if command == "nth-prime":
        x = a["x"]
        want = {"x": x, "schedule": "lin", "mode": a.get("mode", "incremental"),
                "variant": a.get("variant", "gcd")}
        problems = _check_inputs(inputs, want)
        if outputs["value"] != primes.nth(x + 1):
            problems.append(f"value {outputs['value']} != p_{x + 1} = {primes.nth(x + 1)}")
        return problems
    if command == "table":
        n = int(a["max"])
        problems = _check_inputs(inputs, {"max": n})
        want_rows = [[x, primes.nth(x + 1), primes.nth(x + 1), True] for x in range(n + 1)]
        if outputs["rows"] != want_rows:
            bad = [r for r, w in zip(outputs["rows"], want_rows) if r != w]
            problems.append(
                f"table rows differ ({len(outputs['rows'])} rows, first bad {bad[:1]})"
            )
        return problems
    if command == "audit":
        return _check_audit(inputs, outputs, int(a["u_min"]), int(a["u_max"]))
    if command in ("validate", "compare"):
        top = int(a["max"])
        problems = _check_inputs(inputs, {"max": top})
        if command == "validate":
            want = {
                "schedule-sq-covers-next-prime": [0, top],
                "schedule-lin-covers-next-prime": [0, top],
                "square-schedule-base-cases": [1, 5],
                "lin-schedule-real-bound": [5, top],
            }
        else:
            want = {
                "operator-signature-separation": [0, 2],
                "schedule-log-ratio-divergence": [1, top],
                "schedule-minimality-chain": [5, top],
                "forward-count-axiom": [0, min(top, AXIOM_X_MAX)],
            }
        got = {r["claim_id"]: r["x_range"] for r in outputs["reports"]}
        if got != want:
            problems.append(f"reports cover {got}, expected {want}")
        for r in outputs["reports"]:
            if r["passed"] is not True or r["violations"]:
                problems.append(f"report {r['claim_id']} did not pass")
        return problems
    return [f"unknown command {command!r}"]


def _check_inputs(inputs: dict, want: dict) -> List[str]:
    return [f"input {k}={inputs.get(k)!r}, expected {v!r}" for k, v in want.items()
            if inputs.get(k) != v]


def _check_audit(inputs: dict, outputs: dict, u_min: int, u_max: int) -> List[str]:
    problems = _check_inputs(inputs, {"u_min": u_min, "u_max": u_max})
    rows = outputs["rows"]
    keys = [(r["u"], r["mode"]) for r in rows]
    want_keys = [(u, m) for u in range(u_min, u_max + 1) for m in ("naive", "incremental")]
    if sorted(keys) != sorted(want_keys):
        problems.append(f"audit covers {len(keys)} rows, expected {len(want_keys)}")
    for r in rows:
        u, measured = r["u"], r["measured"]
        closed = audit_tests(u, r["mode"])
        tests = measured["gcd_calls"] + measured["delta_calls"]
        if (
            r["variant"] != "gcd"
            or measured["delta_calls"] != 0
            or tests != closed
            or r["predicted_gcd"] != closed
            or measured["step_floors"] != 2 * u
            or r["match"] is not True
        ):
            problems.append(
                f"audit row U={u} {r['mode']}: tests {tests} vs closed form {closed}, "
                f"step_floors {measured['step_floors']} vs {2 * u}, match {r['match']}"
            )
    return problems


def measured_audit_tests(stdout: str) -> int:
    """Divisor tests the audit document says it executed."""
    rows = json.loads(stdout)["outputs"]["rows"]
    return sum(r["measured"]["gcd_calls"] + r["measured"]["delta_calls"] for r in rows)
