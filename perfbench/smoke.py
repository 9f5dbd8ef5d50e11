"""Smoke check of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/smoke.py

1. Runs every workload untraced and traced with tiny argument windows and
   requires a correct result line that names every metric of BENCHMARK.json
   with its unit, each also printed on a line of its own.
2. Feeds the checker doctored copies of real CLI documents (never a patched
   program) and requires every copy to be counted as a failure.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files and requires a nonzero exit without a result line.
Exits 0 when all of it holds.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from typing import List

import run
from check import check

TINY = {
    "query": [(20, 30), (20, 30), (10, 15), (5, 8)],
    "checks": [(5, 7), (200, 300), (20, 30)],
}

def _row(doc: dict, i: int = 0) -> dict:
    return doc["outputs"]["rows"][i]


def _set_report(doc: dict, key: str, value) -> None:
    doc["outputs"]["reports"][-1][key] = value


def _lie_about_audit(doc: dict) -> None:
    # drop one counted test and make the row agree with itself
    row = _row(doc, -1)
    row["measured"]["gcd_calls"] -= 1
    row["predicted_gcd"] -= 1


DOCTORED = {
    ("nth-prime", "10", "--json"): [
        lambda d: d["outputs"].update(value=d["outputs"]["value"] + 2),
        lambda d: d["outputs"].update(value=29),  # p_10, one index early
        lambda d: d.update(status="violation"),
        lambda d: d.update(command="table"),
        lambda d: d["inputs"].update(x=11),
    ],
    ("nth-prime", "10", "--mode", "naive", "--variant", "delta", "--json"): [
        lambda d: d["outputs"].update(value=37),
        lambda d: d["inputs"].update(mode="incremental"),
    ],
    ("table", "--max", "10", "--json"): [
        lambda d: _row(d, 3).__setitem__(1, 9),
        lambda d: _row(d, 3).__setitem__(slice(1, 3), [9, 9]),  # agrees with itself
        lambda d: _row(d, 4).__setitem__(3, False),
        lambda d: d["outputs"]["rows"].pop(),
    ],
    ("audit", "--u-min", "2", "--u-max", "6", "--json"): [
        _lie_about_audit,
        lambda d: _row(d, 2)["measured"].update(step_floors=_row(d, 2)["measured"]["step_floors"] + 2),
        lambda d: _row(d, 1).update(match=False),
        lambda d: d["outputs"]["rows"].pop(),
        lambda d: _row(d, 0).update(variant="delta"),
    ],
    ("validate", "--max", "200", "--json"): [
        lambda d: _set_report(d, "passed", False),
        lambda d: _set_report(d, "x_range", [5, 150]),  # a sweep that skipped work
        lambda d: d["outputs"]["reports"].pop(0),
    ],
    ("compare", "--max", "20", "--json"): [
        lambda d: _set_report(d, "passed", False),
        lambda d: _set_report(d, "violations", [[3, 1.0, 2.0]]),
    ],
}


def tiny_workloads() -> dict:
    return {
        name: dataclasses.replace(
            w,
            commands=tuple(dataclasses.replace(c, lo=lo, hi=hi) for c, (lo, hi) in zip(w.commands, TINY[name])),
        )
        for name, w in run.WORKLOADS.items()
    }


def check_result_lines(name: str, trace: int, declared: List[dict], problems: List[str]) -> None:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    lines = captured.getvalue().strip().splitlines()
    tag = f"{name} trace {trace}"
    result = json.loads(lines[-1])
    if code != 0 or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{tag}: exit {code}, keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{tag}: correct {result['correct']}, failed {result['failed']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{tag}: metrics {got} != BENCHMARK.json {want}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{tag}: {k} = {v['value']!r}")
        if not any(ln.split()[:1] == [k] and f" {want.get(k)}" in ln for ln in lines[:-1]):
            problems.append(f"{tag}: no printed line for {k} with unit {want.get(k)}")


def check_doctored(problems: List[str]) -> int:
    session = run.Session()
    tried = 0
    for argv, mutations in DOCTORED.items():
        argv = list(argv)
        real = session.cli(argv)
        if real.problems:
            problems.append(f"real {' '.join(argv)} rejected: {real.problems}")
        doc = json.loads(real.stdout)
        for i, mutate in enumerate(mutations):
            bad = copy.deepcopy(doc)
            mutate(bad)
            tried += 1
            if not check(argv, 0, json.dumps(bad), session.primes):
                problems.append(f"doctored {' '.join(argv)} #{i} passed the checker")
        for code, text in ((1, real.stdout), (0, real.stdout[: len(real.stdout) // 2]), (0, "")):
            tried += 1
            if not check(argv, code, text, session.primes):
                problems.append(f"{' '.join(argv)} with exit {code} and {len(text)} chars passed")
    tried += 1
    if not check(["--version"], 0, "0.1.0\n", session.primes):
        problems.append("bad --version output passed")
    return tried


def check_bare_directory(problems: List[str]) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", next(iter(run.WORKLOADS)), "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORKLOADS = tiny_workloads()
    problems: List[str] = []
    if sorted(w["name"] for w in declared["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for name in run.WORKLOADS:
        check_result_lines(name, 0, declared["end_to_end"], problems)
        check_result_lines(name, 1, declared["per_layer"], problems)
    tried = check_doctored(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print(f"smoke: {2 * len(run.WORKLOADS)} tiny runs, {tried} doctored documents, "
          f"bare directory; {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
