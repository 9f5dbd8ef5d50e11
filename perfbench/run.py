"""The primefold benchmark: CLI workloads timed from outside, layers traced in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every command is a fresh `python -m primefold`
subprocess (`PYTHONPATH=src`), one at a time, checked against the independent
oracle in `check.py`.  `--trace 0` repeats the workload's round of commands
for about S seconds and reports the end-to-end metrics; `--trace 1` reports
the per-layer metrics from `traced.py` workers.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from check import (
    Primes,
    check,
    divisor_tests,
    fold_steps,
    measured_audit_tests,
    scan_target,
    scan_tests,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
# The host-speed reference: a fresh interpreter that imports numpy and nothing
# of primefold, so no change to the program moves it.  Timed once per round;
# its best over the run is scaled to REF_S, a fixed scale near that best on
# the 2-CPU Xeon the benchmark was written on (0.11 to 0.18 s there).
REFERENCE = ("-c", "import numpy")
REF_S = 0.1
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CALLER_ONLY_VARS = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")

END_TO_END = {"norm_wall_s": "s", "norm_ns_per_test": "ns", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "core.scan_s": "s",
    "core.divisor_tests": "count",
    "core.ns_per_test.gcd": "ns",
    "core.ns_per_test.delta": "ns",
    "core.indicators": "count",
    "enumerator.fold_s": "s",
    "enumerator.fold_steps": "count",
    "enumerator.ns_per_step": "ns",
    "enumerator.naive_fold_s": "s",
    "enumerator.rewalk_ratio": "ratio",
    "enumerator.trace_s": "s",
    "enumerator.trace_rows": "count",
    "audit.counted_s": "s",
    "audit.divisor_tests": "count",
    "audit.ns_per_test": "ns",
    "audit.rows": "count",
    "oracle.sieve_s": "s",
    "oracle.sieve_limit": "count",
    "schedules.validate_s": "s",
    "schedules.rows": "count",
    "analysis.compare_s": "s",
    "analysis.reports": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Command:
    """One CLI command; the drawn argument replaces "{}" in `argv`."""

    argv: Tuple[str, ...]
    lo: int
    hi: int


@dataclass(frozen=True)
class Workload:
    """A round of commands, each on one argument drawn from its window."""

    name: str
    why: str
    commands: Tuple[Command, ...]


# Windows are narrow (at most 2.5% either side of the argument; a naive
# query's work grows as its cube) so that the seed moves a round's work by
# little next to the host's noise, and every seed still gives inputs nobody has
# tuned on.  `compare` is the exception: its cost barely depends on C.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "query",
            "cold nth-prime in both variants, a table and a naive query: the k-scan, fold and cache path",
            (
                Command(("nth-prime", "{}", "--json"), 495, 505),
                Command(("nth-prime", "{}", "--variant", "delta", "--json"), 1090, 1110),
                Command(("table", "--max", "{}", "--json"), 320, 330),
                Command(("nth-prime", "{}", "--mode", "naive", "--variant", "delta", "--json"), 163, 167),
            ),
        ),
        Workload(
            "checks",
            "counted audit loops, sieve, schedule sweeps, analysis chains: off the k-scan and cache path",
            (
                Command(("audit", "--u-min", "2", "--u-max", "{}", "--json"), 79, 81),
                Command(("validate", "--max", "{}", "--json"), 41_000, 43_000),
                Command(("compare", "--max", "{}", "--json"), 500, 1_000),
            ),
        ),
    )
}


def draw(workload: Workload, seed: int) -> List[List[str]]:
    """CLI arguments of the run's round, drawn from --seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [[str(rng.randint(c.lo, c.hi)) if a == "{}" else a for a in c.argv] for c in workload.commands]


@dataclass
class Sample:
    argv: List[str]
    wall_s: float
    problems: List[str]
    stdout: str
    worker: Optional[dict] = None


class Session:
    """Runs children one at a time, checks each result and counts failures."""

    def __init__(self) -> None:
        self.primes = Primes()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.env.update({var: "1" for var in THREAD_VARS})
        for var in CALLER_ONLY_VARS:  # children cache bytecode and buffer output as by default
            self.env.pop(var, None)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _spawn(self, cmd: List[str]) -> Tuple[float, int, str]:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return time.perf_counter() - start, -1, ""
        return time.perf_counter() - start, proc.returncode, out

    def _record(self, argv: List[str], problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(argv)}: {'; '.join(problems)}")

    def reference(self) -> float:
        """Wall time of one host-speed reference process."""
        wall, code, _ = self._spawn([sys.executable, *REFERENCE])
        if code != 0:
            self._record(["reference", *REFERENCE], [f"exit code {code}"])
        return wall

    def cli(self, argv: List[str]) -> Sample:
        wall, code, out = self._spawn([sys.executable, "-m", "primefold", *argv])
        problems = check(argv, code, out, self.primes)
        self._record(argv, problems)
        return Sample(argv, wall, problems, out)

    def traced(self, argv: List[str], run_id: str) -> Sample:
        target = scan_target(argv, self.primes)
        prescan = ["--prescan", str(target[0]), target[1]] if target else []
        cmd = [sys.executable, str(HERE / "traced.py"), run_id, *prescan, "--", *argv]
        wall, code, out = self._spawn(cmd)
        worker: dict = {}
        problems = [f"traced worker exit code {code}"] if code != 0 else []
        if not problems:
            try:
                worker = json.loads(out)
            except ValueError:
                problems = ["traced worker printed no JSON"]
        if worker:
            problems = check(argv, worker["exit"], worker["stdout"], self.primes)
            if target and worker["prescan"] != target[2]:
                problems.append(f"prefix_count({target[0]}) = {worker['prescan']}, expected {target[2]}")
        self._record(argv, problems)
        return Sample(argv, wall, problems, worker.get("stdout", ""), worker or None)

    def traced_round(self, argvs: List[List[str]], run_tag: str) -> List[Sample]:
        return [self.traced(a, f"{run_tag}:{i}") for i, a in enumerate(argvs)]


def tail(values: Sequence[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if above p50."""
    ordered = sorted(values)
    i = len(ordered) - 11
    if i < 0 or 2 * i <= len(ordered) - 1:
        return f"no tail percentile above p50 with >= 10 samples beyond it (n={len(ordered)})"
    return f"p{100 * i / (len(ordered) - 1):.0f} {ordered[i]:.6g} (n={len(ordered)})"


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure(session: Session, workload: Workload, seed: int, seconds: float, lines: List[str]) -> Dict:
    """Untraced run: the same round of commands again and again for about
    `seconds`, with a no-work call and a reference process before each round.
    A command's time is the best of its repeats, which are spread over the
    whole run, scaled by the reference's best (README.md)."""
    session.cli(["--version"])  # untimed: byte-compiles and warms the file cache
    argvs = draw(workload, seed)
    tests = [divisor_tests(a, session.primes) for a in argvs]
    lines.append("round: " + " | ".join(" ".join(a) for a in argvs) + f"   tests {sum(tests)}")
    setup: List[float] = []
    refs: List[float] = []
    walls: List[List[float]] = [[] for _ in argvs]  # per command, one per round
    start = time.perf_counter()
    last = 0.0
    while not walls[0] or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        refs.append(session.reference())
        setup.append(session.cli(["--version"]).wall_s)
        for w, argv in zip(walls, argvs):
            w.append(session.cli(argv).wall_s)
        last = time.perf_counter() - began
    while len(setup) < SETUP_SAMPLES:
        setup.append(session.cli(["--version"]).wall_s)
    rounds = [sum(w[r] for w in walls) for r in range(len(walls[0]))]
    wall = sum(min(w) for w in walls)
    scale = REF_S / min(refs)
    metrics = {
        "norm_wall_s": wall * scale,
        "norm_ns_per_test": ratio(wall, sum(tests)) * scale * 1e9,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    lines.append(f"wall_s       {wall:.6g} s    as measured: sum over commands of the best of "
                 f"{len(rounds)} repeats; whole rounds: median {statistics.median(rounds):.6g} s, {tail(rounds)}")
    lines.append(f"ns_per_test  {ratio(wall, sum(tests)) * 1e9:.6g} ns   as measured: wall_s / {sum(tests)} "
                 "closed-form tests")
    lines.append(f"reference    {min(refs):.6g} s    best of {len(refs)} `python {' '.join(REFERENCE)}`; "
                 f"scale {REF_S:g} s / best = {scale:.6g}")
    lines.append(f"norm_wall_s       {metrics['norm_wall_s']:.6g} s    wall_s x scale")
    lines.append(f"norm_ns_per_test  {metrics['norm_ns_per_test']:.6g} ns   ns_per_test x scale")
    lines.append(f"setup_s      {metrics['setup_s']:.6g} s    median of {len(setup)} no-work calls; {tail(setup)}")
    lines.append(f"peak_rss_mb  {metrics['peak_rss_mb']:.6g} MB   largest child max-RSS")
    lines.append(f"fail_ratio   {ratio(session.failed, session.attempted):.6g} ratio "
                 f"({session.failed} failed / {session.attempted} attempted)")
    return {"metrics": metrics, "argv": argvs, "tests": tests, "walls": walls, "setup_s": setup,
            "reference_s": refs}


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(samples: List[Sample], primes: Primes) -> Dict[str, float]:
    """Per-layer self times and work counts over traced commands."""
    t: Dict[str, float] = defaultdict(float)  # self seconds by bucket
    n: Dict[str, int] = defaultdict(int)  # work done by bucket
    for s in samples:
        spans = s.worker["spans"]
        naive = "naive" in s.argv
        for (name, *_, count), own in zip(spans, self_times(spans)):
            if name == "core.prefix_count":
                p, variant, _ = scan_target(s.argv, primes)
                bucket = f"scan.{variant}"
                n[bucket] += scan_tests(p)
                n["indicators"] += p - 1
                if not naive:
                    n["indicators.incremental"] += p - 1
            elif name == "enumerator.evaluate":
                bucket = "naive_fold" if naive else "fold"
            elif name == "enumerator.trace":
                bucket = "trace"
                n[bucket] += count
            else:  # a whole layer; a span without a count is one call
                bucket = name.split(".")[0]
                n[bucket] += 1 if count is None else count
            t[bucket] += own
        n["fold"] += fold_steps(s.argv, primes)
        if s.argv[0] == "audit":
            n["audit.tests"] += measured_audit_tests(s.stdout)
    return {
        "core.scan_s": t["scan.gcd"] + t["scan.delta"],
        "core.divisor_tests": n["scan.gcd"] + n["scan.delta"],
        "core.ns_per_test.gcd": ratio(t["scan.gcd"], n["scan.gcd"]) * 1e9,
        "core.ns_per_test.delta": ratio(t["scan.delta"], n["scan.delta"]) * 1e9,
        "core.indicators": n["indicators"],
        "enumerator.fold_s": t["fold"],
        "enumerator.fold_steps": n["fold"],
        "enumerator.ns_per_step": ratio(t["fold"], n["fold"]) * 1e9,
        "enumerator.naive_fold_s": t["naive_fold"],
        "enumerator.rewalk_ratio": ratio(n["fold"], n["indicators.incremental"]),
        "enumerator.trace_s": t["trace"],
        "enumerator.trace_rows": n["trace"],
        "audit.counted_s": t["audit"],
        "audit.divisor_tests": n["audit.tests"],
        "audit.ns_per_test": ratio(t["audit"], n["audit.tests"]) * 1e9,
        "audit.rows": n["audit"],
        "oracle.sieve_s": t["oracle"],
        "oracle.sieve_limit": n["oracle"],
        "schedules.validate_s": t["schedules"],
        "schedules.rows": n["schedules"],
        "analysis.compare_s": t["analysis"],
        "analysis.reports": n["analysis"],
        "cli.self_s": t["cli"],
    }


def trace_run(session: Session, workload: Workload, seed: int, seconds: float, lines: List[str]) -> Dict:
    """Traced run: one traced round of every workload, so every layer is
    measured, then untraced and traced rounds of this workload in turn, for
    the tracing overhead, until about `seconds` have passed."""
    session.cli(["--version"])  # untimed: byte-compiles and warms the file cache
    start = time.perf_counter()
    own = draw(workload, seed)
    plain = [session.cli(a) for a in own]
    samples = session.traced_round(own, f"{workload.name}:{seed}:0")
    pairs = [{"plain_s": sum(s.wall_s for s in plain), "traced_s": sum(s.wall_s for s in samples)}]
    for other in WORKLOADS.values():
        if other.name != workload.name:
            samples += session.traced_round(draw(other, seed), f"{other.name}:{seed}:0")
    while time.perf_counter() - start + 2 * pairs[0]["traced_s"] < seconds:
        traced = session.traced_round(own, f"{workload.name}:{seed}:{len(pairs)}")
        plain = [session.cli(a) for a in own]
        pairs.append({"plain_s": sum(s.wall_s for s in plain), "traced_s": sum(s.wall_s for s in traced)})
    overheads = [p["traced_s"] - p["plain_s"] for p in pairs]
    metrics = {}
    if all(s.worker for s in samples):
        metrics = layer_metrics(samples, session.primes)
        metrics["trace.overhead_s"] = statistics.median(overheads)
    for s in samples:
        lines.append(f"traced: {' '.join(s.argv)}   wall {s.wall_s:.4f} s   spans "
                     f"{len(s.worker['spans']) if s.worker else 0}")
        for point in (s.worker or {}).get("missing", []):
            lines.append(f"warning: wrap point {point} not found; its time counts as its caller's")
    lines.append(f"tracing overhead: traced minus untraced wall of {len(pairs)} round pair(s): "
                 + ", ".join(f"{o:.4f}" for o in overheads) + " s")
    for name, unit in PER_LAYER.items():
        if name in metrics:
            lines.append(f"{name:24s} {metrics[name]:.6g} {unit}")
    spans = [span for s in samples if s.worker for span in s.worker["spans"]]
    return {"metrics": metrics, "pairs": pairs, "spans": spans,
            "traced": [{"argv": s.argv, "wall_s": s.wall_s} for s in samples]}


def environment() -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": git_commit(),
        "concurrency": "one subprocess at a time; " + ", ".join(f"{v}=1" for v in THREAD_VARS),
    }


def git_commit() -> str:
    """HEAD's commit read from .git without running git; a plain checkout has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "primefold" / "__main__.py").is_file():
        print(f"error: no primefold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    lines = [f"primefold benchmark: workload {workload.name} ({workload.why}); seed {args.seed}; "
             f"{args.seconds:g} s; trace {args.trace}",
             "env: " + json.dumps(env)]
    session = Session()
    run = (trace_run if args.trace else measure)(session, workload, args.seed, args.seconds, lines)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": run["metrics"][k], "unit": u} for k, u in units.items() if k in run["metrics"]}
    lines += [f"FAILED {p}" for p in session.problems]
    result = {
        "correct": session.failed == 0 and len(metrics) == len(units),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "problems": session.problems, **run, "result": result}
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    lines.append(f"details and spans: {out_file.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
