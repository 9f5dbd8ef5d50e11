"""Source-level rules that hold for every module of the package."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import primefold

SRC = Path(primefold.__file__).parent


def test_no_check_relies_on_assert():
    # `python -O` strips assert statements, so a check written as one vanishes
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


PUBLIC_NAMES = [
    "AuditRow", "BoundsReport", "DomainError", "EvalMode", "IndicatorVariant", "NAT_MAX",
    "OpCounts", "PostconditionError", "RangeError", "Schedule", "SieveTable", "SignatureFamily",
    "SignatureVector", "TraceRecord", "TraceRow", "as_nat", "audit_range", "build_sieve",
    "check_forward_count_axiom", "check_lin_growth_bound", "check_minimality",
    "check_schedule_divergence", "check_signature_separation", "checked_add", "checked_mul",
    "closed_form_incremental", "closed_form_naive", "delta", "divisor_hit", "evaluate",
    "indicator", "prefix_count", "record_lift", "run_counted", "schedule_limit",
    "sieve_for_nth", "signature", "square_schedule_base_cases", "step", "trace", "u_lin",
    "u_sq", "validate_schedule", "w_willans_exact", "w_willans_log2"
]


def test_public_names_are_pinned():
    assert primefold.__all__ == PUBLIC_NAMES
    assert all(hasattr(primefold, name) for name in PUBLIC_NAMES)


def test_every_name_the_benchmark_harness_wraps_resolves():
    # perfbench/traced.py times each layer by wrapping these module globals; a name it cannot
    # find shows only as a "missing" entry in a traced run's output
    path = Path(__file__).parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [
        f"{module}.{name}"
        for module, names in traced.WRAP_POINTS.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert traced.WRAP_POINTS["primefold.cli"] and missing == []


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # the records are NamedTuples, so no module of the package generates methods at import
    code = "import sys, primefold.cli; sys.exit('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
