"""Run one primefold CLI command in-process, with a timed span around each layer call.

    PYTHONPATH=src python perfbench/traced.py RUN_ID [--prescan P VARIANT] -- CLI_ARGS...

Nothing inside `primefold` changes.  Spans come from wrappers this script puts
on the names through which one layer calls another (`cli` -> everything,
`audit` -> `oracle`, `analysis` -> `enumerator`/`oracle`), plus a span around
`cli.main` itself.  `--prescan P VARIANT` first times `core.prefix_count(P)`
in the cold process, so the command that follows folds over a warm cache and
its `enumerator.evaluate` spans time the fold alone.

Prints one JSON object when the command has ended: exit code, the command's
captured stdout, the prescan value, the spans and any wrap point not found.
A span is [name, start, end, parent index or -1, run id, count or null].
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time

# module -> names it imports from another layer; spans are named by the
# callee's own module, so `cli.evaluate` records as `enumerator.evaluate`
WRAP_POINTS = {
    "primefold.cli": (
        "evaluate", "sieve_for_nth", "audit_range",
        "validate_schedule", "square_schedule_base_cases", "check_lin_growth_bound",
        "check_signature_separation", "check_schedule_divergence",
        "check_minimality", "check_forward_count_axiom",
    ),
    "primefold.audit": ("build_sieve",),
    "primefold.analysis": ("trace", "sieve_for_nth"),
}

# work done, read off a call's result at the same boundary
COUNTS = {
    "trace": lambda record: len(record.rows),
    "sieve_for_nth": lambda table: table.limit,
    "build_sieve": lambda table: table.limit,
    "audit_range": len,
    "validate_schedule": lambda r: r.x_range[1] - r.x_range[0] + 1,
    "square_schedule_base_cases": lambda r: r.x_range[1] - r.x_range[0] + 1,
    "check_lin_growth_bound": lambda r: r.x_range[1] - r.x_range[0] + 1,
}


class Tracer:
    """In-memory spans of one run; nested calls record their parent."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return traced


def install(tracer: Tracer) -> list:
    """Wrap every wrap point; return the ones this version of the program lacks."""
    missing = []
    for module_name, names in WRAP_POINTS.items():
        module = importlib.import_module(module_name)
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                missing.append(f"{module_name}.{name}")
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            setattr(module, name, tracer.wrap(f"{layer}.{name}", fn, COUNTS.get(name)))
    return missing


def main(argv: list) -> int:
    run_id, rest = argv[0], argv[1:]
    split = rest.index("--")
    options, cli_args = rest[:split], rest[split + 1 :]
    from primefold import cli, core

    tracer = Tracer(run_id)
    missing = install(tracer)
    prescan = None
    if options[:1] == ["--prescan"]:
        p, variant = int(options[1]), core.IndicatorVariant(options[2])
        prescan = tracer.wrap("core.prefix_count", core.prefix_count)(p, variant)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = tracer.wrap("cli.main", cli.main)(cli_args)
    print(json.dumps({
        "exit": code,
        "stdout": captured.getvalue(),
        "prescan": prescan,
        "spans": tracer.spans,
        "missing": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
