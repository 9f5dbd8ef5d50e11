"""Pass/fail ledger for numeric inequality sweeps."""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

Violation = Tuple[int, float, float]  # (x, lhs, rhs)


class BoundsReport(NamedTuple):
    """Outcome of checking one claim over an x-range.

    `violations` holds (x, lhs, rhs) rows where the claimed relation failed;
    the report passes iff it is empty.  `min_slack` records the smallest
    margin observed, for claims that report one.
    """

    claim_id: str
    x_range: Tuple[int, int]
    violations: Tuple[Violation, ...] = ()
    min_slack: Optional[float] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "x_range": list(self.x_range),
            "violations": [list(v) for v in self.violations],
            "min_slack": self.min_slack,
            "passed": self.passed,
        }

