"""Non-synonymy and forward-count conformance checks at desk scale.

Fixed six-bit operator-palette fingerprints separate three enumerator
families, and the forward-count axiom is checked against each trace's step
array.  The schedule sweeps over x that complete the separation and
minimality claims (the Willans limit outgrowing u_lin, and the Omega(x log x)
lower bound of any forward-count enumerator) live in schedules.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Tuple

from .enumerator import trace
from .nat import DomainError, RangeError, as_nat
from .oracle import SieveTable, sieve_for_nth  # perfbench/traced.py wraps it here by name
from .reports import BoundsReport
from .schedules import Schedule

FORWARD_AXIOM_X_MAX = 200  # trace-backed check; keep the row volume bounded


class SignatureFamily(enum.Enum):
    FOLDED = "folded"
    WILLANS = "willans"
    MILLS = "mills"


_Signature = NamedTuple("_Signature", [("family", SignatureFamily), ("coords", Tuple[int, ...])])


class SignatureVector(_Signature):
    __slots__ = ()

    def __new__(cls, family: SignatureFamily, coords: Tuple[int, ...]):
        if len(coords) != 6 or any(c not in (0, 1) for c in coords):
            raise DomainError(f"signature coords must be six bits, got {coords}")
        return super().__new__(cls, family, coords)

    @classmethod
    def _make(cls, iterable):  # so `_replace` checks its coords too
        return cls(*iterable)

    def packed(self) -> int:
        value = 0
        for bit in self.coords:
            value = value << 1 | bit
        return value


_SIGNATURES = {
    SignatureFamily.FOLDED: (0, 0, 0, 0, 1, 1),
    SignatureFamily.WILLANS: (1, 1, 1, 0, 0, 0),
    SignatureFamily.MILLS: (0, 0, 1, 0, 0, 0),
}


def signature(family: SignatureFamily) -> SignatureVector:
    return SignatureVector(family=family, coords=_SIGNATURES[family])


def check_signature_separation() -> BoundsReport:
    """Pairwise-distinct fingerprints; folded and willans palettes disjoint.

    Violation rows: distinctness failures as (pair index, packed lhs, packed
    rhs); palette overlaps as (coordinate index, folded bit, willans bit).
    """
    folded = signature(SignatureFamily.FOLDED)
    willans = signature(SignatureFamily.WILLANS)
    mills = signature(SignatureFamily.MILLS)
    violations = []
    pairs = [(folded, willans), (folded, mills), (willans, mills)]
    for idx, (a, b) in enumerate(pairs):
        if a.coords == b.coords:
            violations.append((idx, float(a.packed()), float(b.packed())))
    for c, (a_bit, w_bit) in enumerate(zip(folded.coords, willans.coords)):
        if a_bit and w_bit:
            violations.append((c, float(a_bit), float(w_bit)))
    return BoundsReport("operator-signature-separation", (0, 2), tuple(violations))


def check_forward_count_axiom(x_max: int, table: SieveTable) -> BoundsReport:
    """Traced step sequences are {0,1}, nonincreasing, flipping at p_{x+1}.

    Violation rows: (x, observed flip index or offending value, expected).
    """
    x_max = as_nat(x_max, "x_max")
    if x_max > FORWARD_AXIOM_X_MAX:
        raise RangeError(
            f"check_forward_count_axiom is trace-backed; x_max <= {FORWARD_AXIOM_X_MAX}"
        )
    primes = table.first(x_max + 1)  # a short table raises RangeError before any scan
    violations = []
    for x in range(x_max, -1, -1):  # the first trace's one wide scan fills the store for the rest
        record = trace(x, Schedule.LINLOG)
        p = int(primes[x])
        steps = record.steps
        off = steps[(steps != 0) & (steps != 1)]
        if off.size:
            violations.append((x, float(off[0]), 0.0))
        elif (steps[1:] > steps[:-1]).any():
            violations.append((x, -1.0, float(p)))
        elif not steps[: p - 1].all() or steps[p - 1 :].any() or record.flip_index != p:
            violations.append((x, float(record.flip_index), float(p)))
    return BoundsReport("forward-count-axiom", (0, x_max), tuple(reversed(violations)))
