"""Independent ground truth: a classical sieve of Eratosthenes, kept as its list of primes.

pi(m) and primality are one binary search of the list, p_n is one index, and `first(n)` is
p_1..p_n as one checked view.  Shares no code with the gcd/floor indicator in `core`; the two
are cross-validated against each other in the test suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .nat import DomainError, RangeError, as_nat

SIEVE_LIMIT_MAX = 10**8


class SieveTable(NamedTuple):
    """Immutable sieve over [0, limit], held as its primes; shareable across threads."""

    limit: int
    prime_list: np.ndarray
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__  # by identity

    @property
    def prime_count(self) -> int:
        return int(self.prime_list.size)

    def is_prime(self, m: int) -> bool:
        rank = self.pi(m)  # m is prime iff it is the rank-th prime
        return rank > 0 and int(self.prime_list[rank - 1]) == m

    def pi(self, m: int) -> int:
        """Number of primes <= m."""
        m = as_nat(m, "m")
        if m > self.limit:
            raise RangeError(f"m={m} exceeds sieve limit {self.limit}")
        return int(np.searchsorted(self.prime_list, m, side="right"))

    def nth_prime(self, n: int) -> int:
        """The n-th prime, 1-indexed (p_1 = 2)."""
        n = as_nat(n, "n")
        if not 1 <= n <= self.prime_count:
            raise RangeError(
                f"n={n} outside [1, {self.prime_count}]; rebuild with a larger limit"
            )
        return int(self.prime_list[n - 1])

    def first(self, n: int) -> np.ndarray:
        """p_1..p_n as a view of the list; a short table raises RangeError, not a truncation."""
        n = as_nat(n, "n")
        if n > self.prime_count:
            raise RangeError(f"n={n} outside [0, {self.prime_count}]; rebuild with a larger limit")
        return self.prime_list[:n]


def build_sieve(limit: int) -> SieveTable:
    """Standard sieve of Eratosthenes up to `limit` inclusive."""
    limit = as_nat(limit, "limit")
    if limit < 2:
        raise DomainError(f"build_sieve requires limit >= 2, got {limit}")
    if limit > SIEVE_LIMIT_MAX:
        raise RangeError(f"limit {limit} exceeds the {SIEVE_LIMIT_MAX} memory budget")
    flags = np.zeros(limit + 1, dtype=bool)
    flags[2:] = True
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return SieveTable(limit=limit, prime_list=np.flatnonzero(flags).astype(np.int64, copy=False))


def sieve_limit_for_nth(n: int) -> int:
    """The limit of `sieve_for_nth(n)`, from the n(ln n + ln ln n) bound; builds nothing."""
    n = as_nat(n, "n")
    if n < 1:
        raise DomainError(f"sieve_for_nth requires n >= 1, got {n}")
    if n < 6:
        limit = 100
    else:
        limit = max(100, math.ceil(n * (math.log(n) + math.log(math.log(n)))) + 16)
    if limit > SIEVE_LIMIT_MAX:
        raise RangeError(f"limit {limit} exceeds the {SIEVE_LIMIT_MAX} memory budget")
    return limit


def sieve_for_nth(n: int) -> SieveTable:
    """A sieve guaranteed to contain p_n, sized by `sieve_limit_for_nth`."""
    return build_sieve(sieve_limit_for_nth(n))
