"""Witness sets and counting functions for the upper-bound constructions.

CAUTION on notation: in the growth condition below, the "iterated log" is
log log throughout — the bound on Omega(n, t) is kappa * log(log(3t)) + C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import FactorSieve, big_omega_table, require_bytes
from .forms import WeightVector


class EmptyWitnessError(ValueError):
    """The witness set is empty: N lies below the witness's domain, or no
    candidate satisfies the growth condition (C too small)."""


@dataclass(frozen=True)
class LocCondition:
    """Accept n iff Omega(n,t) <= kappa*loglog(3t) + C for all 1 <= t <= x."""

    kappa: float
    C: float
    x: int
    # rhs at each prime satisfies_loc has met; not part of the condition.
    _rhs_at: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        # Written so that NaN fails: running > nan would reject nothing.
        if not (self.kappa >= 0 and self.C >= 0 and self.x >= 1):
            raise ValueError("LocCondition requires kappa >= 0, C >= 0, x >= 1")

    def rhs(self, t: float) -> float:
        return self.kappa * math.log(math.log(3.0 * t)) + self.C


def satisfies_loc(sieve: FactorSieve, n: int, cond: LocCondition) -> bool:
    """Check the growth condition at its jump points only.

    Omega(n,t) is a step function jumping at the distinct prime divisors
    p <= x of n, and the right side is increasing in t, so checking
    Omega(n,p) <= rhs(p) at each such p covers every t in [1, x].
    """
    sieve.check_range(n)
    spf = sieve.spf
    rhs_at = cond._rhs_at
    running = 0
    while n > 1:  # primes in increasing order
        p = spf.item(n)
        if p > cond.x:
            break
        n //= p
        running += 1
        while n % p == 0:
            n //= p
            running += 1
        bound = rhs_at.get(p)
        if bound is None:
            bound = rhs_at[p] = cond.rhs(p)
        if running > bound:
            return False
    return True


def _loc_members(sieve: FactorSieve, candidates, cond: LocCondition) -> list[int]:
    """The candidates that satisfy cond, in order: one satisfies_loc call
    each."""
    return [n for n in candidates if satisfies_loc(sieve, n, cond)]


def _level_set(sieve: FactorSieve, x: int, k: int) -> list[int]:
    """{n <= x : Omega(n) = k} in increasing order."""
    omega = big_omega_table(sieve, x)
    return (np.flatnonzero(omega[1:] == k) + 1).tolist()


def level_set_count(sieve: FactorSieve, x: int, k: int) -> int:
    """N_k(x): number of n <= x with Omega(n) = k."""
    sieve.check_range(x)
    if k < 1:
        raise ValueError("k must be >= 1")
    omega = big_omega_table(sieve, x)
    return int(np.count_nonzero(omega[1:] == k))


def filtered_count(sieve: FactorSieve, x: int, k: int, C: float) -> int:
    """F_k(x;C): members of the level set that also satisfy the growth
    condition with kappa = k/loglog(x). Its domain is x >= 3, where
    loglog(x) > 0."""
    if x < 3:
        raise ValueError(f"filtered_count needs x >= 3 for kappa = k/loglog(x), "
                         f"got x={x}")
    sieve.check_range(x)
    cond = LocCondition(kappa=k / math.log(math.log(x)), C=C, x=x)
    return len(_loc_members(sieve, _level_set(sieve, x, k), cond))


def multiplication_table_count(N: int) -> int:
    """H(N): number of distinct products d*t with d, t <= N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    # The bool table of every product up to N^2, and its array header.
    require_bytes(N * N + 4096, f"multiplication table H({N})")
    seen = np.zeros(N * N + 1, dtype=bool)
    for d in range(1, N + 1):
        seen[d * d :: d][: N - d + 1] = True
    return int(np.count_nonzero(seen))


def witness_t(sieve: FactorSieve, N: int, beta: float, C: float = 3.0) -> WeightVector:
    """Indicator of {n <= N : Omega(n) = floor(beta*loglog N), growth
    condition holds with kappa = beta}. Its domain is N >= 16."""
    if N < 16:
        raise EmptyWitnessError("witness_t requires N >= 16")
    sieve.check_range(N)
    k = int(beta * math.log(math.log(N)))
    cond = LocCondition(kappa=beta, C=C, x=N)
    support = _loc_members(sieve, _level_set(sieve, N, k), cond)
    if not support:
        raise EmptyWitnessError(
            f"no n <= {N} with Omega(n)={k} satisfies the growth condition; "
            f"increase C (currently {C})"
        )
    return WeightVector.indicator(support, N)


def witness_e(sieve: FactorSieve, N: int, C: float = 3.0) -> WeightVector:
    """Indicator of {n in ]N/2, N] : growth condition with kappa = 1/log 4}.
    Its domain is N >= 4."""
    if N < 4:
        raise EmptyWitnessError("witness_e requires N >= 4")
    sieve.check_range(N)
    cond = LocCondition(kappa=1.0 / math.log(4.0), C=C, x=N)
    support = _loc_members(sieve, range(N // 2 + 1, N + 1), cond)
    if not support:
        raise EmptyWitnessError(
            f"no n in ]{N // 2}, {N}] satisfies the growth condition; "
            f"increase C (currently {C})"
        )
    return WeightVector.indicator(support, N)
