"""Witness sets and counting functions for the upper-bound constructions.

CAUTION on notation: in the growth condition below, the "iterated log" is
log log throughout — the bound on Omega(n, t) is kappa * log(log(3t)) + C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import FactorSieve, big_omega_table, require_bytes
from .forms import WeightVector


# Peak bytes per candidate of _loc_members. Its int64 cofactors, counts,
# candidate indices and primes (32) and keep flags (1) live throughout;
# compressing them makes one new copy at a time (8), so a pass in which few
# counts reach rhs(2) peaks at 44 (traced: level sets up to 10^6, C = 3). A
# pass in which every count is tested adds the tested primes, counts and
# bounds and the masks: 76 traced, every candidate in ]5*10^5, 10^6] at C = 0.
_LOC_CANDIDATE_BYTES = 80


class EmptyWitnessError(ValueError):
    """The witness set is empty: N lies below the witness's domain, or no
    candidate satisfies the growth condition (C too small)."""


@dataclass(frozen=True)
class LocCondition:
    """Accept n iff Omega(n,t) <= kappa*loglog(3t) + C for all 1 <= t <= x."""

    kappa: float
    C: float
    x: int

    def __post_init__(self):
        # Written so that NaN fails: running > nan would reject nothing.
        if not (self.kappa >= 0 and self.C >= 0 and self.x >= 1):
            raise ValueError("LocCondition requires kappa >= 0, C >= 0, x >= 1")

    def rhs(self, t: float) -> float:
        return self.kappa * math.log(math.log(3.0 * t)) + self.C


def _loc_members(sieve: FactorSieve, candidates: np.ndarray,
                 cond: LocCondition) -> np.ndarray:
    """The candidates (an int64 array) that satisfy cond, in order: every
    candidate's jump-point tests, all candidates at once.

    Each pass takes the smallest prime p = spf(m) <= x of every unfinished
    cofactor m, divides out all its copies, adds them to the candidate's
    count and tests count <= rhs(p). The primes of a candidate come out in
    increasing order, so these are the tests of the per-n reference
    satisfies_loc in tests/oracles.py on the same numbers. A candidate is
    finished when m = 1, when spf(m) > x, or when a test fails.

    rhs(p) comes from cond.rhs, so from math.log as in satisfies_loc: a
    vector log may differ by an ulp and flip a boundary case. Each pass
    calls it once per distinct prime at which some count exceeds rhs(2). A
    count <= rhs(2) passes without it, exactly: for every prime p, 3p >= 6,
    so loglog(3p) >= loglog(6) in floating point as well (the gap is 0.2 or
    more, far above rounding), and kappa >= 0 keeps the order through the
    product and the sum.
    """
    n = len(candidates)
    # 4 KiB covers the arrays' headers.
    require_bytes(_LOC_CANDIDATE_BYTES * n + 4096,
                  f"growth filter over {n} candidates")
    if n:
        sieve.check_range(int(candidates.min()))
        sieve.check_range(int(candidates.max()))
    floor = cond.rhs(2)
    keep = np.ones(n, dtype=bool)
    at = np.arange(n)
    m = candidates.astype(np.int64)
    count = np.zeros(n, dtype=np.int64)
    while len(m):
        p = sieve.spf[m]
        live = (m > 1) & (p <= cond.x)
        # One array at a time, so that each old copy is freed before the
        # next new one is made.
        at = at[live]
        m = m[live]
        count = count[live]
        p = p[live]
        m //= p
        count += 1
        again = np.flatnonzero(m % p == 0)
        while len(again):
            q = p[again]
            m[again] //= q
            count[again] += 1
            again = again[m[again] % q == 0]
        over = count > floor
        if over.any():
            p_over = p[over]
            # The distinct primes; np.unique would import numpy.ma on its
            # first call, about 10 ms.
            primes = np.sort(p_over)
            primes = primes[np.concatenate(([True], primes[1:] != primes[:-1]))]
            bound = np.fromiter(map(cond.rhs, map(int, primes)), float, len(primes))
            limit = bound[np.searchsorted(primes, p_over)]
            del p_over, primes, bound  # before the comparison's arrays
            failed = np.zeros(len(m), dtype=bool)
            failed[over] = count[over] > limit
            keep[at[failed]] = False
            m[failed] = 1  # finished
    return candidates[keep]


def _level_set(sieve: FactorSieve, x: int, k: int) -> np.ndarray:
    """{n <= x : Omega(n) = k} in increasing order."""
    omega = big_omega_table(sieve, x)
    return np.flatnonzero(omega[1:] == k) + 1


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
    if k < 1:
        raise ValueError("k must be >= 1")
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
    condition holds with kappa = beta}. Its domain is N >= 16. Below
    N = exp(exp(1/beta)) the level is k = 0, so the witness is the point
    mass at 1: at the paper's beta = 0.48154..., for 16 <= N <= 2,915; at
    N = 2,916 its support has 421 members."""
    if N < 16:
        raise EmptyWitnessError("witness_t requires N >= 16")
    sieve.check_range(N)
    k = int(beta * math.log(math.log(N)))
    cond = LocCondition(kappa=beta, C=C, x=N)
    support = _loc_members(sieve, _level_set(sieve, N, k), cond)
    if not len(support):
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
    support = _loc_members(sieve, np.arange(N // 2 + 1, N + 1, dtype=np.int64),
                           cond)
    if not len(support):
        raise EmptyWitnessError(
            f"no n in ]{N // 2}, {N}] satisfies the growth condition; "
            f"increase C (currently {C})"
        )
    return WeightVector.indicator(support, N)
