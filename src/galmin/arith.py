"""Smallest-prime-factor sieve and the arithmetic tables built on it.

Everything downstream (forms, witness sets, character experiments) reads
integers' prime factors off a single immutable :class:`FactorSieve`: the
Omega and phi tables fill whole blocks of n per numpy pass, prime_powers
reads the primes off the spf table, and the growth filter peels one prime
per pass. Each quantity has this one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Peak bytes one large allocation may take: every table, operator or scan
# whose size grows with an input estimates its peak through require_bytes
# before allocating.
BYTES_BUDGET = 1 << 30
# Peak bytes per entry of an spf table: 8 for the int64 table, 1 for the
# mask of its last pass, and the int64 primes that pass sets (under 2 per
# entry from limit 10^4 on; 10.3 in all at 10^6).
_SPF_ENTRY_BYTES = 11
# Peak bytes per entry of the block passes that fill an Omega or phi
# table, besides the table itself: a block holds at most half of the
# entries, and a pass over it at most three int64 arrays of its length
# (phi: m, the factor and phi(m)), so 12, plus 1 for the arrays' headers.
_BLOCK_PASS_BYTES = 13


class BudgetError(ValueError):
    """Raised when a request exceeds a configured compute/memory budget."""


def require_bytes(nbytes: int, what: str) -> None:
    """Raise BudgetError, before anything is allocated, when `what` would
    take more than BYTES_BUDGET bytes at its peak."""
    if nbytes > BYTES_BUDGET:
        raise BudgetError(f"{what} needs ~{nbytes >> 20} MiB "
                          f"(budget {BYTES_BUDGET >> 20} MiB)")


def spf_bytes(limit: int) -> int:
    """Peak bytes of the smallest-prime-factor table up to limit."""
    return _SPF_ENTRY_BYTES * (limit + 1)


@dataclass(frozen=True)
class FactorSieve:
    """Immutable table of smallest prime factors for 2 <= n <= limit."""

    limit: int
    spf: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.limit < 2:
            raise ValueError(f"sieve limit must be >= 2, got {self.limit}")

    def check_range(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside sieve range [1, {self.limit}]")

    def is_prime(self, n: int) -> bool:
        self.check_range(n)
        return n >= 2 and self.spf[n] == n


def build_sieve(limit: int) -> FactorSieve:
    """Build a smallest-prime-factor table for all n <= limit."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    return FactorSieve(limit=limit, spf=_spf_table(limit))


def _spf_table(limit: int) -> np.ndarray:
    """Smallest prime factor of every 2 <= n <= limit (entries 0, 1 are 0);
    the one allocator of spf tables, so the one place that checks their
    bytes."""
    require_bytes(spf_bytes(limit), f"spf table up to {limit}")
    spf = np.zeros(limit + 1, dtype=np.int64)
    for i in range(2, limit + 1):
        if spf[i] == 0:
            block = spf[i::i]
            block[block == 0] = i
            if i * i > limit:
                # All remaining unset entries are primes; set them in one pass.
                rest = spf[i:]
                unset = rest == 0
                rest[unset] = np.flatnonzero(unset) + i
                break
    return spf


def _doubling_blocks(sieve: FactorSieve, upto: int):
    """Yield (lo, hi, p, m) for the blocks [lo, hi) = [2^k, 2^(k+1)) of
    [2, upto], in increasing order: p = spf(n) and m = n // p for the n of
    the block, as int64 arrays. m <= n / 2 < lo, so m lies in an earlier
    block (or is 1), and a table filled block by block by a recurrence in
    m reads only entries already final (Gries and Misra's n = p * m)."""
    lo = 2
    while lo <= upto:
        hi = min(2 * lo, upto + 1)
        p = sieve.spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.int64)
        m //= p
        yield lo, hi, p, m
        lo = hi


def big_omega_table(sieve: FactorSieve, upto: int) -> np.ndarray:
    """Vector of Omega(n) for 0 <= n <= upto (entries 0, 1 are 0), by
    Omega(n) = Omega(n // p) + 1, p = spf(n)."""
    sieve.check_range(max(upto, 1))
    require_bytes((4 + _BLOCK_PASS_BYTES) * (upto + 1),
                  f"Omega table up to {upto}")
    omega = np.zeros(upto + 1, dtype=np.int32)
    for lo, hi, _, m in _doubling_blocks(sieve, upto):
        np.add(omega[m], 1, out=omega[lo:hi])
    return omega


def prime_powers(sieve: FactorSieve, upto: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers q = p^b <= upto (b >= 1) in increasing order, and
    the prime p of each, as int64 arrays: the primes from the spf table,
    then one numpy pass per exponent."""
    sieve.check_range(max(upto, 1))
    n = np.arange(2, upto + 1, dtype=np.int64)
    q = p = n[sieve.spf[2 : upto + 1] == n]
    qs, ps = [q], [p]
    while len(q):
        keep = q <= upto // p
        q, p = q[keep] * p[keep], p[keep]
        qs.append(q)
        ps.append(p)
    q, p = np.concatenate(qs), np.concatenate(ps)
    order = np.argsort(q)
    return q[order], p[order]


def phi_table(sieve: FactorSieve, upto: int) -> np.ndarray:
    """Vector of Euler phi(d) for 0 <= d <= upto, exact in int64: with
    p = spf(d) and m = d // p, phi(d) = phi(m) * p when p | m, else
    phi(m) * (p - 1)."""
    sieve.check_range(max(upto, 1))
    require_bytes((8 + _BLOCK_PASS_BYTES) * (upto + 1),
                  f"phi table up to {upto}")
    phi = np.zeros(upto + 1, dtype=np.int64)
    phi[1:2] = 1
    for lo, hi, p, m in _doubling_blocks(sieve, upto):
        factor = p - (sieve.spf[m] != p)
        np.multiply(phi[m], factor, out=phi[lo:hi])
    return phi
