"""Dirichlet characters mod an odd prime: table construction, character
sums, Gauss sums, the finite Fourier (Polya) expansion, theta functions and
orthogonality over the even subgroup.

chi_j(n) = exp(2*pi*i * j * ind(n) / (p-1)) where ind is the discrete log
with respect to the least primitive root; chi_j is even iff j is even.
Every value comes from one expression, _chi: the angle is reduced with
exact integer arithmetic mod p-1 before the single call into exp, so
chi(n), chi.values and character_matrix agree bit for bit.

A weighted sum over every character at once, sum_n w_n chi_j(n) for all j,
is a discrete Fourier transform of the weights binned by ind(n):
character_sums does it in O(len(ns) + p log p) time and O(p) memory.
character_matrix builds the dense (characters x n) matrix instead and is
kept as the reference that tests compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arith
from .arith import BudgetError, build_sieve, require_bytes

# Terms theta_all_even generates and bins at a time.
_THETA_CHUNK = 1 << 20
# Most terms theta_cutoff admits. theta_all_even streams its terms, so this
# limits its time, not its memory.
_THETA_TERM_CAP = 100_000_000
# Theta sums are truncated where the geometric bound on the discarded tail
# falls below this.
_THETA_TAIL_EPSILON = 1e-15
# Bytes per residue that bound the modulus of build_table. Its discrete-log
# table takes 8 and the rest O(sqrt p); the bound keeps the 11 of the spf
# sieve of size p that primality was once read off, so that every modulus
# keeps the verdict (and the CLI exit code) it had then.
_MODULUS_ENTRY_BYTES = 11
# Peak bytes per term of chi.values over a range of n, with the int64 range
# and, in gauss_sum, the complex exponentials (73 at 10^4 to 10^6 terms).
_CHI_TERM_BYTES = 80
# Peak bytes per h of polya_partial_sum's Fourier terms, both signs held
# at once (88 at 10^5 terms).
_POLYA_TERM_BYTES = 96
# Peak bytes per class of a sum over every character: the binned weights,
# the FFT's complex input and output and the scaled result (40 at p >= 10^5).
_CLASS_BYTES = 48
# Peak bytes per term binned by _class_bins: residues, mask, index and
# class (26 at 10^5 terms).
_BIN_TERM_BYTES = 28
# Peak bytes per term of a theta_all_even chunk: the damping and its float
# temporaries, then _class_bins (41 at 3.7 * 10^5 terms).
_THETA_BIN_TERM_BYTES = 44


@dataclass(frozen=True)
class CharacterTable:
    """Prime p, least primitive root g, and the full discrete-log table."""

    p: int
    g: int
    dlog: np.ndarray = field(repr=False)  # dlog[n] for 1 <= n <= p-1

    def character(self, j: int) -> "DirichletCharacter":
        return DirichletCharacter(self, j % (self.p - 1))

    def characters(self, skip_principal: bool = False):
        for j in range(1 if skip_principal else 0, self.p - 1):
            yield DirichletCharacter(self, j)


def modulus_limit() -> int:
    """The largest modulus build_table accepts: BYTES_BUDGET //
    _MODULUS_ENTRY_BYTES - 1."""
    return arith.BYTES_BUDGET // _MODULUS_ENTRY_BYTES - 1


def _prime_factors(p: int) -> list[int] | None:
    """The distinct prime factors of p - 1 in increasing order if p is an
    odd prime, else None: trial division of p and p - 1 by the primes up
    to isqrt(p), from a sieve of that size. What is left of p - 1 after
    those primes is 1 or a prime above isqrt(p)."""
    spf = build_sieve(max(math.isqrt(p), 2)).spf
    n = np.arange(2, len(spf))
    primes = n[spf[2:] == n].tolist()
    if any(p % q == 0 for q in primes):
        return None
    m, qs = p - 1, []
    for q in primes:
        if m % q == 0:
            qs.append(q)
            while m % q == 0:
                m //= q
    return qs + [m] if m > 1 else qs


def _modulus_factors(p: int) -> list[int]:
    """The distinct prime factors of p - 1 for a modulus build_table
    accepts, else ValueError. A modulus above modulus_limit() is rejected
    before anything is allocated; primality and the factors come from the
    primes up to sqrt(p)."""
    bound = modulus_limit()
    invalid = ValueError(f"modulus must be an odd prime <= {bound} (the bound "
                         f"the byte budget sets), got {p}")
    if p < 3 or p % 2 == 0 or p > bound:
        raise invalid
    qs = _prime_factors(p)
    if qs is None:
        raise invalid
    return qs


def require_with_table(p: int, later, what: str) -> None:
    """Refuse, before build_table(p) fills its table, work that holds the
    table and then needs later() bytes more: the table is counted at
    _MODULUS_ENTRY_BYTES a residue, the bound build_table keeps. A modulus
    build_table rejects raises its ValueError first."""
    _modulus_factors(p)
    require_bytes(_MODULUS_ENTRY_BYTES * p + later(), f"{what}, table included")


def build_table(p: int) -> CharacterTable:
    """Find the least primitive root and fill the discrete-log table.

    The modulus is checked as _modulus_factors checks it.
    """
    qs = _modulus_factors(p)
    g = None
    for cand in range(2, p):
        if all(pow(cand, (p - 1) // q, p) != 1 for q in qs):
            g = cand
            break
    assert g is not None  # every prime has a primitive root
    # The powers of g in blocks of ceil(sqrt(p)): the first block by a running
    # product, each next one the last times g^step mod p. Both factors are
    # below p, so the int64 products stay below p^2 < 2^63.
    step = math.isqrt(p - 1) + 1
    block = np.empty(step, dtype=np.int64)
    acc = 1
    for k in range(step):
        block[k] = acc
        acc = acc * g % p
    dlog = np.zeros(p, dtype=np.int64)
    for start in range(0, p - 1, step):
        m = min(step, p - 1 - start)
        dlog[block[:m]] = np.arange(start, start + m)
        block *= acc
        block %= p
    return CharacterTable(p=p, g=g, dlog=dlog)


@dataclass(frozen=True)
class DirichletCharacter:
    table: CharacterTable
    j: int

    @property
    def p(self) -> int:
        return self.table.p

    @property
    def is_principal(self) -> bool:
        return self.j % (self.p - 1) == 0

    def __call__(self, n: int) -> complex:
        return complex(self.values([n % self.p])[0])

    def values(self, ns) -> np.ndarray:
        """Vectorized chi(n) over an integer array."""
        return _chi(self.table, [self.j], ns)[0]


def _chi(table: CharacterTable, js, ns) -> np.ndarray:
    """chi_j(n) with one row per j of js and one column per n of ns: the
    one expression behind every character value."""
    p = table.p
    ns = np.asarray(ns, dtype=np.int64) % p
    out = np.zeros((len(js), len(ns)), dtype=np.complex128)
    mask = ns != 0
    k = np.outer(js, table.dlog[ns[mask]]) % (p - 1)
    out[:, mask] = np.exp(2j * np.pi * k / (p - 1))
    return out


def character_matrix(table: CharacterTable, ns, even_only: bool = False) -> np.ndarray:
    """Matrix chi_j(n) with one row per character, columns following ns.

    The dense reference: it takes O(p * len(ns)) time and memory. Sums over
    all characters go through character_sums, which tests check against
    this matrix.
    """
    return _chi(table, np.arange(0, table.p - 1, 2 if even_only else 1), ns)


def character_sums(table: CharacterTable, ns, weights,
                   even_only: bool = False) -> np.ndarray:
    """sum_n w_n chi_j(n) for every character, or every even one, in index
    order j = 0, 1, 2, ... (j = 0, 2, 4, ... when even_only), for real
    weights w following ns.

    chi_j(n) depends on n only through ind(n) mod m, where m = p-1, or
    (p-1)/2 for even j = 2k, since chi_2k(n) = e^{2 pi i k ind(n) / m}.
    So the sums are m times the inverse DFT of the weights binned by that
    class; n = 0 (mod p) has chi(n) = 0 and is left out.
    """
    m = (table.p - 1) // 2 if even_only else table.p - 1
    require_bytes(character_sums_bytes(m, len(ns)),
                  f"character sums over {m} classes and {len(ns)} terms")
    return np.fft.ifft(_class_bins(table, ns, weights, m)) * m


def character_sums_bytes(m: int, n_terms: int) -> int:
    """Peak bytes of character_sums over m classes and n_terms terms."""
    return _CLASS_BYTES * m + _BIN_TERM_BYTES * n_terms


def _class_bins(table: CharacterTable, ns, weights, m: int) -> np.ndarray:
    """The weights w following ns summed by the class ind(n) mod m."""
    ns = np.asarray(ns, dtype=np.int64) % table.p
    weights = np.asarray(weights, dtype=np.float64)
    mask = ns != 0
    return np.bincount(table.dlog[ns[mask]] % m, weights=weights[mask],
                       minlength=m)


def char_sum(chi: DirichletCharacter, M: int, N: int) -> complex:
    """S(M,N;chi) = sum_{M < n <= M+N} chi(n)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if N == 0:
        return 0j
    require_bytes(_CHI_TERM_BYTES * N, f"character sum over {N} terms")
    ns = np.arange(M + 1, M + N + 1, dtype=np.int64)
    return complex(chi.values(ns).sum())


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum_{n mod p} chi(n) e^{2 pi i n / p}."""
    if chi.is_principal:
        raise ValueError("gauss_sum requires a nonprincipal character")
    p = chi.p
    require_bytes(_CHI_TERM_BYTES * (p - 1), f"Gauss sum at p={p}")
    ns = np.arange(1, p, dtype=np.int64)
    return complex(chi.values(ns) @ np.exp(2j * np.pi * ns / p))


def polya_partial_sum(chi: DirichletCharacter, t: float, H: int):
    """Finite Fourier approximation of sum_{n<=t} chi(n).

    Returns (approximation, exact, residual) where
    approximation = tau(chi)/(2 pi i) * sum_{0<|h|<=H} conj(chi(h))/h *
    (1 - e^{-2 pi i h t / p}) and exact is the direct sum.
    """
    if chi.is_principal:
        raise ValueError("polya_partial_sum requires a nonprincipal character")
    if not 1 <= t < chi.p:
        raise ValueError("cutoff t must satisfy 1 <= t < p")
    if H < 1:
        raise ValueError("H must be >= 1")
    p = chi.p
    # The Gauss sum and the exact sum (t < p terms) come first and are
    # freed before the 2H Fourier terms.
    require_bytes(max(_CHI_TERM_BYTES * (p - 1), _POLYA_TERM_BYTES * H),
                  f"Polya expansion at p={p}, H={H}")
    tau = gauss_sum(chi)
    exact = complex(chi.values(np.arange(1, int(t) + 1, dtype=np.int64)).sum())
    hs = np.arange(1, H + 1, dtype=np.int64)
    vals = np.conj(chi.values(hs))
    pos = (vals / hs) * (1.0 - np.exp(-2j * np.pi * hs * (t / p)))
    # h -> -h: conj(chi(-h)) = conj(chi(-1)) * conj(chi(h)).
    chi_m1 = chi(p - 1)
    neg = (vals * chi_m1.conjugate() / (-hs)) * (
        1.0 - np.exp(2j * np.pi * hs * (t / p))
    )
    approx = tau / (2j * np.pi) * complex(pos.sum() + neg.sum())
    return approx, exact, abs(approx - exact)


@dataclass(frozen=True)
class ThetaConfig:
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and self.x > 0):
            raise ValueError(f"theta needs a finite x > 0, got x={self.x}")


def theta_cutoff(p: int, config: ThetaConfig) -> int:
    """The first n_max >= n0 = floor(sqrt(max(-log eps, 1) / rate)),
    rate = pi x / p, whose geometric tail bound is below
    eps = _THETA_TAIL_EPSILON.

    An n_max above _THETA_TERM_CAP raises BudgetError: that cap limits
    the time of theta_all_even, which bins the terms in chunks, so its
    memory does not grow with n_max.
    """
    rate = math.pi * config.x / p

    def tail_ok(n: int) -> bool:
        # tail after n: sum_{m>n} e^{-rate m^2} <= e^{-rate (n+1)^2}/(1 - e^{-rate(2n+3)})
        head = math.exp(-rate * (n + 1) ** 2)
        denom = 1.0 - math.exp(-rate * (2 * n + 3))
        return head / denom < _THETA_TAIL_EPSILON

    n = max(1, int(math.sqrt(max(-math.log(_THETA_TAIL_EPSILON), 1.0) / rate)))
    # n_max >= n, so a start above the term cap is rejected without a search
    # (far out, the bound's denominator rounds to 0).
    if n <= _THETA_TERM_CAP and not tail_ok(n):
        # The bound falls as n grows (the head falls, the denominator
        # rises): double the step past the cutoff, then bisect back to the
        # first passing n, keeping tail_ok(lo) false and tail_ok(hi) true.
        lo, step = n, 1
        while not tail_ok(lo + step):
            lo, step = lo + step, 2 * step
        hi = lo + step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if tail_ok(mid):
                hi = mid
            else:
                lo = mid
        n = hi
    if n > _THETA_TERM_CAP:
        raise BudgetError(f"theta needs more than {_THETA_TERM_CAP} terms "
                          f"at p={p}, x={config.x}")
    return n


def theta_all_even_bytes(p: int, n_max: int) -> int:
    """Peak bytes of theta_all_even at p with cutoff n_max."""
    return _CLASS_BYTES * ((p - 1) // 2) + _THETA_BIN_TERM_BYTES * min(n_max, _THETA_CHUNK)


def theta_all_even(table: CharacterTable, config: ThetaConfig) -> np.ndarray:
    """theta(x;chi) for every even character, in index order j = 0,2,4,...

    The terms are generated and binned _THETA_CHUNK at a time, so the peak
    is O(_THETA_CHUNK + p) whatever the cutoff; one FFT of the summed bins
    follows, as in character_sums.
    """
    p = table.p
    n_max = theta_cutoff(p, config)
    m = (p - 1) // 2
    require_bytes(theta_all_even_bytes(p, n_max), f"theta over {m} even characters")
    binned = np.zeros(m)
    for lo in range(1, n_max + 1, _THETA_CHUNK):
        ns = np.arange(lo, min(lo + _THETA_CHUNK, n_max + 1), dtype=np.int64)
        damp = np.exp(-math.pi * config.x * ns.astype(np.float64) ** 2 / p)
        binned += _class_bins(table, ns, damp, m)
    return np.fft.ifft(binned) * m


def orthogonality_check(table: CharacterTable, m: int, n: int) -> complex:
    """sum over even chi of chi(m) * conj(chi(n)); equals (p-1)/2 iff
    m = +-n mod p (and p does not divide m), else 0."""
    p = table.p
    if not (1 <= m % p and 1 <= n % p):
        raise ValueError("m, n must be coprime to p")
    cm = character_matrix(table, [m, n], even_only=True)
    return complex((cm[:, 0] * np.conj(cm[:, 1])).sum())
