"""Paper definitions that the tests use as references. Nothing in galmin
runs them; each is tied to the production code it restates by a test:

- factorize, big_omega, small_omega, euler_phi and divisors, the per-n
  definitions read off the spf sieve, against arith.big_omega_table,
  arith.phi_table, the growth filter and the primes of p - 1 behind the
  character tables (test_arith.py, test_extremal.py, test_characters.py);
- theta, the one-character sum, against characters.theta_all_even
  (test_characters.py);
- omega_partial, the literal growth condition, against satisfies_loc,
  the growth condition at its jump points, and satisfies_loc against
  extremal._loc_members, the growth filter behind filtered_count,
  witness_t and witness_e (test_extremal.py);
- gal_sum at alpha = 1/2 against forms.t_form_naive of the indicator
  (test_forms.py);
- set_energy(A, A) against forms.e_form of the indicator (test_forms.py).

tests/test_surface.py fails if galmin defines a public name that is
defined here too.
"""

import math

import numpy as np

from galmin.arith import FactorSieve
from galmin.characters import DirichletCharacter, ThetaConfig, theta_cutoff
from galmin.extremal import LocCondition
from galmin.forms import gcd_block


def factorize(sieve: FactorSieve, n: int) -> list[tuple[int, int]]:
    """The prime factorization of n as a list of (p, exponent) pairs."""
    sieve.check_range(n)
    out: list[tuple[int, int]] = []
    spf = sieve.spf
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def big_omega(sieve: FactorSieve, n: int) -> int:
    """Omega(n): number of prime factors counted with multiplicity."""
    return sum(e for _, e in factorize(sieve, n))


def small_omega(sieve: FactorSieve, n: int) -> int:
    """omega(n): number of distinct prime factors."""
    return len(factorize(sieve, n))


def euler_phi(sieve: FactorSieve, n: int) -> int:
    """Euler totient, via the prime factorization."""
    phi = 1
    for p, e in factorize(sieve, n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(sieve: FactorSieve, n: int) -> list[int]:
    """All divisors of n, sorted increasingly."""
    divs = [1]
    for p, e in factorize(sieve, n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def theta(chi: DirichletCharacter, config: ThetaConfig) -> complex:
    """theta(x;chi) = sum_{n>=1} chi(n) e^{-pi n^2 x / p} for one
    character, truncated at theta_cutoff, all terms at once."""
    p = chi.p
    ns = np.arange(1, theta_cutoff(p, config) + 1, dtype=np.int64)
    damp = np.exp(-math.pi * config.x * ns.astype(np.float64) ** 2 / p)
    return complex(chi.values(ns) @ damp)


def omega_partial(sieve: FactorSieve, n: int, t: float) -> int:
    """Omega(n, t): prime factors p <= t of n counted with multiplicity.

    The threshold t is real-valued; the comparison is p <= floor(t).
    """
    if t < 1:
        raise ValueError(f"threshold t must be >= 1, got {t}")
    cut = int(t)
    return sum(e for p, e in factorize(sieve, n) if p <= cut)


def satisfies_loc(sieve: FactorSieve, n: int, cond: LocCondition) -> bool:
    """Check the growth condition at its jump points only: the per-n
    reference for extremal._loc_members.

    Omega(n,t) is a step function jumping at the distinct prime divisors
    p <= x of n, and the right side is increasing in t, so checking
    Omega(n,p) <= rhs(p) at each such p covers every t in [1, x].
    """
    sieve.check_range(n)
    spf = sieve.spf
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
        if running > cond.rhs(p):
            return False
    return True


def gal_sum(members, alpha: float) -> float:
    """S_alpha(M) = sum over m,n in M of (gcd/lcm)^alpha, diagonal included.
    Members must be positive integers (integral floats are accepted)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in ]0,1], got {alpha}")
    ms = np.asarray(sorted(set(members)))
    if ms.size == 0:
        raise ValueError("member set must be nonempty")
    integral = ms.dtype.kind in "iu" or (
        ms.dtype.kind == "f" and np.isfinite(ms).all() and np.all(ms == np.floor(ms)))
    if not integral or ms[0] < 1:
        raise ValueError(f"members must be positive integers, got {ms.tolist()}")
    ms = ms.astype(np.int64)
    g = gcd_block(ms, ms)
    ratio = (g * g) / np.multiply.outer(ms, ms).astype(np.float64)
    return float((ratio**alpha).sum())


def set_energy(a_set, b_set) -> int:
    """Multiplicative energy E(A,B): number of (a,b,a',b') with ab = a'b'."""
    a = np.asarray(sorted(set(a_set)), dtype=np.int64)
    b = np.asarray(sorted(set(b_set)), dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return 0
    prods = np.multiply.outer(a, b).ravel()
    _, counts = np.unique(prods, return_counts=True)
    return int((counts.astype(np.int64) ** 2).sum())
