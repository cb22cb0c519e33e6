"""Independent evaluations the benchmark checks galmin's outputs against.

Written straight from the definitions with numpy, sharing no code with the
package, so a later rewrite of a galmin layer is checked by the same
arithmetic that checked the seed.
"""

from __future__ import annotations

import math

import numpy as np

# Rows of the gcd block evaluated at once; bounds peak memory at ~64 MB.
_BLOCK_ELEMS = 4_000_000


def quadratic_form(kind: str, weights: np.ndarray) -> float:
    """sum_{m,n} gcd(m,n) w_m w_n K(m,n), with K = 1/(m+n) for "V" and
    1/sqrt(mn) for "T"; ``weights[i]`` is the weight of i+1."""
    supp = np.flatnonzero(weights) + 1
    if supp.size == 0:
        return 0.0
    w = weights[supp - 1]
    step = max(1, _BLOCK_ELEMS // supp.size)
    total = 0.0
    for lo in range(0, supp.size, step):
        rows = supp[lo:lo + step]
        g = np.gcd.outer(rows, supp).astype(np.float64)
        if kind == "V":
            g /= np.add.outer(rows, supp)
        else:
            g /= np.sqrt(np.multiply.outer(rows, supp).astype(np.float64))
        total += float(w[lo:lo + step] @ (g @ w))
    return total


def _primes_upto(n: int) -> np.ndarray:
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_p[p]:
            is_p[p * p::p] = False
    return np.flatnonzero(is_p)


def energy(weights: np.ndarray) -> float:
    """E(c;N) = sum_k r(k)^2 with r(k) = sum_{dt=k} c_d c_t."""
    n = len(weights)
    idx = np.arange(1, n + 1, dtype=np.int64)
    r = np.bincount(np.multiply.outer(idx, idx).ravel(),
                    weights=np.outer(weights, weights).ravel())
    return float(r @ r)


def distinct_products(n: int) -> int:
    """H(N): the number of distinct products d*t with d, t <= N."""
    idx = np.arange(1, n + 1, dtype=np.int64)
    return int(np.unique(np.multiply.outer(idx, idx)).size)


def big_omega_counts(x: int) -> np.ndarray:
    """counts[k] = #{n <= x : Omega(n) = k}, Omega counted with multiplicity."""
    omega = np.zeros(x + 1, dtype=np.int8)
    for p in _primes_upto(x):
        pk = int(p)
        while pk <= x:
            omega[pk::pk] += 1
            pk *= int(p)
    return np.bincount(omega[1:])


def even_theta_square_sum(p: int, n_max: int, x: float) -> float:
    """sum over even chi mod p of |sum_{n<=n_max} chi(n) e^{-pi n^2 x/p}|^2.

    Orthogonality over the even characters gives (p-1)/2 times the sum,
    over the classes of n modulo +-1 (p not dividing n), of the squared
    class sums of the damping weights.
    """
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    damp = np.exp(-math.pi * x * ns.astype(np.float64) ** 2 / p)
    res = ns % p
    keep = res != 0
    cls = np.minimum(res[keep], p - res[keep])
    sums = np.bincount(cls, weights=damp[keep])
    return 0.5 * (p - 1) * float(sums @ sums)
