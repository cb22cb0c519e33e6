"""Paper definitions that the tests use as references. Nothing in galmin
runs them; each is tied to the production code it restates by a test:

- omega_partial, the literal growth condition, against
  extremal.satisfies_loc (test_extremal.py);
- gal_sum at alpha = 1/2 against forms.t_form_naive of the indicator
  (test_forms.py);
- set_energy(A, A) against forms.e_form of the indicator (test_forms.py).
"""

import numpy as np

from galmin.arith import FactorSieve, factorize
from galmin.forms import gcd_block


def omega_partial(sieve: FactorSieve, n: int, t: float) -> int:
    """Omega(n, t): prime factors p <= t of n counted with multiplicity.

    The threshold t is real-valued; the comparison is p <= floor(t).
    """
    if t < 1:
        raise ValueError(f"threshold t must be >= 1, got {t}")
    cut = int(t)
    return sum(e for p, e in factorize(sieve, n) if p <= cut)


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
