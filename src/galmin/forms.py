"""Quadratic and quartic forms: Gal sums, the V and T kernels, weighted
multiplicative energy and set energy.

Conventions: double sums are unrestricted (diagonal included, both orderings
counted). Weight vectors are 1-indexed conceptually; ``weights[i]`` is the
weight of the integer i+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .arith import BudgetError, FactorSieve, phi_table

# Dense product tables r(n) are materialized up to this N.
_R_COUNTS_CAP = 20_000
_BLOCK = 2048
# Target element count per kernel block; caps peak memory of a form evaluation.
_BLOCK_ELEMS = 8_000_000
# KernelOperator multiplies V blocks B_L up to this size densely, larger
# ones by FFT.
_DENSE_BLOCK_MAX = 64


class KernelKind(Enum):
    V_KERNEL = "v"  # gcd(m,n)/(m+n)
    T_KERNEL = "t"  # gcd(m,n)/sqrt(m*n)


@dataclass(frozen=True)
class KernelSpec:
    kind: KernelKind

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense kernel block K[rows, cols] for 1-based integer index arrays."""
        g = np.gcd.outer(rows, cols).astype(np.float64)
        if self.kind is KernelKind.V_KERNEL:
            return g / np.add.outer(rows, cols)
        return g / np.sqrt(np.multiply.outer(rows, cols).astype(np.float64))


class KernelOperator:
    """Products w -> K w and columns K e_j of the V or T kernel on [1, n],
    through gcd(m, n) = sum of phi(d) over the common divisors d of m, n:

        K = sum_{d <= n} (phi(d)/d) P_d^T B_{n//d} P_d,

    where P_d w = (w_d, w_2d, ...) and B_L is the L x L Hankel block
    1/(a+b) for V, or the rank-one s s^T with s_a = a^(-1/2) for T. A
    product costs O(n log^2 n) time for V, O(n log n) for T, and the
    operator holds O(n log n) numbers.
    """

    def __init__(self, kind: KernelKind, n: int):
        self.kind = kind
        self.n = n
        self.idx = np.arange(1, n + 1, dtype=np.int64)
        self.phi = phi_table(n)
        self.inv_sqrt = 1.0 / np.sqrt(self.idx.astype(np.float64))
        # The d with n // d == L form one contiguous range, handled as one
        # batch: (0-based rows d*(1..L) - 1, phi(d)/d, B_L factor).
        self.groups = []
        d = 1
        while d <= n:
            L = n // d
            ds = np.arange(d, n // L + 1)
            rows = np.multiply.outer(ds, self.idx[:L]) - 1
            self.groups.append((rows, (self.phi[ds] / ds)[:, None], self._block(L)))
            d = ds[-1] + 1

    def _block(self, L: int) -> np.ndarray:
        """What matvec needs of B_L: s for T; for V the block itself up to
        _DENSE_BLOCK_MAX, above it the FFT of 1/k for k = 2..2L."""
        if self.kind is KernelKind.T_KERNEL:
            return self.inv_sqrt[:L]
        if L <= _DENSE_BLOCK_MAX:
            a = self.idx[:L]
            return 1.0 / np.add.outer(a, a)
        return np.fft.rfft(1.0 / np.arange(2, 2 * L + 1), 2 * L)

    def matvec(self, w: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n)
        for rows, coef, block in self.groups:
            x = w[rows]
            L = rows.shape[1]
            if self.kind is KernelKind.T_KERNEL:
                y = np.outer(x @ block, block)
            elif L <= _DENSE_BLOCK_MAX:
                y = x @ block
            else:
                # y_a = sum_b x_b / (a+b+2) (0-based) as a cyclic correlation
                # of length 2L; a+b <= 2L-2 never wraps, so y[:L] is exact.
                y = np.fft.irfft(block * np.conj(np.fft.rfft(x, 2 * L)), 2 * L)[:, :L]
            # Within a group the index sets d*(1..L) are pairwise disjoint
            # (d1*a = d2*b with n/(L+1) < d1 < d2 <= n/L forces b > L), so
            # the fancy-indexed += loses no update.
            out[rows] += coef * y
        return out

    def column(self, j: int) -> np.ndarray:
        """K e_j for the 1-based coordinate j."""
        g = np.zeros(self.n)  # gcd(i, j) = sum of phi(e) over e | i, e | j
        for d in range(1, math.isqrt(j) + 1):
            if j % d == 0:
                for e in {d, j // d}:
                    g[e - 1 :: e] += self.phi[e]
        if self.kind is KernelKind.V_KERNEL:
            return g / (self.idx + j)
        return g * (self.inv_sqrt * self.inv_sqrt[j - 1])


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights c_1..c_{n_max} with cached 1-norm."""

    n_max: int
    weights: np.ndarray = field(repr=False)
    one_norm: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.n_max,):
            raise ValueError(f"expected {self.n_max} weights, got shape {w.shape}")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "one_norm", float(w.sum()))

    @classmethod
    def from_weights(cls, weights) -> "WeightVector":
        w = np.asarray(weights, dtype=np.float64)
        return cls(n_max=len(w), weights=w)

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        return cls(n_max=n, weights=np.full(n, 1.0 / n))

    @classmethod
    def indicator(cls, support, n_max: int) -> "WeightVector":
        w = np.zeros(n_max)
        idx = np.asarray(sorted(support), dtype=np.int64)
        if len(idx) and (idx[0] < 1 or idx[-1] > n_max):
            raise ValueError("support outside [1, n_max]")
        w[idx - 1] = 1.0
        return cls(n_max=n_max, weights=w)

    def normalized(self) -> "WeightVector":
        if self.one_norm <= 0:
            raise ValueError("cannot normalize a zero weight vector")
        return WeightVector(self.n_max, self.weights / self.one_norm)

    def support(self) -> np.ndarray:
        """1-based integers carrying positive weight."""
        return np.flatnonzero(self.weights > 0) + 1


def gal_sum(members, alpha: float) -> float:
    """S_alpha(M) = sum over m,n in M of (gcd/lcm)^alpha, diagonal included."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in ]0,1], got {alpha}")
    ms = np.asarray(sorted(set(members)), dtype=np.int64)
    if ms.size == 0:
        raise ValueError("member set must be nonempty")
    g = np.gcd.outer(ms, ms).astype(np.float64)
    ratio = (g * g) / np.multiply.outer(ms, ms).astype(np.float64)
    return float((ratio**alpha).sum())


def _quadratic_form(kernel: KernelSpec, c: WeightVector) -> float:
    """c^T K c accumulated block-wise so the full matrix is never needed.

    Zero-weight coordinates contribute nothing, so the sum runs over the
    support only; block rows are sized to keep peak memory bounded.
    """
    supp = c.support()
    if supp.size == 0:
        return 0.0
    w = c.weights[supp - 1]
    step = max(1, min(_BLOCK, _BLOCK_ELEMS // supp.size))
    total = 0.0
    for lo in range(0, supp.size, step):
        rows = supp[lo : lo + step]
        kb = kernel.block(rows, supp)
        total += float(w[lo : lo + step] @ (kb @ w))
    return total


def v_form(c: WeightVector) -> float:
    """V(c;N) = sum_{m,n<=N} gcd(m,n) c_m c_n / (m+n)."""
    return _quadratic_form(KernelSpec(KernelKind.V_KERNEL), c)


def t_form_naive(c: WeightVector) -> float:
    """T(c;N) by direct pairwise gcd summation."""
    return _quadratic_form(KernelSpec(KernelKind.T_KERNEL), c)


def t_form_fast(c: WeightVector, sieve: FactorSieve | None = None) -> float:
    """T(c;N) = c^T K_T c through the divisor decomposition of the kernel
    (see KernelOperator)."""
    w = c.weights
    return float(w @ KernelOperator(KernelKind.T_KERNEL, c.n_max).matvec(w))


def r_counts_dense(c: WeightVector) -> np.ndarray:
    """r(n) for 0 <= n <= N^2 as a dense array; r(n) = sum_{dt=n} c_d c_t."""
    n = c.n_max
    if n > _R_COUNTS_CAP:
        raise BudgetError(f"r_counts limited to N <= {_R_COUNTS_CAP}, got {n}")
    idx = np.arange(1, n + 1, dtype=np.int64)
    prods = np.multiply.outer(idx, idx).ravel()
    w2 = np.outer(c.weights, c.weights).ravel()
    return np.bincount(prods, weights=w2, minlength=n * n + 1)


def r_counts(c: WeightVector) -> dict[int, float]:
    """Sparse map n -> r(n) over the positive entries."""
    dense = r_counts_dense(c)
    nz = np.flatnonzero(dense)
    return {int(k): float(dense[k]) for k in nz}


def e_form(c: WeightVector) -> float:
    """Weighted multiplicative energy E(c;N) = sum_n r(n)^2."""
    r = r_counts_dense(c)
    return float(r @ r)


def e_gradient(c: WeightVector) -> np.ndarray:
    """Gradient of E: component a is 4 * sum_{t<=N} r(a*t) c_t."""
    n = c.n_max
    r = r_counts_dense(c)
    idx = np.arange(1, n + 1, dtype=np.int64)
    # R[a-1, t-1] = r(a*t)
    rmat = r[np.multiply.outer(idx, idx)]
    return 4.0 * (rmat @ c.weights)


def set_energy(a_set, b_set) -> int:
    """Multiplicative energy E(A,B): number of (a,b,a',b') with ab = a'b'."""
    a = np.asarray(sorted(set(a_set)), dtype=np.int64)
    b = np.asarray(sorted(set(b_set)), dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return 0
    prods = np.multiply.outer(a, b).ravel()
    _, counts = np.unique(prods, return_counts=True)
    return int((counts.astype(np.int64) ** 2).sum())


def s_of_set(b_set) -> float:
    """S(B) = sum_{m,n in B} gcd(m,n)/(m+n); V-form of the indicator."""
    bs = sorted(set(b_set))
    if not bs:
        return 0.0
    n_max = max(bs)
    return v_form(WeightVector.indicator(bs, n_max))
