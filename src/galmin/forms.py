"""Quadratic and quartic forms: the V and T kernels, their exact gcd
blocks, and weighted multiplicative energy.

Conventions: double sums are unrestricted (diagonal included, both orderings
counted). Weight vectors are 1-indexed conceptually; ``weights[i]`` is the
weight of the integer i+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import build_sieve, phi_table, prime_powers, require_bytes

# Target element count per kernel block; caps peak memory of a form evaluation.
_BLOCK_ELEMS = 8_000_000
# KernelOperator multiplies the V buckets whose power of two P is up to
# this densely, at width P, and wider ones by FFT.
_DENSE_BLOCK_MAX = 64
# Width of EnergyIndex's square tiles of pairs. One tile's float64 pair
# block is 128 KiB and its class window is short, so both stay in cache;
# wider tiles lengthen the windows that every bincount clears and adds
# (their total grows like n^3 / width), narrower ones add per-tile calls
# (like (n / width)^2). Of the widths 64, 128, 256 and 512, 128 gave the
# fastest counts and gradient at n = 512, the largest n that minimize_energy
# runs in the benchmark. It also keeps the single tile, and so the bits, of
# every n <= 128, which the verify checks and golden files run.
_ENERGY_TILE = 128


class KernelKind(Enum):
    V_KERNEL = "v"  # gcd(m,n)/(m+n)
    T_KERNEL = "t"  # gcd(m,n)/sqrt(m*n)


# Calling an Enum with a member returns that member, so KernelSpec(kind) is
# kind. Kept only for perfbench/workloads.py:115 and
# perfbench/test_perfbench.py:42, which build forms.KernelSpec(kind).
KernelSpec = KernelKind


def _kernel_from_gcd(kind: KernelKind, g: np.ndarray, rows: np.ndarray,
                     cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """K[rows, cols] from the block g = gcd(rows, cols) as float64, written
    into `out` (of g's shape) when given.

    The denominators are formed in float64: m + n and m * n round once,
    just as their exact int64 values round on conversion, so the block has
    the bits of the int64 formulas.
    """
    rows, cols = rows.astype(np.float64), cols.astype(np.float64)
    if kind is KernelKind.V_KERNEL:
        den = np.add.outer(rows, cols, out=out)
    else:
        # Only kernel_block builds T blocks: the pairwise T form reduces
        # the gcd block itself.
        den = np.multiply.outer(rows, cols, out=out)
        np.sqrt(den, out=den)
    return np.divide(g, den, out=den)


def _prime_power_table(upto: int) -> tuple[np.ndarray, np.ndarray]:
    """arith.prime_powers up to upto, from a sieve of its own."""
    return prime_powers(build_sieve(max(upto, 2)), upto)


def _run_start(idx: np.ndarray) -> int | None:
    """idx[0] if idx is a run of consecutive increasing integers, else None."""
    if len(idx) and np.all(np.diff(idx) == 1):
        return int(idx[0])
    return None


def _multiples(idx: np.ndarray, start: int | None, q: int):
    """Positions of the multiples of q in idx: a strided slice when idx is
    the run beginning at `start`, else an index array."""
    if start is not None:
        return slice(-start % q, None, q)
    return (idx % q == 0).nonzero()[0]


def gcd_block(rows: np.ndarray, cols: np.ndarray,
              powers: tuple[np.ndarray, np.ndarray] | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """The block gcd(rows, cols) in float64 for arrays of positive integers,
    built without a gcd ufunc.

    gcd(i, j) is the product of p over the prime powers q = p^b that divide
    both i and j. So the block starts from ones, and for every prime power
    q <= min(max rows, max cols) the sub-block of rows = 0 (mod q) and
    columns = 0 (mod q) is multiplied by p. Every entry stays an integer
    below 2^53, so the block has the bits of the integer gcd block converted
    to float64. `powers` is the (q, p) pair of arith.prime_powers, covering
    at least that bound; by default it is built here. The block is written
    into `out`, of shape (len(rows), len(cols)), when given.

    The pairwise oracles share only the sieve with KernelOperator: they use
    neither phi nor the divisor decomposition, so they stay an independent
    check of the operator.
    """
    if out is None:
        g = np.ones((len(rows), len(cols)))
    else:
        g = out
        g.fill(1.0)
    if g.size == 0:
        return g
    bound = int(min(rows.max(), cols.max()))
    qs, ps = _prime_power_table(bound) if powers is None else powers
    stop = int(np.searchsorted(qs, bound, side="right"))
    r0, c0 = _run_start(rows), _run_start(cols)
    for q, p in zip(qs[:stop].tolist(), ps[:stop].tolist()):
        r = _multiples(rows, r0, q)
        if r0 is None:
            if not len(r):
                continue
            if c0 is None:
                r = r[:, None]  # with c, the cross product of np.ix_
        g[r, _multiples(cols, c0, q)] *= p
    return g


def kernel_block(kind: KernelKind, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Dense kernel block K[rows, cols] for 1-based integer index arrays:
    the reference that KernelOperator's products are tested against."""
    if not isinstance(kind, KernelKind):
        # _kernel_from_gcd would build T's kernel for any kind but V.
        raise ValueError(f"unknown kernel kind {kind!r}")
    return _kernel_from_gcd(kind, gcd_block(rows, cols), rows, cols)


def _buckets(n: int):
    """(d, d_last, W, M) for each range d..d_last of the d <= n whose
    L = n // d lies in (P/2, P], for the powers of two P = 1, 2, 4, ...
    that have such d, in increasing d. L <= P iff d > n // (P + 1), so
    each bucket is one range of d, and there are O(log n) of them.

    W >= L is the width of the bucket's rows and M its FFT length. A dense
    bucket (P <= _DENSE_BLOCK_MAX) has W = P and M = 0. An FFT one has
    W = n // d, the L of its first and longest row, and M the least
    5-smooth length >= 2W - 1, at which a cyclic correlation of two
    W-vectors holds their linear one unwrapped."""
    P, last = 1, n
    while last >= 1:
        d = n // (P + 1) + 1
        if P <= _DENSE_BLOCK_MAX and d <= last:
            yield d, last, P, 0
        elif d <= last:
            yield d, last, n // d, _smooth_length(2 * (n // d) - 1)
        last = d - 1
        P *= 2


def _smooth_length(m: int) -> int:
    """The least 5-smooth integer >= m (m >= 1): the shortest length of at
    least m whose only prime factors are 2, 3 and 5, which numpy's
    pocketfft transforms fast."""
    best = 1 << (m - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            best = min(best, f35 << (-(-m // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _pair_count(n: int) -> int:
    """The number of pairs (d, a) with d * a <= n, that is the sum of n // d
    over d <= n, by Dirichlet's hyperbola method in O(sqrt n) time."""
    r = isqrt(n)
    return 2 * int((n // np.arange(1, r + 1)).sum()) - r * r


def _operator_bytes(kind: KernelKind, n: int) -> int:
    """Peak bytes of KernelOperator(kind, n) and one product in a
    minimize_with_witness solve, in O(sqrt n) time, as measured with
    tracemalloc: 16 KiB of headers; 152 bytes an entry of [1, n], 112 for
    the n-vectors the operator and a product hold and 40 for the solve's
    (the start, w, and the K w, direction d and K d of the last step while
    a full product replaces K w; a projection's sort and cumsum peak below
    a product); for T, 16 per pair (d, a) (the index, and a product's
    gather or its repeated weights); for V, 16 per slab entry (the index
    and a product's weights), the blocks B_W or their FFTs, and the
    temporaries of the largest bucket: its gather and product, 16 an
    entry, in a dense one; in an FFT one its gather, 8 an entry, and per
    row the M // 2 + 1 complex numbers of the forward FFT and the M reals
    of the inverse. Not counted: the one-time cost of the first FFT in a
    process, about 179 KB while numpy.fft sets itself up."""
    total = (16 << 10) + 152 * (n + 1)
    if kind is KernelKind.T_KERNEL:
        return total + 16 * _pair_count(n)
    largest = 0
    for d, last, W, M in _buckets(n):
        rows = last - d + 1
        if not M:
            block, temps = 8 * W * W, 16 * rows * W
        else:
            block = 16 * (M // 2 + 1)
            temps = rows * (8 * W + block + 8 * M)
        total += 16 * rows * W + block
        largest = max(largest, temps)
    return total + largest


class KernelOperator:
    """Products w -> K w of the V or T kernel on [1, n], through
    gcd(m, n) = sum of phi(d) over the common divisors d of m, n:

        K = sum_{d <= n} (phi(d)/d) P_d^T B_{n//d} P_d,

    where P_d w = (w_d, w_2d, ...) and B_L is the L x L Hankel block
    1/(a+b) for V, or the rank-one s s^T with s_a = a^(-1/2) for T. A
    product costs O(n log^2 n) time for V, O(n log n) for T, and the
    operator holds O(n log n) numbers, and phi is exact.

    V: the d of a _buckets range share its width W >= L = n // d, and
    their rows d * (1..W) - 1 lie in one (rows, W) slab of a flat index;
    entries past n point at a zero slot n, so they gather 0, and what a
    product puts there is dropped. B_L is the leading L x L block of B_W,
    so a bucket is one matmul (M = 0) or one batched FFT of length M, the
    least 5-smooth length >= 2W - 1, and one bincount adds every bucket
    into K w. (A fancy += would lose updates: the index sets of two d in a
    bucket may overlap.)

    T: K = D^(-1/2) G D^(-1/2) with the gcd matrix G = sum_d phi(d) 1_d 1_d^T,
    1_d the indicator of the multiples of d. The flat index of all pairs
    (d, a), d * a <= n, in increasing d, gives G v in two passes: the sums
    g_d of v over the multiples of d, then a bincount of phi(d) g_d onto
    each multiple.
    """

    def __init__(self, kind: KernelKind, n: int):
        if not isinstance(kind, KernelKind):
            raise ValueError(f"unknown kernel kind {kind!r}")
        require_bytes(_operator_bytes(kind, n), f"KernelOperator({kind.value}, {n})")
        self.kind = kind
        self.n = n
        self.idx = np.arange(1, n + 1, dtype=np.int64)
        self.phi = phi_table(build_sieve(max(n, 2)), n)
        self.inv_sqrt = 1.0 / np.sqrt(self.idx.astype(np.float64))
        if kind is KernelKind.T_KERNEL:
            self._pair_layout()
        else:
            self._bucket_layout()

    def _pair_layout(self) -> None:
        """The 0-based index d * a - 1 of every pair (d, a), d * a <= n, in
        increasing d, the L = n // d pairs of d starting at _starts[d - 1]."""
        lengths = self.n // self.idx
        self._lengths = lengths
        self._starts = np.cumsum(lengths) - lengths
        index = np.arange(int(lengths.sum()), dtype=np.int64)
        index -= np.repeat(self._starts, lengths)  # a - 1
        index += 1
        index *= np.repeat(self.idx, lengths)
        index -= 1
        self._index = index

    def _bucket_layout(self) -> None:
        """The slab of each _buckets range in one flat index, and per
        bucket (start, stop, W, M, phi(d)/d as a column, B_W or its FFT)."""
        n = self.n
        ranges = list(_buckets(n))
        index = np.empty(sum((last - d + 1) * W for d, last, W, _ in ranges),
                         dtype=np.int64)
        self._slabs = []
        start = 0
        for d, last, W, M in ranges:
            ds = np.arange(d, last + 1)
            stop = start + len(ds) * W
            rows = index[start:stop].reshape(len(ds), W)
            np.multiply.outer(ds, np.arange(1, W + 1), out=rows)
            rows -= 1
            np.minimum(rows, n, out=rows)  # d * a > n: the zero slot
            coef = (self.phi[d : last + 1] / ds)[:, None]
            self._slabs.append((start, stop, W, M, coef, self._block(W, M)))
            start = stop
        self._index = index

    @staticmethod
    def _block(W: int, M: int) -> np.ndarray:
        """What matvec needs of B_W, whose entry (a, b) is h_(a+b) (0-based)
        with h = 1/k for k = 2..2W: the block itself for a dense bucket
        (M = 0), a copy of h's sliding windows, else the FFT of h at length
        M. (An outer sum would add numpy's 64 KiB iterator buffer to the
        peak that _operator_bytes bounds.)"""
        h = 1.0 / np.arange(2, 2 * W + 1)
        if not M:
            return sliding_window_view(h, W).copy()
        return np.fft.rfft(h, M)

    def matvec(self, w: np.ndarray) -> np.ndarray:
        n = self.n
        if self.kind is KernelKind.T_KERNEL:
            v = w * self.inv_sqrt
            g = np.add.reduceat(v[self._index], self._starts)
            g *= self.phi[1:]
            out = np.bincount(self._index, weights=np.repeat(g, self._lengths),
                              minlength=n)
            out *= self.inv_sqrt
            return out
        wz = np.zeros(n + 1)
        wz[:n] = w
        vals = np.empty(len(self._index))
        for start, stop, W, M, coef, block in self._slabs:
            x = wz[self._index[start:stop]].reshape(-1, W)
            if not M:
                y = x @ block
            else:
                # y_a = sum_b x_b / (a+b+2) (0-based) as a cyclic correlation
                # of length M; a+b <= 2W-2 < M never wraps, so y is exact.
                f = np.fft.rfft(x, M)
                np.conj(f, out=f)
                f *= block
                y = np.fft.irfft(f, M)[:, :W]
            np.multiply(y, coef, out=vals[start:stop].reshape(-1, W))
        return np.bincount(self._index, weights=vals, minlength=n + 1)[:n]


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights c_1..c_{n_max} with their 1-norm, computed once."""

    n_max: int
    weights: np.ndarray = field(repr=False)
    one_norm: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.n_max,):
            raise ValueError(f"expected {self.n_max} weights, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
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
        idx = np.sort(np.asarray(support, dtype=np.int64))
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


def pairwise_forms(kinds: tuple[KernelKind, ...],
                   cs: list[WeightVector]) -> list[tuple[float, ...]]:
    """c^T K c for each kernel kind, for each weight vector c of cs, by
    pairwise gcd sums over the supports: one tuple per vector, in the order
    of kinds.

    Zero-weight coordinates contribute nothing, so the sums run over the
    supports only. The gcd blocks are built once for the union U of the
    supports, row block by row block, and serve every vector and kind: a
    vector reduces its sub-block with one matrix-vector product, V its
    kernel block w^T K w, T its gcd block y^T G y with y_m = c_m / sqrt(m),
    so no T kernel block is built. The sub-block is a slice when the
    support is a run of U (always so for one vector, and for the runs
    [1, n] that the verify checks draw), else a gather. Rows per block are
    sized to keep peak memory bounded; the prime powers are built once per
    call, and the first row block's gcd and kernel arrays hold every later
    block.

    When U fits in one row block (|U|^2 <= _BLOCK_ELEMS), each value has
    the bits of the same call on its vector alone. Over several row blocks
    a vector's sum is split at U's block edges instead of its own, which
    moves it by round-off only.
    """
    totals = [[0.0] * len(kinds) for _ in cs]
    member = np.zeros(max((c.n_max for c in cs), default=0) + 1, dtype=bool)
    for c in cs:
        member[1 : c.n_max + 1] |= c.weights > 0
    union = np.flatnonzero(member)
    if not union.size:
        return [tuple(t) for t in totals]
    # Per vector: its columns of U, a slice when its support is a run of U,
    # else their positions.
    vectors = []
    for c, total in zip(cs, totals):
        supp = c.support()
        if supp.size:
            first, last = np.searchsorted(union, supp[[0, -1]]).tolist()
            cols = (slice(first, last + 1) if last - first == supp.size - 1
                    else np.searchsorted(union, supp))
            vectors.append((c, cols, total))
    powers = _prime_power_table(int(union[-1]))
    step = max(1, _BLOCK_ELEMS // union.size)
    g = k = None
    for lo in range(0, union.size, step):
        rows = union[lo : lo + step]
        hi = lo + rows.size
        # Every block after the first is written into the leading rows of
        # the first one's arrays. (Buffers made before the first block sat
        # below gcd_block's small temporaries in the heap, and verify-all's
        # next, larger block could not reuse their space.)
        g = gcd_block(rows, union, powers, None if g is None else g[: rows.size])
        if KernelKind.V_KERNEL in kinds:
            k = _kernel_from_gcd(KernelKind.V_KERNEL, g, rows, union,
                                 None if k is None else k[: rows.size])
        for c, cols, total in vectors:
            # The vector's rows in this block: its entries a:b.
            if isinstance(cols, slice):
                a, b = max(cols.start, lo) - cols.start, min(cols.stop, hi) - cols.start
                sub = (slice(cols.start + a - lo, cols.start + b - lo), cols)
            else:
                a, b = np.searchsorted(cols, (lo, hi)).tolist()
                sub = np.ix_(cols[a:b] - lo, cols)
            if a >= b:
                continue
            supp = union[cols]
            w = c.weights[supp - 1]
            for i, kind in enumerate(kinds):
                if kind is KernelKind.T_KERNEL:
                    block, x = g, w / np.sqrt(supp)
                else:
                    block, x = k, w
                total[i] += float(x[a:b] @ (block[sub] @ x))
    return [tuple(t) for t in totals]


def v_form(c: WeightVector) -> float:
    """V(c;N) = sum_{m,n<=N} gcd(m,n) c_m c_n / (m+n)."""
    return pairwise_forms((KernelKind.V_KERNEL,), [c])[0][0]


def t_form_naive(c: WeightVector) -> float:
    """T(c;N) by direct pairwise gcd summation, as y^T G y with y_m =
    c_m / sqrt(m) and G the gcd matrix on the support."""
    return pairwise_forms((KernelKind.T_KERNEL,), [c])[0][0]


def t_form_fast(c: WeightVector) -> float:
    """T(c;N) = c^T K_T c through the divisor decomposition of the kernel
    (see KernelOperator)."""
    w = c.weights
    return float(w @ KernelOperator(KernelKind.T_KERNEL, c.n_max).matvec(w))


def _energy_tiles(n: int) -> list[tuple[slice, slice]]:
    """The tiles (A, B) of EnergyIndex, row-major over the blocks of
    _ENERGY_TILE consecutive integers with A <= B."""
    blocks = [slice(lo, min(lo + _ENERGY_TILE, n)) for lo in range(0, n, _ENERGY_TILE)]
    return [(A, B) for i, A in enumerate(blocks) for B in blocks[i:]]


def _energy_bytes(n: int) -> int:
    """Peak bytes of EnergyIndex(n) and its counts and gradient, as measured
    with tracemalloc; the build's last tile sets it. 16 KiB of headers; the
    int64 rank of every integer up to n^2 (8 bytes each); the products (8
    each, at most n(n + 1)/2 of them); the intp window-local class of every
    tiled pair (8 each); and one tile's products with the two 8-byte
    buffers, of at most 8192 entries, of the ufunc that forms them. The
    seen mask (1 byte an integer) is freed before the classes are formed."""
    t = min(n, _ENERGY_TILE) ** 2
    pairs = sum((A.stop - A.start) * (B.stop - B.start) for A, B in _energy_tiles(n))
    return (16 << 10) + 8 * (n * n + 1) + 4 * n * (n + 1) + 8 * pairs \
        + 8 * t + 16 * min(t, 8192)


class EnergyIndex:
    """The products a*t (a, t <= n) of the energy form as classes: the
    ascending distinct products, and the pairs (a, t) with a <= t as tiles.
    Built once per n, it serves both r and the gradient of E without an
    array of length n^2 + 1.

    Tiles: the integers 1..n fall into blocks of _ENERGY_TILE, the last one
    possibly shorter, and a tile is a pair of blocks A <= B in row-major
    order. Its products a*t lie in [min A * min B, max A * max B], so its
    classes fall in one window [lo, hi) of the class ranks, and the tile
    stores the window and the window-local class of each of its pairs
    (an |A| x |B| intp array).

    counts: one bincount per tile, added into r[lo:hi]. A diagonal tile
    (A = B) holds both orders of its pairs, so its weights are w_a w_t; an
    off-diagonal tile holds one order of each unordered pair, and weighs it
    (2 w_a) w_t, which is 2 w_a w_t exactly. gradient: with R the window
    of r gathered at a tile's classes, g[A] += R @ w[B], and off the
    diagonal g[B] += w[A] @ R as well.

    For n <= _ENERGY_TILE there is one diagonal tile: the classes of all
    ordered pairs in row-major order over the window of all classes. Its
    bincount and matrix product are then the single ones over all pairs,
    added into zeros, so r and the gradient have the bits of the direct
    formulas.
    """

    def __init__(self, n: int):
        require_bytes(_energy_bytes(n), f"EnergyIndex({n}) (E form, r counts)")
        self.n = n
        idx = np.arange(1, n + 1, dtype=np.int64)
        tiles = _energy_tiles(n)
        seen = np.zeros(n * n + 1, dtype=bool)
        for A, B in tiles:
            seen[np.multiply.outer(idx[A], idx[B])] = True
        self.products = np.flatnonzero(seen)
        # rank[m] - 1 is the class of the product m: the same classes as
        # np.unique(products, return_inverse=True), without the sort. (A
        # cumsum of the bool mask would cast all of it to int64 first.)
        rank = seen.astype(np.int64)
        del seen
        np.cumsum(rank, out=rank)
        self._tiles = []
        for A, B in tiles:
            a, b = idx[A], idx[B]
            first = rank[a[0] * b[0]]
            local = rank[np.multiply.outer(a, b)]
            local -= first
            self._tiles.append((A, B, int(first) - 1, int(rank[a[-1] * b[-1]]),
                                local, A == B))

    def counts(self, w: np.ndarray) -> np.ndarray:
        """r over the classes: r[k] = sum of w_a w_t over a*t = products[k]."""
        r = np.zeros(len(self.products))
        w2 = 2.0 * w
        for A, B, lo, hi, local, diagonal in self._tiles:
            wa = w[A] if diagonal else w2[A]
            r[lo:hi] += np.bincount(local.ravel(), weights=np.outer(wa, w[B]).ravel(),
                                    minlength=hi - lo)
        return r

    def gradient(self, r: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Gradient of E at w, given r = counts(w): 4 * sum_t r(a*t) w_t."""
        g = np.zeros(self.n)
        for A, B, lo, hi, local, diagonal in self._tiles:
            R = r[lo:hi][local]
            g[A] += R @ w[B]
            if not diagonal:
                g[B] += w[A] @ R
        g *= 4.0
        return g


def r_counts_dense(c: WeightVector) -> np.ndarray:
    """r(n) for 0 <= n <= N^2 as a dense array; r(n) = sum_{dt=n} c_d c_t."""
    index = EnergyIndex(c.n_max)
    dense = np.zeros(c.n_max**2 + 1)
    dense[index.products] = index.counts(c.weights)
    return dense


def e_form(c: WeightVector) -> float:
    """Weighted multiplicative energy E(c;N) = sum_n r(n)^2."""
    r = EnergyIndex(c.n_max).counts(c.weights)
    return float(r @ r)


def e_gradient(c: WeightVector) -> np.ndarray:
    """Gradient of E: component a is 4 * sum_{t<=N} r(a*t) c_t."""
    index = EnergyIndex(c.n_max)
    return index.gradient(index.counts(c.weights), c.weights)
