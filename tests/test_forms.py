import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galmin.arith import BudgetError
from galmin.forms import (
    EnergyIndex,
    KernelKind,
    WeightVector,
    e_form,
    e_gradient,
    gcd_block,
    kernel_block,
    r_counts_dense,
    t_form_fast,
    t_form_naive,
    v_form,
    vt_forms_pairwise,
)

from oracles import gal_sum, set_energy

rng = np.random.default_rng(7)


def _oracle_quadratic(weights, kernel):
    n = len(weights)
    total = 0.0
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            g = math.gcd(m, k)
            if kernel == "V":
                total += weights[m - 1] * weights[k - 1] * g / (m + k)
            else:
                total += weights[m - 1] * weights[k - 1] * g / math.sqrt(m * k)
    return total


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector.from_weights([-0.1, 1.1])
    with pytest.raises(ValueError):
        WeightVector(n_max=3, weights=np.ones(2))
    with pytest.raises(ValueError):
        WeightVector.from_weights([0.0, 0.0]).normalized()
    c = WeightVector.from_weights([0.0, 2.0, 0.0, 1.0])
    assert c.one_norm == 3.0
    assert list(c.support()) == [2, 4]
    assert math.isclose(c.normalized().one_norm, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weight_vector_rejects_non_finite(bad):
    # support() drops a NaN, so v_form would otherwise read 0.5 here.
    with pytest.raises(ValueError, match="finite"):
        WeightVector.from_weights([bad, 1.0])


def test_indicator_and_uniform():
    c = WeightVector.indicator([2, 5], 6)
    assert list(c.weights) == [0, 1, 0, 0, 1, 0]
    u = WeightVector.uniform(4)
    assert np.allclose(u.weights, 0.25)


def test_v_form_singletons_and_pairs():
    assert v_form(WeightVector.from_weights([1.0])) == 0.5
    # c = (1/2, 1/2): 1/4*(1/2) + 2*(1/4)*(1/3) + 1/4*(1/2) = 5/12
    c = WeightVector.uniform(2)
    assert math.isclose(v_form(c), 5 / 12, rel_tol=1e-14)
    assert math.isclose(t_form_naive(c), 0.5 + 0.5 / math.sqrt(2), rel_tol=1e-14)


def test_forms_match_pairwise_oracle():
    for n in (1, 2, 3, 17, 50):
        w = rng.random(n)
        c = WeightVector.from_weights(w)
        assert math.isclose(v_form(c), _oracle_quadratic(w, "V"), rel_tol=1e-12)
        assert math.isclose(t_form_naive(c), _oracle_quadratic(w, "T"), rel_tol=1e-12)


def test_vt_pair_has_the_bits_of_the_separate_forms(monkeypatch):
    # A small block budget makes the two longer vectors below run several
    # row blocks.
    monkeypatch.setattr("galmin.forms._BLOCK_ELEMS", 3_000)
    sparse = rng.random(400)
    sparse[rng.random(400) < 0.8] = 0.0
    one_point = np.zeros(97)
    one_point[60] = 0.3
    for w in (rng.random(250), rng.random(1), sparse, one_point, np.zeros(40)):
        c = WeightVector.from_weights(w)
        v, t = vt_forms_pairwise(c)
        assert (v, t) == (v_form(c), t_form_naive(c))
        assert type(v) is type(t) is float


def _gcd_float(rows, cols):
    return np.gcd.outer(rows, cols).astype(np.float64)


def _run(lo, hi):
    return np.arange(lo, hi + 1, dtype=np.int64)


_SMALL_PRIMES = np.array([2, 3, 5, 7, 11, 13, 31, 97, 101, 997, 1999])
_PRIME_POWERS = np.array([2, 4, 8, 9, 25, 27, 32, 49, 64, 81, 121, 125, 243,
                          256, 343, 512, 625, 729, 1024, 1331, 2048])


@pytest.mark.parametrize("rows,cols", [
    *[(_run(1, n), _run(1, n)) for n in (1, 2, 3, 17, 500)],
    (_run(801, 1600), _run(1, 2000)),  # an offset row block
    (_run(1601, 2000), _run(1, 2000)),  # the last, partial row block
    (_run(1, 2000), _run(777, 1299)),  # an offset column run
    (_run(1, 1), _run(1, 2000)),  # a single row
    (_run(1, 2000), _run(1440, 1440)),  # a single column
    (_run(720, 720), _run(1440, 1440)),
    (np.ones(5, dtype=np.int64), _run(1, 300)),
    (_SMALL_PRIMES, _run(1, 2000)),
    (_PRIME_POWERS, _PRIME_POWERS),
    (_PRIME_POWERS, _run(1, 2048)),
    (_SMALL_PRIMES, _PRIME_POWERS),
])
def test_gcd_block_matches_integer_gcd(rows, cols):
    assert np.array_equal(gcd_block(rows, cols), _gcd_float(rows, cols))
    assert np.array_equal(gcd_block(cols, rows), _gcd_float(cols, rows))


@pytest.mark.parametrize("n,size", [(10, 3), (200, 50), (2000, 300), (2000, 1500)])
def test_gcd_block_matches_integer_gcd_on_sparse_supports(n, size):
    gen = np.random.default_rng(n + size)
    supp = np.sort(gen.choice(np.arange(1, n + 1), size, replace=False))
    assert np.array_equal(gcd_block(supp, supp), _gcd_float(supp, supp))
    rows = supp[size // 3 : size // 3 + 40]
    assert np.array_equal(gcd_block(rows, supp), _gcd_float(rows, supp))
    assert np.array_equal(gcd_block(rows, _run(1, n)), _gcd_float(rows, _run(1, n)))
    # Unsorted indices take the index-array path.
    shuffled = gen.permutation(supp)
    assert np.array_equal(gcd_block(shuffled, supp), _gcd_float(shuffled, supp))


def _pairwise_by_gcd_loop(kind, w, elems):
    """c^T K c row block by row block, in _pairwise_forms' order, with the
    gcd from the gcd ufunc: for V, w^T K w with the int64 denominators; for
    T, y^T G y with y_m = c_m / sqrt(m)."""
    supp = np.flatnonzero(w > 0) + 1
    ws = w[supp - 1]
    ys = ws / np.sqrt(supp)
    step = max(1, min(2048, elems // supp.size))
    total = 0.0
    for lo in range(0, supp.size, step):
        rows = supp[lo : lo + step]
        g = _gcd_float(rows, supp)
        if kind == "V":
            x, k = ws, g / np.add.outer(rows, supp)
        else:
            x, k = ys, g
        total += float(x[lo : lo + step] @ (k @ x))
    return total


def test_pairwise_row_blocks_have_the_bits_of_a_gcd_loop(monkeypatch):
    elems = 20_000  # several row blocks for every vector below
    monkeypatch.setattr("galmin.forms._BLOCK_ELEMS", elems)
    gen = np.random.default_rng(11)
    sparse = gen.random(2000)
    sparse[gen.random(2000) < 0.7] = 0.0
    for w in (gen.random(1000), gen.random(777), sparse):
        c = WeightVector.from_weights(w)
        v, t = vt_forms_pairwise(c)
        assert v == v_form(c) == _pairwise_by_gcd_loop("V", w, elems)
        assert t == t_form_naive(c) == _pairwise_by_gcd_loop("T", w, elems)


def test_t_fast_equals_naive():
    for n in (1, 2, 13, 100, 555):
        c = WeightVector.from_weights(rng.random(n))
        a, b = t_form_naive(c), t_form_fast(c)
        assert math.isclose(a, b, rel_tol=1e-11)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32 - 1))
def test_kernel_inequality_v_le_half_t(n, seed):
    w = np.random.default_rng(seed).random(n)
    c = WeightVector.from_weights(w)
    assert v_form(c) <= 0.5 * t_form_naive(c) + 1e-12


def test_kernel_block_symmetry():
    idx = np.arange(1, 30, dtype=np.int64)
    for kind in KernelKind:
        kb = kernel_block(kind, idx, idx)
        assert np.allclose(kb, kb.T)
        # Diagonal: gcd(n,n)=n gives n/(2n)=1/2 for V and n/n=1 for T.
        want = 0.5 if kind is KernelKind.V_KERNEL else 1.0
        assert np.allclose(np.diag(kb), want)


def test_kernel_block_takes_its_kind_as_a_member():
    # Past the V branch every kind gets T's kernel, so "v" would silently
    # build the row [1, 1/sqrt(2), 1/sqrt(3)] where V's is [1/2, 1/3, 1/4].
    idx = np.arange(1, 4, dtype=np.int64)
    for kind in ("v", "V", "t", None):
        with pytest.raises(ValueError, match="kind"):
            kernel_block(kind, idx, idx)


def test_r_counts_small_case():
    c = WeightVector.from_weights([0.5, 0.5])
    r = r_counts_dense(c)
    nz = np.flatnonzero(r)
    assert dict(zip(nz.tolist(), r[nz].tolist())) == {1: 0.25, 2: 0.5, 4: 0.25}
    assert math.isclose(e_form(c), 3 / 8, rel_tol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
def test_r_mass_identity(n, seed):
    w = np.random.default_rng(seed).random(n)
    c = WeightVector.from_weights(w)
    r = r_counts_dense(c)
    assert math.isclose(float(r.sum()), c.one_norm**2, rel_tol=1e-12)


def test_r_counts_budget():
    with pytest.raises(BudgetError):
        r_counts_dense(WeightVector.uniform(20_001))


def test_energy_index_byte_budget(monkeypatch):
    # The build of EnergyIndex(512) peaks near 25 * 512^2 bytes, about 6 MiB.
    monkeypatch.setattr("galmin.arith.BYTES_BUDGET", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            EnergyIndex(512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    EnergyIndex(128)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 128])
def test_energy_index_matches_direct_bincount(n):
    idx = np.arange(1, n + 1)
    prods = np.outer(idx, idx).ravel()
    index = EnergyIndex(n)
    assert np.array_equal(index.products, np.unique(prods))
    for w in (rng.random(n), np.where(idx % 3 == 0, 0.0, rng.random(n))):
        c = WeightVector.from_weights(w)
        direct = np.bincount(prods, np.outer(w, w).ravel(), minlength=n * n + 1)
        # bincount adds each bin in the same order, so r is exact.
        assert np.array_equal(r_counts_dense(c), direct)
        assert np.array_equal(index.counts(w), direct[index.products])
        assert math.isclose(e_form(c), float(direct @ direct), rel_tol=1e-14)
        grad = 4.0 * (direct[prods].reshape(n, n) @ w)
        assert np.allclose(e_gradient(c), grad, rtol=1e-14, atol=0.0)


def test_e_gradient_matches_finite_differences():
    n = 10
    w = rng.random(n) + 0.05
    c = WeightVector(n, w)
    grad = e_gradient(c)
    h = 1e-6
    for i in range(n):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd = (e_form(WeightVector(n, wp)) - e_form(WeightVector(n, wm))) / (2 * h)
        assert abs(fd - grad[i]) < 1e-5


def test_set_energy_exhaustive_oracle():
    a = [1, 2, 3, 4]
    count = 0
    for x in a:
        for y in a:
            for z in a:
                for t in a:
                    count += x * y == z * t
    assert set_energy(a, a) == count == 32
    assert set_energy([1], [1]) == 1
    assert set_energy([2, 3], [5]) == 2
    assert set_energy([], [1]) == 0


@pytest.mark.parametrize("a", [[1], [1, 2, 3, 4], [2, 3, 5, 7, 11], [3, 6, 12, 18, 24, 40]])
def test_set_energy_is_the_energy_of_the_indicator(a):
    assert set_energy(a, a) == e_form(WeightVector.indicator(a, max(a)))


def test_set_energy_bounds():
    # |A|^2|B| and |A||B|^2 trivial upper bounds, |A||B| lower bound.
    a, b = [3, 5, 6, 10], [2, 4, 9]
    e = set_energy(a, b)
    assert len(a) * len(b) <= e <= min(len(a) ** 2 * len(b), len(a) * len(b) ** 2)


def test_gal_sum_small():
    # M = {1, 2}: diagonal contributes 2, off-diagonal 2*(1/2)^alpha.
    for alpha in (0.25, 0.5, 1.0):
        assert math.isclose(gal_sum([1, 2], alpha), 2 + 2 * 0.5**alpha, rel_tol=1e-14)
    with pytest.raises(ValueError):
        gal_sum([1, 2], 0.0)
    with pytest.raises(ValueError):
        gal_sum([], 0.5)


@pytest.mark.parametrize("ms", [[1], [1, 2], [2, 3, 8], [1, 2, 6, 9, 12, 35, 64, 97, 360]])
def test_gal_sum_at_one_half_is_t_of_the_indicator(ms):
    # (gcd/lcm)^(1/2) = gcd(m, n) / sqrt(mn), the T kernel.
    t = t_form_naive(WeightVector.indicator(ms, max(ms)))
    assert math.isclose(gal_sum(ms, 0.5), t, rel_tol=1e-13)


def test_gal_sum_matches_integer_gcd():
    ms = [1, 2, 6, 9, 12, 35, 64, 97, 360]
    want = sum((math.gcd(m, n) ** 2 / (m * n)) ** 0.5 for m in ms for n in ms)
    assert math.isclose(gal_sum(ms, 0.5), want, rel_tol=1e-13)
    assert gal_sum([2.0, 3.0], 0.5) == gal_sum([2, 3], 0.5)


@pytest.mark.parametrize("members", [[0, 3], [-2, 3], [2.5, 3], [float("nan"), 3],
                                     [float("inf"), 3], ["2", "3"]])
def test_gal_sum_rejects_non_positive_integers(members):
    with pytest.raises(ValueError, match="positive integers"):
        gal_sum(members, 1.0)


def test_s_of_set_is_indicator_v_form():
    # S(B) = sum over m, n in B of gcd(m, n)/(m+n) is V of the indicator.
    b = [2, 3, 8]
    direct = sum(math.gcd(m, n) / (m + n) for m in b for n in b)
    s_of_b = v_form(WeightVector.indicator(b, max(b)))
    assert math.isclose(s_of_b, direct, rel_tol=1e-12)
