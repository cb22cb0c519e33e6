import cmath
import math
import tracemalloc

import numpy as np
import pytest

from galmin import characters
from galmin.arith import BudgetError, build_sieve, spf_bytes
from galmin.characters import (
    CharacterTable,
    ThetaConfig,
    build_table,
    char_sum,
    character_matrix,
    character_sums,
    gauss_sum,
    modulus_limit,
    orthogonality_check,
    polya_partial_sum,
    theta_all_even,
    theta_cutoff,
)

from oracles import factorize, theta


def test_build_table_rejects_composites():
    with pytest.raises(ValueError):
        build_table(8)
    with pytest.raises(ValueError):
        build_table(2)
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(ValueError):
        build_table(9)


def _table_from_full_sieve(p):
    """(g, dlog) with primality and the factors of p - 1 read off a sieve
    of size p, as build_table once did."""
    sieve = build_sieve(p)
    assert sieve.is_prime(p)
    qs = [q for q, _ in factorize(sieve, p - 1)]
    g = next(c for c in range(2, p) if all(pow(c, (p - 1) // q, p) != 1 for q in qs))
    return g, _dlog_by_loop(p, g)


@pytest.mark.parametrize("p", [3, 5, 13, 101, 10007, 100003])
def test_table_matches_full_sieve_construction(p):
    g, dlog = _table_from_full_sieve(p)
    table = build_table(p)
    assert table.g == g
    assert table.dlog.tobytes() == dlog.tobytes()


def test_prime_factors_match_full_sieve():
    sieve = build_sieve(3000)
    for p in range(3, 3000, 2):
        want = ([q for q, _ in factorize(sieve, p - 1)] if sieve.is_prime(p)
                else None)
        assert characters._prime_factors(p) == want


# Carmichael numbers; a prime square and a product of two primes, each
# below the bound with a factor just under sqrt(p); the first odd number
# above the bound.
@pytest.mark.parametrize("p", [561, 1105, 9871**2, 9859 * 9871, "above"])
def test_build_table_rejects_composites_and_the_first_odd_above_the_bound(p):
    if p == "above":
        p = modulus_limit() + 1 + modulus_limit() % 2
    else:
        assert p <= modulus_limit()
    with pytest.raises(ValueError, match="modulus must be an odd prime"):
        build_table(p)


def _dlog_by_loop(p, g):
    """The discrete-log table of g mod p, one power at a time."""
    dlog = np.zeros(p, dtype=np.int64)
    acc = 1
    for k in range(p - 1):
        dlog[acc] = k
        acc = acc * g % p
    return dlog


@pytest.mark.parametrize("p", [3, 5, 7, 13, 101, 10007, 100003])
def test_dlog_table_matches_power_loop(p):
    table = build_table(p)
    assert table.dlog.dtype == np.int64
    assert np.array_equal(table.dlog, _dlog_by_loop(p, table.g))


def test_primitive_root_and_dlog():
    table = build_table(5)
    assert table.g == 2
    # dlog[2^k mod 5] = k
    assert table.dlog[1] == 0
    assert table.dlog[2] == 1
    assert table.dlog[4] == 2
    assert table.dlog[3] == 3
    for p in (7, 11, 13, 101, 499):
        t = build_table(p)
        # g generates the full multiplicative group.
        seen = {pow(t.g, k, p) for k in range(p - 1)}
        assert seen == set(range(1, p))


def test_character_multiplicativity_and_magnitude():
    table = build_table(13)
    for j in (0, 1, 5):
        chi = table.character(j)
        for m in range(13):
            for n in range(13):
                lhs = chi(m * n)
                assert abs(lhs - chi(m) * chi(n)) < 1e-12
        for n in range(1, 13):
            assert abs(abs(chi(n)) - 1.0) < 1e-12
        assert chi(0) == 0
        assert chi(13) == 0  # multiples of p vanish


def test_character_periodicity_and_parity():
    table = build_table(11)
    for j in range(10):
        chi = table.character(j)
        for n in range(1, 30):
            assert abs(chi(n) - chi(n + 11)) < 1e-12
        assert abs(chi(-1) - (1 if j % 2 == 0 else -1)) < 1e-12


def test_principal_character():
    chi0 = build_table(7).character(0)
    assert chi0.is_principal
    for n in range(1, 7):
        assert abs(chi0(n) - 1.0) < 1e-15


def test_values_vectorized_matches_scalar():
    chi = build_table(31).character(3)
    ns = np.arange(-5, 70)
    vec = chi.values(ns)
    for i, n in enumerate(ns):
        assert abs(vec[i] - chi(int(n))) < 1e-12


@pytest.mark.parametrize("p", [3, 5, 13, 31, 101, 499])
def test_scalar_vector_and_matrix_values_agree_bit_for_bit(p):
    # chi(n), chi.values and character_matrix read one expression. To
    # bound their time, the scalar calls cover every character up to
    # p = 31 and every ((p - 1) // 32)-th one above.
    table = build_table(p)
    ns = np.arange(-p, 2 * p)
    full = character_matrix(table, ns)
    assert character_matrix(table, ns, even_only=True).tobytes() == full[::2].tobytes()
    for j in range(p - 1):
        assert table.character(j).values(ns).tobytes() == full[j].tobytes()
    for j in range(0, p - 1, max(1, (p - 1) // 32)):
        chi = table.character(j)
        scalar = np.array([chi(int(n)) for n in ns], dtype=np.complex128)
        assert scalar.tobytes() == full[j].tobytes()


def test_character_matrix_shape():
    table = build_table(13)
    ns = np.arange(1, 14)
    full = character_matrix(table, ns)
    even = character_matrix(table, ns, even_only=True)
    assert full.shape == (12, 13)
    assert even.shape == (6, 13)


@pytest.mark.parametrize("even_only", [False, True])
@pytest.mark.parametrize("p", [3, 5, 13, 23, 101, 10007])
def test_character_sums_match_dense_matrix(p, even_only):
    rng = np.random.default_rng(p)
    table = build_table(p)
    # 0, multiples of p, values above p and repeats, then random n.
    ns = np.concatenate([[0, p, 3 * p, 1, 1, p - 1, p + 1, 2 * p + 2, 2],
                         rng.integers(0, 4 * p, size=200)])
    weights = rng.standard_normal(len(ns))
    got = character_sums(table, ns, weights, even_only)
    want = character_matrix(table, ns, even_only) @ weights
    assert got.shape == want.shape == ((p - 1) // (2 if even_only else 1),)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_char_sum_oracle():
    # Window convention: sum over M < n <= M + N.
    chi = build_table(17).character(2)
    for m, n in ((0, 5), (3, 12), (0, 17), (5, 40)):
        direct = sum(chi(k) for k in range(m + 1, m + n + 1))
        assert abs(char_sum(chi, m, n) - direct) < 1e-10
    assert char_sum(chi, 4, 0) == 0j
    # Full-period windows vanish for nonprincipal characters.
    assert abs(char_sum(chi, 3, 17)) < 1e-12


def test_gauss_sum_known_values():
    # tau(chi_1 mod 3) = i*sqrt(3); Legendre symbol mod 5 gives sqrt(5).
    tau3 = gauss_sum(build_table(3).character(1))
    assert abs(tau3 - 1j * math.sqrt(3)) < 1e-12
    tau5 = gauss_sum(build_table(5).character(2))
    assert abs(tau5 - math.sqrt(5)) < 1e-12


def test_gauss_sum_modulus():
    for p in (7, 13, 31, 97):
        table = build_table(p)
        for chi in table.characters(skip_principal=True):
            assert abs(abs(gauss_sum(chi)) - math.sqrt(p)) < 1e-9


def test_polya_partial_sum_residual_small():
    p = 101
    chi = build_table(p).character(1)
    t = p // 3 + 0.5
    approx, exact, residual = polya_partial_sum(chi, t, p * p)
    assert abs(approx - exact) == pytest.approx(residual)
    assert residual < 2.0
    direct = sum(chi(n) for n in range(1, int(t) + 1))
    assert abs(exact - direct) < 1e-10


def test_theta_matches_direct_sum():
    p = 13
    table = build_table(p)
    cfg = ThetaConfig(x=1.0)
    cut = theta_cutoff(p, cfg)
    for j in (0, 2, 4):
        chi = table.character(j)
        direct = sum(chi(n) * cmath.exp(-math.pi * n * n * cfg.x / p)
                     for n in range(1, cut + 1))
        assert abs(theta(chi, cfg) - direct) < 1e-12


def test_theta_cutoff_tail_negligible():
    p = 499
    cfg = ThetaConfig(x=0.5)
    cut = theta_cutoff(p, cfg)
    tail = sum(math.exp(-math.pi * n * n * cfg.x / p) for n in range(cut + 1, cut + 200))
    assert tail < characters._THETA_TAIL_EPSILON * 10


def test_theta_all_even_consistent():
    p = 31
    table = build_table(p)
    cfg = ThetaConfig(x=1.0)
    vals = theta_all_even(table, cfg)
    evens = [table.character(j) for j in range(0, p - 1, 2)]
    assert len(vals) == len(evens)
    for got, chi in zip(vals, evens):
        assert abs(got - theta(chi, cfg)) < 1e-10


@pytest.mark.parametrize("p, x", [(101, 1.0), (10007, 1e-3)])
def test_theta_all_even_chunked_matches_one_chunk(monkeypatch, p, x):
    table = build_table(p)
    cfg = ThetaConfig(x=x)
    whole = theta_all_even(table, cfg)
    n_max = theta_cutoff(p, cfg)
    monkeypatch.setattr(characters, "_THETA_CHUNK", 7)
    assert n_max > 7 * 3
    chunked = theta_all_even(table, cfg)
    assert np.allclose(chunked, whole, rtol=1e-12, atol=1e-12 * np.abs(whole).max())


def test_theta_all_even_peak_is_one_chunk():
    # About 3.8 million terms: one-shot binning would hold several
    # arrays of that length at once (well over 100 MiB).
    p = 10007
    cfg = ThetaConfig(x=1e-8)
    assert theta_cutoff(p, cfg) > 3_000_000
    table = build_table(p)
    tracemalloc.start()
    try:
        theta_all_even(table, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def _theta_cutoff_linear_scan(p, config, tail_epsilon):
    """The cutoff search as a +1 scan from the same starting n."""
    rate = math.pi * config.x / p
    n = max(1, int(math.sqrt(max(-math.log(tail_epsilon), 1.0) / rate)))
    while True:
        head = math.exp(-rate * (n + 1) ** 2)
        denom = 1.0 - math.exp(-rate * (2 * n + 3))
        if head / denom < tail_epsilon:
            return n
        n += 1


@pytest.mark.parametrize("tail_epsilon", [1e-15, 1e-6])
@pytest.mark.parametrize("x", [1e-6, 0.01, 1.0, 7.5])
@pytest.mark.parametrize("p", [13, 101, 10007])
def test_theta_cutoff_matches_linear_scan(monkeypatch, p, x, tail_epsilon):
    # 1e-15 is the library's epsilon; 1e-6 moves the search's start and
    # end, so the doubling and bisection meet other boundaries.
    monkeypatch.setattr(characters, "_THETA_TAIL_EPSILON", tail_epsilon)
    config = ThetaConfig(x=x)
    assert theta_cutoff(p, config) == _theta_cutoff_linear_scan(p, config, tail_epsilon)


@pytest.mark.parametrize("x", [1e-12, 1e-40])
def test_theta_cutoff_budget(x):
    # n_max is about 4e8 at x = 1e-12; at 1e-40 the tail bound's
    # denominator rounds to 0 at the starting n.
    with pytest.raises(BudgetError):
        theta_cutoff(10007, ThetaConfig(x=x))
    assert theta_cutoff(10007, ThetaConfig(x=1e-10)) <= characters._THETA_TERM_CAP


def test_build_table_bound_is_the_largest_sieve_in_the_budget(monkeypatch):
    monkeypatch.setattr("galmin.arith.BYTES_BUDGET", spf_bytes(101))
    assert build_table(101).g == 2
    with pytest.raises(ValueError, match="odd prime <= 101 "):
        build_table(103)


def test_theta_config_validation():
    for x in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite x > 0"):
            ThetaConfig(x=x)


def test_orthogonality_plus_minus_rule():
    p = 13
    table = build_table(p)
    half = (p - 1) / 2
    for m in range(1, p):
        for n in range(1, p):
            got = orthogonality_check(table, m, n)
            want = half if (m % p == n % p or (m + n) % p == 0) else 0.0
            assert abs(got - want) < 1e-9
