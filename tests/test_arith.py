import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galmin.arith import (
    BYTES_BUDGET,
    _SPF_ENTRY_BYTES,
    BudgetError,
    big_omega_table,
    build_sieve,
    phi_table,
    prime_powers,
    spf_bytes,
)

from oracles import big_omega, divisors, euler_phi, factorize, omega_partial, small_omega


@pytest.fixture(scope="module")
def sieve():
    return build_sieve(10_000)


def _trial_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_factorize_matches_trial_division(sieve):
    for n in range(2, 2000):
        assert factorize(sieve, n) == _trial_factorize(n)


def test_factorize_one_is_empty(sieve):
    assert factorize(sieve, 1) == []
    assert big_omega(sieve, 1) == 0
    assert small_omega(sieve, 1) == 0
    assert euler_phi(sieve, 1) == 1
    assert divisors(sieve, 1) == [1]


def test_is_prime(sieve):
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(1, 31):
        assert sieve.is_prime(n) == (n in primes)
    assert sieve.is_prime(9973)  # largest prime below 10^4


def test_known_omega_values(sieve):
    # 720720 = 2^4 * 3^2 * 5 * 7 * 11 * 13
    big = build_sieve(720_720)
    assert factorize(big, 720_720) == [(2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]
    assert big_omega(big, 720_720) == 10
    assert small_omega(big, 720_720) == 6


def test_omega_partial_thresholds(sieve):
    # 360 = 2^3 * 3^2 * 5
    assert omega_partial(sieve, 360, 1) == 0
    assert omega_partial(sieve, 360, 2) == 3
    assert omega_partial(sieve, 360, 2.9) == 3  # floor(t) = 2
    assert omega_partial(sieve, 360, 3) == 5
    assert omega_partial(sieve, 360, 5) == 6
    assert omega_partial(sieve, 360, 1000) == big_omega(sieve, 360)
    with pytest.raises(ValueError):
        omega_partial(sieve, 360, 0.5)


@given(st.integers(min_value=2, max_value=9999))
def test_omega_partial_monotone_in_t(n):
    sieve = build_sieve(10_000)
    vals = [omega_partial(sieve, n, t) for t in range(1, 101)]
    assert vals == sorted(vals)


def test_divisors(sieve):
    assert divisors(sieve, 12) == [1, 2, 3, 4, 6, 12]
    assert divisors(sieve, 9973) == [1, 9973]
    for n in range(1, 300):
        ds = divisors(sieve, n)
        assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_phi_divisor_sum_identity(sieve):
    for n in range(1, 1000):
        assert sum(euler_phi(sieve, d) for d in divisors(sieve, n)) == n


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=99), st.integers(min_value=1, max_value=99))
def test_phi_multiplicative_on_coprimes(a, b):
    sieve = build_sieve(10_000)
    if math.gcd(a, b) == 1:
        assert euler_phi(sieve, a * b) == euler_phi(sieve, a) * euler_phi(sieve, b)


def test_tables_match_pointwise(sieve):
    bo = big_omega_table(sieve, 10_000)
    for n in range(2, 10_001):
        assert bo[n] == big_omega(sieve, n)


def _recurrence_table(sieve, upto):
    """The per-n recurrence Omega(n) = Omega(n / p) + 1, with p the
    smallest prime factor."""
    spf = sieve.spf
    big = np.zeros(upto + 1, dtype=np.int32)
    for n in range(2, upto + 1):
        big[n] = big[n // spf[n]] + 1
    return big


@pytest.mark.parametrize("upto", [1, 2, 3, 10_000])
def test_tables_match_recurrences(sieve, upto):
    bo = big_omega_table(sieve, upto)
    assert bo.dtype == np.int32
    assert np.array_equal(bo, _recurrence_table(sieve, upto))


def _peel(sieve, upto):
    """Yield (n, p) for the prime factors of every 2 <= n <= upto, one numpy
    pass per factor: pass i holds the i-th smallest prime factor p, counted
    with multiplicity, of each n that has at least i of them."""
    spf = sieve.spf
    n = np.arange(2, upto + 1, dtype=np.int64)
    m = n
    while len(n):
        p = spf[m]
        yield n, p
        m = m // p
        keep = m > 1
        n, m = n[keep], m[keep]


def _peel_distinct(sieve, upto):
    """Like _peel, but each distinct prime factor of n once."""
    last = np.zeros(upto + 1, dtype=np.int64)
    for n, p in _peel(sieve, upto):
        new = p != last[n]
        last[n] = p
        yield n[new], p[new]


def _peeled_tables(sieve, upto):
    """Omega and phi by peeling prime factors, the tables' earlier
    construction."""
    big = np.zeros(upto + 1, dtype=np.int32)
    for n, _ in _peel(sieve, upto):
        big[n] += 1
    phi = np.arange(upto + 1, dtype=np.int64)
    for n, p in _peel_distinct(sieve, upto):
        phi[n] = phi[n] // p * (p - 1)
    return big, phi


@pytest.mark.parametrize("upto", [1, 2, 3, 4, 7, 8, 9, 1023, 1024, 1025, 10**5])
def test_block_tables_match_peeled_tables(upto):
    # 2^k - 1, 2^k and 2^k + 1 end a doubling block, fill it or open one.
    sieve = build_sieve(max(upto, 2))
    big, phi = _peeled_tables(sieve, upto)
    got = (big_omega_table(sieve, upto), phi_table(sieve, upto))
    assert [a.dtype for a in got] == [np.int32, np.int64]
    for a, want in zip(got, (big, phi)):
        assert a.tobytes() == want.tobytes()


def test_phi_table_matches_exact(sieve):
    tab = phi_table(sieve, 2000)
    assert tab.dtype == np.int64
    for n in range(1, 2001):
        assert tab[n] == euler_phi(sieve, n)


def _phi_table_sieve_loop(upto):
    """phi by the sieve loop: every p <= upto, phi(d) // p * (p - 1) for the
    d = 0 mod p."""
    phi = np.arange(upto + 1, dtype=np.int64)
    for p in range(2, upto + 1):
        if phi[p] == p:  # p prime
            phi[p::p] = phi[p::p] // p * (p - 1)
    return phi


@pytest.mark.parametrize("upto", [0, 1, 2, 3, 10_000])
def test_phi_table_bits_match_sieve_loop(sieve, upto):
    tab = phi_table(sieve, upto)
    assert tab.tobytes() == _phi_table_sieve_loop(upto).tobytes()
    assert tab.tolist() == [0] + [euler_phi(sieve, n) for n in range(1, upto + 1)]


def test_phi_table_range(sieve):
    assert len(phi_table(sieve, sieve.limit)) == sieve.limit + 1
    with pytest.raises(ValueError):
        phi_table(sieve, 10_001)


@pytest.mark.parametrize("upto", [1, 2, 3, 4, 8, 9, 100, 1000])
def test_prime_powers_match_brute_force(sieve, upto):
    want = []
    for q in range(2, upto + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            want.append((q, p))
    qs, ps = prime_powers(sieve, upto)
    assert qs.dtype == ps.dtype == np.int64
    assert list(zip(qs.tolist(), ps.tolist())) == want


def test_range_checks(sieve):
    with pytest.raises(ValueError):
        factorize(sieve, 10_001)
    with pytest.raises(ValueError):
        factorize(sieve, 0)
    with pytest.raises(ValueError):
        build_sieve(1)
    # The largest sieve within the byte budget, just above it refused.
    limit = BYTES_BUDGET // _SPF_ENTRY_BYTES - 1
    assert spf_bytes(limit) <= BYTES_BUDGET < spf_bytes(limit + 1)
    with pytest.raises(BudgetError):
        build_sieve(limit + 1)
