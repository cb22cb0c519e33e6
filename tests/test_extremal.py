import math

import numpy as np
import pytest

from galmin.arith import BudgetError, build_sieve
from galmin import extremal
from galmin.extremal import (
    EmptyWitnessError,
    LocCondition,
    filtered_count,
    level_set_count,
    multiplication_table_count,
    witness_e,
    witness_t,
)

from oracles import big_omega, factorize, omega_partial, satisfies_loc


@pytest.fixture(scope="module")
def sieve():
    return build_sieve(20_000)


def _loc_oracle(n, kappa, C, x):
    """Check the growth condition at every integer t, not just jump points."""
    for t in range(1, x + 1):
        omega_nt = 0
        m = n
        d = 2
        while d * d <= m:
            while m % d == 0:
                m //= d
                if d <= t:
                    omega_nt += 1
            d += 1
        if m > 1 and m <= t:
            omega_nt += 1
        if omega_nt > kappa * math.log(math.log(3 * t)) + C:
            return False
    return True


def test_loc_validation(sieve):
    with pytest.raises(ValueError):
        LocCondition(kappa=-1.0, C=0.0, x=10)
    with pytest.raises(ValueError):
        LocCondition(kappa=0.5, C=0.0, x=0)
    # A NaN bound would reject nothing: running > nan is always false.
    for kappa, C in ((math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError):
            LocCondition(kappa=kappa, C=C, x=10)
    cond = LocCondition(kappa=0.5, C=1.0, x=100)
    assert cond.rhs(1.0) == 0.5 * math.log(math.log(3.0)) + 1.0
    # inf is valid and means no constraint.
    for kappa, C in ((math.inf, 0.0), (0.0, math.inf)):
        unconstrained = LocCondition(kappa=kappa, C=C, x=1000)
        assert all(satisfies_loc(sieve, n, unconstrained) for n in range(1, 1001))


def test_used_condition_equals_and_hashes_like_a_fresh_one(sieve):
    used = LocCondition(kappa=0.5, C=1.0, x=100)
    for n in range(1, 101):
        satisfies_loc(sieve, n, used)
    fresh = LocCondition(kappa=0.5, C=1.0, x=100)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == "LocCondition(kappa=0.5, C=1.0, x=100)"
    assert {used: 1}[fresh] == 1


def test_satisfies_loc_matches_pointwise_oracle(sieve):
    x = 60
    for kappa, C in ((0.0, 0.0), (0.5, 0.0), (0.48, 1.0), (1.0, 2.0)):
        cond = LocCondition(kappa=kappa, C=C, x=x)
        for n in range(1, 200):
            assert satisfies_loc(sieve, n, cond) == _loc_oracle(n, kappa, C, x)


@pytest.mark.parametrize("x", [1, 2, 30, 200])
def test_satisfies_loc_is_the_literal_definition(sieve, x):
    # Omega(n, t) <= rhs(t) at every integer 1 <= t <= x.
    for kappa, C in ((0.0, 1.0), (1.0 / math.log(4.0), 3.0)):
        cond = LocCondition(kappa=kappa, C=C, x=x)
        for n in range(1, 501):
            want = all(omega_partial(sieve, n, t) <= cond.rhs(t)
                       for t in range(1, x + 1))
            assert satisfies_loc(sieve, n, cond) == want


def _loc_by_factorize(sieve, n, cond):
    """The growth test at each distinct prime p <= x, read off factorize."""
    running = 0
    for p, e in factorize(sieve, n):
        if p > cond.x:
            break
        running += e
        if running > cond.rhs(p):
            return False
    return True


@pytest.mark.parametrize("x", [5000, 50])
def test_satisfies_loc_matches_factorize_reference(sieve, x):
    # x = 50 cuts most factorizations at the first prime above x.
    for kappa in (0.0, 0.3, 1.0 / math.log(4.0), 1.2):
        for C in (0.0, 1.0, 3.0):
            cond = LocCondition(kappa=kappa, C=C, x=x)
            for n in range(1, 5001):
                assert satisfies_loc(sieve, n, cond) == _loc_by_factorize(sieve, n, cond)


def test_loc_ignores_primes_beyond_x(sieve):
    # 2 * 97: with x = 50 only the factor 2 is inspected.
    cond = LocCondition(kappa=0.0, C=1.0, x=50)
    assert satisfies_loc(sieve, 194, cond)
    cond_full = LocCondition(kappa=0.0, C=1.0, x=200)
    assert not satisfies_loc(sieve, 194, cond_full)


def test_level_set_count_oracle(sieve):
    for x in (10, 100, 1000):
        for k in (1, 2, 3):
            direct = sum(1 for n in range(2, x + 1) if big_omega(sieve, n) == k)
            assert level_set_count(sieve, x, k) == direct
    # primes up to 100
    assert level_set_count(sieve, 100, 1) == 25


@pytest.mark.parametrize("x", [1, 2])
def test_filtered_count_needs_x_at_least_3(sieve, x):
    # kappa = k / loglog(x) is undefined at x = 1 and negative at x = 2.
    with pytest.raises(ValueError, match=r"x >= 3"):
        filtered_count(sieve, x, 1, 3.0)
    assert filtered_count(sieve, 3, 1, 3.0) == level_set_count(sieve, 3, 1) == 2


def test_filtered_count_subset_and_monotone_in_C(sieve):
    x = 2000
    for k in (2, 3):
        counts = [filtered_count(sieve, x, k, C) for C in (0.0, 1.0, 3.0, 10.0)]
        assert counts == sorted(counts)
        assert counts[-1] <= level_set_count(sieve, x, k)
        # A generous constant admits the whole level set.
        assert filtered_count(sieve, x, k, 50.0) == level_set_count(sieve, x, k)
    # Both take the level set's k >= 1.
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            filtered_count(sieve, x, k, 3.0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            level_set_count(sieve, x, k)


def test_multiplication_table_small_values():
    assert multiplication_table_count(1) == 1
    assert multiplication_table_count(2) == 3  # {1, 2, 4}
    assert multiplication_table_count(3) == 6
    assert multiplication_table_count(4) == 9
    assert multiplication_table_count(5) == 14
    with pytest.raises(ValueError):
        multiplication_table_count(0)

def test_multiplication_table_byte_budget(monkeypatch):
    # The table takes N^2 + 1 bytes: N = 20,001 (400 MB) now fits the
    # 1 GiB budget, and N = 32,768 is the first that does not.
    with pytest.raises(BudgetError):
        multiplication_table_count(32_768)
    monkeypatch.setattr("galmin.arith.BYTES_BUDGET", 100 * 100 + 4096)
    assert multiplication_table_count(100) == 2906
    with pytest.raises(BudgetError):
        multiplication_table_count(101)


def test_multiplication_table_set_oracle():
    for n in (6, 17, 40, 123):
        products = {d * t for d in range(1, n + 1) for t in range(1, n + 1)}
        assert multiplication_table_count(n) == len(products)


def test_witness_t_structure(sieve):
    beta = 0.48154502844112457
    w = witness_t(sieve, 10_000, beta)
    k = int(beta * math.log(math.log(10_000)))
    support = w.support()
    assert len(support) > 0
    for n in support[:200]:
        assert big_omega(sieve, int(n)) == k
    with pytest.raises(ValueError):
        witness_t(sieve, 15, beta)


def test_witness_t_is_the_point_mass_at_1_up_to_2915(sieve):
    # k = floor(beta * loglog N) is 0 for N < exp(exp(1/beta)) = 2915.19...
    beta = 0.48154502844112457
    assert witness_t(sieve, 2915, beta).support().tolist() == [1]
    assert len(witness_t(sieve, 2916, beta).support()) == 421


def test_witness_empty_when_C_tiny(sieve):
    # Every n in ]4, 8] has a prime factor p with Omega(n, p) = 1 but
    # kappa * loglog(3p) < 1, so with C = 0 nothing survives.
    with pytest.raises(EmptyWitnessError):
        witness_e(sieve, 8, C=0.0)


def test_witness_e_interval_and_filter(sieve):
    n = 1000
    w = witness_e(sieve, n)
    support = w.support()
    assert support.min() > n // 2
    assert support.max() <= n
    cond = LocCondition(kappa=1.0 / math.log(4.0), C=3.0, x=n)
    members = {m for m in range(n // 2 + 1, n + 1) if satisfies_loc(sieve, m, cond)}
    assert set(int(m) for m in support) == members
    with pytest.raises(ValueError):
        witness_e(sieve, 3)


def test_witness_domain_is_checked_before_the_range():
    # A sieve of 2 covers neither N, so only a domain check made first
    # raises EmptyWitnessError here.
    short = build_sieve(2)
    with pytest.raises(EmptyWitnessError, match="N >= 16"):
        witness_t(short, 15, 0.48154502844112457)
    with pytest.raises(EmptyWitnessError, match="N >= 4"):
        witness_e(short, 3)
    # Inside the domain, a short sieve is a plain usage error.
    for call in (lambda: witness_t(short, 16, 0.48154502844112457),
                 lambda: witness_e(short, 4)):
        with pytest.raises(ValueError) as exc:
            call()
        assert not isinstance(exc.value, EmptyWitnessError)


def _record_filter_calls(monkeypatch):
    """Record the candidates each call of extremal's one growth filter gets."""
    calls = []
    original = extremal._loc_members

    def recorded(sieve, candidates, cond):
        calls.append(candidates.tolist())
        return original(sieve, candidates, cond)

    monkeypatch.setattr(extremal, "_loc_members", recorded)
    return calls


@pytest.mark.parametrize("x, k", [(100, 2), (2000, 1), (2000, 3)])
def test_filtered_count_tests_each_level_set_member_once(sieve, monkeypatch, x, k):
    level = [n for n in range(1, x + 1) if big_omega(sieve, n) == k]
    cond = LocCondition(kappa=k / math.log(math.log(x)), C=1.0, x=x)
    calls = _record_filter_calls(monkeypatch)
    got = filtered_count(sieve, x, k, 1.0)
    assert calls == [level]
    assert got == sum(1 for n in level if _loc_by_factorize(sieve, n, cond))


@pytest.mark.parametrize("N, C", [(16, 3.0), (5000, 3.0), (5000, 0.6)])
def test_witness_t_support_is_every_filtered_member(sieve, monkeypatch, N, C):
    beta = 0.48154502844112457
    k = int(beta * math.log(math.log(N)))
    level = [n for n in range(1, N + 1) if big_omega(sieve, n) == k]
    cond = LocCondition(kappa=beta, C=C, x=N)
    calls = _record_filter_calls(monkeypatch)
    support = [int(n) for n in witness_t(sieve, N, beta, C=C).support()]
    assert calls == [level]
    assert support == [n for n in level if _loc_by_factorize(sieve, n, cond)]


@pytest.mark.parametrize("N, C", [(4, 3.0), (5, 3.0), (1001, 3.0), (1001, 0.5)])
def test_witness_e_support_is_every_filtered_candidate(sieve, monkeypatch, N, C):
    candidates = list(range(N // 2 + 1, N + 1))
    cond = LocCondition(kappa=1.0 / math.log(4.0), C=C, x=N)
    calls = _record_filter_calls(monkeypatch)
    support = [int(n) for n in witness_e(sieve, N, C=C).support()]
    assert calls == [candidates]
    assert support == [n for n in candidates if _loc_by_factorize(sieve, n, cond)]


@pytest.mark.parametrize("x", [1, 2, 50, 10_000])
def test_loc_members_match_satisfies_loc(sieve, x):
    # x = 50 cuts factorizations at the first prime above x; inf means no
    # constraint.
    candidates = np.arange(1, 10_001, dtype=np.int64)
    for kappa in (0.0, 0.3, 1.0 / math.log(4.0), 1.2, math.inf):
        for C in (0.0, 0.5, 1.0, 3.0, math.inf):
            cond = LocCondition(kappa=kappa, C=C, x=x)
            want = [n for n in range(1, 10_001) if satisfies_loc(sieve, n, cond)]
            assert extremal._loc_members(sieve, candidates, cond).tolist() == want
            assert len(extremal._loc_members(sieve, candidates[:0], cond)) == 0


def test_filtered_counts_at_the_ratio_table_point():
    x = 202_366
    sieve = build_sieve(x)
    assert [filtered_count(sieve, x, k, 3.0) for k in (1, 2, 3, 4)] == [
        18176, 45742, 51481, 38687]
