"""The byte budget: every guarded allocation's estimate against its traced
peak, and each guard on both sides of its boundary.

An estimate is read off the call's own require_bytes, recorded on the way
through, so the tests hold whatever formula the guard uses.
"""

import math
import tracemalloc

import numpy as np
import pytest

from galmin.arith import (
    BudgetError,
    _spf_table,
    big_omega_table,
    build_sieve,
    phi_table,
    require_bytes,
)
from galmin.characters import (
    ThetaConfig,
    build_table,
    char_sum,
    character_sums,
    gauss_sum,
    polya_partial_sum,
    theta_all_even,
)
from galmin.charexp import (
    low_moment_experiment,
    mollified_moments,
    shifted_sums,
    zeta_poly_moment,
)
from galmin.constants import solve_beta
from galmin.extremal import (
    LocCondition,
    _level_set,
    _loc_members,
    multiplication_table_count,
)
from galmin.forms import (
    EnergyIndex,
    KernelKind,
    KernelOperator,
    WeightVector,
    _operator_bytes,
)
from galmin.minimize import minimize_with_witness

# Each guard maps a size to (the module whose require_bytes it calls, the
# guarded call); what the call needs besides is built outside it.


def _spf(limit):
    return "arith", lambda: _spf_table(limit)


def _table(fn):
    def guard(upto):
        sieve = build_sieve(upto)
        return "arith", lambda: fn(sieve, upto)
    return guard


def _operator(kind):
    def guard(n):
        w = np.full(n, 1.0 / n)
        np.fft.rfft(w)  # numpy's one-time FFT setup, which the estimate leaves out
        return "forms", lambda: KernelOperator(kind, n).matvec(w)
    return guard


def _energy_index(n):
    w = np.full(n, 1.0 / n)

    def call():
        index = EnergyIndex(n)
        index.gradient(index.counts(w), w)
    return "forms", call


def _multiplication_table(N):
    return "extremal", lambda: multiplication_table_count(N)


def _loc_filter(x, k):
    sieve = build_sieve(x)
    level = _level_set(sieve, x, k)
    cond = LocCondition(kappa=k / math.log(math.log(x)), C=3.0, x=x)
    return "extremal", lambda: _loc_members(sieve, level, cond)


def _shifted_sums(p, B, j=1):
    chi = build_table(p).character(j)
    return "charexp", lambda: shifted_sums(chi, B)


def _char_sum(p, N):
    chi = build_table(p).character(1)
    return "characters", lambda: char_sum(chi, 0, N)


def _gauss_sum(p):
    chi = build_table(p).character(1)
    return "characters", lambda: gauss_sum(chi)


def _polya(p, t, H):
    chi = build_table(p).character(1)
    return "characters", lambda: polya_partial_sum(chi, t, H)


def _character_sums(p, L):
    table = build_table(p)
    ns, w = np.arange(1, L + 1, dtype=np.int64), np.ones(L)
    return "characters", lambda: character_sums(table, ns, w)


def _theta_all_even(p, x):
    table, config = build_table(p), ThetaConfig(x=x)
    return "characters", lambda: theta_all_even(table, config)


def _mollified_moments(p, x):
    c = WeightVector.from_weights(np.ones(math.isqrt(p // 3)))
    return "characters", lambda: mollified_moments(p, x, c)


def _low_moments(p, N):
    return "characters", lambda: low_moment_experiment(p, N, 1.0, energy_budget=0)


def _polyzeta(N, T, step):
    return "charexp", lambda: zeta_poly_moment(N, T, 1.0, step)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _estimate_and_peak(monkeypatch, module, call) -> tuple[int, int]:
    """The first estimate call passes to galmin.<module>.require_bytes, and
    the traced peak of call."""
    seen = []

    def record(nbytes, what):
        seen.append(nbytes)
        require_bytes(nbytes, what)

    with monkeypatch.context() as m:
        m.setattr(f"galmin.{module}.require_bytes", record)
        peak = _traced_peak(call)
    return seen[0], peak


V, T = KernelKind.V_KERNEL, KernelKind.T_KERNEL


@pytest.mark.parametrize("guard, size", [
    (_spf, (10**6,)),
    (_table(big_omega_table), (10**6,)),
    (_table(phi_table), (10**6,)),
    (_operator(V), (100,)),
    (_operator(V), (137,)),
    (_operator(V), (200,)),
    (_operator(V), (10**4,)),
    (_operator(V), (10**5,)),
    (_operator(T), (10**4,)),
    (_operator(T), (10**5,)),
    (_energy_index, (512,)),
    (_energy_index, (2048,)),
    (_multiplication_table, (2000,)),
    (_loc_filter, (10**6, 3)),
    (_shifted_sums, (10007, 10**5)),
    (_shifted_sums, (46349, 50, 46349 - 2)),  # int64 exponents: (p-2)^2 >= 2^31
    (_char_sum, (101, 10**5)),
    (_gauss_sum, (100003,)),
    (_polya, (10007, 5003, 10**5)),
    (_polya, (100003, 50001, 1000)),
    (_character_sums, (100003, 100)),
    (_character_sums, (101, 10**5)),
    (_theta_all_even, (10007, 1e-6)),
    (_theta_all_even, (1000003, 1.0)),
    (_mollified_moments, (1000003, 1.0)),
    (_mollified_moments, (1000003, 1e-3)),
    (_low_moments, (1000003, 10)),
    (_low_moments, (100003, 100000)),
    (_polyzeta, (10_000, 1.0, 0.5)),
], ids=["spf", "Omega", "phi", "V-100", "V-137", "V-200", "V-1e4", "V-1e5", "T-1e4", "T-1e5",
        "E-512", "E-2048", "H", "loc-filter", "shifted_sums", "shifted_sums-int64",
        "char_sum", "gauss_sum", "polya-terms", "polya-modulus", "character_sums-classes",
        "character_sums-terms", "theta_all_even-terms", "theta_all_even-classes", "mollified-sums",
        "mollified-theta", "low_moments-classes", "low_moments-terms",
        "polyzeta-logs"])
def test_estimate_covers_the_traced_peak(monkeypatch, guard, size):
    est, peak = _estimate_and_peak(monkeypatch, *guard(*size))
    assert peak <= est <= 2 * peak


@pytest.mark.parametrize("guard, size", [
    (_spf, (1000,)),
    (_table(big_omega_table), (1000,)),
    (_table(phi_table), (1000,)),
    (_operator(V), (300,)),
    (_operator(T), (300,)),
    (_energy_index, (300,)),
    (_multiplication_table, (50,)),
    (_loc_filter, (1000, 3)),
    (_shifted_sums, (101, 50)),
    (_char_sum, (101, 50)),
    (_gauss_sum, (101,)),
    (_polya, (101, 50, 10)),
    (_character_sums, (101, 50)),
    (_theta_all_even, (101, 0.01)),
    (_mollified_moments, (101, 1.0)),
    (_low_moments, (101, 9)),
    (_polyzeta, (10_000, 1.0, 0.5)),
], ids=["spf", "Omega", "phi", "V", "T", "E", "H", "loc-filter", "shifted_sums",
        "char_sum", "gauss_sum", "polya", "character_sums", "theta_all_even",
        "mollified_moments", "low_moments", "polyzeta-logs"])
def test_guard_admits_its_estimate_and_refuses_one_byte_less(monkeypatch, guard, size):
    module, call = guard(*size)
    est, _ = _estimate_and_peak(monkeypatch, module, call)
    monkeypatch.setattr("galmin.arith.BYTES_BUDGET", est)
    call()
    monkeypatch.setattr("galmin.arith.BYTES_BUDGET", est - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


@pytest.mark.parametrize("max_iters", [1, 300])
@pytest.mark.parametrize("n", [10**4, 10**5])
@pytest.mark.parametrize("kind", [V, T])
def test_witness_solve_stays_within_its_operator_estimate(monkeypatch, kind, n,
                                                           max_iters):
    # One operator scores the witness and the uniform vector and serves the
    # solve; 300 steps include a refresh of K w.
    sieve, beta = build_sieve(n), solve_beta().beta
    est, peak = _estimate_and_peak(monkeypatch, "forms", lambda: minimize_with_witness(
        kind, n, sieve, beta, max_iters=max_iters))
    assert peak <= est


def test_v_estimate_has_no_step_past_a_power_of_two():
    # The guard alone, no operator: at 2^21 + 1 the d = 1 row is one entry
    # wider, not a bucket of twice the width.
    assert _operator_bytes(V, 2**21 + 1) <= 1.01 * _operator_bytes(V, 2**21)


@pytest.mark.parametrize("kind", [V, T])
def test_operator_over_the_budget_is_refused_before_the_sieve(kind, monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieve up to {limit} built for a refused operator")

    monkeypatch.setattr("galmin.forms.build_sieve", no_sieve)
    with pytest.raises(BudgetError, match="KernelOperator"):
        KernelOperator(kind, 30_000_000)
