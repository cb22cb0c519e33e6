"""Invariant checks shared by the `verify-all` CLI subcommand and the
acceptance gate.

Each shared invariant is written once, as a ``check_*`` function that takes
its grid (primes, vector count, N range, solver tolerance, a random
generator) and appends named checks to an ExperimentReport. ``run_verification``
calls them on desk-scale grids, together with the ``_verify_*`` checks that
only `verify-all` makes; tests/test_acceptance.py calls the same functions
on its own pinned grids and seeds. Any false verdict makes the CLI exit
nonzero.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import big_omega_table, build_sieve, phi_table, prime_powers
from .characters import (
    build_table,
    char_sum,
    gauss_sum,
    orthogonality_check,
    polya_partial_sum,
)
from .charexp import (
    burgess_R,
    low_moment_experiment,
    mollified_moments,
    mollifier_length,
    r_bound_applies,
    r_bound_check,
    weil_holds,
    weil_moment_check,
)
from .constants import VariationalConstants, q_of, solve_beta
from .extremal import multiplication_table_count
from .forms import (
    KernelKind,
    WeightVector,
    e_form,
    e_gradient,
    r_counts_dense,
    t_form_fast,
    t_form_naive,
    v_form,
    vt_forms_pairwise,
)
from .minimize import (
    exact_quadratic_minimum,
    grid_oracle,
    minimize_energy,
    minimize_quadratic,
)
from .report import ExperimentReport


def odd_primes(upto: int) -> list[int]:
    """The odd primes p <= upto, read off the smallest-prime-factor sieve."""
    sieve = build_sieve(upto)
    return [p for p in range(3, upto + 1) if sieve.is_prime(p)]


def run_verification(seed: int = 0, fast: bool = False) -> ExperimentReport:
    rng = np.random.default_rng(seed)
    rep = ExperimentReport("verify-all", parameters={"seed": seed, "fast": fast})
    check_constants(rep, 1e-10)
    _verify_arith(rep)
    check_kernel_inequality(rep, rng, 50 if fast else 200)
    check_t_naive_vs_fast(rep, rng, 10 if fast else 25,
                          (2, 1000 if fast else 2000))
    _verify_energy(rep, rng)
    _verify_closed_forms(rep)
    check_small_n_infima(rep, (3, 4, 5))
    check_multiplication_table_counts(rep)
    check_character_sums(rep, odd_primes(50 if fast else 300))
    _verify_orthogonality(rep)
    check_polya_decay(rep, [31, 101] if fast else [31, 101, 199, 293])
    _verify_shifted_sums(rep, rng, [5, 13, 31] if fast
                         else [5, 13, 31, 61, 101, 151, 199])
    check_mollified_moments(rep, rng, [13, 31] if fast
                            else [13, 31, 61, 101, 151])
    check_low_moment_holder(
        rep, [(p, max(1, math.isqrt(p) - 1))
              for p in ([31, 61] if fast else [31, 61, 101, 151])])
    return rep


def check_constants(rep: ExperimentReport, tolerance: float) -> VariationalConstants:
    """beta, eta and delta to 1e-4, eta < 1/6 and q(1) = 0; returns the
    constants so a caller can check more of them."""
    pc = solve_beta(tolerance)
    rep.check("beta_near_048155", pc.beta, 0.48155,
              abs(pc.beta - 0.48155) < 1e-4)
    rep.check("eta_near_016656", pc.eta, 0.16656,
              abs(pc.eta - 0.16656) < 1e-4)
    rep.check("eta_below_one_sixth", pc.eta, 1 / 6, pc.eta < 1 / 6)
    rep.check("delta_near_008607", pc.delta, 0.08607,
              abs(pc.delta - 0.08607) < 1e-4)
    rep.check("q_at_one_is_zero", q_of(1.0), 0.0, q_of(1.0) == 0.0)
    return pc


def _verify_arith(rep):
    """The phi and Omega tables that the solvers read, up to 2000:
    sum_{d | n} phi(d) = n, and Omega(n) >= omega(n) with omega counted by
    marking the multiples of each prime, not by the spf recurrence that
    fills the Omega table."""
    upto = 2000
    sieve = build_sieve(upto)
    # Every pair d * m <= upto: d repeated once per multiple, m counting
    # 1, 2, ... within each run of d.
    ds = np.arange(1, upto + 1)
    d = np.repeat(ds, upto // ds)
    m = np.arange(len(d)) - np.searchsorted(d, d) + 1
    divisor_sums = np.bincount(d * m, weights=phi_table(sieve, upto)[d])
    ok_phi = np.array_equal(divisor_sums[1:], ds)
    rep.check("phi_divisor_sum", 1, 1, ok_phi)
    qs, ps = prime_powers(sieve, upto)
    small_omega = np.zeros(upto + 1, dtype=np.int64)
    for p in ps[qs == ps].tolist():
        small_omega[p::p] += 1
    ok_omega = np.all(big_omega_table(sieve, upto) >= small_omega)
    rep.check("big_omega_ge_small_omega", 1, 1, ok_omega)


def check_kernel_inequality(rep: ExperimentReport, rng: np.random.Generator,
                            n_vectors: int) -> None:
    """V(c) <= T(c)/2 on random vectors of random length N in [1, 500]."""
    worst = -math.inf
    for _ in range(n_vectors):
        n = int(rng.integers(1, 501))
        c = WeightVector.from_weights(rng.random(n))
        v, t = vt_forms_pairwise(c)
        worst = max(worst, v - 0.5 * t)
    rep.check("kernel_inequality_V_le_half_T", worst, 0.0, worst <= 1e-12)


def check_t_naive_vs_fast(rep: ExperimentReport, rng: np.random.Generator,
                          n_vectors: int, n_range: tuple[int, int]) -> None:
    """Pairwise T against the divisor decomposition, relative error 1e-10,
    on random vectors of random length N in the closed range n_range."""
    lo, hi = n_range
    worst_rel = 0.0
    for _ in range(n_vectors):
        n = int(rng.integers(lo, hi + 1))
        c = WeightVector.from_weights(rng.random(n))
        a, b = t_form_naive(c), t_form_fast(c)
        worst_rel = max(worst_rel, abs(a - b) / max(abs(a), 1e-300))
    rep.check("t_naive_vs_fast", worst_rel, 1e-10, worst_rel <= 1e-10)


def _verify_energy(rep, rng):
    # r(n) mass identity and energy lower bound via H(N).
    for n in (5, 17, 60):
        c = WeightVector.from_weights(rng.random(n))
        r = r_counts_dense(c)
        rep.check(f"r_mass_identity_N{n}", float(r.sum()), c.one_norm**2,
                  math.isclose(float(r.sum()), c.one_norm**2, rel_tol=1e-12))
        cs = c.normalized()
        e = e_form(cs)
        h = multiplication_table_count(n)
        rep.check(f"energy_times_H_ge_one_N{n}", e * h, 1.0,
                  e * h >= 1.0 - 1e-8)

    # Gradient vs central finite differences.
    n = 12
    c = WeightVector.from_weights(rng.random(n) + 0.1)
    grad = e_gradient(c)
    h = 1e-6
    worst = 0.0
    for i in range(n):
        wp, wm = c.weights.copy(), c.weights.copy()
        wp[i] += h
        wm[i] -= h
        fd = (e_form(WeightVector(n, wp)) - e_form(WeightVector(n, wm))) / (2 * h)
        worst = max(worst, abs(fd - grad[i]))
    rep.check("e_gradient_finite_difference", worst, 1e-6, worst <= 1e-5)


def _verify_closed_forms(rep):
    v2 = minimize_quadratic(KernelKind.V_KERNEL, 2, tolerance=1e-10)
    rep.check("V2_closed_form", v2.scaled_value, 5 / 6,
              abs(v2.scaled_value - 5 / 6) < 1e-8)
    t2 = minimize_quadratic(KernelKind.T_KERNEL, 2, tolerance=1e-10)
    rep.check("T2_closed_form", t2.scaled_value, 1 + 1 / math.sqrt(2),
              abs(t2.scaled_value - (1 + 1 / math.sqrt(2))) < 1e-8)
    e2 = minimize_energy(2, restarts=3)
    rep.check("E2_closed_form", e2.scaled_value, 1.5,
              abs(e2.scaled_value - 1.5) < 1e-6)


def check_small_n_infima(rep: ExperimentReport, ns) -> None:
    """Iterative V and T minima (tolerance 1e-12) against the exact KKT
    minimum, to 1e-6, and E minima (4 restarts, seed 0) against the
    step-1/60 grid oracle, to 1e-4: E is not convex, so it has no KKT
    oracle."""
    for n in ns:
        for kind in KernelKind:
            it = minimize_quadratic(kind, n, tolerance=1e-12)
            ex = exact_quadratic_minimum(kind, n)
            rep.check(f"{it.objective_kind}{n}_vs_exact_minimum", it.value, ex.value,
                      abs(it.value - ex.value) <= 1e-6)
        em = minimize_energy(n, restarts=4, seed=0)
        ge = grid_oracle(n, step=1 / 60)
        rep.check(f"E{n}_vs_grid_oracle", em.value, ge.value,
                  abs(em.value - ge.value) <= 1e-4)


def check_multiplication_table_counts(rep: ExperimentReport) -> None:
    """H(3), H(4), H(5) = 6, 9, 14 distinct products."""
    for n, expected in ((3, 6), (4, 9), (5, 14)):
        rep.check(f"H_{n}", multiplication_table_count(n), expected,
                  multiplication_table_count(n) == expected)


def check_character_sums(rep: ExperimentReport, primes) -> None:
    """|tau(chi)| = sqrt(p) to 1e-9 for every nonprincipal chi, and
    Parseval sum_chi |S(0, p//2; chi)|^2 = (p-1) * (p//2) to rel 1e-6."""
    worst_tau = 0.0
    worst_parseval = 0.0
    for p in primes:
        table = build_table(p)
        for chi in table.characters(skip_principal=True):
            worst_tau = max(worst_tau, abs(abs(gauss_sum(chi)) - math.sqrt(p)))
        n = max(1, p // 2)
        total = sum(abs(char_sum(chi, 0, n)) ** 2 for chi in table.characters())
        worst_parseval = max(worst_parseval,
                             abs(total - (p - 1) * n) / ((p - 1) * n))
    rep.check("gauss_sum_modulus", worst_tau, 1e-9, worst_tau <= 1e-9)
    rep.check("parseval", worst_parseval, 1e-6, worst_parseval <= 1e-6)


def _verify_orthogonality(rep):
    table = build_table(13)
    rep.check("orthogonality_plus_minus",
              orthogonality_check(table, 1, 12).real, 6.0,
              abs(orthogonality_check(table, 1, 12) - 6.0) < 1e-9)
    rep.check("orthogonality_zero",
              abs(orthogonality_check(table, 2, 3)), 0.0,
              abs(orthogonality_check(table, 2, 3)) < 1e-9)


def check_polya_decay(rep: ExperimentReport, primes) -> None:
    """Polya residual of chi_1 at cutoff t = p//3 + 1/2: no larger at H = p^2
    than at H = p, and at most 2 + 10 p log(p) / H at both."""
    # Half-integer cutoff: at integer t the Fourier series takes the
    # half-jump value, leaving an irreducible ~1/2 residual that masks the
    # decay in H.
    ok = True
    for p in primes:
        chi = build_table(p).character(1)
        t = p // 3 + 0.5
        _, _, res_p = polya_partial_sum(chi, t, p)
        _, _, res_p2 = polya_partial_sum(chi, t, p * p)
        ok &= res_p2 <= res_p
        ok &= res_p <= 2 + 10 * p * math.log(p) / p
        ok &= res_p2 <= 2 + 10 * p * math.log(p) / (p * p)
    rep.check("polya_residual_decay", 1, 1, ok)


def _verify_shifted_sums(rep, rng, primes):
    ok_weil = True
    for p in primes:
        table = build_table(p)
        for j in (1, 2):
            chi = table.character(j)
            if chi.is_principal:
                continue
            for B in (1, 4, 8):
                for r in (2, 3):
                    ok_weil &= weil_holds(*weil_moment_check(chi, B, r))
    rep.check("weil_moment_bound", 1, 1, ok_weil)

    ok_r = True
    for p in primes:
        for A in (1, 3, 7):
            for N in (A, 2 * A, p // max(A, 1)):
                if not r_bound_applies(A, N, p):
                    continue
                c = WeightVector.from_weights(rng.random(A))
                v_at_c = v_form(c)
                for M in (0, 1, p // 2):
                    R = burgess_R(c, A, M, N, p)
                    ok_r &= r_bound_check(R, c, N, v_at_c)[1]
    rep.check("R_bound_gcd_form_grid", 1, 1, ok_r)


def check_mollified_moments(rep: ExperimentReport, rng: np.random.Generator,
                            primes) -> None:
    """At x = 1 with q = floor(sqrt(p/3)) uniform and random weights:
    Hoelder M0 >= M1^4 / (M2^2 M4) - 1e-6 and M4 = (p-1)/2 * E(c;q) to
    rel 1e-8."""
    ok = True
    for p in primes:
        q = mollifier_length(p)
        for c in (WeightVector.from_weights(np.ones(q)),
                  WeightVector.from_weights(rng.random(q) + 0.05)):
            mm = mollified_moments(p, 1.0, c)
            ok &= mm.holder_check()[1]
            ok &= math.isclose(mm.M4, 0.5 * (p - 1) * e_form(c), rel_tol=1e-8)
    rep.check("mollified_holder_and_M4_identity", 1, 1, ok)


def check_low_moment_holder(rep: ExperimentReport, cases) -> None:
    """Every assertion of the low-moment experiment at r = 1/2, 1, 5/4 for
    each (p, N) in cases, with the Hoelder slack rhs - lhs >= -1e-9. The
    exploratory E_nu values are skipped (energy_budget=0): no check reads
    them."""
    ok = True
    for p, n in cases:
        for r in (0.5, 1.0, 1.25):
            low = low_moment_experiment(p, n, r, energy_budget=0)
            holder = next(a for a in low.assertions if a.name == "holder_moments")
            ok &= low.all_hold and holder.rhs - holder.lhs >= -1e-9
    rep.check("low_moment_holder", 1, 1, ok)
