"""Acceptance gate: twelve criteria, one printed verdict line each.

Each criterion combines exact identities, closed forms, or independently
computed oracle values; tolerances are pinned in the assertions below.
Invariants that `galmin verify-all` also checks are written once in
galmin.verify; a criterion calls them on its own pinned grid and seed and
adds the checks that only the gate makes. Criterion 12 is exploratory: it
must run and emit its tables but carries no numeric assertion.
"""

import math
import time

import numpy as np
import pytest

from galmin import verify
from galmin.arith import build_sieve
from galmin.characters import build_table, character_matrix, orthogonality_check
from galmin.charexp import mollified_moments
from galmin.constants import solve_beta
from galmin.extremal import (
    filtered_count,
    level_set_count,
    multiplication_table_count,
)
from galmin.forms import KernelKind, WeightVector, v_form
from galmin.minimize import (
    exact_quadratic_minimum,
    grid_oracle,
    minimize_with_witness,
    scaling_report,
)
from galmin.report import ExperimentReport

# Trial division, independent of the sieve that galmin itself uses.
_PRIMES = [p for p in range(3, 500)
           if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]


def _primes_upto(x):
    return [p for p in _PRIMES if p <= x]


def _verdict(num, name, ok):
    import conftest

    line = (f"[ACCEPTANCE] criterion {num:02d} ({name}): "
            f"{'PASS' if ok else 'FAIL'}")
    print(line, flush=True)
    conftest.acceptance_lines.append(line)
    assert ok, f"acceptance criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def sieve_1e5():
    return build_sieve(100_000)


def test_criterion_01_constants():
    rep = ExperimentReport("acceptance")
    t0 = time.perf_counter()
    pc = verify.check_constants(rep, 1e-12)
    elapsed = time.perf_counter() - t0
    ok = (rep.all_hold
          and abs(pc.y_beta - 0.35530) < 1e-4
          and elapsed < 1.0)
    _verdict(1, "constants", ok)


def test_criterion_02_small_n_infima():
    t0 = time.perf_counter()
    ok = True
    # N = 2 closed forms of the scaled infima: V_N and T_N carry a factor
    # N, E_N a factor N^2. V and T against the exact KKT minimum, E against
    # the fine lattice oracle.
    for kind, want in ((KernelKind.V_KERNEL, 5 / 6),
                       (KernelKind.T_KERNEL, 1 + 1 / math.sqrt(2))):
        ok &= abs(2 * exact_quadratic_minimum(kind, 2).value - want) < 1e-6
    ok &= abs(4 * grid_oracle(2, step=1 / 1000).value - 1.5) < 1e-6
    # N <= 5: iterative minimizers against the exact KKT minimum for V and
    # T, and against the grid oracle for E.
    rep = ExperimentReport("acceptance")
    verify.check_small_n_infima(rep, range(1, 6))
    ok &= rep.all_hold
    ok &= (time.perf_counter() - t0) < 60.0
    _verdict(2, "small-N infima vs exact minima and grid oracle", ok)


def test_criterion_03_kernel_inequality():
    rep = ExperimentReport("acceptance")
    verify.check_kernel_inequality(rep, np.random.default_rng(12345), 1000)
    _verdict(3, "V <= T/2 on 1000 random vectors", rep.all_hold)


def test_criterion_04_t_dual_algorithms():
    rep = ExperimentReport("acceptance")
    verify.check_t_naive_vs_fast(rep, np.random.default_rng(99), 100, (1, 2000))
    _verdict(4, "T naive vs divisor decomposition", rep.all_hold)


def test_criterion_05_m4_energy_identity():
    primes = [p for p in _primes_upto(499) if p >= 7]
    rep = ExperimentReport("acceptance")
    verify.check_mollified_moments(rep, np.random.default_rng(5), primes)
    # Hand-checked instance.
    mm = mollified_moments(13, 1.0, WeightVector.from_weights([1.0, 1.0]))
    ok = rep.all_hold and math.isclose(mm.M4, 36.0, rel_tol=1e-12)
    _verdict(5, "M4 = (p-1)/2 * E(c;q)", ok)


def test_criterion_06_holder_chains():
    primes = [p for p in _primes_upto(300) if p >= 7]
    rep = ExperimentReport("acceptance")
    verify.check_mollified_moments(rep, np.random.default_rng(6), primes)
    verify.check_low_moment_holder(
        rep, [(p, max(1, math.isqrt(p))) for p in primes])
    _verdict(6, "mollified and low-moment Hoelder chains", rep.all_hold)


def _weil_bound(B, r, p):
    return (2 * r) ** r * B**r * p + 2 * r * B ** (2 * r) * math.sqrt(p)


def test_criterion_07_shifted_sum_bounds():
    ok = True
    for p in _primes_upto(200):
        table = build_table(p)
        ls = np.arange(1, p + 1, dtype=np.int64)
        # Rows j = 0..p-2 of chi(0..p-1); drop the principal row.
        cm = character_matrix(table, np.arange(p, dtype=np.int64))[1:]
        inner = np.zeros_like(cm)
        for B in range(1, 9):
            inner = inner + cm[:, (ls + B) % p]
            absi = np.abs(inner)
            for r in (2, 3):
                lhs = (absi ** (2 * r)).sum(axis=1)
                if not np.all(lhs <= _weil_bound(B, r, p) * (1 + 1e-12)):
                    ok = False
        # R(c) <= |c|_1^2 + 2 N V(c;A): exhaustive over A <= 12, all M mod p
        # (the window only depends on M mod p), all N with A <= N, AN <= p.
        for A in range(1, min(12, math.isqrt(p)) + 1):
            cA = WeightVector.from_weights(np.ones(A))
            v_at = v_form(cA)
            pos = np.multiply.outer(np.arange(1, A + 1, dtype=np.int64), ls) % p
            hist = np.zeros((p, p))
            np.add.at(hist, (np.broadcast_to(ls - 1, pos.shape), pos), 1.0)
            pref = np.concatenate(
                [np.zeros((p, 1)), np.cumsum(np.tile(hist, 2), axis=1)], axis=1)
            for N in range(A, p // A + 1):
                # r_M(l) for every start M at once: cyclic window sums of
                # length N beginning at residue s0 = (M+1) mod p.
                w = pref[:, N : N + p] - pref[:, :p]
                r_sq = (w * w).sum(axis=0)  # column s0
                bound = A * A + 2 * N * v_at
                if not np.all(r_sq <= bound * (1 + 1e-9)):
                    ok = False
    _verdict(7, "Weil moment and R bounds on exhaustive grid", ok)


def test_criterion_08_character_infrastructure():
    rep = ExperimentReport("acceptance")
    verify.check_character_sums(rep, _primes_upto(300))
    ok = rep.all_hold
    # Orthogonality over the even subgroup: (p-1)/2 iff n = +-m mod p.
    for p in (13, 31):
        table = build_table(p)
        half = (p - 1) / 2
        for m in range(1, p):
            for n in range(1, p):
                got = orthogonality_check(table, m, n)
                want = half if (m % p == n % p or (m + n) % p == 0) else 0.0
                ok &= abs(got - want) < 1e-9
    _verdict(8, "Gauss sums, Parseval, orthogonality", ok)


def _distinct_products_oracle(n, chunk=256):
    """Count distinct products d*t (d, t <= n) without the d <= t shortcut."""
    seen = np.zeros(n * n + 1, dtype=bool)
    ts = np.arange(1, n + 1, dtype=np.int64)
    for lo in range(1, n + 1, chunk):
        ds = np.arange(lo, min(lo + chunk, n + 1), dtype=np.int64)
        seen[np.multiply.outer(ds, ts).ravel()] = True
    return int(np.count_nonzero(seen))


def test_criterion_09_multiplication_table_counts():
    rep = ExperimentReport("acceptance")
    verify.check_multiplication_table_counts(rep)
    ok = rep.all_hold
    for n in (1, 2, 7, 10, 31, 100, 317, 1000, 3163, 10_000):
        ok &= multiplication_table_count(n) == _distinct_products_oracle(n)
    _verdict(9, "H(N) against independent oracle", ok)


def test_criterion_10_polya_residual():
    rep = ExperimentReport("acceptance")
    verify.check_polya_decay(rep, _primes_upto(300))
    _verdict(10, "Polya formula residual decay", rep.all_hold)


def test_criterion_11_witness_feasibility(sieve_1e5):
    beta = solve_beta().beta
    ok = True
    budgets = {1000: 3000, 10_000: 3000, 100_000: 1000}
    for n, iters in budgets.items():
        for kind in (KernelKind.V_KERNEL, KernelKind.T_KERNEL):
            res, wit_val = minimize_with_witness(kind, n, sieve_1e5, beta,
                                                 max_iters=iters)
            label = "V" if kind is KernelKind.V_KERNEL else "T"
            print(f"[ACCEPTANCE]   witness chain {label} N={n}: "
                  f"minimized={res.scaled_value:.6f} "
                  f"witness={n * wit_val:.6f}", flush=True)
            ok &= res.value <= wit_val * (1 + 1e-12)
    _verdict(11, "minimized value <= witness value", ok)


def test_criterion_12_exploratory_scaling(sieve_1e5):
    emitted = True
    for kind, ns, tol in (("V", [256, 1024, 4096, 8192], 1e-4),
                          ("T", [256, 1024, 4096, 8192], 1e-4),
                          ("E", [32, 128, 512], 1e-12)):
        rep = scaling_report(kind, ns, tolerance=tol)
        rows = rep.values["rows"]
        emitted &= len(rows) == len(ns)
        for row in rows:
            print(f"[ACCEPTANCE]   scaling {kind} N={row['N']}: "
                  f"scaled_inf={row['scaled_inf']:.6f} "
                  f"witness={row['witness_value']}", flush=True)
        print(f"[ACCEPTANCE]   scaling {kind} loglog slope: "
              f"{rep.values['loglog_slope']}", flush=True)
    # Level-set ratio table: k * F_k(x;C) / N_k(x), C = 3, exploratory.
    for x in (10_000, 100_000, 1_000_000):
        sieve = sieve_1e5 if x <= 100_000 else build_sieve(x)
        kmax = int(1.9 * math.log(math.log(x)))
        for k in range(1, kmax + 1):
            nk = level_set_count(sieve, x, k)
            fk = filtered_count(sieve, x, k, 3.0)
            ratio = k * fk / nk if nk else float("nan")
            print(f"[ACCEPTANCE]   ratio table x={x} k={k}: "
                  f"N_k={nk} F_k={fk} k*F/N={ratio:.4f}", flush=True)
            emitted &= nk >= fk >= 0
    _verdict(12, "exploratory scaling and ratio tables (non-gating)", emitted)
