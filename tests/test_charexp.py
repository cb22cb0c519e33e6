import math

import numpy as np
import pytest

from galmin.arith import BudgetError
from galmin import characters, charexp
from galmin.characters import ThetaConfig, build_table, theta_all_even
from galmin.charexp import (
    _window_counts,
    burgess_R,
    burgess_experiment,
    burgess_r_values,
    low_moment_exponents,
    low_moment_experiment,
    mollified_moments,
    shifted_sums,
    weil_moment_check,
    zeta_poly_moment,
)
from galmin.forms import WeightVector, e_form


def test_window_counts_oracle():
    for p, M, N in ((7, 0, 2), (7, 3, 20), (13, -5, 40), (11, 100, 7)):
        counts = _window_counts(p, M, N)
        direct = np.zeros(p, dtype=np.int64)
        for m in range(M + 1, M + N + 1):
            direct[m % p] += 1
        assert np.array_equal(counts, direct)
        assert counts.sum() == N


def test_shifted_sums_oracle():
    chi = build_table(11).character(3)
    for B in (0, 4, 25):  # B = 25 > p wraps around the period
        out = shifted_sums(chi, B)
        assert out.shape == (11,)
        for ell in range(1, 12):
            direct = sum(chi(ell + b) for b in range(1, B + 1))
            assert abs(out[ell - 1] - direct) < 1e-12


def test_shifted_sums_past_the_int32_exponent_bound():
    # p = 46349 is the first prime with (p-2)^2 >= 2^31: for chi_{p-2} the
    # exponents j ind(n) overflow int32, so they must be formed in int64.
    p, B = 46349, 5
    chi = build_table(p).character(p - 2)
    vals = chi.values(np.arange(1, p + B + 1))
    # I(l) = sum_{1<=b<=B} chi(l+b) = sum_b vals[l+b-1], l = 1..p.
    want = sum(vals[b:b + p] for b in range(1, B + 1))
    np.testing.assert_allclose(shifted_sums(chi, B), want, rtol=0, atol=1e-10)


def test_weil_moment_brute_force_and_bound():
    chi = build_table(13).character(1)
    lhs, rhs = weil_moment_check(chi, B=3, r=2)
    # Independent direct computation.
    direct = sum(abs(sum(chi(l + b) for b in range(1, 4))) ** 4 for l in range(1, 14))
    assert math.isclose(lhs, direct, rel_tol=1e-10)
    assert lhs <= rhs
    lhs0, rhs0 = weil_moment_check(chi, B=0, r=2)
    assert lhs0 == 0.0
    with pytest.raises(ValueError):
        weil_moment_check(chi, B=1, r=1)
    with pytest.raises(ValueError):
        weil_moment_check(build_table(13).character(0), B=1, r=2)


def test_burgess_r_values_oracle():
    p, M, N = 11, 2, 6
    c = WeightVector.from_weights([0.5, 1.0, 0.25])
    rvals = burgess_r_values(c, M, N, p)
    for ell in (1, 4, 11):
        direct = 0.0
        for a in (1, 2, 3):
            for m in range(M + 1, M + N + 1):
                if (a * ell - m) % p == 0:
                    direct += c.weights[a - 1]
        assert math.isclose(rvals[ell - 1], direct, rel_tol=1e-12)
    # Mass identity: each a contributes weight * N across residues.
    assert math.isclose(float(rvals.sum()), N * c.one_norm, rel_tol=1e-12)


def test_burgess_R_matches_hand_example():
    # p = 7, A = 1, M = 0, N = 2: r(l) counts m in {1, 2} with l = m mod 7.
    c = WeightVector.from_weights([1.0])
    assert burgess_R(c, 1, 0, 2, 7) == 2.0
    with pytest.raises(ValueError):
        burgess_R(c, 2, 0, 2, 7)


def test_burgess_experiment_report():
    rep = burgess_experiment(101, 2, 30)
    assert rep.all_hold
    names = {a.name for a in rep.assertions}
    assert "sum_r_equals_N_times_norm" in names
    assert "holder_chain_all_chi" in names
    assert "trivial_window_bound" in names
    assert rep.parameters["A"] >= 1
    assert rep.values["ratio_T"] > 0
    with pytest.raises(BudgetError):
        burgess_experiment(2003, 2, 30)
    with pytest.raises(ValueError):
        burgess_experiment(101, 1, 30)


def _burgess_per_character(p, r, N, table):
    """The per-character loop of burgess_experiment: holder_min_slack,
    max_averaged_S and max_S_window, one character at a time."""
    rep = burgess_experiment(p, r, N)
    A, B = rep.parameters["A"], rep.parameters["B"]
    rvals = burgess_r_values(WeightVector.from_weights(np.ones(A)), 0, N, p)
    sum_r, R = float(rvals.sum()), float(rvals @ rvals)
    slack, max_s, max_window = math.inf, 0.0, 0.0
    ns = np.arange(1, 2 * p + 1)
    # n = l + b for l = 1..p (rows) and b = 1..B (columns).
    shifts = np.arange(1, p + 1)[:, None] + np.arange(1, B + 1)
    for j in range(1, p - 1):
        chi = table.character(j)
        inner = np.abs(chi.values(shifts.ravel()).reshape(shifts.shape).sum(axis=1))
        s_val = float(rvals @ inner)
        rhs = sum_r ** (2 * r - 2) * R * float((inner ** (2 * r)).sum())
        slack = min(slack, rhs - s_val ** (2 * r))
        max_s = max(max_s, s_val)
        cum = np.concatenate([[0j], np.cumsum(chi.values(ns))])
        max_window = max(max_window, float(np.abs(cum[N:] - cum[:-N]).max()))
    return rep, {"holder_min_slack": slack, "max_averaged_S": max_s,
                 "max_S_window": max_window}


@pytest.mark.parametrize("p,N", [(3, 2), (5, 3), (7, 5), (13, 9), (101, 30),
                                 (499, 200), (101, 101), (101, 102), (101, 150),
                                 (101, 202)])
def test_burgess_blocks_match_per_character_loop(p, N):
    # At p = 3 the only character is the self-conjugate j = (p-1)/2; at
    # p = 5 it ends the half j = 1, 2. At p = 499 the characters span
    # several blocks, the last one partial. N >= p takes fewer than p window
    # starts and runs C past its first period; where p divides N every
    # window sum is 0, so the maxima are round-off on both sides.
    rep, want = _burgess_per_character(p, 2, N, build_table(p))
    for key, value in want.items():
        assert math.isclose(rep.values[key], value, rel_tol=1e-12,
                            abs_tol=1e-12 * N), key


def test_burgess_failed_checks_in_character_order(monkeypatch):
    monkeypatch.setattr(charexp, "weil_bound", lambda B, r, p: 0.0)
    p = 499  # several blocks of characters
    rep = burgess_experiment(p, 2, 200)
    failed = [a.name for a in rep.assertions if not a.holds]
    assert failed == [f"weil_moment_chi_{j}" for j in range(1, p - 1)]


@pytest.mark.parametrize("p", [5, 499])
def test_burgess_reports_every_failed_check_in_character_order(monkeypatch, p):
    # Both checks fail for every character: the Weil bound is -1 and every
    # moment 0, so the Hoelder rhs is 0 below S^{2r} > 0. The minimum
    # slack is then negative, so holder_chain_all_chi fails too.
    monkeypatch.setattr(charexp, "weil_bound", lambda B, r, p: -1.0)
    monkeypatch.setattr(charexp, "_moments",
                        lambda rows, r: np.zeros(rows.shape[:-1]))
    rep = burgess_experiment(p, 2, 2 * p)
    failed = [a.name for a in rep.assertions if not a.holds]
    per_chi = [f"{check}_chi_{j}" for j in range(1, p - 1)
               for check in ("weil_moment", "holder_chain")]
    assert failed == per_chi + ["holder_chain_all_chi"]


@pytest.mark.parametrize("p", [7, 13, 101, 499])
def test_conjugate_characters_share_burgess_rows(p):
    # chi_{p-1-j} = conj(chi_j): burgess_experiment computes one of each
    # pair, so |I| and the window maxima of the two must agree.
    table = build_table(p)
    m = p - 1
    ns = np.arange(1, 2 * p + 1)
    B, N = max(1, int(2 * p ** 0.25)), p // 3 + 1

    def window_max(j):
        cum = np.concatenate([[0j], np.cumsum(table.character(j).values(ns))])
        return float(np.abs(cum[N:] - cum[:-N]).max())

    for j in range(1, m):
        a = np.abs(shifted_sums(table.character(j), B))
        b = np.abs(shifted_sums(table.character(m - j), B))
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * B)
        assert math.isclose(window_max(j), window_max(m - j), rel_tol=1e-12)


def test_one_r_bound_serves_burgess_and_verify_all(monkeypatch):
    from galmin.verify import run_verification

    def refuse(R, c, N, v_at_c):
        return 0.0, False

    # Replacing the code of the one function object reaches every module
    # that imported it.
    monkeypatch.setattr(charexp.r_bound_check, "__code__", refuse.__code__)
    burgess = {a.name: a.holds for a in burgess_experiment(101, 2, 30).assertions}
    grid = {a.name: a.holds for a in run_verification(fast=True).assertions}
    assert burgess["R_bound_gcd_form"] is False
    assert grid["R_bound_gcd_form_grid"] is False


def test_burgess_experiment_weight_modes():
    for mode in ("uniform", "minimizer", "witness"):
        rep = burgess_experiment(151, 2, 60, c_mode=mode)
        assert rep.all_hold, mode


def test_burgess_witness_weights_need_no_sieve_from_the_caller():
    # A = 18 lies in the witness domain: the library call uses the witness
    # weights, as the CLI command does, not a uniform fallback.
    rep = burgess_experiment(1999, 2, 3998, c_mode="witness")
    assert rep.parameters["A"] == 18
    assert rep.values["c_used"] == "witness"
    assert rep.values["R"] == 7996.0
    assert rep.all_hold


def test_mollified_moments_known_instance():
    # p = 13, q = floor(sqrt(13/3)) = 2, c = (1, 1):
    # M4 = (1/2)(p-1) E(c;2) with E = 6 from {1,2,2,4} products... direct: 36.
    c = WeightVector.from_weights([1.0, 1.0])
    mm = mollified_moments(13, 1.0, c)
    assert math.isclose(mm.M4, 36.0, rel_tol=1e-10)
    assert math.isclose(mm.M4, 0.5 * 12 * e_form(c), rel_tol=1e-12)
    assert mm.M0 >= mm.holder_lower_bound - 1e-9
    assert 0 <= mm.M0 <= 6  # number of even characters mod 13


def test_mollified_moments_m4_energy_identity_random():
    rng = np.random.default_rng(5)
    for p in (31, 61, 151):
        q = math.isqrt(p // 3)
        c = WeightVector.from_weights(rng.random(q) + 0.1)
        mm = mollified_moments(p, 0.7, c)
        assert math.isclose(mm.M4, 0.5 * (p - 1) * e_form(c), rel_tol=1e-9)
        assert mm.M0 >= mm.holder_lower_bound - 1e-6


def test_mollified_moments_validation():
    with pytest.raises(ValueError):
        mollified_moments(5, 1.0, WeightVector.from_weights([1.0]))
    with pytest.raises(ValueError):
        mollified_moments(13, 1.0, WeightVector.from_weights([1.0, 1.0, 1.0]))


def test_all_character_sums_skip_the_dense_matrix(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense character matrix built")

    monkeypatch.setattr(characters, "character_matrix", dense)
    monkeypatch.setattr(charexp, "character_matrix", dense, raising=False)
    p = 499
    table = build_table(p)
    assert len(theta_all_even(table, ThetaConfig(x=1.0))) == (p - 1) // 2
    q = math.isqrt(p // 3)
    assert mollified_moments(p, 1.0, WeightVector.from_weights(np.ones(q))).M0 > 0
    assert low_moment_experiment(p, 21, 1.0).all_hold


def test_low_moment_exponents_identities():
    for r in (0.25, 0.5, 1.0, 1.3):
        u, v, s, t = low_moment_exponents(r)
        assert math.isclose(u + v, 1.0, rel_tol=1e-12)
        assert math.isclose(1 / s + 1 / t + 1 / 4, 1.0, rel_tol=1e-12)
        assert s > 0 and t > 0
    with pytest.raises(ValueError):
        low_moment_exponents(4 / 3)
    with pytest.raises(ValueError):
        low_moment_exponents(0.0)


def test_low_moment_experiment_holds():
    for r in (0.5, 1.0):
        rep = low_moment_experiment(101, 9, r)
        assert rep.all_hold
        # Exact second-moment identity value.
        s2 = rep.values["moment_2"]
        assert math.isclose(s2, (100 * 9 - 81) / 99, rel_tol=1e-9)
    with pytest.raises(ValueError):
        low_moment_experiment(101, 101, 0.5)


def test_low_moment_unit_weights_take_one_character_sum(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return characters.character_sums(*args, **kwargs)

    monkeypatch.setattr(charexp, "character_sums", counted)
    rep = low_moment_experiment(101, 9, 1.0, energy_budget=0)
    assert len(calls) == 1
    # The unit-weight mollifier is conj(S), so its fourth moment is S's.
    S = characters.character_sums(build_table(101), np.arange(1, 10), np.ones(9))[1:]
    assert rep.values["mollified_4"] == float((np.abs(S) ** 4).sum()) / 99


def test_zeta_poly_moment_limits():
    # At r = 2 and large T the mean square tends to N (diagonal terms).
    out = zeta_poly_moment(4, 20_000.0, 2.0, step=0.5)
    assert abs(out["value"] - 4.0) < 0.05
    assert out["error_estimate"] < 1e-2
    # N = 1: the polynomial is identically 1.
    one = zeta_poly_moment(1, 10.0, 1.3, step=0.1)
    assert math.isclose(one["value"], 1.0, rel_tol=1e-12)
    assert "E_N_upper_bound" in one
    with pytest.raises(ValueError):
        zeta_poly_moment(4, 10.0, 2.0, step=0.0)
