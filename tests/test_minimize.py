import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galmin.arith import build_sieve
from galmin.constants import solve_beta
from galmin.extremal import witness_t
from galmin.forms import (
    KernelKind,
    KernelOperator,
    KernelSpec,
    WeightVector,
    e_form,
    t_form_fast,
    t_form_naive,
    v_form,
)
from galmin.minimize import (
    grid_oracle,
    minimize_energy,
    minimize_quadratic,
    minimize_with_witness,
    project_to_simplex,
    scaling_report,
)


def test_project_to_simplex_basic():
    p = project_to_simplex(np.array([0.2, 0.3, 0.5]))
    assert np.allclose(p, [0.2, 0.3, 0.5])
    p = project_to_simplex(np.array([10.0, 0.0, -5.0]))
    assert np.allclose(p, [1.0, 0.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
def test_projection_properties(n, seed):
    v = np.random.default_rng(seed).normal(size=n) * 3
    p = project_to_simplex(v)
    assert np.all(p >= 0)
    assert math.isclose(p.sum(), 1.0, abs_tol=1e-9)
    # Optimality: closer to v than a random simplex point.
    q = np.random.default_rng(seed + 1).dirichlet(np.ones(n))
    assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-9


def test_operator_matches_dense_kernel():
    # N = 64 and 65 straddle the largest dense divisor block.
    rng = np.random.default_rng(3)
    for kind in KernelKind:
        for n in (1, 2, 64, 65, 500):
            op = KernelOperator(kind, n)
            idx = np.arange(1, n + 1, dtype=np.int64)
            dense = KernelSpec(kind).block(idx, idx)
            sparse = rng.random(n)
            sparse[rng.random(n) < 0.92] = 0.0
            for w in (rng.random(n), sparse, np.zeros(n)):
                assert np.allclose(op.matvec(w), dense @ w, rtol=1e-12, atol=1e-15)
            for j in (1, 7, n):
                if j <= n:
                    assert np.allclose(op.column(j), dense[:, j - 1],
                                       rtol=1e-14, atol=0.0)


def test_operator_form_matches_pairwise_oracle_at_1e4():
    # n > 65^2, so some FFT-sized divisor groups hold several d.
    n = 10_000
    wit = witness_t(build_sieve(n), n, solve_beta().beta).normalized()
    rand = WeightVector.from_weights(np.random.default_rng(4).random(n))
    for kind, oracle in ((KernelKind.V_KERNEL, v_form),
                         (KernelKind.T_KERNEL, t_form_naive)):
        op = KernelOperator(kind, n)
        for c in (rand, wit):
            w = c.weights
            assert math.isclose(float(w @ op.matvec(w)), oracle(c), rel_tol=1e-12)


def test_minimize_n1_trivial():
    res = minimize_quadratic(KernelSpec(KernelKind.V_KERNEL), 1)
    assert res.value == 0.5
    assert res.scaled_value == 0.5
    assert np.allclose(res.minimizer.weights, [1.0])


def test_closed_form_n2():
    v2 = minimize_quadratic(KernelSpec(KernelKind.V_KERNEL), 2, tolerance=1e-12)
    assert abs(v2.scaled_value - 5 / 6) < 1e-10
    t2 = minimize_quadratic(KernelSpec(KernelKind.T_KERNEL), 2, tolerance=1e-12)
    assert abs(t2.scaled_value - (1 + 1 / math.sqrt(2))) < 1e-10


def test_certificate_gap_bounds_suboptimality():
    res = minimize_quadratic(KernelSpec(KernelKind.T_KERNEL), 64, tolerance=1e-8)
    assert res.converged
    assert res.certificate_gap <= 1e-8 * res.value
    # The certified value can only beat any feasible point by <= gap.
    probe = WeightVector.uniform(64)
    assert res.value <= t_form_fast(probe) + res.certificate_gap


def test_minimizer_feasible_and_value_consistent():
    for kind, form in ((KernelKind.V_KERNEL, v_form), (KernelKind.T_KERNEL, t_form_fast)):
        res = minimize_quadratic(KernelSpec(kind), 40, tolerance=1e-10)
        w = res.minimizer.weights
        assert np.all(w >= 0)
        assert math.isclose(w.sum(), 1.0, abs_tol=1e-12)
        assert math.isclose(form(res.minimizer), res.value, rel_tol=1e-8)


def test_start_vector_respected_and_monotone():
    start = WeightVector.indicator([3], 8)
    res = minimize_quadratic(KernelSpec(KernelKind.V_KERNEL), 8, start=start,
                             tolerance=1e-10)
    assert res.value <= v_form(start) + 1e-12
    with pytest.raises(ValueError):
        minimize_quadratic(KernelSpec(KernelKind.V_KERNEL), 9, start=start)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        minimize_quadratic(KernelSpec(KernelKind.V_KERNEL), 0)
    with pytest.raises(ValueError):
        minimize_quadratic(KernelSpec(KernelKind.V_KERNEL), 3, tolerance=-1.0)
    with pytest.raises(ValueError):
        grid_oracle("V", 6, step=0.1)
    with pytest.raises(ValueError):
        grid_oracle("X", 3, step=0.1)


def test_grid_oracle_agreement_small_n():
    for n in (1, 2, 3, 4, 5):
        for kind, spec in (("V", KernelKind.V_KERNEL), ("T", KernelKind.T_KERNEL)):
            it = minimize_quadratic(KernelSpec(spec), n, tolerance=1e-12)
            go = grid_oracle(kind, n, step=1 / 40)
            assert abs(it.value - go.value) <= 1e-6
        em = minimize_energy(n, restarts=4, seed=0)
        ge = grid_oracle("E", n, step=1 / 40)
        assert em.value <= ge.value + 1e-4
        assert abs(em.value - ge.value) <= 1e-4


def test_energy_closed_form_n2():
    res = minimize_energy(2, restarts=3, seed=0)
    assert abs(res.scaled_value - 1.5) < 1e-8
    assert res.certificate_gap is None
    assert "non_certified" in res.provenance


def test_energy_result_feasible():
    res = minimize_energy(30, restarts=3, seed=1, sieve=build_sieve(64))
    w = res.minimizer.weights
    assert np.all(w >= 0)
    assert math.isclose(w.sum(), 1.0, abs_tol=1e-9)
    assert math.isclose(e_form(res.minimizer), res.value, rel_tol=1e-10)
    # No worse than the uniform vector.
    assert res.value <= e_form(WeightVector.uniform(30)) + 1e-12


def test_witness_chain_holds():
    sieve = build_sieve(2048)
    beta = solve_beta().beta
    for kind in KernelKind:
        res, wit_val = minimize_with_witness(kind, 2048, sieve, beta,
                                             max_iters=4000)
        assert res.value <= wit_val + 1e-12


def test_scaling_report_shape():
    rep = scaling_report("T", [16, 64, 256], tolerance=1e-6)
    rows = rep.values["rows"]
    assert [row["N"] for row in rows] == [16, 64, 256]
    assert all(row["scaled_inf"] > 0 for row in rows)
    assert rep.values["loglog_slope"] is not None
    with pytest.raises(ValueError):
        scaling_report("bogus", [4, 8])


def test_as_dict_serializable():
    import json

    res = minimize_quadratic(KernelSpec(KernelKind.T_KERNEL), 10)
    s = json.dumps(res.as_dict())
    assert '"objective_kind"' in s
