import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galmin import minimize
from galmin.arith import BudgetError, build_sieve
from galmin.constants import solve_beta
from galmin.extremal import witness_e, witness_t
from galmin.forms import (
    EnergyIndex,
    KernelKind,
    KernelOperator,
    WeightVector,
    e_form,
    kernel_block,
    t_form_fast,
    v_form,
    vt_forms_pairwise,
)
from galmin.minimize import (
    _batch_objective,
    _lattice_points,
    _scan_lattice,
    _slabs,
    _term_classes,
    exact_quadratic_minimum,
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
            dense = kernel_block(kind, idx, idx)
            sparse = rng.random(n)
            sparse[rng.random(n) < 0.92] = 0.0
            # The solver multiplies directions, which have negative entries.
            signed = rng.random(n) - 0.5
            for w in (rng.random(n), sparse, signed, np.zeros(n)):
                assert np.allclose(op.matvec(w), dense @ w, rtol=1e-12, atol=1e-15)


def _dense_product(kind, w):
    """K w from kernel_block, 512 rows at a time."""
    n = len(w)
    idx = np.arange(1, n + 1, dtype=np.int64)
    return np.concatenate([kernel_block(kind, idx[lo : lo + 512], idx) @ w
                           for lo in range(0, n, 512)])


# The bucket edges (padded widths 1, 2, 64 | 128, and 2^k +- 1), and two N
# at which 2N has a large prime factor (4570 = 2 * 5 * 457).
@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 127, 128, 129, 130, 4555, 4570])
@pytest.mark.parametrize("kind", list(KernelKind))
def test_bucketed_products_match_dense_blocks(kind, n):
    rng = np.random.default_rng(n)
    sparse = rng.random(n)
    sparse[rng.random(n) < 0.92] = 0.0
    op = KernelOperator(kind, n)
    for w in (rng.random(n), sparse):
        want = _dense_product(kind, w)
        got = op.matvec(w)
        assert got.shape == (n,)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert not op.matvec(np.zeros(n)).any()


def test_operator_form_matches_pairwise_oracle_at_1e4():
    # n > 65^2, so some FFT-sized divisor groups hold several d.
    n = 10_000
    wit = witness_t(build_sieve(n), n, solve_beta().beta).normalized()
    rand = WeightVector.from_weights(np.random.default_rng(4).random(n))
    ops = [KernelOperator(kind, n) for kind in (KernelKind.V_KERNEL, KernelKind.T_KERNEL)]
    for c in (rand, wit):
        w = c.weights
        for op, pairwise in zip(ops, vt_forms_pairwise(c)):
            assert math.isclose(float(w @ op.matvec(w)), pairwise, rel_tol=1e-12)


def test_minimize_n1_trivial():
    res = minimize_quadratic(KernelKind.V_KERNEL, 1)
    assert res.value == 0.5
    assert res.scaled_value == 0.5
    assert np.allclose(res.minimizer.weights, [1.0])


def test_closed_form_n2():
    v2 = minimize_quadratic(KernelKind.V_KERNEL, 2, tolerance=1e-12)
    assert abs(v2.scaled_value - 5 / 6) < 1e-10
    t2 = minimize_quadratic(KernelKind.T_KERNEL, 2, tolerance=1e-12)
    assert abs(t2.scaled_value - (1 + 1 / math.sqrt(2))) < 1e-10


def test_certificate_gap_bounds_suboptimality():
    res = minimize_quadratic(KernelKind.T_KERNEL, 64, tolerance=1e-8)
    assert res.converged
    assert res.certificate_gap <= 1e-8 * res.value
    # The certified value can only beat any feasible point by <= gap.
    probe = WeightVector.uniform(64)
    assert res.value <= t_form_fast(probe) + res.certificate_gap


def _spg_masked(op, w, tolerance, max_iters):
    """minimize_quadratic's loop written out plainly, with the fallback's
    away vertex searched in a masked copy of K w (rebuilt from w > 0 at each
    fallback). Returns (iterations, value, gap, stop reason, minimizer,
    products, fallback steps, refreshes, steps that shrink the support)."""
    n = len(w)
    w = w.copy()
    away_buf = np.empty(n)
    products = fallbacks = refreshes = drops = 0

    def exact():
        nonlocal products
        np.maximum(w, 0.0, out=w)
        np.divide(w, w.sum(), out=w)
        kw = op.matvec(w)
        products += 1
        value = float(w @ kw)
        return kw, value, 2.0 * value - 2.0 * kw.min().item()

    kw, value, gap = exact()
    is_exact = True
    alpha = 1.0 / (2.0 * kw.max().item())
    it, reason = 0, "max_iters"
    for it in range(1, max_iters + 1):
        if gap <= tolerance * max(value, 1e-300) and not is_exact:
            kw, value, gap = exact()
            is_exact = True
        if gap <= tolerance * max(value, 1e-300):
            reason = "gap_reached"
            break
        d = project_to_simplex(w - (2.0 * alpha) * kw) - w
        g_d = 2.0 * float(kw @ d)
        if not g_d < 0.0:
            np.copyto(away_buf, -np.inf)
            np.copyto(away_buf, kw, where=w > 0)
            s, a = int(np.argmin(kw)), int(np.argmax(away_buf))
            d = np.zeros(n)
            d[s], d[a] = w[a], -w[a]
            g_d = 2.0 * w[a].item() * (kw[s].item() - kw[a].item())
            fallbacks += 1
            if not g_d < 0.0:
                reason = "no_descent_step"
                break
        kd = op.matvec(d)
        products += 1
        d_kd = float(d @ kd)
        t = 1.0 if d_kd <= 0.0 else -g_d / (2.0 * d_kd)
        if not t > 0.0:
            reason = "no_descent_step"
            break
        support = np.count_nonzero(w)
        w += min(t, 1.0) * d
        drops += np.count_nonzero(w) < support
        kw += min(t, 1.0) * kd
        if d_kd > 0.0:
            alpha = float(d @ d) / (2.0 * d_kd)
        if it % minimize._REFRESH_EVERY == 0:
            kw, value, gap = exact()
            is_exact = True
            refreshes += 1
        else:
            value = float(w @ kw)
            gap = 2.0 * value - 2.0 * kw.min().item()
            is_exact = False
    if not is_exact:
        kw, value, gap = exact()
    return it, value, gap, reason, w, products, fallbacks, refreshes, drops


class _Scaled(KernelOperator):
    """D K D with D = diag(exp(5 sin i)): still positive semidefinite, but
    its diagonal spans e^-10..e^10, so the solves are ill-conditioned."""

    def __init__(self, kind, n):
        super().__init__(kind, n)
        self.d = np.exp(5.0 * np.sin(np.arange(1, n + 1)))

    def matvec(self, w):
        return self.d * super().matvec(self.d * w)


@pytest.mark.parametrize("start", ["uniform", "indicator", "dirichlet"])
@pytest.mark.parametrize("n", [1, 2, 8, 40, 300])
@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("operator", [KernelOperator, _Scaled])
def test_support_mask_matches_masked_copy(monkeypatch, operator, kind, n, start):
    rng = np.random.default_rng(n)
    w0 = {"uniform": np.full(n, 1.0 / n),
          "indicator": WeightVector.indicator([1 + n // 2], n).weights,
          "dirichlet": rng.dirichlet(np.ones(n))}[start]
    start_vec = WeightVector(n, w0)
    tol, iters = 1e-9, 1500
    want = _spg_masked(operator(kind, n), start_vec.normalized().weights, tol, iters)
    monkeypatch.setattr(minimize, "_QuadraticOperator", operator)
    res = minimize_quadratic(kind, n, tolerance=tol, max_iters=iters,
                             start=start_vec)
    got = (res.iterations, res.value, res.certificate_gap, res.stop_reason)
    assert got == want[:4]
    assert res.converged == (want[3] == "gap_reached")
    assert res.minimizer.weights.tobytes() == want[4].tobytes()
    assert (res.products, res.fallback_steps, res.refreshes) == want[5:8]
    # The runs take each branch that moves the support: pairwise fallback
    # steps and steps that zero a weight, and refreshes of K w.
    if n >= 40:
        assert want[6] > 0 and want[8] > 0
    if n == 300:
        assert want[7] > 0


def _direction_products(transform):
    """A KernelOperator whose products of vectors with a negative entry,
    the solver's directions, go through transform; the products of weight
    vectors stay exact."""
    class Perturbed(KernelOperator):
        def matvec(self, w):
            kw = super().matvec(w)
            return transform(kw) if (w < 0).any() else kw

    return Perturbed


def test_certificate_comes_from_an_exact_product(monkeypatch):
    # Direction products off by 1e-6 relative make the incrementally
    # updated K w drift from the exact one, so a gap test passed on it
    # certifies nothing.
    monkeypatch.setattr(minimize, "_QuadraticOperator",
                        _direction_products(lambda kd: kd * (1.0 + 1e-6)))
    tol, n = 1e-6, 40
    for kind in KernelKind:
        res = minimize_quadratic(kind, n, tolerance=tol)
        assert res.converged
        w = res.minimizer.weights
        kw = KernelOperator(kind, n).matvec(w)
        value = float(w @ kw)
        gap = 2.0 * value - 2.0 * float(kw.min())
        assert (res.value, res.certificate_gap) == (value, gap)
        assert 0.0 <= gap <= tol * value


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_stalled_step_is_not_converged(monkeypatch):
    # An infinite curvature along every direction gives a step of 0 while
    # the gap is still large: no gap test passed, so the run must not
    # report convergence.
    monkeypatch.setattr(minimize, "_QuadraticOperator",
                        _direction_products(lambda kd: np.full_like(kd, np.inf)))
    res = minimize_quadratic(KernelKind.V_KERNEL, 8, tolerance=1e-10)
    assert res.iterations == 1
    assert not res.converged
    assert res.certificate_gap > 1e-10 * res.value


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_each_quadratic_stop_reason_is_reached(monkeypatch):
    v = KernelKind.V_KERNEL
    res = minimize_quadratic(v, 8, tolerance=1e-6)
    assert (res.stop_reason, res.converged) == ("gap_reached", True)
    res = minimize_quadratic(v, 8, tolerance=1e-300, max_iters=5)
    assert (res.stop_reason, res.converged, res.iterations) == ("max_iters", False, 5)
    # The start, one direction a step and the returned point.
    assert res.products == 7
    monkeypatch.setattr(minimize, "_QuadraticOperator",
                        _direction_products(lambda kd: np.full_like(kd, np.inf)))
    res = minimize_quadratic(v, 8, tolerance=1e-10)
    assert (res.stop_reason, res.converged) == ("no_descent_step", False)
    assert res.as_dict()["stop_reason"] == "no_descent_step"


def test_counters_add_up():
    # Refreshes fall on iterations 64, 128 and 192 of 200; every product is
    # the start, a step's direction, a refresh or the returned point.
    res = minimize_quadratic(KernelKind.T_KERNEL, 300,
                             tolerance=1e-300, max_iters=200)
    assert (res.iterations, res.refreshes) == (200, 3)
    assert res.products == 1 + 200 + 3 + 1
    d = res.as_dict()
    assert (d["products"], d["fallback_steps"], d["refreshes"]) == (
        res.products, res.fallback_steps, res.refreshes)


def test_forced_pairwise_fallback_still_certifies(monkeypatch):
    # A projection that returns the uniform vector gives d = 0 at the
    # uniform start, so the first step must be the pairwise one.
    want = minimize_quadratic(KernelKind.V_KERNEL, 8, tolerance=1e-8)
    monkeypatch.setattr(minimize, "project_to_simplex",
                        lambda v: np.full(len(v), 1.0 / len(v)))
    res = minimize_quadratic(KernelKind.V_KERNEL, 8, tolerance=1e-8)
    assert res.fallback_steps > 0
    assert res.converged
    assert res.lower_bound <= want.value and want.lower_bound <= res.value


def test_each_energy_stop_reason_is_reached(monkeypatch):
    # N = 1: the only simplex point, so the first step does not move.
    assert minimize_energy(1, restarts=1).stop_reason == "small_move"
    res = minimize_energy(8, tolerance=1.0, restarts=1)
    assert (res.stop_reason, res.converged) == ("small_drop", True)
    with monkeypatch.context() as m:
        m.setattr(minimize, "_ENERGY_MAX_ITERS", 1)
        res = minimize_energy(8, restarts=1)
    assert (res.stop_reason, res.converged) == ("max_iters", False)
    # Every candidate is the vertex e_1, where E = 1 exceeds E(uniform).
    monkeypatch.setattr(minimize, "project_to_simplex",
                        lambda v: np.eye(len(v))[0])
    res = minimize_energy(2, restarts=1)
    assert (res.stop_reason, res.converged) == ("no_armijo_step", False)
    assert grid_oracle(2, step=0.5).stop_reason == "grid_scan"


def test_minimizer_feasible_and_value_consistent():
    for kind, form in ((KernelKind.V_KERNEL, v_form), (KernelKind.T_KERNEL, t_form_fast)):
        res = minimize_quadratic(kind, 40, tolerance=1e-10)
        w = res.minimizer.weights
        assert np.all(w >= 0)
        assert math.isclose(w.sum(), 1.0, abs_tol=1e-12)
        assert math.isclose(form(res.minimizer), res.value, rel_tol=1e-8)


def test_start_vector_respected_and_monotone():
    start = WeightVector.indicator([3], 8)
    res = minimize_quadratic(KernelKind.V_KERNEL, 8, start=start,
                             tolerance=1e-10)
    assert res.value <= v_form(start) + 1e-12
    with pytest.raises(ValueError):
        minimize_quadratic(KernelKind.V_KERNEL, 9, start=start)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        minimize_quadratic(KernelKind.V_KERNEL, 0)
    with pytest.raises(ValueError):
        minimize_quadratic(KernelKind.V_KERNEL, 3, tolerance=-1.0)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            minimize_quadratic(KernelKind.T_KERNEL, 8, tolerance=tol)
        with pytest.raises(ValueError, match="tolerance"):
            minimize_energy(3, tolerance=tol)
    with pytest.raises(ValueError, match="restarts"):
        minimize_energy(3, restarts=0)
    with pytest.raises(ValueError, match="N must be >= 1"):
        minimize_with_witness(KernelKind.V_KERNEL, 0, build_sieve(16), 0.5)
    with pytest.raises(ValueError):
        scaling_report("V", [0])
    with pytest.raises(ValueError):
        grid_oracle(6, step=0.1)
    with pytest.raises(ValueError, match="N >= 1"):
        grid_oracle(0, step=0.1)
    for step in (0.0, -0.5, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="step"):
            grid_oracle(3, step=step)


@pytest.mark.parametrize("K", [0, 1, 2, 7, 12])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lattice_points_match_product_reference(n, K):
    ref = np.array([p for p in itertools.product(range(K + 1), repeat=n)
                    if sum(p) == K], dtype=np.int64)
    pts = _lattice_points(n, K)
    assert np.array_equal(pts, ref)
    assert pts.dtype == np.int64
    assert len(pts) == math.comb(K + n - 1, n - 1)


@pytest.mark.parametrize("K", [1, 2, 7, 12])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lattice_slab_is_the_lattice_with_its_first_coordinate(n, K):
    # Each slab of the shared template, its rows put in template-index
    # order, is the lattice's slab of first coordinate k0 with its bits.
    lattice = _lattice_points(n, K)
    k0 = -1
    for k0, (pts, rank) in enumerate(_slabs(n, K)):
        want = lattice[lattice[:, 0] == k0] / K
        got = pts[np.argsort(rank)]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert k0 == K


def _oracle_batches(N, K):
    """The batches grid_oracle evaluates at step 1/K, as its scan passes
    them to _batch_objective: the whole lattice in one batch, and the slabs
    a lattice too large for one batch takes (forced by _ONE_BATCH_POINTS
    = 0); then refinement candidates around a lattice point at three step
    sizes, formed as grid_oracle forms them."""
    batches = []
    real = minimize._batch_objective

    def record(pts, terms):
        # Copied as coordinate rows: the next slab overwrites the view.
        batches.append(np.ascontiguousarray(pts.T).T)
        return real(pts, terms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimize, "_batch_objective", record)
        for one_batch in (minimize._ONE_BATCH_POINTS, 0):
            mp.setattr(minimize, "_ONE_BATCH_POINTS", one_batch)
            _scan_lattice(N, K, _term_classes(N))
    moves = np.indices((5,) * N).reshape(N, -1) - 2
    deltas = moves[:, moves.sum(axis=0) == 0].astype(np.float64)
    w = _lattice_points(N, K)[len(batches[0]) // 2] / K
    for h in (1 / (2 * K), 1e-3, 1e-9):
        cand = w[:, None] + h * deltas
        cand = np.clip(cand[:, (cand >= -1e-15).all(axis=0)], 0.0, None)
        batches.append((cand / cand.sum(axis=0)).T)
    return batches


def _use_quadratic_objective(monkeypatch, kind):
    """Point grid_oracle's scan and refinement at x^T K x, K the kernel_block
    of kind ("V" or "T"), in place of E: the same lattice machinery on a form
    whose exact minimum exact_quadratic_minimum knows. Elementwise over
    coordinate rows, as _batch_objective is, so a point's value has the same
    bits in any batch."""
    def kernel(n):
        idx = np.arange(1, n + 1, dtype=np.int64)
        return kernel_block(KernelKind(kind.lower()), idx, idx)

    def objective(pts, kmat):
        x = pts.T
        return sum(kmat[i, j] * x[i] * x[j]
                   for i in range(len(x)) for j in range(len(x)))

    monkeypatch.setattr(minimize, "_term_classes", kernel)
    monkeypatch.setattr(minimize, "_batch_objective", objective)


def _e_by_columns(pts):
    """E of each row of pts, r built one product column at a time."""
    n = pts.shape[1]
    r = np.zeros((len(pts), n * n + 1))
    for i in range(n):
        for j in range(n):
            r[:, (i + 1) * (j + 1)] += pts[:, i] * pts[:, j]
    return (r * r).sum(axis=1)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_batch_objective_is_batch_invariant(N):
    terms = _term_classes(N)
    for pts in _oracle_batches(N, 12):
        vals = _batch_objective(pts, terms)
        alone = np.array([_batch_objective(pts[b:b + 1], terms)[0]
                          for b in range(len(pts))])
        assert np.array_equal(alone.view(np.int64), vals.view(np.int64))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_batch_objective_matches_reference_forms(N):
    # Every term is nonnegative and a value sums at most N^2 = 25 products,
    # so float64 rounding stays within a few dozen ulp: rel 1e-14 is ~45.
    terms = _term_classes(N)
    for pts in _oracle_batches(N, 12):
        want = _e_by_columns(pts)
        got = _batch_objective(pts, terms)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_grid_oracle_memory_budget(monkeypatch):
    # 635,376 points at N = 5: about 300 MB for E, within the default budget.
    monkeypatch.setattr("galmin.arith.BYTES_BUDGET", 100 << 20)
    with pytest.raises(BudgetError):
        grid_oracle(5, step=1 / 60)


def _one_shot_argmin(N, K):
    # Read through the module, which _use_quadratic_objective may patch.
    pts = _lattice_points(N, K) / K
    vals = minimize._batch_objective(pts, minimize._term_classes(N))
    best = int(np.argmin(vals))
    return pts[best], vals[best]


# E's minima lie inside the simplex, V's too; T's at N = 5 lies on the
# face x_1 = 0, the scan's first slab.
@pytest.mark.parametrize("K", [1, 2, 7, 12, 40])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["V", "T", "E"])
def test_scan_lattice_matches_one_shot_argmin(monkeypatch, kind, N, K):
    if kind != "E":
        _use_quadratic_objective(monkeypatch, kind)
    want_w, want_val = _one_shot_argmin(N, K)
    # _ONE_BATCH_POINTS = 0 scans every lattice at N >= 3 slab by slab.
    for one_batch in (minimize._ONE_BATCH_POINTS, 0):
        monkeypatch.setattr(minimize, "_ONE_BATCH_POINTS", one_batch)
        w, val = _scan_lattice(N, K, minimize._term_classes(N))
        assert val == want_val
        assert np.array_equal(w, want_w)


@pytest.mark.parametrize("kind", ["V", "T", "E"])
def test_scan_lattice_matches_one_shot_argmin_at_step_1_60(monkeypatch, kind):
    # E: the oracle call of verify-all at N = 5, where the scan takes slabs.
    if kind != "E":
        _use_quadratic_objective(monkeypatch, kind)
    want_w, want_val = _one_shot_argmin(5, 60)
    w, val = _scan_lattice(5, 60, minimize._term_classes(5))
    assert val == want_val
    assert np.array_equal(w, want_w)


@pytest.mark.parametrize("one_batch", [None, 0])
@pytest.mark.parametrize("N, K", [(1, 7), (2, 7), (3, 7), (4, 12), (5, 12), (5, 40)])
def test_scan_lattice_keeps_the_lexicographically_first_tie(monkeypatch, N, K,
                                                           one_batch):
    if one_batch is not None:
        monkeypatch.setattr(minimize, "_ONE_BATCH_POINTS", one_batch)
    # Every point ties: the first lattice point wins.
    monkeypatch.setattr(minimize, "_batch_objective",
                        lambda pts, terms: np.zeros(len(pts)))
    w, val = _scan_lattice(N, K, None)
    assert val == 0.0
    assert np.array_equal(w, np.eye(N)[-1])
    if N < 4:
        return
    # Ties of different middle-coordinate sums: m = (0, 2) comes before
    # m = (1, 0) in the lattice, though its sum is larger.
    def tied(pts, terms):
        m = np.rint(pts * K)
        return np.abs(2 * m[:, 1] + m[:, 2] - 2).astype(np.float64)

    monkeypatch.setattr(minimize, "_batch_objective", tied)
    w, val = _scan_lattice(N, K, None)
    assert val == 0.0
    assert np.array_equal(np.rint(w * K), [0, 0, 2] + [0] * (N - 4) + [K - 2])


@pytest.mark.parametrize("one_batch", [None, 0])
@pytest.mark.parametrize("N, K", [(1, 7), (2, 12), (3, 12), (4, 40), (5, 40)])
def test_scan_lattice_evaluates_each_point_once(monkeypatch, N, K, one_batch):
    if one_batch is not None:
        monkeypatch.setattr(minimize, "_ONE_BATCH_POINTS", one_batch)
    rows = []
    real = minimize._batch_objective

    def counted(pts, terms):
        rows.append(len(pts))
        return real(pts, terms)

    monkeypatch.setattr(minimize, "_batch_objective", counted)
    _scan_lattice(N, K, _term_classes(N))
    n_points = math.comb(K + N - 1, N - 1)
    assert sum(rows) == n_points
    one = N <= 2 or n_points <= minimize._ONE_BATCH_POINTS
    assert len(rows) == (1 if one else K + 1)


def test_grid_oracle_scans_one_slab_at_a_time():
    # The whole E lattice at N = 5, step 1/60, takes about 281 MiB at once.
    tracemalloc.start()
    try:
        grid_oracle(5, step=1 / 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_grid_oracle_agreement_small_n():
    for n in (1, 2, 3, 4, 5):
        em = minimize_energy(n, restarts=4, seed=0)
        ge = grid_oracle(n, step=1 / 40)
        assert em.value <= ge.value + 1e-4
        assert abs(em.value - ge.value) <= 1e-4


def test_exact_minimum_values():
    from decimal import Decimal, localcontext
    from fractions import Fraction

    v2 = exact_quadratic_minimum(KernelKind.V_KERNEL, 2)
    assert v2.exact == Fraction(5, 12) and v2.value == 5 / 12
    with localcontext() as ctx:
        ctx.prec = 60
        t2_closed = (1 + 1 / Decimal(2).sqrt()) / 2
        t2 = exact_quadratic_minimum(KernelKind.T_KERNEL, 2)
        assert abs(t2.exact - t2_closed) < Decimal("1e-40")
    assert t2.value == float(t2_closed)
    for n, want in ((3, Fraction(371, 1102)), (4, Fraction(83333, 281860)),
                    (5, Fraction(3457363099, 14161720778))):
        res = exact_quadratic_minimum(KernelKind.V_KERNEL, n)
        assert res.exact == want and res.support == tuple(range(1, n + 1))
    assert exact_quadratic_minimum(KernelKind.T_KERNEL, 5).support == (2, 3, 4, 5)


@pytest.mark.parametrize("N", range(1, 13))
@pytest.mark.parametrize("kind", list(KernelKind))
def test_lower_bound_is_below_the_exact_minimum(kind, N):
    res = minimize_quadratic(kind, N, tolerance=1e-12)
    exact = exact_quadratic_minimum(kind, N).exact
    assert res.lower_bound < res.value - res.certificate_gap
    assert res.lower_bound <= exact <= res.value * (1 + 1e-12)


@pytest.mark.parametrize("step", [1 / 40, 1 / 60])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["V", "T"])
def test_grid_oracle_lies_just_above_the_exact_minimum(monkeypatch, kind, N, step):
    # E has no exact minimum to check the oracle's scan and refinement
    # against; the convex V and T forms, run through the same code, do.
    exact = exact_quadratic_minimum(KernelKind(kind.lower()), N).value
    _use_quadratic_objective(monkeypatch, kind)
    grid = grid_oracle(N, step).value
    assert exact - 1e-15 <= grid <= exact * (1 + 1e-12)


def test_exact_minimum_rejects_bad_input_before_it_enumerates(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(minimize, "kernel_block", refuse)
    monkeypatch.setattr(minimize, "gcd_block", refuse)
    for kind in KernelKind:
        with pytest.raises(BudgetError):
            exact_quadratic_minimum(kind, minimize._EXACT_MAX_N + 1)
        for n in (0, -1):
            with pytest.raises(ValueError, match="N >= 1"):
                exact_quadratic_minimum(kind, n)
    # The form is named by its KernelKind member, never by a string.
    for kind in ("V", "v", "E"):
        with pytest.raises(ValueError, match="kind"):
            exact_quadratic_minimum(kind, 3)


@pytest.mark.parametrize("kind", ["v", "V", None])
def test_operator_and_solver_take_their_kind_as_a_member(kind):
    # A string or None is a usage error naming the kind, raised before the
    # budget check reads kind.value.
    with pytest.raises(ValueError, match="unknown kernel kind"):
        KernelOperator(kind, 4)
    with pytest.raises(ValueError, match="unknown kernel kind"):
        minimize_quadratic(kind, 4)


def test_exact_minimum_returns_only_a_checked_value(monkeypatch):
    # Each float candidate goes to the exact check; when none passes, the
    # oracle raises rather than return a float value.
    seen = []

    def fail(a, b, N, support, slack):
        seen.append(tuple(support))
        return None

    monkeypatch.setattr(minimize, "_kkt_value", fail)
    with pytest.raises(ArithmeticError, match="exact T check"):
        exact_quadratic_minimum(KernelKind.T_KERNEL, 5)
    assert seen and seen[0] == (2, 3, 4, 5)


def test_import_does_not_load_the_exact_number_types():
    import galmin

    src = str(Path(galmin.__file__).resolve().parent.parent)
    code = ("import sys, galmin, galmin.cli; "
            "print('fractions' in sys.modules, 'decimal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False False"


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


def test_energy_converged_only_when_the_run_stalls(monkeypatch):
    # Every start at N = 64 takes more than one step before it stalls.
    assert minimize_energy(64, restarts=4, seed=0).converged
    with monkeypatch.context() as m:
        m.setattr(minimize, "_ENERGY_MAX_ITERS", 1)
        assert not minimize_energy(64, restarts=4, seed=0).converged
    # A projection onto the vertex e_1, worse than any start, fails every
    # Armijo search.
    monkeypatch.setattr("galmin.minimize.project_to_simplex",
                        lambda v: np.eye(len(v))[0])
    assert not minimize_energy(64, restarts=2, seed=0).converged


def test_energy_value_is_e_form_at_minimizer():
    # The run reuses each accepted candidate's r; a stale r would show
    # here, and so would a minimizer changed after it was scored.
    res = minimize_energy(64, restarts=4, seed=0, sieve=build_sieve(64))
    assert res.value == e_form(res.minimizer)


def _doubling_pgd(index, w0, tol):
    """The E loop before the spectral trial step: try twice the last
    accepted step, then halve until the Armijo test passes."""
    w = w0.copy()
    r = index.counts(w)
    val = float(r @ r)
    step = 1.0
    it = 0
    reason = "max_iters"
    for it in range(1, minimize._ENERGY_MAX_ITERS + 1):
        grad = index.gradient(r, w)
        improved = False
        for _ in range(60):
            cand = project_to_simplex(w - step * grad)
            cand_r = index.counts(cand)
            cand_val = float(cand_r @ cand_r)
            if cand_val <= val - 1e-4 * float(grad @ (w - cand)):
                improved = True
                break
            step *= 0.5
        if not improved:
            reason = "no_armijo_step"
            break
        move = float(np.abs(cand - w).sum())
        rel_drop = (val - cand_val) / max(val, 1e-300)
        w, val, r = cand, cand_val, cand_r
        step = min(step * 2.0, 1e6)
        if move < 1e-14 or rel_drop < tol * 1e-3:
            reason = "small_move" if move < 1e-14 else "small_drop"
            break
    return w, val, it, reason


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_energy_bound_no_worse_than_the_doubling_search(monkeypatch, tol):
    sieve = build_sieve(128)
    cases = list(itertools.product([4, 12, 32, 64, 128], [0, 3]))
    got = [minimize_energy(N, tolerance=tol, seed=seed, sieve=sieve).value
           for N, seed in cases]
    monkeypatch.setattr(minimize, "_pgd_energy", _doubling_pgd)
    for (N, seed), value in zip(cases, got):
        ref = minimize_energy(N, tolerance=tol, seed=seed, sieve=sieve)
        assert value <= ref.value * (1 + 1e-12), (N, seed, value, ref.value)


def test_energy_spectral_step_saves_counts(monkeypatch):
    # The doubling search alone takes 15,870 counts here.
    calls = []
    counts = EnergyIndex.counts

    def counted(self, w):
        calls.append(1)
        return counts(self, w)

    monkeypatch.setattr(EnergyIndex, "counts", counted)
    res = minimize_energy(32, restarts=4, seed=0, tolerance=1e-12)
    assert res.converged
    assert len(calls) <= 500


def test_energy_restarts_share_one_index(monkeypatch):
    builds = []
    init = EnergyIndex.__init__

    def counted(self, n):
        builds.append(n)
        init(self, n)

    monkeypatch.setattr(EnergyIndex, "__init__", counted)
    minimize_energy(64, restarts=4)
    assert builds == [64]


def test_energy_at_512_keeps_its_value_across_the_tiles():
    # Criterion 12's N = 512 row. 4.410993948058318 is the scaled value that
    # one bincount over all N^2 ordered pairs gave; the tiles add r in
    # another order, which may move it only at round-off.
    res = minimize_energy(512, tolerance=1e-12, seed=0, sieve=build_sieve(512))
    assert math.isclose(res.scaled_value, 4.410993948058318, rel_tol=1e-12)


def _stub_energy_solves(monkeypatch, record):
    """Replace every restart's solve by one that passes its start to record
    and returns it unchanged at the value 1.0."""
    def solve(index, w0, tol):
        record(w0)
        return w0, 1.0, 1, "small_move"

    monkeypatch.setattr(minimize, "_pgd_energy", solve)


def test_energy_starts_are_uniform_witness_then_seeded_draws(monkeypatch):
    starts = []
    _stub_energy_solves(monkeypatch, starts.append)
    sieve = build_sieve(64)
    minimize_energy(64, restarts=5, seed=3, sieve=sieve)
    rng = np.random.default_rng(3)
    want = [np.full(64, 1 / 64), witness_e(sieve, 64).normalized().weights]
    want += [rng.dirichlet(np.ones(64)) for _ in range(3)]
    assert len(starts) == len(want)
    for got, w in zip(starts, want):
        assert np.array_equal(got, w)


def test_energy_restarts_hold_one_start_at_a_time(monkeypatch):
    # All 8,000 start vectors at N = 512 would take about 31 MiB at once.
    sieve = build_sieve(512)

    def peak(restarts):
        solves = []
        with monkeypatch.context() as m:
            _stub_energy_solves(m, lambda w0: solves.append(len(w0)))
            tracemalloc.start()
            try:
                minimize_energy(512, restarts=restarts, sieve=sieve)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                assert solves == [512] * restarts

    # 64 KiB covers bookkeeping, such as the list of solves.
    assert peak(8000) <= peak(4) + (64 << 10)


def test_energy_spectral_failure_falls_back_to_the_search():
    # Without the backtracking fallback this run ends on no_armijo_step.
    res = minimize_energy(256, restarts=4, seed=0, sieve=build_sieve(256))
    assert res.converged
    assert res.stop_reason in ("small_move", "small_drop")


def test_witness_chain_holds():
    sieve = build_sieve(2048)
    beta = solve_beta().beta
    for kind in KernelKind:
        res, wit_val = minimize_with_witness(kind, 2048, sieve, beta,
                                             max_iters=4000)
        assert res.value <= wit_val + 1e-12
        assert res.converged and res.lower_bound <= res.value


def test_start_is_retained_when_the_solve_ends_above_it(monkeypatch):
    # Exact line search is monotone, so only round-off could end a solve
    # above its start; a solve reporting a worse value stands in for it.
    real = minimize.minimize_quadratic
    solved = []

    def worse(*args, **kwargs):
        solved.append(real(*args, **kwargs))
        return dataclasses.replace(solved[-1], value=1.0)

    monkeypatch.setattr(minimize, "minimize_quadratic", worse)
    N = 64
    res, wit_val = minimize_with_witness(KernelKind.T_KERNEL, N, build_sieve(N),
                                         solve_beta().beta)
    u = WeightVector.uniform(N).weights
    start_value = min(wit_val, float(u @ KernelOperator(KernelKind.T_KERNEL, N).matvec(u)))
    assert res.value == start_value and res.scaled_value == N * start_value
    assert not res.converged and res.provenance.endswith(";start_retained")
    assert res.lower_bound == solved[0].lower_bound <= res.value


@pytest.mark.parametrize("kind", list(KernelKind))
def test_witness_start_raises_on_a_wrong_input(kind):
    # A sieve shorter than N and a NaN beta are usage errors; neither may
    # report the uniform vector's value as the witness value.
    beta = solve_beta().beta
    with pytest.raises(ValueError, match="sieve"):
        minimize_with_witness(kind, 100, build_sieve(50), beta)
    with pytest.raises(ValueError):
        minimize_with_witness(kind, 100, build_sieve(100), math.nan)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_witness_start_below_its_domain_is_the_uniform_vector(kind):
    N = 15
    res, wit_val = minimize_with_witness(kind, N, build_sieve(16),
                                         solve_beta().beta, max_iters=50)
    u = WeightVector.uniform(N).weights
    assert math.isnan(wit_val)
    assert res.value <= float(u @ KernelOperator(kind, N).matvec(u))


@pytest.mark.parametrize("form", ["V", "T"])
def test_scaling_report_holds_one_operator_at_a_time(monkeypatch, form):
    # Each witness solve builds one operator, and the last row's is dead
    # before the next row builds its own.
    built = []

    class Tracked(KernelOperator):
        def __init__(self, kind, n):
            assert all(ref() is None for ref in built)
            super().__init__(kind, n)
            built.append(weakref.ref(self))

    monkeypatch.setattr(minimize, "_QuadraticOperator", Tracked)
    scaling_report(form, [16, 64, 256])
    assert len(built) == 3


def test_minimize_quadratic_rejects_another_kernels_operator():
    with pytest.raises(ValueError, match="operator"):
        minimize_quadratic(KernelKind.V_KERNEL, 10,
                           operator=KernelOperator(KernelKind.T_KERNEL, 10))
    with pytest.raises(ValueError, match="operator"):
        minimize_quadratic(KernelKind.T_KERNEL, 10,
                           operator=KernelOperator(KernelKind.T_KERNEL, 11))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_energy_below_the_witness_domain_ignores_the_sieve(N):
    with_sieve = minimize_energy(N, restarts=4, seed=5, sieve=build_sieve(16))
    without = minimize_energy(N, restarts=4, seed=5)
    assert with_sieve.as_dict() == without.as_dict()
    assert np.array_equal(with_sieve.minimizer.weights, without.minimizer.weights)


@pytest.mark.parametrize("form,at_16", [("V", 0.5), ("T", 1.0)])
def test_scaling_vt_rows_below_the_witness_domain_report_nan(form, at_16):
    # witness_t starts at N = 16, where the witness is {1}.
    rows = scaling_report(form, [4, 8, 15, 16]).values["rows"]
    assert all(math.isnan(row["witness_value"]) for row in rows[:3])
    assert rows[3]["witness_value"] == pytest.approx(at_16, rel=1e-12)


def test_scaling_e_rows_below_the_witness_domain_report_nan():
    rows = scaling_report("E", [2, 3, 4]).values["rows"]
    assert [math.isnan(row["witness_value"]) for row in rows] == [True, True, False]


def test_scaling_report_hands_its_tolerance_to_the_energy_solve(monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs["tolerance"])
        return minimize_energy(*args, **kwargs)

    monkeypatch.setattr(minimize, "minimize_energy", spy)
    for tol in (1e-3, 1e-8):
        rep = scaling_report("E", [8], tolerance=tol)
        assert rep.parameters["tolerance"] == tol
    assert seen == [1e-3, 1e-8]


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

    res = minimize_quadratic(KernelKind.T_KERNEL, 10)
    s = json.dumps(res.as_dict())
    assert '"objective_kind"' in s
