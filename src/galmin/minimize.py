"""Simplex-constrained minimization of the V, T and E forms.

V and T are convex quadratics (both kernels are positive semidefinite), so a
conditional-gradient method with a duality-gap certificate applies; away
steps and exact line search are used for linear convergence. E is quartic
and not certified convex: projected gradient descent with restarts yields an
upper bound only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import BudgetError, FactorSieve
from .forms import (
    KernelKind,
    KernelOperator as _QuadraticOperator,  # the name perfbench traces
    KernelSpec,
    WeightVector,
    e_form,
    e_gradient,
    v_form,  # noqa: F401  perfbench's tracer test reads minimize.v_form
)

_GRID_POINT_CAP = 20_000_000
# Full products refresh the incrementally updated K w every this many steps.
_REFRESH_EVERY = 256


@dataclass(frozen=True)
class MinimizationResult:
    objective_kind: str  # "V", "T" or "E"
    n: int
    minimizer: WeightVector = field(repr=False)
    value: float
    scaled_value: float
    iterations: int
    certificate_gap: float | None  # None: not applicable (E)
    converged: bool = True
    provenance: str = ""

    def as_dict(self) -> dict:
        return {
            "objective_kind": self.objective_kind,
            "n": self.n,
            "value": self.value,
            "scaled_value": self.scaled_value,
            "iterations": self.iterations,
            "certificate_gap": self.certificate_gap,
            "converged": self.converged,
            "provenance": self.provenance,
            "minimizer_support_size": int(np.count_nonzero(self.minimizer.weights)),
        }


def minimize_quadratic(
    kernel: KernelSpec,
    N: int,
    tolerance: float = 1e-6,
    max_iters: int = 200_000,
    start: WeightVector | None = None,
) -> MinimizationResult:
    """Minimize c^T K c over the probability simplex by away-step
    Frank-Wolfe with exact line search.

    Terminates when the duality gap drops below tolerance * value; the
    returned value is then within certificate_gap of the true minimum.
    Coordinate ties are broken by smallest index.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    kind_name = "V" if kernel.kind is KernelKind.V_KERNEL else "T"
    op = _QuadraticOperator(kernel.kind, N)

    if start is not None:
        if start.n_max != N:
            raise ValueError("start vector dimension mismatch")
        w = start.normalized().weights.copy()
    else:
        w = np.full(N, 1.0 / N)

    kw = op.matvec(w)
    value = float(w @ kw)
    gap = math.inf
    it = 0
    converged = False
    for it in range(1, max_iters + 1):
        grad = 2.0 * kw
        s = int(np.argmin(grad))  # smallest-index tie-break via argmin
        gap = float(grad @ w - grad[s])
        if gap <= tolerance * max(value, 1e-300):
            converged = True
            break

        supp = np.flatnonzero(w > 0)
        a = int(supp[np.argmax(grad[supp])])
        fw_improve = gap
        away_improve = float(grad[a] - grad @ w)

        if fw_improve >= away_improve or w[a] >= 1.0 - 1e-16:
            # Frank-Wolfe step towards vertex s: d = e_s - w.
            kcol = op.column(s + 1)
            d_kd = value - 2.0 * kw[s] + kcol[s]
            g_d = float(grad[s] - grad @ w)
            gamma_max = 1.0
            kd = kcol - kw
        else:
            # Away step from vertex a: d = w - e_a.
            kcol = op.column(a + 1)
            d_kd = value - 2.0 * kw[a] + kcol[a]
            g_d = float(grad @ w - grad[a])
            gamma_max = w[a] / (1.0 - w[a])
            kd = kw - kcol
        if d_kd <= 0:
            gamma = gamma_max
        else:
            gamma = min(gamma_max, -g_d / (2.0 * d_kd))
        if gamma <= 0:
            converged = True
            break
        if fw_improve >= away_improve or w[a] >= 1.0 - 1e-16:
            w = (1.0 - gamma) * w
            w[s] += gamma
        else:
            w = (1.0 + gamma) * w
            w[a] -= gamma
            w[a] = max(w[a], 0.0)
        kw = kw + gamma * kd
        value = float(w @ kw)
        if it % _REFRESH_EVERY == 0:
            kw = op.matvec(w)
            value = float(w @ kw)

    w = np.maximum(w, 0.0)
    w /= w.sum()
    minimizer = WeightVector(N, w)
    return MinimizationResult(
        objective_kind=kind_name,
        n=N,
        minimizer=minimizer,
        value=value,
        scaled_value=N * value,
        iterations=it,
        certificate_gap=gap,
        converged=converged,
        provenance="frank_wolfe(away_steps,exact_line_search)",
    )


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, len(v) + 1)
    cond = u - css / k > 0
    rho = k[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _pgd_energy(w0: np.ndarray, max_iters: int, tol: float) -> tuple[np.ndarray, float, int]:
    """Projected gradient descent with Armijo backtracking on E(c;N)."""
    n = len(w0)
    w = w0.copy()
    val = e_form(WeightVector(n, w))
    step = 1.0
    it = 0
    for it in range(1, max_iters + 1):
        grad = e_gradient(WeightVector(n, w))
        improved = False
        for _ in range(60):
            cand = project_to_simplex(w - step * grad)
            cand_val = e_form(WeightVector(n, cand))
            # Armijo: sufficient decrease against the projected move.
            if cand_val <= val - 1e-4 * float(grad @ (w - cand)):
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        move = float(np.abs(cand - w).sum())
        rel_drop = (val - cand_val) / max(val, 1e-300)
        w, val = cand, cand_val
        step = min(step * 2.0, 1e6)
        if move < 1e-14 or rel_drop < tol * 1e-3:
            break
    return w, val, it


def minimize_energy(
    N: int,
    tolerance: float = 1e-10,
    restarts: int = 4,
    seed: int = 0,
    max_iters: int = 5000,
    sieve: FactorSieve | None = None,
) -> MinimizationResult:
    """Best-of-restarts upper bound on the energy infimum (non-certified).

    Starts: uniform, the half-interval witness when a sieve is supplied,
    and seeded random Dirichlet points.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    starts: list[tuple[str, np.ndarray]] = [("uniform", np.full(N, 1.0 / N))]
    if sieve is not None and N >= 4:
        from .extremal import EmptyWitnessError, witness_e

        try:
            wit = witness_e(sieve, N).normalized()
            starts.append(("witness_e", wit.weights))
        except EmptyWitnessError:
            pass
    rng = np.random.default_rng(seed)
    while len(starts) < max(restarts, 1):
        starts.append(("dirichlet", rng.dirichlet(np.ones(N))))

    best_w, best_val, best_tag, total_it = None, math.inf, "", 0
    for tag, w0 in starts[: max(restarts, 1)]:
        w, val, it = _pgd_energy(w0, max_iters, tolerance)
        total_it += it
        if val < best_val:
            best_w, best_val, best_tag = w, val, tag

    # Clamp tiny negatives from projection round-off and renormalize.
    best_w = np.maximum(best_w, 0.0)
    best_w /= best_w.sum()
    return MinimizationResult(
        objective_kind="E",
        n=N,
        minimizer=WeightVector(N, best_w),
        value=best_val,
        scaled_value=N * N * best_val,
        iterations=total_it,
        certificate_gap=None,
        converged=True,
        provenance=f"pgd(best_of={len(starts[:max(restarts,1)])},start={best_tag});upper_bound_non_certified",
    )


def default_quadratic_iters(kind: KernelKind, N: int) -> int:
    """Default Frank-Wolfe iteration budget for one minimization.

    The scaling rows of acceptance criterion 12 and of the ``scaling`` CLI
    command are pinned to these values, so they stay fixed although a V
    product no longer costs more than a few T products.
    """
    if kind is KernelKind.T_KERNEL:
        return 200_000 if N <= 4096 else 50_000
    if N <= 4096:
        return 200_000
    if N <= 16_384:
        return 20_000
    return 2_000


def minimize_with_witness(
    kind: KernelKind,
    N: int,
    sieve: FactorSieve,
    beta: float,
    tolerance: float = 1e-6,
    max_iters: int | None = None,
    witness_c: float = 3.0,
) -> tuple[MinimizationResult, float]:
    """Quadratic minimization started from the better of the uniform vector
    and the normalized level-set witness; returns (result, witness value).

    Starting at (or below) the witness makes result.value <= witness value
    a monotonicity guarantee rather than a convergence hope.
    """
    from .extremal import EmptyWitnessError, witness_t

    if max_iters is None:
        max_iters = default_quadratic_iters(kind, N)
    op = _QuadraticOperator(kind, N)

    def objective(c: WeightVector) -> float:
        return float(c.weights @ op.matvec(c.weights))

    try:
        wit = witness_t(sieve, N, beta, C=witness_c).normalized()
    except (EmptyWitnessError, ValueError):
        wit = WeightVector.uniform(N)
    uniform = WeightVector.uniform(N)
    wit_value, uniform_value = objective(wit), objective(uniform)
    start = wit if wit_value <= uniform_value else uniform
    res = minimize_quadratic(KernelSpec(kind), N, tolerance=tolerance,
                             max_iters=max_iters, start=start)
    if res.value > min(wit_value, uniform_value):
        # Line-search FW is monotone, so this can only be float noise.
        res = MinimizationResult(
            objective_kind=res.objective_kind, n=N, minimizer=start,
            value=min(wit_value, uniform_value),
            scaled_value=N * min(wit_value, uniform_value),
            iterations=res.iterations, certificate_gap=res.certificate_gap,
            converged=False, provenance=res.provenance + ";start_retained",
        )
    return res, wit_value


def scaling_report(
    objective_kind: str,
    n_list,
    tolerance: float = 1e-6,
    sieve: FactorSieve | None = None,
    seed: int = 0,
):
    """Exploratory table of scaled infimum estimates against witness values.

    The log-log slope fitted against log log N is recorded for inspection
    only; asymptotic exponents are not acceptance targets at desk scale.
    """
    from .arith import build_sieve
    from .constants import solve_beta
    from .extremal import EmptyWitnessError, witness_e
    from .report import ExperimentReport, Timer

    if objective_kind not in ("V", "T", "E"):
        raise ValueError(f"unknown objective kind {objective_kind!r}")
    n_list = [int(n) for n in n_list]
    if sieve is None:
        sieve = build_sieve(max(max(n_list), 16))
    beta = solve_beta().beta

    rows = []
    with Timer() as tm:
        for n in n_list:
            if objective_kind == "E":
                res = minimize_energy(n, tolerance=1e-12, restarts=4,
                                      seed=seed, sieve=sieve)
                try:
                    wit_val = e_form(witness_e(sieve, n).normalized()) if n >= 4 else res.value
                except EmptyWitnessError:
                    wit_val = float("nan")
                gap = None
            else:
                kind = KernelKind.V_KERNEL if objective_kind == "V" else KernelKind.T_KERNEL
                res, wit_val = minimize_with_witness(kind, n, sieve, beta,
                                                     tolerance=tolerance)
                gap = res.certificate_gap
            rows.append({
                "N": n,
                "raw_inf": res.value,
                "scaled_inf": res.scaled_value,
                "witness_value": wit_val,
                "gap": gap,
            })

    slope = None
    if len(rows) >= 2:
        xs = np.array([math.log(math.log(max(row["N"], 3))) for row in rows])
        ys = np.array([math.log(row["scaled_inf"]) for row in rows])
        if np.ptp(xs) > 0:
            slope = float(np.polyfit(xs, ys, 1)[0])

    rep = ExperimentReport(
        "scaling",
        parameters={"form": objective_kind, "n_list": n_list,
                    "tolerance": tolerance, "seed": seed},
        values={"rows": rows, "loglog_slope": slope,
                "note": "exploratory; no asymptotic exponent asserted"},
    )
    rep.timing_ms = tm.ms
    return rep


def _lattice_points(n: int, K: int) -> np.ndarray:
    """All integer vectors of length n with nonnegative entries summing to K."""
    if n == 1:
        return np.array([[K]], dtype=np.int64)
    rows = []
    for k in range(K + 1):
        rest = _lattice_points(n - 1, K - k)
        first = np.full((len(rest), 1), k, dtype=np.int64)
        rows.append(np.hstack([first, rest]))
    return np.vstack(rows)


def _batch_objective(kind: str, pts: np.ndarray) -> np.ndarray:
    """Objective values for a (B, N) batch of simplex points."""
    n = pts.shape[1]
    idx = np.arange(1, n + 1, dtype=np.int64)
    if kind in ("V", "T"):
        kernel = KernelSpec(KernelKind.V_KERNEL if kind == "V" else KernelKind.T_KERNEL)
        kmat = kernel.block(idx, idx)
        return np.einsum("pi,ij,pj->p", pts, kmat, pts)
    r = np.zeros((len(pts), n * n + 1))
    for i in range(n):
        for j in range(n):
            r[:, (i + 1) * (j + 1)] += pts[:, i] * pts[:, j]
    vals = (r * r).sum(axis=1)
    return vals


def grid_oracle(objective_kind: str, N: int, step: float,
                refine_levels: int = 48) -> MinimizationResult:
    """Brute-force oracle: exhaustive lattice scan of the simplex at
    resolution `step`, then local lattice refinement around the incumbent.

    Independent of the iterative minimizers (pure function evaluations).
    Intended for tests with N <= 5.
    """
    if objective_kind not in ("V", "T", "E"):
        raise ValueError(f"unknown objective kind {objective_kind!r}")
    if N > 5:
        raise BudgetError("grid_oracle supports N <= 5 only")
    K = max(1, round(1.0 / step))
    n_points = math.comb(K + N - 1, N - 1)
    if n_points > _GRID_POINT_CAP:
        raise BudgetError(
            f"lattice would hold {n_points} points (cap {_GRID_POINT_CAP}); "
            "increase step"
        )
    pts = _lattice_points(N, K).astype(np.float64) / K
    vals = _batch_objective(objective_kind, pts)
    best = int(np.argmin(vals))
    w, val = pts[best], float(vals[best])

    # Local refinement: zero-sum integer moves on a halving lattice.
    deltas = _lattice_points(N, 2 * N)[:, :] - 2  # entries in [-2, 2N-2]... filtered below
    deltas = deltas[(np.abs(deltas) <= 2).all(axis=1)]
    deltas = deltas[deltas.sum(axis=1) == 0].astype(np.float64)
    h = 1.0 / (2 * K)
    for _ in range(refine_levels):
        cand = w + h * deltas
        feasible = (cand >= -1e-15).all(axis=1)
        cand = np.clip(cand[feasible], 0.0, None)
        cand /= cand.sum(axis=1, keepdims=True)
        cvals = _batch_objective(objective_kind, cand)
        b = int(np.argmin(cvals))
        if cvals[b] < val:
            w, val = cand[b], float(cvals[b])
        else:
            h *= 0.5
        if h < 1e-14:
            break

    scale = N * N if objective_kind == "E" else N
    return MinimizationResult(
        objective_kind=objective_kind,
        n=N,
        minimizer=WeightVector(N, w),
        value=val,
        scaled_value=scale * val,
        iterations=0,
        certificate_gap=None,
        converged=True,
        provenance=f"grid_oracle(step=1/{K},refined)",
    )
