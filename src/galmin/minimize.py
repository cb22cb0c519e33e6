"""Simplex-constrained minimization of the V, T and E forms.

V and T are convex quadratics (both kernels are positive semidefinite), so
the Frank-Wolfe duality gap certifies a point: spectral projected gradient
with exact line search moves every coordinate with each kernel product, and a
pairwise step takes over where the projected step stalls on a face. E is quartic
and not certified convex: spectral projected gradient with one Armijo
backtracking search per step, started at the Barzilai-Borwein step, and
restarts yields an upper bound only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .arith import BudgetError, FactorSieve, require_bytes
from .forms import (
    EnergyIndex,
    KernelKind,
    KernelOperator as _QuadraticOperator,  # the name perfbench traces
    WeightVector,
    e_form,
    gcd_block,
    kernel_block,
    v_form,  # noqa: F401  perfbench's tracer test reads minimize.v_form
)

# Full products refresh the incrementally updated K w every this many steps.
_REFRESH_EVERY = 64
# A V/T lower bound is value - gap less this share of the value, room for
# the round-off of the product they come from: against long-double dense
# products at N <= 10^4, value - gap was within 2.1e-15 of the value.
_LOWER_BOUND_RTOL = 1e-12
# Most rounds of grid_oracle's refinement. Each round moves to a better
# lattice point or halves the spacing; it stops sooner below 1e-14.
_REFINE_LEVELS = 48
# grid_oracle scans a lattice of at most this many points in one batch. A
# speed choice: the slab scan pays numpy's per-call cost once a slab, which
# dominates small slabs. It covers N = 3 and N = 4 at step 1/60.
_ONE_BATCH_POINTS = 1 << 16
# Most iterations of one energy restart.
_ENERGY_MAX_ITERS = 5000


@dataclass(frozen=True)
class MinimizationResult:
    objective_kind: str  # "V", "T" or "E"
    n: int
    minimizer: WeightVector = field(repr=False)
    value: float
    iterations: int
    certificate_gap: float | None  # None: not applicable (E)
    converged: bool = True
    provenance: str = ""
    # Why the run stopped. V and T: gap_reached, max_iters or
    # no_descent_step; E, for the restart returned: small_move, small_drop,
    # no_armijo_step or max_iters; grid_oracle (E): grid_scan.
    stop_reason: str = field(kw_only=True)
    # V and T only (None otherwise): a certified lower bound on the minimum,
    # and the solve's kernel products, pairwise fallback steps and
    # scheduled refreshes of K w.
    lower_bound: float | None = field(default=None, kw_only=True)
    products: int | None = field(default=None, kw_only=True)
    fallback_steps: int | None = field(default=None, kw_only=True)
    refreshes: int | None = field(default=None, kw_only=True)

    @property
    def scaled_value(self) -> float:
        """value * n for V and T, value * n^2 for E."""
        scale = self.n * self.n if self.objective_kind == "E" else self.n
        return scale * self.value

    def as_dict(self) -> dict:
        out = {
            "objective_kind": self.objective_kind,
            "n": self.n,
            "value": self.value,
            "scaled_value": self.scaled_value,
            "iterations": self.iterations,
            "certificate_gap": self.certificate_gap,
            "converged": self.converged,
            "provenance": self.provenance,
            "stop_reason": self.stop_reason,
            "minimizer_support_size": int(np.count_nonzero(self.minimizer.weights)),
        }
        if self.lower_bound is not None:
            out.update(lower_bound=self.lower_bound, products=self.products,
                       fallback_steps=self.fallback_steps, refreshes=self.refreshes)
        return out


def _check_tolerance(tolerance: float) -> None:
    # inf passes every gap test at once, and nan none.
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")


def minimize_quadratic(
    kind: KernelKind,
    N: int,
    tolerance: float = 1e-6,
    max_iters: int = 200_000,
    start: WeightVector | None = None,
    *,
    operator: _QuadraticOperator | None = None,
) -> MinimizationResult:
    """Minimize c^T K c over the probability simplex by spectral projected
    gradient with exact line search, one product K d per iteration.

    Each iteration tests the duality gap 2 value - 2 min K w, steps along
    d = project_to_simplex(w - alpha * 2 K w) - w, or along the pairwise
    direction w_a (e_s - e_a) when d does not descend (s = argmin K w, a =
    argmax K w over the support w > 0), and takes the next alpha by
    Barzilai-Borwein. K w is updated incrementally and refreshed by a full
    product every _REFRESH_EVERY iterations; a gap test passed on the
    incremental K w is re-tested on a full product. The returned value, gap,
    lower bound and converged all come from one full product of the returned
    minimizer, so the true minimum lies in [lower_bound, value]. operator,
    when given, is the KernelOperator of kind on [1, N], so a caller that
    has built one does not hold a second.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_tolerance(tolerance)
    if not isinstance(kind, KernelKind):
        raise ValueError(f"unknown kernel kind {kind!r}")
    if operator is None:
        op = _QuadraticOperator(kind, N)
    elif operator.kind is kind and operator.n == N:
        op = operator
    else:
        raise ValueError(f"operator is {operator.kind.value} on [1, {operator.n}], "
                         f"not {kind.value} on [1, {N}]")

    if start is not None:
        if start.n_max != N:
            raise ValueError("start vector dimension mismatch")
        w = start.normalized().weights.copy()
    else:
        w = np.full(N, 1.0 / N)

    products = fallback_steps = refreshes = 0

    def exact_state():
        """w clamped and renormalised in place, its full product K w, value
        and gap. The gradient is 2 K w, so g.w = 2 * value exactly."""
        nonlocal products
        np.maximum(w, 0.0, out=w)
        np.divide(w, w.sum(), out=w)
        kw = op.matvec(w)
        products += 1
        value = float(w @ kw)
        return kw, value, 2.0 * value - 2.0 * kw.min().item()

    def passes(gap: float, value: float) -> bool:
        return gap <= tolerance * max(value, 1e-300)

    kw, value, gap = exact_state()
    exact = True  # kw is a full product of the current w
    alpha = 1.0 / (2.0 * kw.max().item())
    it = 0
    stop_reason = "max_iters"
    for it in range(1, max_iters + 1):
        if passes(gap, value) and not exact:
            # Certify only on a full product: the incremental kw drifts.
            kw, value, gap = exact_state()
            exact = True
        if passes(gap, value):
            stop_reason = "gap_reached"
            break

        d = project_to_simplex(w - (2.0 * alpha) * kw)
        d -= w
        g_d = 2.0 * float(kw @ d)
        if not g_d < 0.0:
            # The projected step has collapsed onto its face: move weight
            # from the worst support coordinate to the best one.
            s = int(kw.argmin())
            a = int(np.where(w > 0.0, kw, -np.inf).argmax())
            d = np.zeros(N)
            d[s], d[a] = w[a], -w[a]
            g_d = 2.0 * w[a].item() * (kw[s].item() - kw[a].item())
            fallback_steps += 1
            if not g_d < 0.0:
                # K w is flat on the support and no lower off it, yet the
                # gap test failed: round-off, and no certificate.
                stop_reason = "no_descent_step"
                break
        kd = op.matvec(d)
        products += 1
        d_kd = float(d @ kd)
        # K is positive semidefinite; d.Kd <= 0 is round-off on a flat
        # direction. An infinite or NaN d.Kd gives no step.
        t = 1.0 if d_kd <= 0.0 else -g_d / (2.0 * d_kd)
        if not t > 0.0:
            stop_reason = "no_descent_step"
            break
        t = min(t, 1.0)
        w += t * d
        kw += t * kd
        if d_kd > 0.0:
            alpha = float(d @ d) / (2.0 * d_kd)
        if it % _REFRESH_EVERY == 0:
            kw, value, gap = exact_state()
            exact = True
            refreshes += 1
        else:
            value = float(w @ kw)
            gap = 2.0 * value - 2.0 * kw.min().item()
            exact = False

    if not exact:
        kw, value, gap = exact_state()
    return MinimizationResult(
        objective_kind=kind.value.upper(),
        n=N,
        minimizer=WeightVector(N, w),
        value=value,
        iterations=it,
        certificate_gap=gap,
        converged=passes(gap, value),
        provenance="spectral_projected_gradient(exact_line_search,pairwise_fallback)",
        stop_reason=stop_reason,
        lower_bound=value - max(gap, 0.0) - _LOWER_BOUND_RTOL * value,
        products=products,
        fallback_steps=fallback_steps,
        refreshes=refreshes,
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


def _pgd_energy(index: EnergyIndex, w0: np.ndarray,
                tol: float) -> tuple[np.ndarray, float, int, str]:
    """Spectral projected gradient descent with Armijo backtracking on
    E(c;N).

    Each iteration runs one backtracking search: it starts at the
    Barzilai-Borwein step s·y / y·y from the last move s and gradient
    change y when s·y > 0, else at the step accepted last (1.0 at first),
    and halves up to 60 times until the Armijo test passes. The caller's
    index serves every evaluation, and the r of the accepted candidate
    gives the next gradient. Returns (w, value, iterations, stop reason):
    small_move or small_drop when a stall test stopped the run, else
    no_armijo_step or max_iters.
    """
    w = w0.copy()
    r = index.counts(w)
    val = float(r @ r)
    t = 1.0
    prev_grad = None
    it = 0
    reason = "max_iters"
    for it in range(1, _ENERGY_MAX_ITERS + 1):
        grad = index.gradient(r, w)
        if prev_grad is not None:
            y = grad - prev_grad
            sy = float(move @ y)
            if sy > 0.0:
                t = min(sy / float(y @ y), 1e6)
        for _ in range(60):
            cand = project_to_simplex(w - t * grad)
            cand_r = index.counts(cand)
            cand_val = float(cand_r @ cand_r)
            # Sufficient decrease against the projected move.
            if cand_val <= val - 1e-4 * float(grad @ (w - cand)):
                break
            t *= 0.5
        else:
            reason = "no_armijo_step"
            break
        move = cand - w
        l1_move = float(np.abs(move).sum())
        rel_drop = (val - cand_val) / max(val, 1e-300)
        prev_grad = grad
        w, val, r = cand, cand_val, cand_r
        if l1_move < 1e-14 or rel_drop < tol * 1e-3:
            reason = "small_move" if l1_move < 1e-14 else "small_drop"
            break
    return w, val, it, reason


def minimize_energy(
    N: int,
    tolerance: float = 1e-10,
    restarts: int = 4,
    seed: int = 0,
    sieve: FactorSieve | None = None,
) -> MinimizationResult:
    """Best-of-restarts upper bound on the energy infimum (non-certified).

    Starts: uniform, the half-interval witness when a sieve is supplied
    and N lies in its domain, and seeded random Dirichlet points.
    converged is True only when the restart returned stopped on its
    small-move or small-drop test. value is E at the returned minimizer,
    the point as it was scored.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_tolerance(tolerance)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    witness = None
    if sieve is not None:
        from .extremal import EmptyWitnessError, witness_e

        try:
            witness = witness_e(sieve, N).normalized().weights
        except EmptyWitnessError:
            pass

    def starts():
        """(tag, start vector) for each restart in turn; the random starts
        are drawn one at a time, so that only the current one is held."""
        yield "uniform", np.full(N, 1.0 / N)
        if witness is not None:
            yield "witness_e", witness
        rng = np.random.default_rng(seed)
        while True:
            yield "dirichlet", rng.dirichlet(np.ones(N))

    best_w, best_val, best_tag, total_it, reason = None, math.inf, "", 0, ""
    index = EnergyIndex(N)  # one for every restart
    for tag, w0 in itertools.islice(starts(), restarts):
        w, val, it, stop = _pgd_energy(index, w0, tolerance)
        total_it += it
        if val < best_val:
            best_w, best_val, best_tag, reason = w, val, tag, stop
    return MinimizationResult(
        objective_kind="E",
        n=N,
        minimizer=WeightVector(N, best_w),
        value=best_val,
        iterations=total_it,
        certificate_gap=None,
        converged=reason in ("small_move", "small_drop"),
        provenance=f"pgd(best_of={restarts},start={best_tag});upper_bound_non_certified",
        stop_reason=reason,
    )


def default_quadratic_iters(kind: KernelKind, N: int) -> int:
    """Default iteration budget for one V or T minimization.

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
) -> tuple[MinimizationResult, float]:
    """Quadratic minimization started from the better of the uniform vector
    and the normalized level-set witness (growth constant C = 3); returns
    (result, witness value). Where the witness is empty (N < 16 or no
    candidate passes) the run starts from the uniform vector and the
    witness value is NaN.

    Starting at (or below) the witness makes result.value <= witness value
    a monotonicity guarantee rather than a convergence hope.
    """
    from .extremal import EmptyWitnessError, witness_t

    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if max_iters is None:
        max_iters = default_quadratic_iters(kind, N)
    op = _QuadraticOperator(kind, N)

    def objective(c: WeightVector) -> float:
        return float(c.weights @ op.matvec(c.weights))

    start = WeightVector.uniform(N)
    start_value = objective(start)
    try:
        wit = witness_t(sieve, N, beta).normalized()
    except EmptyWitnessError:
        wit_value = float("nan")
    else:
        wit_value = objective(wit)
        if wit_value <= start_value:
            start, start_value = wit, wit_value
    res = minimize_quadratic(kind, N, tolerance=tolerance,
                             max_iters=max_iters, start=start, operator=op)
    if res.value > start_value:
        # Exact line search is monotone, so this can only be float noise.
        # The solve's lower bound holds whichever point is returned.
        res = replace(res, minimizer=start, value=start_value, converged=False,
                      provenance=res.provenance + ";start_retained")
    return res, wit_value


def scaling_report(
    objective_kind: str,
    n_list,
    tolerance: float = 1e-6,
    seed: int = 0,
):
    """Exploratory table of scaled infimum estimates against witness values.

    The log-log slope fitted against log log N is recorded for inspection
    only; asymptotic exponents are not acceptance targets at desk scale.
    """
    from .arith import build_sieve
    from .constants import solve_beta
    from .extremal import EmptyWitnessError, witness_e
    from .report import ExperimentReport

    if objective_kind not in ("V", "T", "E"):
        raise ValueError(f"unknown objective kind {objective_kind!r}")
    n_list = [int(n) for n in n_list]
    if min(n_list, default=0) < 1:
        raise ValueError(f"n_list needs at least one N, each >= 1, got {n_list}")
    sieve = build_sieve(max(max(n_list), 16))
    beta = solve_beta().beta

    rows = []
    for n in n_list:
        if objective_kind == "E":
            res = minimize_energy(n, tolerance=tolerance, restarts=4,
                                  seed=seed, sieve=sieve)
            try:
                wit_val = e_form(witness_e(sieve, n).normalized())
            except EmptyWitnessError:
                wit_val = float("nan")
            gap = None
        else:
            res, wit_val = minimize_with_witness(KernelKind(objective_kind.lower()),
                                                 n, sieve, beta,
                                                 tolerance=tolerance)
            gap = res.certificate_gap
        rows.append({
            "N": n,
            "raw_inf": res.value,
            "scaled_inf": res.scaled_value,
            "witness_value": wit_val,
            "gap": gap,
            "stop_reason": res.stop_reason,
        })

    slope = None
    if len(rows) >= 2:
        xs = np.array([math.log(math.log(max(row["N"], 3))) for row in rows])
        ys = np.array([math.log(row["scaled_inf"]) for row in rows])
        if np.ptp(xs) > 0:
            slope = float(np.polyfit(xs, ys, 1)[0])

    return ExperimentReport(
        "scaling",
        parameters={"form": objective_kind, "n_list": n_list,
                    "tolerance": tolerance, "seed": seed},
        values={"rows": rows, "loglog_slope": slope,
                "note": "exploratory; no asymptotic exponent asserted"},
    )


def _lattice_points(n: int, K: int) -> np.ndarray:
    """All integer vectors of length n with nonnegative entries summing to K,
    in lexicographic order (grid_oracle's scan keeps the first minimum).

    The (B, n) result is the row view .T of a C-contiguous (n, B) array, so
    each coordinate of the batch is one contiguous row of pts.T."""
    cols: list[np.ndarray] = []
    rem = np.array([K], dtype=np.int64)
    # Each leading coordinate splits a row with remainder r into r + 1 rows.
    for _ in range(n - 1):
        counts = rem + 1
        k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = [np.repeat(c, counts) for c in cols] + [k]
        rem = np.repeat(rem, counts) - k
    coords = np.empty((n, len(rem)), dtype=np.int64)
    for j, col in enumerate(cols + [rem]):
        coords[j] = col
    return coords.T


def _term_classes(n: int) -> list[list[tuple[float, int, int]]]:
    """The terms c * x_i * x_j (i <= j) of E on [1, n], one class per
    distinct product m = (i + 1)(j + 1), in increasing m: c = 1 on the
    diagonal and 2 above it. A class sums to r_m, which E squares."""
    classes: dict[int, list[tuple[float, int, int]]] = {}
    for i in range(n):
        for j in range(i, n):
            classes.setdefault((i + 1) * (j + 1), []).append(
                (1.0 if i == j else 2.0, i, j))
    return [classes[m] for m in sorted(classes)]


def _batch_objective(pts: np.ndarray, terms: list) -> np.ndarray:
    """E for a (B, N) batch of simplex points; terms is _term_classes(N).

    Every pass is elementwise over whole coordinate rows of pts.T, so no
    pass mixes points: a point's value has the same bits in any batch."""
    x = pts.T
    out = np.zeros(x.shape[1])
    r, t = np.empty_like(out), np.empty_like(out)
    for (c, i, j), *rest in terms:
        np.multiply(x[i], x[j], out=r)
        r *= c
        for c, i, j in rest:
            np.multiply(x[i], x[j], out=t)
            t *= c
            r += t
        r *= r
        out += r
    return out


def _slabs(N: int, K: int):
    """For k0 = 0..K, the slab of _lattice_points(N, K) / K with first
    coordinate k0, as a (B, N) batch in template order, and the template
    index of each row; N >= 2. Each batch is a view that the next one
    overwrites.

    The slabs share one template: the vectors m of the N - 2 middle
    coordinates with sum s <= K, in lexicographic order, stably sorted by
    s. Slab k0 is the template's prefix with s <= R = K - k0, with k0 / K
    in front and (R - s) / K behind, so each point is divided as in
    _lattice_points(N, K) / K. Sorting the rows by template index puts the
    slab in lexicographic order."""
    mid = _lattice_points(N - 1, K)[:, :-1]
    s = mid.sum(axis=1)
    order = np.argsort(s, kind="stable")
    s = s[order]
    ends = np.searchsorted(s, np.arange(K + 1), side="right")
    x = np.empty((N, len(s)))  # coordinate rows; slab k0 uses the first ends[R]
    np.divide(mid[order].T, K, out=x[1:-1])
    for k0 in range(K + 1):
        R = K - k0
        slab = x[:, :ends[R]]
        slab[0] = k0 / K
        np.divide(R - s[:ends[R]], K, out=slab[-1])
        yield slab.T, order[:ends[R]]


def _scan_lattice(N: int, K: int, terms: list) -> tuple[np.ndarray, float]:
    """The first minimum, in lexicographic order, of E over
    _lattice_points(N, K) / K, and its value; terms is as for
    _batch_objective.

    A lattice of at most _ONE_BATCH_POINTS points, or any at N <= 2, is
    one batch. A larger one is scanned one slab of _slabs at a time, the
    slabs in order, keeping the first minimum by a strict <; within a slab,
    the minimum of least template index comes first in the lattice."""
    if N <= 2 or math.comb(K + N - 1, N - 1) <= _ONE_BATCH_POINTS:
        pts = _lattice_points(N, K) / K
        vals = _batch_objective(pts, terms)
        b = int(np.argmin(vals))
        return pts[b].copy(), float(vals[b])
    w, val = None, math.inf
    for pts, rank in _slabs(N, K):
        vals = _batch_objective(pts, terms)
        v = vals.min()
        if v < val:
            ties = np.flatnonzero(vals == v)
            b = ties[np.argmin(rank[ties])]
            w, val = pts[b].copy(), float(v)
    return w, val


def grid_oracle(N: int, step: float) -> MinimizationResult:
    """Brute-force oracle for E: exhaustive lattice scan of the simplex at
    resolution `step`, then local lattice refinement around the incumbent.

    E is not convex, so it has no KKT oracle; V and T have
    exact_quadratic_minimum. Independent of the iterative minimizers (pure
    function evaluations). Intended for tests with N <= 5.
    """
    if N < 1:
        raise ValueError(f"grid_oracle needs N >= 1, got {N}")
    if N > 5:
        # A time cap: a scan fine enough to be useful visits about
        # K^(N-1) / (N-1)! lattice points. Their bytes are checked below.
        raise BudgetError("grid_oracle supports N <= 5 only")
    if not (math.isfinite(step) and 0.0 < step <= 1.0):
        raise ValueError(f"grid_oracle needs a finite step in (0, 1], got {step}")
    K = max(1, round(1.0 / step))
    n_points = math.comb(K + N - 1, N - 1)
    # A cap on the scan's total size, that is its time, stated in bytes per
    # point: 16 per coordinate plus 16 (N^2 + 1). The scan holds one slab at
    # a time, so its peak stays far below this.
    row_bytes = 16 * N + 16 * (N * N + 1)
    require_bytes(n_points * row_bytes, f"lattice of {n_points} points (increase step)")
    terms = _term_classes(N)
    w, val = _scan_lattice(N, K, terms)

    # Local refinement: zero-sum integer moves on a halving lattice, one
    # column per move (the coordinate rows _batch_objective passes over).
    moves = np.indices((5,) * N).reshape(N, -1) - 2  # {-2..2}^N, lexicographic
    deltas = moves[:, moves.sum(axis=0) == 0].astype(np.float64)
    h = 1.0 / (2 * K)
    for _ in range(_REFINE_LEVELS):
        cand = w[:, None] + h * deltas
        feasible = (cand >= -1e-15).all(axis=0)
        cand = np.clip(cand[:, feasible], 0.0, None)
        cand /= cand.sum(axis=0)
        cvals = _batch_objective(cand.T, terms)
        b = int(np.argmin(cvals))
        if cvals[b] < val:
            w, val = cand[:, b], float(cvals[b])
        else:
            h *= 0.5
        if h < 1e-14:
            break

    return MinimizationResult(
        objective_kind="E",
        n=N,
        minimizer=WeightVector(N, w),
        value=val,
        iterations=0,
        certificate_gap=None,
        converged=True,
        provenance=f"grid_oracle(step=1/{K},refined)",
        stop_reason="grid_scan",
    )


# A time cap on exact_quadratic_minimum's exact check: V at N = 40 takes 0.13 s.
_EXACT_MAX_N = 40
# Decimal digits of the T check, and the slack of its off-support
# inequalities, far above the round-off of _T_DIGITS digits.
_T_DIGITS = 50
_T_SLACK = "1e-40"


@dataclass(frozen=True)
class ExactMinimum:
    """The minimum of V or T over the simplex on [1, N]: exact (a Fraction
    for V, a Decimal for T), as a float, and the support of its minimizer."""

    exact: object
    value: float
    support: tuple[int, ...]


def _kkt_value(a, b, N: int, support: list[int], slack):
    """1 / (b_S . u) with u = A_S^(-1) b_S, if u > 0 and A_iS u >= b_i -
    slack for every i of [1, N] off S; else None. a(m, n) and b(m) are the
    entries, exact numbers. Gauss-Jordan without pivoting: A_S is positive
    definite, so no pivot is zero."""
    k = len(support)
    rows = [[a(m, n) for n in support] + [b(m)] for m in support]
    for j, piv in enumerate(rows):
        for r in rows:
            if r is not piv and r[j]:
                f = r[j] / piv[j]
                for c in range(j, k + 1):
                    r[c] -= f * piv[c]
    u = [r[k] / r[i] for i, r in enumerate(rows)]
    if any(ui <= 0 for ui in u):
        return None
    for m in set(range(1, N + 1)).difference(support):
        if sum(a(m, n) * ui for n, ui in zip(support, u)) < b(m) - slack:
            return None
    return 1 / sum(b(m) * ui for m, ui in zip(support, u))


def exact_quadratic_minimum(kind: KernelKind, N: int) -> ExactMinimum:
    """The minimum of V or T over the simplex on [1, N], from the KKT
    conditions of a convex quadratic: both kernels are positive definite.

    Write V's kernel as A = K with b = 1, and T's as K = D^(-1/2) G D^(-1/2)
    with A = G, the integer gcd matrix, and b_m = sqrt(m). A support S is
    optimal iff u = A_S^(-1) b_S > 0 and A_iS u >= b_i for every i off S;
    the minimum is then 1 / (b_S . u). Principal pivoting proposes one S in
    float64: from S = [1, N], drop every i with u_i <= 0, else add the i off
    S whose inequality fails most, if by over 1e-9 b_i (round-off); at most
    4N solves. S is checked exactly: in Fraction for V, whose kernel is
    rational, and in Decimal at _T_DIGITS digits for T, off S to _T_SLACK.
    By convexity a passing S is the minimum; no unchecked value is returned.
    Independent of the iterative minimizers; N <= _EXACT_MAX_N.
    """
    if not isinstance(kind, KernelKind):
        raise ValueError(f"unknown kernel kind {kind!r}")
    if N < 1:
        raise ValueError(f"exact_quadratic_minimum needs N >= 1, got {N}")
    if N > _EXACT_MAX_N:
        raise BudgetError(f"exact_quadratic_minimum supports N <= {_EXACT_MAX_N} only")
    idx = np.arange(1, N + 1)
    if kind is KernelKind.V_KERNEL:
        A, b = kernel_block(kind, idx, idx), np.ones(N)
    else:
        A, b = gcd_block(idx, idx), np.sqrt(idx)
    support = idx - 1
    for _ in range(4 * N):
        u = np.linalg.solve(A[np.ix_(support, support)], b[support])
        short = b - A[:, support] @ u
        short[support] = 0.0
        i = short.argmax()
        if (u <= 0).any():
            support = support[u > 0]
        elif short[i] > 1e-9 * b[i]:
            support = np.sort(np.append(support, i))
        else:
            break
    support = (support + 1).tolist()

    from decimal import Decimal, localcontext
    from fractions import Fraction
    if kind is KernelKind.V_KERNEL:
        exact = _kkt_value(lambda m, n: Fraction(math.gcd(m, n), m + n),
                           lambda m: 1, N, support, 0)
    else:
        with localcontext() as ctx:
            ctx.prec = _T_DIGITS
            exact = _kkt_value(lambda m, n: Decimal(math.gcd(m, n)),
                               lambda m: Decimal(m).sqrt(), N, support,
                               Decimal(_T_SLACK))
    if exact is None:
        raise ArithmeticError(f"support {support} failed the exact {kind.value.upper()} check")
    return ExactMinimum(exact, float(exact), tuple(support))
