"""Character-sum experiments: shifted-sum moment bounds, the averaging
machinery behind the refined Burgess argument, mollified theta moments and
low-moment lower bounds, plus the Dirichlet-polynomial analogue.

Every experiment evaluates both sides of the relevant finite inequality
exactly (up to float rounding) and records the verdict; no asymptotic
constant is ever asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import BudgetError, build_sieve, require_bytes
from .characters import (
    CharacterTable,
    DirichletCharacter,
    ThetaConfig,
    build_table,
    character_sums,
    character_sums_bytes,
    require_with_table,
    theta_all_even,
    theta_all_even_bytes,
    theta_cutoff,
)
from .forms import KernelKind, WeightVector, v_form
from .minimize import minimize_energy, minimize_quadratic
from .report import ExperimentReport

# burgess_experiment runs one character of each conjugate pair over one
# period, in blocks of about 2^14 values, so this limits its O(p^2) time,
# not its memory.
_BURGESS_P_CAP = 2000
# zeta_poly_moment minimizes the energy E_N for the ratio it reports only
# up to this N.
_ZETA_ENERGY_MAX_N = 128
# zeta_poly_moment adds one exp term per n and quadrature point, in a Python
# loop over n: about 33 ns a term, and 3.3 us, the cost of 100 terms, per n
# and pass (2 vCPUs). Counting each pass over an n as 100 terms, this cap
# limits its time, not its memory, to a few seconds.
_ZETA_TERMS_CAP = 10**8


def _window_counts(p: int, M: int, N: int) -> np.ndarray:
    """counts[t] = #{m in ]M, M+N] : m = t (mod p)} for t = 0..p-1."""
    t = np.arange(p, dtype=np.int64)
    return (M + N - t) // p - (M - t) // p


def _exponent_dtype(p: int, j_max: int) -> type:
    """int32 where every exponent j ind(n) <= (p-2) j_max fits, else int64."""
    return np.int32 if (p - 2) * j_max < 2**31 else np.int64


def _prefix_sums(table: CharacterTable, js: np.ndarray, B: int, L: int):
    """Yield (rows, C, I) per block of the characters js, about 2^14 values
    so that a block stays in L2: C[i, k] = sum_{n<=k} chi_j(n), k < L,
    j = rows[i], and I[i, l-1] = C[i, l+B] - C[i, l] = sum_{1<=b<=B}
    chi_j(l+b), l = 1..p. chi_j(n) is read from one roots-of-unity table at
    (j ind(n)) mod (p-1), bit for bit as DirichletCharacter.values computes
    it, over one period n = 0..p-1 only; past it C[k+p] = C[k] + C[p-1], as
    chi(p) = 0. The exponents are int32 where they fit (_exponent_dtype)."""
    p = table.p
    m = p - 1
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    ind = table.dlog.astype(_exponent_dtype(p, int(js.max(initial=0))))
    block = max(1, (1 << 14) // L)
    for start in range(0, len(js), block):
        rows = js[start:start + block]
        exps = np.empty((len(rows), p), dtype=np.intp)  # what the gather indexes by
        np.remainder(np.multiply.outer(rows.astype(ind.dtype), ind), m, out=exps)
        cum = np.empty((len(rows), L), dtype=np.complex128)
        cum[:, :p] = roots[exps]
        cum[:, 0] = 0.0  # chi(0) = 0
        np.cumsum(cum[:, :p], axis=1, out=cum[:, :p])
        for k in range(p, L, p):
            np.add(cum[:, k - p:min(k, L - p)], cum[:, p - 1:p], out=cum[:, k:k + p])
        yield rows, cum, cum[:, B + 1:p + B + 1] - cum[:, 1:p + 1]


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 = re^2 + im^2, elementwise."""
    out = np.square(z.real)
    out += np.square(z.imag)
    return out


def _moments(sq_rows: np.ndarray, r: int) -> np.ndarray:
    """sum_l |I(l)|^{2r} of each row of |I|^2."""
    return (sq_rows ** r).sum(axis=-1)


def shifted_sums(chi: DirichletCharacter, B: int) -> np.ndarray:
    """I(l) = sum_{1<=b<=B} chi(l+b), l = 1..p: one row of _prefix_sums."""
    p = chi.p
    w = np.dtype(_exponent_dtype(p, chi.j)).itemsize
    # C over p + B + 1 columns; over one period the roots, the w-byte ind(n),
    # the intp exponents and the gathered values or the result, one at a
    # time: 16(p + B) + (40 + w)p, and 8 KiB for headers.
    require_bytes(16 * (p + B) + (40 + w) * p + (8 << 10), f"shifted sums at p={p}, B={B}")
    _, _, inner = next(_prefix_sums(chi.table, np.array([chi.j]), B, p + B + 1))
    return inner[0]


def weil_bound(B: int, r: int, p: int) -> float:
    """Weil-type bound (2r)^r B^r p + 2r B^{2r} sqrt(p) on the 2r-th moment
    of the shifted sums over l = 1..p."""
    return (2 * r) ** r * B**r * p + 2 * r * B ** (2 * r) * math.sqrt(p)


def weil_holds(moment: float, bound: float) -> bool:
    """The Weil verdict on a 2r-th moment, with no slack; elementwise on
    an array of moments."""
    return moment <= bound


def weil_moment_check(chi: DirichletCharacter, B: int, r: int) -> tuple[float, float]:
    """The 2r-th moment of shifted_sums(chi, B), by the expression
    burgess_experiment applies to its rows, against weil_bound(B, r, p)."""
    if chi.is_principal:
        raise ValueError("nonprincipal character required")
    if r < 2:
        raise ValueError("r must be >= 2")
    if B < 0:
        raise ValueError("B must be >= 0")
    moment = float(_moments(_abs2(shifted_sums(chi, B)), r))
    return moment, weil_bound(B, r, chi.p)


def r_bound_applies(A: int, N: int, p: int) -> bool:
    """The domain A <= N, A * N <= p of the bound on R(c; A, M, N)."""
    return A <= N and A * N <= p


def r_bound_check(R: float, c: WeightVector, N: int,
                  v_at_c: float) -> tuple[float, bool]:
    """The bound |c|_1^2 + 2N V(c) on R = R(c; A, M, N) where it applies,
    V(c) = v_at_c, and whether R keeps it to a relative 1e-12."""
    bound = c.one_norm**2 + 2 * N * v_at_c
    return bound, R <= bound * (1 + 1e-12)


def burgess_r_values(c: WeightVector, M: int, N: int, p: int) -> np.ndarray:
    """r(l;c) for l = 1..p: weighted count of m in ]M, M+N] with a*l = m (p)."""
    if c.n_max >= p:
        raise ValueError("weight length A must be < p")
    counts = _window_counts(p, M, N)
    ls = np.arange(1, p + 1, dtype=np.int64)
    r = np.zeros(p)
    for a0, ca in enumerate(c.weights, start=1):
        if ca != 0.0:
            r += ca * counts[(a0 * ls) % p]
    return r


def burgess_R(c: WeightVector, A: int, M: int, N: int, p: int) -> float:
    """R(c; A, M, N) = sum_l r(l;c)^2 over l = 1..p."""
    if A != c.n_max:
        raise ValueError("A must equal the weight length")
    r = burgess_r_values(c, M, N, p)
    return float(r @ r)


def _burgess_weights(c_mode: str, A: int) -> tuple[WeightVector, str]:
    """The weights and which of uniform, witness or minimizer they are."""
    if c_mode == "uniform":
        return WeightVector.from_weights(np.ones(A)), "uniform"
    if c_mode == "minimizer":
        res = minimize_quadratic(KernelKind.V_KERNEL, A, tolerance=1e-8)
        return res.minimizer, "minimizer"
    if c_mode == "witness":
        from .constants import solve_beta
        from .extremal import EmptyWitnessError, witness_t

        try:
            return witness_t(build_sieve(max(A, 16)), A, solve_beta().beta), "witness"
        except EmptyWitnessError:
            # No witness at this A.
            return WeightVector.from_weights(np.ones(A)), "uniform"
    raise ValueError(f"unknown c_mode {c_mode!r}")


def burgess_experiment(
    p: int,
    r: int,
    N: int,
    M: int = 0,
    c_mode: str = "uniform",
) -> ExperimentReport:
    """Averaged shifted-sum experiment for one modulus.

    For each nonprincipal chi, S = sum_l r(l;c) |I(l)| with the shifted
    sums I of _prefix_sums, whose one prefix sum per character also gives
    the window sums; checks the Hoelder chain S^{2r} <= (sum_l r(l))^{2r-2}
    * (sum_l r(l)^2) * (sum_l |I(l)|^{2r}), the R bound and the Weil bound.
    Also tabulates max over chi and window starts of |S(M,N;chi)| against
    the N^{1-1/r} p^{(r+1)/4r^2} shape under both the T and the V
    normalization (the statement uses T, the proof's induction quantity
    uses V; both are reported).

    chi_{p-1-j} = conj(chi_j), so |I|, |S| and both sides of each check are
    the same for the two: one character of each conjugate pair is
    computed, j = 1..(p-1)/2, and a failed check is reported for j and
    p-1-j alike, in character order.
    """
    if p > _BURGESS_P_CAP:
        raise BudgetError(f"burgess_experiment limited to p <= {_BURGESS_P_CAP}")
    if r < 2:
        raise ValueError("r must be >= 2")
    if not 1 <= N <= 2 * p:
        # The windows ]m, m+N] run over m = 0..2p-N.
        raise ValueError(f"window length N must satisfy 1 <= N <= 2p, got N={N}")
    table = build_table(p)
    A_raw = int(N / (16 * r * p ** (1 / (2 * r))))
    B_raw = int(r * p ** (1 / (2 * r)))
    # Degenerate regimes are clamped to 1 so small-p experiments still run.
    A = max(1, A_raw)
    B = max(1, B_raw)
    c, c_used = _burgess_weights(c_mode, A)
    rvals = burgess_r_values(c, M, N, p)
    sum_r = float(rvals.sum())
    R = float(rvals @ rvals)

    rep = ExperimentReport(
        "burgess",
        parameters={"p": p, "r": r, "N": N, "M": M, "c_mode": c_mode,
                    "A": A, "B": B, "A_raw": A_raw, "B_raw": B_raw},
    )
    rep.check("sum_r_equals_N_times_norm", sum_r, N * c.one_norm,
              math.isclose(sum_r, N * c.one_norm, rel_tol=1e-9))
    v_at_c = v_form(c)
    if r_bound_applies(A, N, p):
        rep.check("R_bound_gcd_form", R, *r_bound_check(R, c, N, v_at_c))

    weil_rhs = weil_bound(B, r, p)
    holder_coeff = sum_r ** (2 * r - 2) * R
    holder_min_slack = math.inf
    max_abs_s = 0.0
    max_window_sq = 0.0
    # failed[j]: the failed checks of chi_j, j <= (p-1)/2, as (name, lhs, rhs).
    failed: dict[int, list[tuple[str, float, float]]] = {}
    # The same C gives the window sums S(m) = C[m+N] - C[m], m = 0..2p-N;
    # S(m+p) = S(m), so the starts m < min(p, 2p-N+1) take them all.
    starts = min(p, 2 * p - N + 1)
    js = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    for rows, cum, inner in _prefix_sums(table, js, B, max(p + B + 1, N + starts)):
        sq_inner = _abs2(inner)
        w_moments = _moments(sq_inner, r)
        s_vals = np.sqrt(sq_inner) @ rvals
        lhs = s_vals ** (2 * r)
        rhs = holder_coeff * w_moments
        holder_min_slack = min(holder_min_slack, float((rhs - lhs).min()))
        max_abs_s = max(max_abs_s, float(s_vals.max()))
        windows = _abs2(cum[:, N:N + starts] - cum[:, :starts])
        max_window_sq = max(max_window_sq, float(windows.max()))
        weil_failed = ~weil_holds(w_moments, weil_rhs)
        holder_failed = lhs > rhs * (1 + 1e-9)
        for i in np.flatnonzero(weil_failed | holder_failed):
            checks = failed.setdefault(int(rows[i]), [])
            if weil_failed[i]:
                checks.append(("weil_moment", float(w_moments[i]), weil_rhs))
            if holder_failed[i]:
                checks.append(("holder_chain", float(lhs[i]), float(rhs[i])))
    max_window = math.sqrt(max_window_sq)
    for j in range(1, p - 1):
        for name, lhs, rhs in failed.get(min(j, p - 1 - j), ()):
            rep.check(f"{name}_chi_{j}", lhs, rhs, False)
    rep.check("holder_chain_all_chi", holder_min_slack, 0.0,
              holder_min_slack >= -1e-9)
    rep.check("trivial_window_bound", max_window, float(N),
              max_window <= N + 1e-9)

    def shape(kind: KernelKind) -> float:
        cap = max(minimize_quadratic(kind, x, tolerance=1e-8).scaled_value
                  for x in range(1, A + 1))
        return N ** (1 - 1 / r) * p ** ((r + 1) / (4 * r**2)) * cap ** (1 / (2 * r))

    shape_t, shape_v = shape(KernelKind.T_KERNEL), shape(KernelKind.V_KERNEL)
    rep.values.update({
        "sum_r": sum_r,
        "R": R,
        "v_form_at_c": v_at_c,
        "max_S_window": max_window,
        "max_averaged_S": max_abs_s,
        "shape_T_normalization": shape_t,
        "shape_V_normalization": shape_v,
        "ratio_T": max_window / shape_t,
        "ratio_V": max_window / shape_v,
        "holder_min_slack": holder_min_slack,
        "c_used": c_used,
    })
    return rep


class DegenerateMomentsError(ArithmeticError):
    """M2 or M4 vanished, so the Hoelder lower bound is undefined."""


@dataclass(frozen=True)
class MollifiedMoments:
    p: int
    x: float
    M0: int
    M1: complex
    M2: float
    M4: float
    holder_lower_bound: float
    zero_threshold: float
    theta_min_abs: float

    def holder_check(self) -> tuple[float, bool]:
        """M1^4 / (M2^2 M4) - 1e-6 and whether M0 reaches it."""
        floor = self.holder_lower_bound - 1e-6
        return floor, self.M0 >= floor


def mollifier_length(p: int) -> int:
    """q = floor(sqrt(p/3)), the length of the mollifier weights mod p."""
    return math.isqrt(p // 3)


def mollified_moments(p: int, x: float, c: WeightVector) -> MollifiedMoments:
    """First/second/fourth mollified moments over the even characters and
    the nonvanishing count they certify.

    M1 = sum M(chi) theta(x;chi), M2 = sum |theta|^2, M4 = sum |M(chi)|^4,
    M0 = #{even chi : |theta| > 1e-10 sqrt(n_max)}, n_max = theta_cutoff(p,
    ThetaConfig(x)); the caller checks the Hoelder consequence M0 >= M1^4 /
    (M2^2 M4) by holder_check. The character table is built here, after its
    bytes and those of the larger of the theta and mollifier stages pass
    the budget.
    """
    if p < 7:
        raise ValueError("p must be a prime >= 7")
    q = mollifier_length(p)
    if c.n_max != q:
        raise ValueError(f"weights must have length q = floor(sqrt(p/3)) = {q}")
    if c.one_norm <= 0:
        raise ValueError("weights must not be all zero")
    config = ThetaConfig(x=x)
    # The table, then theta over the even characters, or the mollifier
    # sums with the m complex thetas held, whichever needs more.
    m = (p - 1) // 2
    require_with_table(p, lambda: max(
        theta_all_even_bytes(p, theta_cutoff(p, config)),
        character_sums_bytes(m, q) + 16 * m), f"mollified moments at p={p}, x={x}")
    table = build_table(p)
    thetas = theta_all_even(table, config)
    ms = np.arange(1, q + 1, dtype=np.int64)
    mollifiers = np.conj(character_sums(table, ms, c.weights, even_only=True))
    m1 = complex((mollifiers * thetas).sum())
    m2 = float((np.abs(thetas) ** 2).sum())
    m4 = float((np.abs(mollifiers) ** 4).sum())
    if m2 == 0.0 or m4 == 0.0:
        raise DegenerateMomentsError("degenerate moments (M2 or M4 vanished)")
    zero_threshold = 1e-10 * math.sqrt(theta_cutoff(p, config))
    m0 = int(np.count_nonzero(np.abs(thetas) > zero_threshold))
    holder = m1.real**4 / (m2**2 * m4)
    return MollifiedMoments(
        p=p, x=x, M0=m0, M1=m1, M2=m2, M4=m4,
        holder_lower_bound=holder, zero_threshold=zero_threshold,
        theta_min_abs=float(np.abs(thetas).min()),
    )


def low_moment_exponents(r: float) -> tuple[float, float, float, float]:
    """(u, v, s, t) with u+v = 1 and 1/s + 1/t + 1/4 = 1."""
    if not 0.0 < r < 4.0 / 3.0:
        raise ValueError("r must lie in ]0, 4/3[")
    u = r / (4 - 2 * r)
    v = (4 - 3 * r) / (4 - 2 * r)
    s = 4 - 2 * r
    t = (8 - 4 * r) / (4 - 3 * r)
    return u, v, s, t


def low_moment_experiment(
    p: int,
    N: int,
    r: float,
    energy_budget: int = 64,
) -> ExperimentReport:
    """Low-moment lower-bound experiment over nonprincipal characters.

    Computes the r-th and second moments of S(N;chi), the fourth moment of
    the unit-weight mollifier conj(S), and verifies the Hoelder inequality
    linking them. The reported ratio against N^{r/2} / E_nu^{1-r/2} is
    exploratory; it needs E_nu, minimized only for nu <= energy_budget.
    """
    if not 1 <= N < p:
        raise ValueError("need 1 <= N < p")
    u, v, s, t = low_moment_exponents(r)
    # The table, then the character sums and, beside S, its conjugate.
    require_with_table(p, lambda: character_sums_bytes(p - 1, N) + 16 * (p - 1),
                       f"low moments at p={p}, N={N}")
    table = build_table(p)
    ns = np.arange(1, N + 1, dtype=np.int64)
    # All characters, j = 0 first; [1:] keeps the nonprincipal ones.
    S = character_sums(table, ns, np.ones(N))[1:]
    Mol = np.conj(S)
    norm = p - 2
    s_r = float((np.abs(S) ** r).sum()) / norm
    s_2 = float((np.abs(S) ** 2).sum()) / norm
    m_4 = float((np.abs(Mol) ** 4).sum()) / norm
    cross = abs(complex((S * Mol).sum())) / norm

    rep = ExperimentReport(
        "lowmoment",
        parameters={"p": p, "N": N, "r": r, "u": u, "v": v, "s": s, "t": t},
    )
    rep.check("exponent_identity", 1 / s + 1 / t + 1 / 4, 1.0,
              math.isclose(1 / s + 1 / t + 1 / 4, 1.0, rel_tol=1e-12))
    holder_rhs = s_r ** (1 / s) * s_2 ** (1 / t) * m_4 ** (1 / 4)
    rep.check("holder_moments", cross, holder_rhs,
              cross <= holder_rhs + 1e-9 * max(holder_rhs, 1.0))
    s2_exact = ((p - 1) * N - N * N) / (p - 2)
    rep.check("second_moment_identity", s_2, s2_exact,
              math.isclose(s_2, s2_exact, rel_tol=1e-9, abs_tol=1e-9))

    nu = min(N, p / N)
    nu_int = max(1, int(nu))
    ratio = None
    if nu_int <= energy_budget:
        e_nu = minimize_energy(nu_int, restarts=3).scaled_value
        ratio = s_r * e_nu ** (1 - r / 2) / N ** (r / 2)
        rep.values["E_nu_upper_bound"] = e_nu
    rep.values.update({
        "moment_r": s_r, "moment_2": s_2, "mollified_4": m_4,
        "cross_term": cross, "nu": nu, "ratio_vs_shape": ratio,
    })
    return rep


def zeta_poly_moment(N: int, T: float, r: float, step: float) -> dict:
    """(1/T) * integral over [0,T] of |sum_{n<=N} n^{it}|^r dt by trapezoid
    quadrature, with a step-halving error estimate; for N up to
    _ZETA_ENERGY_MAX_N also the exploratory ratio against E_N."""
    if not all(map(math.isfinite, (T, r, step))):
        raise ValueError(f"need finite T, r and step, got T={T}, r={r}, step={step}")
    if step <= 0 or T < 1 or N < 1:
        raise ValueError("need step > 0, T >= 1, N >= 1")

    def points(h: float) -> int:
        return max(2, int(math.ceil(T / h)) + 1)

    # The fine pass is the larger one. At its peak it holds ts (8 bytes a
    # point), acc (16) and up to three complex temporaries of the exp term.
    # Beside it, logs holds 8 bytes an n, and 16 KiB covers headers.
    require_bytes((16 << 10) + 8 * N + 72 * points(step / 2),
                  f"log n for n <= {N} and quadrature at step {step / 2} over [0, {T}]")
    terms = N * (points(step) + points(step / 2) + 2 * 100)
    if terms > _ZETA_TERMS_CAP:
        raise BudgetError(f"zeta_poly_moment limited to {_ZETA_TERMS_CAP:.0e} terms "
                          f"(N times quadrature points, 100 per pass), got {terms:.1e}")
    logs = np.arange(1, N + 1, dtype=np.float64)
    np.log(logs, out=logs)

    def quad(h: float) -> float:
        m = points(h)
        ts = np.linspace(0.0, T, m)
        acc = np.zeros(m, dtype=np.complex128)
        for ln in logs:
            acc += np.exp(1j * ts * ln)
        f = np.abs(acc) ** r
        return float(np.trapezoid(f, ts) / T)

    coarse = quad(step)
    fine = quad(step / 2)
    out = {
        "N": N, "T": T, "r": r, "step": step,
        "value": fine, "value_coarse_step": coarse,
        "error_estimate": abs(fine - coarse),
    }
    if N <= _ZETA_ENERGY_MAX_N:
        e_n = minimize_energy(N, restarts=3).scaled_value
        out["E_N_upper_bound"] = e_n
        out["ratio_vs_shape"] = fine / (N ** (r / 2) / e_n ** (1 - r / 2))
    return out
