"""Analytic constants of the minimization problems.

y(u) = (-1 + sqrt(1+4u))/2,  f(u) = 2u*log(1+y(u)) - y(u)^2,
Q(u) = u*log u - u + 1.

beta solves f(beta) = Q(beta) on ]0,1[; eta = f(beta) is the exponent
governing the quadratic-form infima, and delta = Q(1/log 2) is the
multiplication-table exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

# Bracket for the root of f - Q; _brentq raises if f - Q keeps its sign on it.
_BETA_BRACKET = (0.3, 0.7)


def y_of(u: float) -> float:
    if not 0.0 < u <= 1.0:
        raise ValueError(f"y(u) requires u in ]0,1], got {u}")
    return 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * u))


def f_of(u: float) -> float:
    y = y_of(u)
    return 2.0 * u * math.log1p(y) - y * y


def q_of(u: float) -> float:
    if u <= 0.0:
        raise ValueError(f"Q(u) requires u > 0, got {u}")
    return u * math.log(u) - u + 1.0


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """A root of f in [xa, xb] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).

    Ported statement for statement from scipy's brentq.c, so it returns the
    same float as scipy.optimize.brentq. xblk is the contrapoint (f changes
    sign between xblk and xcur), xpre the previous iterate; scur and spre
    are the current and previous steps. Raises RuntimeError when f(xa) and
    f(xb) have the same sign or maxiter steps do not converge.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise RuntimeError(f"f({xa}) and f({xb}) have the same sign")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} steps")


@dataclass(frozen=True)
class VariationalConstants:
    beta: float
    eta: float
    y_beta: float
    delta: float
    solver_tolerance: float

    def as_dict(self) -> dict:
        return asdict(self)


def solve_beta(tolerance: float = 1e-12) -> VariationalConstants:
    """Solve f(beta) = Q(beta) by Brent's method on _BETA_BRACKET."""
    if not 1e-14 <= tolerance <= 1e-4:
        raise ValueError(f"tolerance must lie in [1e-14, 1e-4], got {tolerance}")

    def h(u: float) -> float:
        return f_of(u) - q_of(u)

    beta = _brentq(h, *_BETA_BRACKET, xtol=tolerance, rtol=8.881784197001252e-16)
    return VariationalConstants(
        beta=beta,
        eta=f_of(beta),
        y_beta=y_of(beta),
        delta=q_of(1.0 / math.log(2.0)),
        solver_tolerance=tolerance,
    )
