import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from galmin.constants import (
    VariationalConstants,
    _brentq,
    f_of,
    q_of,
    solve_beta,
    y_of,
)


def test_y_solves_quadratic():
    for u in (0.1, 0.5, 1.0):
        y = y_of(u)
        assert math.isclose(y * y + y, u, rel_tol=1e-14)


def test_y_domain():
    with pytest.raises(ValueError):
        y_of(-0.3)
    with pytest.raises(ValueError):
        y_of(1.5)


def test_q_shape():
    assert q_of(1.0) == 0.0
    # strictly convex with minimum at u = 1
    assert q_of(0.5) > 0
    assert q_of(2.0) > 0
    with pytest.raises(ValueError):
        q_of(0.0)


def test_solved_constants_pinned():
    pc = solve_beta()
    assert isinstance(pc, VariationalConstants)
    # Frozen from an independent mpmath root solve of f(u) = Q(u).
    assert abs(pc.beta - 0.48154502844112457) < 1e-10
    assert abs(pc.eta - 0.1665632766235108) < 1e-10
    assert abs(pc.y_beta - 0.35530405613508265) < 1e-10
    assert abs(pc.delta - 0.0860713320559342) < 1e-10


def test_beta_is_crossing_point():
    pc = solve_beta(1e-13)
    assert abs(f_of(pc.beta) - q_of(pc.beta)) < 1e-11
    assert pc.eta < 1 / 6
    assert math.isclose(pc.eta, f_of(pc.beta), rel_tol=1e-12)
    assert math.isclose(pc.y_beta, y_of(pc.beta), rel_tol=1e-12)
    assert math.isclose(pc.delta, q_of(1 / math.log(2)), rel_tol=1e-12)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        solve_beta(0.0)
    with pytest.raises(ValueError):
        solve_beta(1e-2)


def test_as_dict_round_trip():
    d = solve_beta().as_dict()
    assert set(d) >= {"beta", "eta", "y_beta", "delta"}
    assert all(isinstance(v, float) for v in d.values())


def test_solved_constants_bits_pinned():
    # The bits scipy.optimize.brentq gave before the port replaced it.
    pc = solve_beta()
    assert pc.beta.hex() == "0x1.ed1a23d2d2f6ep-2"
    assert pc.eta.hex() == "0x1.551f208e802a1p-3"
    assert pc.y_beta.hex() == "0x1.6bd4d394f2000p-2"
    assert pc.delta.hex() == "0x1.608c5544dab38p-4"


def _f_minus_q(u):
    return f_of(u) - q_of(u)


@pytest.mark.parametrize("f, a, b", [
    (_f_minus_q, 0.3, 0.7),
    (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
    (math.cos, 1.0, 2.0),
    (lambda x: math.exp(x) - 3.0, 0.0, 2.0),
    (lambda x: math.atan(x - 0.1234567), -5.0, 13.0),
])
def test_brentq_matches_scipy_bits(f, a, b):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    for xtol in np.geomspace(1e-14, 1e-4, 60):
        for rtol in (8.881784197001252e-16, 1e-9):
            want = scipy_optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
            got = _brentq(f, a, b, xtol=xtol, rtol=rtol)
            assert got.hex() == want.hex(), (xtol, rtol)


def test_brentq_root_at_an_endpoint():
    assert _brentq(lambda x: x - 1.0, 1.0, 2.0, 1e-12, 1e-15) == 1.0
    assert _brentq(lambda x: x - 2.0, 1.0, 2.0, 1e-12, 1e-15) == 2.0


def test_brentq_raises_without_sign_change():
    with pytest.raises(RuntimeError, match="same sign"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-15)


def test_brentq_raises_without_convergence():
    # A fifth-order root: the steps crawl, so 100 steps do not reach 1e-14.
    with pytest.raises(RuntimeError, match="did not converge"):
        _brentq(lambda x: (x - 1.0) ** 5, 0.0, 3.0, 1e-14, 8.881784197001252e-16)
    with pytest.raises(RuntimeError, match="did not converge"):
        _brentq(math.cos, 1.0, 2.0, 1e-12, 1e-15, maxiter=2)


def test_import_does_not_load_scipy():
    import galmin

    src = str(Path(galmin.__file__).resolve().parent.parent)
    code = "import sys, galmin, galmin.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
