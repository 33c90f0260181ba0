"""The bounded Brent, bisection and quasi-Newton solvers run on Python floats.

The first two repeat scipy's solver step for step, so they return scipy's
point, value and evaluation count bit for bit.  The projected quasi-Newton
solve has no scipy twin step for step;
it must reach the minimiser scipy's L-BFGS-B reaches.  scipy is a test
dependency only: importing the package must not load it.
"""

import math
import os
import subprocess
import sys
from operator import mul, sub

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize

from vinetail import Logistic, PairCopula, VineSpec, gauge_cvine, gauge_dvine, gauges
from vinetail.errors import ConvergenceError
from vinetail.eta import _bisect, eta_numeric
from vinetail.gauges import _fminbound, _projected_gradient, _qn_code, _quasi_newton
from vinetail.vines import expected_edges

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# bounded Brent
# ---------------------------------------------------------------------------

@st.composite
def scalar_problems(draw):
    lo = draw(st.floats(-5.0, 5.0))
    hi = lo + draw(st.floats(1e-3, 20.0))
    c = draw(st.floats(lo - 2.0, hi + 2.0))
    s = draw(st.floats(0.1, 3.0))
    kind = draw(st.sampled_from(["quadratic", "quartic", "kink", "ridge"]))
    f = {
        "quadratic": lambda t: s * (t - c) ** 2,
        "quartic": lambda t: (t - c) ** 4 - s * (t - c) ** 2,
        "kink": lambda t: abs(t - c) + s * max(0.0, t - c),
        "ridge": lambda t: max(s * (t - c), c - t, -1.0),
    }[kind]
    xatol = draw(st.sampled_from([1e-10, 1e-5, 1e-2]))
    return f, lo, hi, xatol


@given(scalar_problems())
def test_fminbound_matches_scipy(problem):
    f, lo, hi, xatol = problem
    ref = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    x, fx, nfev = _fminbound(f, lo, hi, xatol)
    assert (x, fx, nfev) == (float(ref.x), float(ref.fun), ref.nfev)


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------

@st.composite
def root_problems(draw):
    # at xtol = 1e-300 the relative tolerance 4 eps |x| decides; the bracket
    # then stays away from zero, where it could never be met
    xtol = draw(st.sampled_from([1e-12, 1e-8, 1e-3, 1e-300]))
    a = draw(st.floats(1.0, 5.0) if xtol == 1e-300 else st.floats(-5.0, 5.0))
    b = a + draw(st.floats(1e-3, 20.0))
    root = a + (b - a) * draw(st.floats(0.05, 0.95))  # inside, so f changes sign
    s = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.1, 10.0))
    kind = draw(st.sampled_from(["line", "cubic", "tanh", "step"]))
    f = {
        "line": lambda t: s * (t - root),
        "cubic": lambda t: s * ((t - root) ** 3 + (t - root)),
        "tanh": lambda t: math.tanh(s * (t - root)),
        "step": lambda t: s if t > root else -s,
    }[kind]
    return f, a, b, xtol


@given(root_problems())
def test_bisect_matches_scipy(problem):
    f, a, b, xtol = problem
    assert _bisect(f, a, b, xtol=xtol) == optimize.bisect(f, a, b, xtol=xtol, maxiter=200)


def test_bisect_without_sign_change_raises_typed_error():
    with pytest.raises(ConvergenceError) as info:
        _bisect(lambda t: t * t + 1.0, -1.0, 1.0)
    assert info.value.diagnostics == {"a": -1.0, "b": 1.0, "f(a)": 2.0, "f(b)": 2.0}


def test_bisect_out_of_halvings_raises_typed_error():
    with pytest.raises(ConvergenceError) as info:
        _bisect(lambda t: t - 0.3, 0.0, 1.0, maxiter=5)
    d = info.value.diagnostics
    assert d["maxiter"] == 5 and d["step"] == 2.0**-5 and 0.0 <= 0.3 - d["x"] < d["step"]


def test_bisect_nan_raises_typed_error():
    with pytest.raises(ConvergenceError):
        _bisect(lambda t: math.nan if 0.0 < t < 1.0 else t - 0.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# projected quasi-Newton
# ---------------------------------------------------------------------------

@st.composite
def box_problems(draw):
    # f(x) = 1 + (x - c)'A(x - c)/2 + k sum (x - c)^4 on x >= lower, with A
    # positive definite; a centre below a bound makes that bound active
    n = draw(st.integers(2, 8))  # every n an eta query compiles, up to the 8-d C-vines
    rows = [[draw(st.floats(-1.0, 1.0)) for _ in range(n)] for _ in range(n)]
    A = np.array(rows) @ np.array(rows).T + draw(st.floats(0.05, 1.0)) * np.eye(n)
    lower = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    centre = [lo + draw(st.floats(-1.0, 2.0)) for lo in lower]
    k = draw(st.sampled_from([0.0, 0.5]))
    start = [lo + draw(st.floats(0.0, 3.0)) for lo in lower]
    return A, centre, k, lower, start


@given(box_problems())
def test_quasi_newton_matches_lbfgsb(problem):
    A, centre, k, lower, start = problem
    c = np.array(centre)

    def fg(x):
        z = np.array(x) - c
        Az = A @ z
        return 1.0 + 0.5 * float(z @ Az) + k * float(np.sum(z**4)), (Az + 4.0 * k * z**3).tolist()

    x, fx, grad, nfev = _quasi_newton(fg, start, lower, 2000)
    ref = optimize.minimize(fg, start, jac=True, method="L-BFGS-B", bounds=[(lo, None) for lo in lower],
                            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 2000})
    assert nfev < 2000
    assert fx <= ref.fun + 1e-12
    assert_allclose(x, ref.x, rtol=0, atol=1e-5)
    # the point is feasible, meets strictly active bounds (to rounding: the
    # solve ends once a step's predicted decrease is below 1e-15 f) and has
    # a vanishing projected gradient, which the solve returns with the point
    assert (fx, grad) == fg(x)
    assert all(v >= lo for v, lo in zip(x, lower))
    for v, r, gk, lo in zip(x, ref.x, grad, lower):
        if r == lo and gk > 1e-3:
            assert v - lo <= 1e-12
    assert max(map(abs, _projected_gradient(x, grad, lower))) <= 1e-6


def test_quasi_newton_leaves_a_symmetry_axis():
    # f is symmetric under x1 <-> x2 and the start lies on that axis, where
    # the gradient keeps both partials equal: the axis point (1, 1) is a
    # saddle and the minima are (1 +- 1/sqrt(2)) off it, one on each side
    def fg(x):
        u, v = x[0] - x[1], x[0] + x[1] - 2.0
        return 2.0 + (u * u - 0.5) ** 2 + v * v, [4.0 * u * (u * u - 0.5) + 2.0 * v,
                                                  -4.0 * u * (u * u - 0.5) + 2.0 * v]

    x, fx, grad, nfev = _quasi_newton(fg, [1.5, 1.5], [0.0, 0.0], 400)
    assert fx == pytest.approx(2.0, abs=1e-12) and abs(x[0] - x[1]) == pytest.approx(0.5**0.5, abs=1e-6)


def test_quasi_newton_stops_at_its_budget():
    calls = []

    def fg(x):
        calls.append(x)
        return (x[0] - 5.0) ** 2 + (x[1] - 7.0) ** 4 + 1.0, [2.0 * (x[0] - 5.0), 4.0 * (x[1] - 7.0) ** 3]

    for maxfev in (1, 2, 5):
        calls.clear()
        x, fx, grad, nfev = _quasi_newton(fg, [0.0, 0.0], [0.0, 0.0], maxfev)
        assert nfev == len(calls) <= maxfev and (fx, grad) == fg(x)
    calls.clear()
    assert _quasi_newton(fg, [-1.0, 2.0], [0.0, 0.0], 0) == ([0.0, 2.0], math.inf, None, 0) and not calls


def _dot(a, b):
    # the exactly rounded sum of the products a_k b_k, as each dot product
    # of the emitted solve is
    return math.fsum(map(mul, a, b))


def _quasi_newton_lists(fg, x, lower, maxfev):
    """The projected BFGS solve as it was written before its bookkeeping was
    cut: masked copies of the gradient, the step and the gradient change on
    every iteration, the steepest-descent direction built whether it is
    used or not, and each row of the update formed in one expression.  A
    test oracle for the bits of ``_quasi_newton``."""
    n = len(x)
    tilt = [1.05**k for k in range(n)]
    x = [lo if v <= lo else v for v, lo in zip(x, lower)]
    if maxfev < 1:
        return x, math.inf, None, 0
    f, grad = fg(x)
    nfev = 1
    H = None

    def search(d):
        nonlocal nfev
        t = 1.0
        while nfev < maxfev:
            xt = [lo if (v := a + t * b) <= lo else v for a, b, lo in zip(x, d, lower)]
            slope = _dot(grad, map(sub, xt, x))
            if -slope <= 1e-15 * abs(f):
                return None
            ft, gt = fg(xt)
            nfev += 1
            if ft - f <= 1e-4 * slope:
                return xt, ft, gt
            t *= 0.5
        return None

    while nfev < maxfev:
        w = max(map(abs, _projected_gradient(x, grad, lower)))
        if w == 0.0:
            break
        eps = min(1e-3, w)
        free = [v - lo > eps or gk <= 0.0 for v, gk, lo in zip(x, grad, lower)]
        steepest = [-gk * tk for gk, tk in zip(grad, tilt)]
        found = None
        if H is not None:
            gfree = [gk if fr else 0.0 for gk, fr in zip(grad, free)]
            d = [-_dot(row, gfree) if fr else sk for row, fr, sk in zip(H, free, steepest)]
            if _dot(grad, d) < 0.0:
                found = search(d)
            if found is None:
                H = None
        if found is None:
            found = search(steepest)
            if found is None:
                break
        xt, ft, gt = found
        s = [b - a if fr else 0.0 for a, b, fr in zip(x, xt, free)]
        y = [b - a if fr else 0.0 for a, b, fr in zip(grad, gt, free)]
        x, f, grad = found
        sy = _dot(s, y)
        if sy <= 0.0:
            continue
        if H is None:
            scale = sy / _dot(y, y)
            H = [[scale * tk if i == j else 0.0 for j in range(n)] for i, tk in enumerate(tilt)]
        rho = 1.0 / sy
        hy = [_dot(row, y) for row in H]
        c = rho * rho * _dot(y, hy) + rho
        H = [[h + (c * si - rho * hi) * sj - rho * si * hj for h, sj, hj in zip(row, s, hy)]
             for row, si, hi in zip(H, s, hy)]
    return x, f, grad, nfev


def _bits(result):
    # a solver result with every float as its hex string, so that -0.0 and
    # 0.0 differ and NaN equals itself
    x, f, grad, nfev = result
    return [v.hex() for v in x], float(f).hex(), grad and [float(v).hex() for v in grad], nfev


@st.composite
def bound_problems(draw):
    # f(x) = 1 + (x - c)'A(x - c)/2 + k sum |x - c| on x >= lower: smooth
    # (k = 0) or kinked at x = c, where the gradient takes sign 0, and with a
    # centre below a bound for that bound to bind; budgets that end the solve
    # early too
    A, centre, _, lower, start = draw(box_problems())
    k = draw(st.sampled_from([0.0, 0.3]))
    maxfev = draw(st.sampled_from([1, 2, 7, 40, 400]))
    return A, centre, k, lower, start, maxfev


@given(bound_problems())
def test_quasi_newton_is_bit_identical_to_the_list_oracle(problem):
    A, centre, k, lower, start, maxfev = problem
    c = np.array(centre)

    def fg(x):
        z = np.array(x) - c
        Az = A @ z
        return 1.0 + 0.5 * float(z @ Az) + k * float(np.sum(np.abs(z))), (Az + k * np.sign(z)).tolist()

    assert _bits(_quasi_newton(fg, start, lower, maxfev)) == _bits(_quasi_newton_lists(fg, start, lower, maxfev))


@pytest.mark.parametrize("structure, d, C", [("dvine", 4, (1, 3)), ("dvine", 6, (2, 5)), ("cvine", 5, (1, 4)),
                                             ("cvine", 8, (1, 2, 7)), ("dvine", 3, (1, 3))])
def test_quasi_newton_on_vine_gauges_is_bit_identical_to_the_list_oracle(structure, d, C, monkeypatch):
    # the whole multi-start solve of eta_numeric on unequal-alpha vines, whose
    # minima lie on the faces x_c = 1 and x_k = 0 of the box
    labels = expected_edges(structure, d)
    spec = VineSpec(d, structure, {e: PairCopula("iev", Logistic(a))
                                   for e, a in zip(labels, np.linspace(0.31, 0.83, len(labels)))})
    g = gauge_dvine(spec) if structure == "dvine" else gauge_cvine(spec)
    new = eta_numeric(g, C)
    monkeypatch.setattr(gauges, "_quasi_newton", _quasi_newton_lists)
    old = eta_numeric(g, C)
    assert new.diagnostics["local_solver"] == "quasi-newton"
    assert (new.eta, new.argmin.tolist(), new.diagnostics) == (old.eta, old.argmin.tolist(), old.diagnostics)


def _pinned_problem(n):
    # f(x) = 1 + z'Az/2 + sum z^4/4, z = x - c, on x >= 0, with A tridiagonal
    # (2 on the diagonal, -0.6 beside it) and c_1 = -0.5 below its bound, so
    # that bound binds; only +, -, * and math.fsum, so that every float of f
    # and its gradient is the same on every Python version
    c = [-0.5 if k == 1 else 0.3 + 0.4 * k for k in range(n)]

    def fg(x):
        z = [v - ck for v, ck in zip(x, c)]
        az = [2.0 * z[i] - 0.6 * ((z[i - 1] if i else 0.0) + (z[i + 1] if i + 1 < n else 0.0)) for i in range(n)]
        cubes = [zk * zk * zk for zk in z]
        f = 1.0 + math.fsum([0.5 * zk * ak for zk, ak in zip(z, az)] + [0.25 * q * zk for q, zk in zip(cubes, z)])
        return f, [ak + q for ak, q in zip(az, cubes)]

    return fg


@pytest.mark.parametrize("n, expected", [
    (4, (["0x1.cb20b94464b06p-2", "0x0.0p+0", "0x1.433097212fc81p+0", "0x1.8c7651373705bp+0"],
         "0x1.37fd000304913p+0",
         ["0x1.b76952d000000p-28", "0x1.e0838df1bcef8p-1", "-0x1.5ba17b4900000p-28", "0x1.4cdd6cf646000p-27"],
         14)),
    (6, (["0x1.cb20b980be6b6p-2", "0x0.0p+0", "0x1.439fc274c66e6p+0", "0x1.8df7b3ffbe8a6p+0",
          "0x1.eb00fdf906a45p+0", "0x1.27172fadcef41p+1"],
         "0x1.37ebc920dab57p+0",
         ["0x1.d51421ce00000p-27", "0x1.dffe26ae86d64p-1", "0x1.43d14f5000000p-26", "-0x1.278c6ec828000p-28",
          "-0x1.a36ea22c2c000p-32", "0x1.b78ac16ead600p-32"],
         18)),
])
def test_quasi_newton_bits_are_pinned_across_python_versions(n, expected):
    # literals from Python 3.11; each dot product of the solve is a
    # math.fsum, exactly rounded, so 3.12's compensated sum changes none
    start = [1.0 + 0.25 * k for k in range(n)]
    assert _bits(_quasi_newton(_pinned_problem(n), start, [0.0] * n, 400)) == expected


def test_quasi_newton_code_is_compiled_once_per_dimension():
    def assert_as_lists(fg, x, lower, maxfev):
        assert _bits(_quasi_newton(fg, x, lower, maxfev)) == _bits(_quasi_newton_lists(fg, x, lower, maxfev))

    _qn_code.cache_clear()
    for n in (3, 3, 5):
        assert_as_lists(_pinned_problem(n), [1.0 + 0.25 * k for k in range(n)], [0.0] * n, 400)
    info = _qn_code.cache_info()
    assert (info.misses, info.hits) == (2, 1) and _qn_code(3).__code__ is not _qn_code(5).__code__
    # no evaluation at maxfev < 1, the start projected onto the box, at any n;
    # and n = 2, the smallest an eta query solves, as the list solve
    for n in (2, 5):
        for maxfev in (0, -3):
            assert_as_lists(_pinned_problem(n), [-1.0 + 0.5 * k for k in range(n)], [0.0] * n, maxfev)
    for maxfev in (1, 3, 400):
        assert_as_lists(_pinned_problem(2), [2.0, 2.0], [0.0, 1.0], maxfev)


# ---------------------------------------------------------------------------
# packaging
# ---------------------------------------------------------------------------

def test_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, vinetail, vinetail.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
