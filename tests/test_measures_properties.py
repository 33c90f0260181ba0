"""Property tests of the measure kernel _cond_parts -> (w, V, ln K), with
K = V1 V2 - V12, all at (1/tu, 1/tv), and of the logistic h-inverse solve."""

import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vinetail import AsymmetricLogistic, ConvergenceError, Logistic, PairCopula
from vinetail import measures
from vinetail.measures import ExponentMeasure

# exponential-margin coordinates out to the deepest tails the clouds reach
coords = st.lists(st.floats(1e-3, 35.0), min_size=2, max_size=40, unique=True)
alphas = st.floats(0.05, 1.0)


def arrays(ts):
    # every ordered pair of the drawn coordinates, so both branches tu < tv
    # and tu > tv and the tie tu = tv are covered
    tu, tv = np.meshgrid(ts, ts)
    return tu.ravel(), tv.ravel()


def reference_density(pc, u, v):
    # the density straight from the measure partials:
    # e^(tu + tv - V) (V1 V2 - V12) / (tu tv)^2 at (1/tu, 1/tv)
    tu, tv = pc._t(u), pc._t(v)
    m, x, y = pc.measure, 1.0 / tu, 1.0 / tv
    K = m._v1(x, y) * m._v2(x, y) - m._v12(x, y)
    return np.exp(tu + tv - m._v(x, y)) * K / (tu * tv) ** 2


@given(alphas, coords)
def test_logistic_kernel_matches_generic_route(a, ts):
    m = Logistic(a)
    tu, tv = arrays(ts)
    w, V, lnK = m._cond_parts(tu, tv)
    w_ref, V_ref, lnK_ref = ExponentMeasure._cond_parts(m, tu, tv)
    assert np.array_equal(w, w_ref)
    assert np.all(np.abs(V - V_ref) <= 1e-14 * V_ref)
    assert np.all(np.abs(lnK - lnK_ref) <= 1e-12)


@given(st.sampled_from(["ev", "iev"]), alphas, st.floats(0.0, 1.0), st.floats(0.0, 1.0), coords)
def test_density_matches_partials(family, a, t1, t2, ts):
    tu, tv = arrays(ts)
    for measure in (Logistic(a), AsymmetricLogistic(a, t1, t2)):
        pc = PairCopula(family, measure)
        # uniforms whose log-scale coordinates are tu and tv
        u, v = (np.exp(-t) if family == "ev" else -np.expm1(-t) for t in (tu, tv))
        ref = reference_density(pc, u, v)
        assert np.all(np.abs(pc.density(u, v) - ref) <= 1e-12 * ref)


@given(alphas, coords)
def test_asymmetric_logistic_without_atoms_is_logistic(a, ts):
    tu, tv = arrays(ts)
    w, V, lnK = AsymmetricLogistic(a, 0.0, 0.0)._cond_parts(tu, tv)
    w_ref, V_ref, lnK_ref = Logistic(a)._cond_parts(tu, tv)
    assert np.all(np.abs(w - w_ref) <= 1e-13 * np.abs(w_ref))
    assert np.all(np.abs(V - V_ref) <= 1e-14 * V_ref)
    assert np.all(np.abs(lnK - lnK_ref) <= 1e-12)


def newton_steps(a, c, tv):
    """Steps of plain Newton on F(y) = tv expm1(a y) + (1 - a) y = c from
    the looser start min(c/(a tv + 1 - a), log1p(c/tv)/a), to the stop
    |dy| <= 1e-15 y + 1e-300, which takes a confirming step."""
    b = 1.0 - a
    y = min(c / (a * tv + b), math.log1p(c / tv) / a)
    for k in range(1, 101):
        e = math.expm1(a * y)
        dy = (tv * e + b * y - c) / ((e + 1.0) * (a * tv) + b)
        y -= dy
        if abs(dy) <= 1e-15 * y + 1e-300:
            return k
    raise AssertionError("Newton did not converge")


def solve_steps(measure, wstar, tv):
    """The fewest iterations _solve_t needs: the smallest cap it meets."""
    for k in range(1, 101):
        with mock.patch.object(measures, "_SOLVE_MAXITER", k):
            try:
                measure._solve_t(wstar, tv)
                return k
            except ConvergenceError:
                pass
    raise AssertionError("the solve did not converge")


@given(st.floats(0.01, 1.0), st.floats(-300.0, math.log10(60.0)), st.floats(-15.0, math.log10(80.0)))
@example(0.01, math.log10(60.0), -15.0)
@example(0.999, -300.0, math.log10(80.0))
@example(0.5, -300.0, -15.0)
def test_logistic_newton_solve(a, log_c, log_tv):
    # the Newton solve of Logistic against the generic Newton solve in
    # s = ln t on the same kernel, at w* = -c; its tighter start and
    # certified stop take no more steps than plain Newton
    c, tv = 10.0**log_c, 10.0**log_tv
    m = Logistic(a)
    wstar, tvs = np.array([-c]), np.array([tv])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = m._solve_t(wstar, tvs)[0]
    want = ExponentMeasure._solve_t(m, wstar, tvs)[0]
    # the generic bracket stops at t = 1e-300, where the logistic root can
    # lie below it (a near 1, tv tiny)
    if want > 1e-290:
        assert abs(t - want) <= 1e-13 * want
    if a < 1.0:
        assert solve_steps(m, wstar, tvs) <= newton_steps(a, c, tv)


@given(st.floats(0.9, 0.999999), st.floats(-300.0, math.log10(60.0)), st.floats(-15.0, math.log10(80.0)))
@example(0.999999, -300.0, math.log10(80.0))
@example(0.999, -8.0, math.log10(80.0))
@example(0.9375, 0.0, 0.96875)
@example(0.99, -2.625, 0.0)
def test_logistic_newton_stop_is_certified(a, log_c, log_tv):
    # the stop (alpha/2) dy^2 <= 1e-15 y takes no confirming step, so the
    # bound must hold for the last step's own error, to which the step's
    # rounding adds a few ulp.  It is tightest with alpha near 1, where
    # F''/F' = alpha (1 - (1 - alpha)/F') reaches alpha.  Where c is tiny,
    # so that u = alpha y <= c/(tv + 1/alpha - 1) is below 1e-3, the start
    # is so close that only the rounding is left.  The root is a 50-digit
    # mpmath root of F(y) = c at the same float alpha, c and tv
    c, tv = 10.0**log_c, 10.0**log_tv
    y = Logistic(a)._solve_y(np.array([c]), np.array([tv]))[0]
    with mpmath.workdps(50):
        A, C, TV = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(tv)
        root = mpmath.findroot(lambda r: TV * mpmath.expm1(A * r) + (1 - A) * r - C, mpmath.mpf(y))
        err = float(abs(mpmath.mpf(y) - root))
    tol = 4 * math.ulp(float(root))
    assert err <= (tol if c <= 1e-3 * (tv + 1.0 / a - 1.0) else tol + 1e-15 * float(root))


def test_logistic_solve_raises_past_its_iteration_cap():
    # one step stops the point with tiny c but not the other, which the
    # error counts
    m = Logistic(0.5)
    wstar, tv = np.array([-10.0, -1e-300]), np.array([1.0, 1.0])
    assert solve_steps(m, wstar[:1], tv[:1]) > 1
    with mock.patch.object(measures, "_SOLVE_MAXITER", 1), pytest.raises(ConvergenceError) as err:
        m._solve_t(wstar, tv)
    assert err.value.diagnostics["unconverged"] == 1
