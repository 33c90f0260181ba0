import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from vinetail import (
    AsymmetricLogistic,
    DomainError,
    Logistic,
    ParameterError,
    UnsupportedMeasureError,
    inverted_ev_gauge,
)
from vinetail.measures import ExponentMeasure

RNG = np.random.default_rng(314159)


def central_diff(f, x, y, h=1e-6):
    return (f(x + h, y) - f(x - h, y)) / (2 * h)


v_cases = [
    # (measure, x, y, expected)
    (Logistic(1.0), 1.0, 1.0, 2.0),                      # independence V = 1/x + 1/y
    (Logistic(0.5), 1.0, 1.0, 2.0**0.5),
    (Logistic(0.5), 2.0, 2.0, 2.0**0.5 / 2.0),           # order -1 homogeneity
    (AsymmetricLogistic(0.5, 1.0, 1.0), 1.0, 1.0, 2.0),  # all mass on atoms -> independence
    (AsymmetricLogistic(0.5, 1.0, 1.0), 0.5, 4.0, 2.25),
]


@pytest.mark.parametrize("m,x,y,expected", v_cases)
def test_v_values(m, x, y, expected):
    assert_allclose(m.V(x, y), expected, rtol=1e-14)


def test_extended_real_limits_exact():
    for m in (Logistic(0.5), Logistic(1.0), AsymmetricLogistic(0.7, 0.2, 0.9)):
        for x in (0.3, 1.0, 7.5):
            assert m.V(x, np.inf) == pytest.approx(1.0 / x, abs=0)
            assert m.V(np.inf, x) == pytest.approx(1.0 / x, abs=0)
        assert m.V(np.inf, np.inf) == 0.0


def test_marginal_limit_large_argument():
    m = Logistic(0.4)
    for x in (0.2, 1.0, 3.0):
        assert abs(m.V(x, 1e12) - 1.0 / x) < 1e-10


def test_homogeneity_sweep():
    for m in (Logistic(0.35), AsymmetricLogistic(0.5, 0.3, 0.8)):
        pts = RNG.uniform(0.1, 10.0, size=(100, 3))
        for x, y, t in pts:
            ref = m.V(x, y) / t
            assert abs(m.V(t * x, t * y) - ref) < 1e-12 * abs(ref)


def test_monotone_nonincreasing():
    m = Logistic(0.45)
    pts = RNG.uniform(0.1, 10.0, size=(200, 2))
    delta = 0.1
    assert np.all(m.V(pts[:, 0] + delta, pts[:, 1]) <= m.V(pts[:, 0], pts[:, 1]))


@pytest.mark.parametrize("m", [Logistic(0.5), Logistic(0.25), Logistic(1.0),
                               AsymmetricLogistic(0.6, 0.25, 0.7)])
def test_partials_match_finite_differences(m):
    xs = np.linspace(0.3, 3.0, 20)
    for x in xs:
        for y in xs:
            v1 = m.V1(x, y)
            fd = central_diff(m.V, x, y)
            assert abs(v1 - fd) < 1e-6 * max(abs(fd), 1e-12)
            v2 = m.V2(x, y)
            fd2 = (m.V(x, y + 1e-6) - m.V(x, y - 1e-6)) / 2e-6
            assert abs(v2 - fd2) < 1e-6 * max(abs(fd2), 1e-12)


def test_v12_finite_difference_and_signs():
    m = Logistic(0.3)
    h = 1e-5
    for x, y in RNG.uniform(0.5, 2.0, size=(50, 2)):
        fd = (m.V(x + h, y + h) - m.V(x + h, y - h) - m.V(x - h, y + h) + m.V(x - h, y - h)) / (4 * h * h)
        assert abs(m.V12(x, y) - fd) < 2e-5 * max(abs(fd), 1e-10)
        assert m.V1(x, y) <= 0 and m.V2(x, y) <= 0 and m.V12(x, y) <= 0


def test_partial_homogeneity_orders():
    m = Logistic(0.5)
    # V1, V2 of order -2; V12 of order -3
    assert_allclose(m.V2(2.0, 2.0), m.V2(1.0, 1.0) / 4.0, rtol=1e-13)
    assert_allclose(m.V12(2.0, 2.0), m.V12(1.0, 1.0) / 8.0, rtol=1e-13)


def test_independence_has_zero_cross_derivative():
    m = Logistic(1.0)
    pts = RNG.uniform(0.1, 5.0, size=(20, 2))
    assert np.all(m.V12(pts[:, 0], pts[:, 1]) == 0.0)


def test_tail_orders():
    t = Logistic(0.5).tail_orders()
    assert t.s1 == t.s2 == 0.0
    assert Logistic(0.25).tail_orders().s1 == pytest.approx(2.0)
    with pytest.raises(UnsupportedMeasureError):
        AsymmetricLogistic(0.5, 0.2, 0.4).tail_orders()
    with pytest.raises(UnsupportedMeasureError):
        Logistic(1.0).tail_orders()


def test_tail_orders_match_spectral_density():
    # h(w) = -V12(ws, (1-w)s) * s^3 / 2; compare with c2 * w^s2 as w -> 0
    m = Logistic(0.25)
    t = m.tail_orders()
    for w in (1e-4, 1e-5):
        h_w = -m.V12(w, 1.0 - w) / 2.0
        assert h_w == pytest.approx(t.c2 * w**t.s2, rel=1e-3)


def test_domain_and_parameter_errors():
    m = Logistic(0.5)
    with pytest.raises(DomainError):
        m.V(-1.0, 1.0)
    with pytest.raises(DomainError):
        m.V(0.0, 1.0)
    with pytest.raises(DomainError):
        m.V1(np.inf, 1.0)
    with pytest.raises(ParameterError):
        Logistic(0.0)
    with pytest.raises(ParameterError):
        Logistic(1.5)
    with pytest.raises(ParameterError):
        AsymmetricLogistic(0.5, -0.1, 0.5)


FLOAT_PATH_MEASURES = [Logistic(0.5), Logistic(1.0), AsymmetricLogistic(0.7, 0.2, 0.9), AsymmetricLogistic(0.5, 1.0, 0.3)]


@pytest.mark.parametrize("m", FLOAT_PATH_MEASURES, ids=repr)
@pytest.mark.parametrize("x, y", [(np.nan, 1.0), (1.0, np.nan), (np.nan, -1.0), (-1.0, np.nan), (0.0, 1.0),
                                  (1.0, -0.0), (-2.0, 3.0), (-np.inf, 1.0), (0.0, np.inf), (np.nan, np.inf)])
def test_float_path_raises_the_array_path_errors(m, x, y):
    # two Python floats are checked in Python; the messages, and which
    # check fires first, are the array path's
    with pytest.raises(DomainError) as on_floats:
        m.V(x, y)
    with pytest.raises(DomainError) as on_arrays:
        m.V(np.array(x), np.array(y))
    assert str(on_floats.value) == str(on_arrays.value)


@pytest.mark.parametrize("m", FLOAT_PATH_MEASURES, ids=repr)
def test_float_path_takes_the_exact_limits_and_returns_floats(m):
    for x in (1e-300, 0.3, 1.0, 7.5, 1e300):
        for v in (m.V(x, np.inf), m.V(np.inf, x)):
            assert type(v) is float and v == 1.0 / x
    assert type(m.V(0.4, 2.5)) is float and type(m.V(np.inf, np.inf)) is float
    assert m.V(np.inf, np.inf) == 0.0


def test_float_path_past_the_float_range_takes_the_one_power_form():
    # alpha = 0.01 gives x^-100, which overflows as a float power at x = 1e-4;
    # the one-power form keeps V finite on both paths and in the scalar
    # gauge: V = 0.3e4 + 0.6 + 0.7e4 (1 + (0.4e-4/0.7)^100)^0.01
    m = AsymmetricLogistic(0.01, 0.3, 0.6)
    v = m.V(1e-4, 1.0)
    assert v == pytest.approx(10000.6, rel=1e-15)
    assert float(m.V(np.array(1e-4), np.array(1.0))) == pytest.approx(v, rel=1e-15)
    assert inverted_ev_gauge(m)([1e4, 1.0]) == v  # the scalar gauge calls the same branch


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05])
def test_logistic_below_the_float_range_takes_the_one_power_form(alpha):
    # where both powers x^(-1/alpha) underflow the direct sum is 0 or
    # subnormal, and V read 0: Logistic(0.01).V(2000, 2000) is 2^0.01/2000.
    # The reference is the formula in 50-digit mpmath with the float q
    q = 1.0 / alpha
    pts = [(2000.0, 2000.0), (2000.0, 3000.0), (1e4, 5e3), (1300.0, 1400.0), (1.5, 1e6), (3.0, 3.5)]
    pts = [(x ** (0.01 / alpha), y ** (0.01 / alpha)) for x, y in pts]  # the same powers at every alpha
    with mpmath.workdps(50):
        ref = [float((mpmath.mpf(x) ** -mpmath.mpf(q) + mpmath.mpf(y) ** -mpmath.mpf(q)) ** mpmath.mpf(alpha))
               for x, y in pts]
    m = Logistic(alpha)
    xs, ys = np.array(pts).T
    assert_allclose([m.V(x, y) for x, y in pts], ref, rtol=1e-14)  # float path
    assert_allclose(m.V(xs, ys), ref, rtol=1e-14)                  # array path
    g = inverted_ev_gauge(m)
    gv = [g([1.0 / x, 1.0 / y]) for x, y in pts]
    assert gv == [m.V(1.0 / (1.0 / x), 1.0 / (1.0 / y)) for x, y in pts]  # the scalar plan calls the same branch
    assert_allclose(g(1.0 / np.array(pts)), gv, rtol=1e-15)
    if alpha == 0.01:
        assert m.V(2000.0, 2000.0) == pytest.approx(2.0**0.01 / 2000.0, rel=1e-15)
        assert g([5e-4, 5e-4]) > 0.0
    # where the direct sum is a normal float every value keeps its bits
    x, y = np.random.default_rng(2718).uniform(0.05, 20.0, size=(2, 2000))
    with np.errstate(over="ignore"):
        s = x ** (-q) + y ** (-q)
    ok = (s >= np.finfo(float).tiny) & (s < np.inf)
    assert np.array_equal(m.V(x[ok], y[ok]), s[ok] ** alpha)
    for a, b in zip(x[:200].tolist(), y[:200].tolist()):  # the float path, on Python floats
        try:
            s = a ** (-q) + b ** (-q)
        except OverflowError:
            continue
        if np.finfo(float).tiny <= s < np.inf:
            assert m.V(a, b) == s**alpha


@pytest.mark.parametrize("alpha", [0.001, 0.05])
@pytest.mark.parametrize("t1, t2", [(0.3, 0.6), (0.9, 0.6), (0.55, 0.3), (0.0, 0.999)])
def test_asymmetric_logistic_partials_at_small_alpha_against_mpmath(alpha, t1, t2):
    # the direct partials multiply (1 - theta)^(1/alpha), which underflows,
    # by x^(-1/alpha - 1), which overflows, and read NaN:
    # AsymmetricLogistic(0.001, 0.3, 0.6).V1(0.5, 0.04) was nan.  The
    # reference is the direct form in 50-digit mpmath, where nothing
    # underflows.  The rounding of 1 - theta, half an ulp, enters raised to
    # the power q, so the tolerance is 4 q ulp
    pts = [(0.5, 0.04), (1.0, 1.0), (5.0, 1.0), (2.5, 2.0), (1e3, 0.5), (1e-4, 1.0), (0.4966, 0.774)]
    m = AsymmetricLogistic(alpha, t1, t2)
    with mpmath.workdps(50):
        q, a = mpmath.mpf(1.0 / alpha), mpmath.mpf(alpha)
        T1, T2 = mpmath.mpf(t1), mpmath.mpf(t2)
        ref = {"V1": [], "V2": [], "V12": []}
        for x, y in (map(mpmath.mpf, pt) for pt in pts):
            p = ((1 - T1) / x) ** q + ((1 - T2) / y) ** q
            ref["V1"].append(float(-T1 / x**2 - (1 - T1) ** q * x ** (-q - 1) * p ** (a - 1)))
            ref["V2"].append(float(-T2 / y**2 - (1 - T2) ** q * y ** (-q - 1) * p ** (a - 1)))
            ref["V12"].append(float((a - 1) / a * ((1 - T1) * (1 - T2)) ** q * (x * y) ** (-q - 1) * p ** (a - 2)))
    xs, ys = np.array(pts).T
    for name, want in ref.items():
        assert_allclose(getattr(m, name)(xs, ys), want, rtol=4.0 / alpha * np.finfo(float).eps, err_msg=name)
    x, y = np.random.default_rng(2718).uniform(1e-3, 10.0, size=(2, 20_000))
    for name in ref:
        assert np.all(np.isfinite(getattr(m, name)(x, y))), name


@pytest.mark.parametrize("alpha", [0.001, 0.003, 0.05])
@pytest.mark.parametrize("t1, t2", [(0.3, 0.6), (0.9, 0.6), (0.55, 0.3), (0.0, 0.999)])
def test_asymmetric_logistic_small_alpha_against_mpmath(alpha, t1, t2):
    # at alpha = 0.001 the weights' powers (1 - theta)^(1/alpha) underflow
    # and x^(-1/alpha) overflows, which made the direct form NaN or dropped
    # a term; the reference is the same formula in 50-digit mpmath, with the
    # float q = 1/alpha
    pts = [(0.5, 0.04), (1.0, 1.0), (5.0, 1.0), (1.0, 5.0), (2.5, 2.0), (1e3, 0.5), (1e-6, 10.0),
           (1e-4, 1.0), (0.4966, 0.774)]
    m = AsymmetricLogistic(alpha, t1, t2)
    with mpmath.workdps(50):
        q, a = mpmath.mpf(1.0 / alpha), mpmath.mpf(alpha)
        T1, T2 = mpmath.mpf(t1), mpmath.mpf(t2)
        ref = [float(T1 / x + T2 / y + (((1 - T1) / x) ** q + ((1 - T2) / y) ** q) ** a)
               for x, y in (map(mpmath.mpf, pt) for pt in pts)]
    xs, ys = np.array(pts).T
    assert_allclose([m.V(x, y) for x, y in pts], ref, rtol=1e-14)  # float path
    assert_allclose(m.V(xs, ys), ref, rtol=1e-14)                  # array path
    x, y = RNG.uniform(1e-3, 10.0, size=(2, 20_000))
    assert np.all(np.isfinite(m.V(x, y)))


margins = st.floats(1e-6, 1e6)


@given(st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), margins, margins)
def test_float_path_is_the_scalar_gauge_bit_for_bit(a, t1, t2, p, q):
    # g(p, q) = V(1/p, 1/q) of the inverted EV gauge, whose scalar plan
    # inlines the logistic float form and calls _v for other measures
    for m in (Logistic(a), AsymmetricLogistic(a, t1, t2)):
        assert m.V(1.0 / p, 1.0 / q) == inverted_ev_gauge(m).scalar_evaluator()(p, q)


def test_transpose():
    m = AsymmetricLogistic(0.5, 0.2, 0.7)
    mt = m.transposed()
    for x, y in RNG.uniform(0.2, 4.0, size=(20, 2)):
        assert mt.V(x, y) == pytest.approx(m.V(y, x), rel=1e-15)
        assert mt.V2(x, y) == pytest.approx(m.V1(y, x), rel=1e-13)
    sym = Logistic(0.5)
    assert sym.transposed() is sym


def test_vectorised_evaluation():
    m = Logistic(0.4)
    x = RNG.uniform(0.2, 3.0, 64)
    y = RNG.uniform(0.2, 3.0, 64)
    vec = m.V(x, y)
    assert vec.shape == (64,)
    assert_allclose(vec, [m.V(a, b) for a, b in zip(x, y)], rtol=1e-15)


@pytest.mark.parametrize("alpha", [0.001, 0.003])
def test_logistic_small_alpha_past_the_float_range(alpha):
    # (x^-q + y^-q)^alpha overflows once q ln(1/x) > 709; the reference is the
    # same formula in 40-digit decimal arithmetic, with the float q = 1/alpha
    from decimal import Decimal, localcontext

    from vinetail import inverted_ev_gauge

    pts = [(5.0, 1.0), (1.0, 5.0), (2.5, 2.0), (1e3, 0.5), (4.0, 4.0), (1e-6, 10.0), (1.0, 1.0)]
    with localcontext() as ctx:
        ctx.prec = 40
        q, a = Decimal(1.0 / alpha), Decimal(alpha)
        ref = [float((Decimal(x1) ** q + Decimal(x2) ** q) ** a) for x1, x2 in pts]
    g = inverted_ev_gauge(Logistic(alpha))  # g(x1, x2) = V(1/x1, 1/x2)
    assert_allclose([g(p) for p in pts], ref, rtol=1e-14)  # scalar path
    assert_allclose(g(np.array(pts)), ref, rtol=1e-14)     # array path
    assert_allclose(Logistic(alpha).V(1.0 / np.array(pts)[:, 0], 1.0 / np.array(pts)[:, 1]), ref, rtol=1e-14)


@pytest.mark.parametrize(
    "params,tu,tv,expected",
    [
        # 400-digit mpmath values of tv - V + ln(-V2) - 2 ln(tv) at (1/tu, 1/tv)
        ((0.3, 0.2, 0.7), 1e-4, 2.0, -2.0000000047227369e-5),
        ((0.375, 0.0, 0.0), 1.62e-5, 0.6931471805599453, -3.9513711285221259e-13),
        ((0.5, 0.3, 0.6), 2e-3, 5.0, -6.0058799990876202e-4),
        ((0.6, 0.4, 0.0), 3.0, 0.5, -3.5235178704170694),
        # (A/B)^(1/alpha) overflows: A = (1-theta1) tu, B = (1-theta2) tv
        ((0.1, 0.0, 0.5), 500.0, 1e-12, -500.69314718055945),
        ((0.25, 0.0, 0.0), 30.0, 1e-15, -143.81992132971852),
    ],
)
def test_asymmetric_logistic_conditional_exponent_exact(params, tu, tv, expected):
    w = AsymmetricLogistic(*params)._cond_exponent(np.array([tu]), np.array([tv]))
    assert_allclose(w, expected, rtol=1e-14)


def test_asymmetric_logistic_degenerate_conditional_exponent():
    # a weight at 1 leaves V = 1/x + 1/y, whose conditional exponent is -tu
    tu, tv = np.array([0.5, 2.0]), np.array([[1.0], [3.0], [7.0]])
    for m in (AsymmetricLogistic(0.3, 1.0, 0.2), AsymmetricLogistic(0.7, 0.4, 1.0)):
        w = m._cond_exponent(tu, tv)
        assert w.shape == (3, 2)
        assert np.all(w == -tu)


def _exact_al_exponent(m, tu, tv):
    # the exact rearrangement of w that AsymmetricLogistic used before its
    # own kernel: ln(theta2 + (1-theta2) e^E) through logaddexp below E = -1
    a, t1, t2 = m.alpha, m.theta1, m.theta2
    q = 1.0 / a
    A, B = (1.0 - t1) * tu, (1.0 - t2) * tv
    big = A > B
    l1p = np.log1p((np.minimum(A, B) / np.maximum(A, B)) ** q)
    grow = np.expm1(a * l1p)
    E = (a - 1.0) * (l1p + np.where(big, q * np.log(A / B), 0.0))
    with np.errstate(divide="ignore"):
        lnmix = np.where(
            E > -1.0, np.log1p((1.0 - t2) * np.expm1(E)), np.logaddexp(np.log(t2), np.log1p(-t2) + E)
        )
    return -t1 * tu - np.where(big, (A - B) + A * grow, B * grow) + lnmix


@pytest.mark.parametrize("a", [0.05, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("t1, t2", [
    (0.0, 0.0), (0.0, 1.0), (1.0, 0.3), (0.2, 0.7), (1e-12, 0.999), (0.6, 0.0), (0.999, 1e-9),
    (0.0, 1e-234),  # (1 - theta2) expm1(E) rounds to -1 where e^E < 1e-17
])
def test_asymmetric_logistic_kernel_matches_generic_route(a, t1, t2):
    # V and K = V1 V2 - V12 against the default kernel built from the
    # partials, w against the exact rearrangement; tu and tv down to 1e-6
    # make w as small as 1e-151
    ts = np.geomspace(1e-6, 35.0, 41)
    tu, tv = (g.ravel() for g in np.meshgrid(ts, ts))
    m = AsymmetricLogistic(a, t1, t2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, V, lnK = m._cond_parts(tu, tv)
    with np.errstate(all="ignore"):
        _, V_ref, lnK_ref = ExponentMeasure._cond_parts(m, tu, tv)
    assert np.min(np.abs(w)) <= 1e-6
    assert_allclose(V, V_ref, rtol=1e-12, atol=0)
    assert_allclose(lnK, lnK_ref, rtol=0, atol=1e-12)  # K to 1e-12 relative
    if not m._degenerate:
        assert_allclose(w, _exact_al_exponent(m, tu, tv), rtol=1e-12, atol=0)
    assert np.array_equal(m._cond_exponent(tu, tv), w)
