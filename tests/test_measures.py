import numpy as np
import pytest
from numpy.testing import assert_allclose

from vinetail import AsymmetricLogistic, DomainError, Logistic, ParameterError, UnsupportedMeasureError

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
