import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import qmc

from vinetail import (
    AsymmetricLogistic,
    ConvergenceError,
    DegenerateConditionerError,
    DomainError,
    Logistic,
    PairCopula,
)

RNG = np.random.default_rng(271828)

ILOG = PairCopula("iev", Logistic(0.5))
EVLOG = PairCopula("ev", Logistic(0.5))
IND_IEV = PairCopula("iev", Logistic(1.0))
IND_EV = PairCopula("ev", Logistic(1.0))
ALOG_EV = PairCopula("ev", AsymmetricLogistic(0.5, 0.3, 0.6))

ALL = [ILOG, EVLOG, IND_IEV, IND_EV, ALOG_EV]


@pytest.mark.parametrize("pc", ALL)
def test_uniform_margins(pc):
    u = np.linspace(0.0, 1.0, 21)
    assert_allclose(pc.cdf(u, np.ones_like(u)), u, atol=1e-10)
    assert_allclose(pc.cdf(np.ones_like(u), u), u, atol=1e-10)
    assert np.all(pc.cdf(u, np.zeros_like(u)) == 0.0)
    assert np.all(pc.cdf(np.zeros_like(u), u) == 0.0)


def test_independence_values():
    assert IND_IEV.cdf(0.3, 0.7) == pytest.approx(0.21, abs=1e-14)
    assert IND_EV.cdf(0.3, 0.7) == pytest.approx(0.21, abs=1e-14)
    assert IND_IEV.hfunc(0.42, 0.9) == pytest.approx(0.42, abs=1e-12)
    assert IND_IEV.hinv(0.42, 0.9) == pytest.approx(0.42, abs=1e-10)
    u, v = RNG.random(50), RNG.uniform(0.05, 0.95, 50)
    assert_allclose(IND_EV.density(u, v), 1.0, atol=1e-10)


def test_cdf_monte_carlo_oracle():
    """Positive-stable frailty sampler for the logistic EV copula; the
    inverted copula follows by u + v - 1 + survival."""
    theta = 1.0 / 0.5
    n = 10**6
    rng = np.random.default_rng(987)
    a = 1.0 / theta
    U = rng.uniform(0.0, np.pi, n)
    W = rng.exponential(1.0, n)
    S = np.sin(a * U) / np.sin(U) ** (1 / a) * (np.sin((1 - a) * U) / W) ** ((1 - a) / a)
    E = rng.exponential(1.0, (2, n))
    g = np.exp(-((E / S) ** (1.0 / theta)))
    for u, v in [(0.5, 0.5), (0.3, 0.7)]:
        emp_ev = np.mean((g[0] <= u) & (g[1] <= v))
        assert abs(emp_ev - EVLOG.cdf(u, v)) < 2e-3
        emp_iev = u + v - 1.0 + np.mean((g[0] <= 1 - u) & (g[1] <= 1 - v))
        assert abs(emp_iev - ILOG.cdf(u, v)) < 2e-3


@pytest.mark.parametrize("pc", ALL)
def test_hfunc_boundary_and_mass(pc):
    v = np.array([0.1, 0.5, 0.9])
    assert np.all(pc.hfunc(np.zeros_like(v), v) == 0.0)
    assert np.all(pc.hfunc(np.ones_like(v), v) == 1.0)
    with pytest.raises(DegenerateConditionerError):
        pc.hfunc(0.5, 1.0)
    with pytest.raises(DegenerateConditionerError):
        pc.hinv(0.5, 0.0)


@pytest.mark.parametrize("pc", [ILOG, EVLOG, ALOG_EV])
def test_hfunc_matches_cdf_derivative(pc):
    h = 1e-6
    for u in (0.2, 0.5, 0.8):
        for v in (0.3, 0.5, 0.7):
            fd = (pc.cdf(u, v + h) - pc.cdf(u, v - h)) / (2 * h)
            assert abs(pc.hfunc(u, v) - fd) < 1e-6


@pytest.mark.parametrize("pc", [ILOG, EVLOG, ALOG_EV])
def test_hfunc_monotone_in_u(pc):
    u = np.linspace(0.0, 1.0, 100)
    for v in np.linspace(0.01, 0.99, 100):
        vals = pc.hfunc(u, np.full_like(u, v))
        assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("pc", ALL)
def test_hinv_roundtrip(pc):
    u = RNG.random(1000)
    v = RNG.uniform(0.01, 0.99, 1000)
    p = pc.hfunc(u, v)
    back = pc.hinv(p, v)
    assert np.max(np.abs(back - u)) < 1e-9
    assert pc.hinv(0.0, 0.5) == 0.0
    assert pc.hinv(1.0, 0.5) == 1.0


def test_hinv_recovers_small_conditional_mass():
    # hfunc is about 4e-13 here; AsymmetricLogistic(alpha, 0, 0) is
    # Logistic(alpha) in value, and both solve back to u in full precision
    u = 1.62e-5
    for measure in (AsymmetricLogistic(0.375, 0.0, 0.0), Logistic(0.375)):
        pc = PairCopula("iev", measure)
        assert abs(pc.hinv(pc.hfunc(u, 0.5), 0.5) - u) <= 1e-12 * u


@pytest.mark.parametrize("pc", [ILOG, EVLOG, ALOG_EV])
def test_density_integrates_to_one(pc):
    pts = qmc.Halton(2, seed=11).random(100_000)
    pts = np.clip(pts, 1e-12, 1 - 1e-12)
    val = np.mean(pc.density(pts[:, 0], pts[:, 1]))
    assert abs(val - 1.0) < 5e-3


def test_density_exchangeable_for_logistic():
    u, v = RNG.uniform(0.05, 0.95, 100), RNG.uniform(0.05, 0.95, 100)
    for pc in (ILOG, EVLOG):
        assert_allclose(pc.density(u, v), pc.density(v, u), rtol=1e-12)


@pytest.mark.parametrize("pc", [ILOG, EVLOG])
def test_density_matches_mixed_difference(pc):
    h = 1e-4
    for u in (0.3, 0.5, 0.7):
        for v in (0.25, 0.6):
            fd = (
                pc.cdf(u + h, v + h) - pc.cdf(u + h, v - h)
                - pc.cdf(u - h, v + h) + pc.cdf(u - h, v - h)
            ) / (4 * h * h)
            assert abs(pc.density(u, v) - fd) < 1e-4 * max(fd, 1.0)


@pytest.mark.parametrize("pc", ALL)
def test_two_increasing(pc):
    lo = RNG.uniform(0.0, 0.9, (200, 2))
    hi = lo + RNG.uniform(0.0, 1.0, (200, 2)) * (1.0 - lo)
    mass = (
        pc.cdf(hi[:, 0], hi[:, 1]) - pc.cdf(lo[:, 0], hi[:, 1])
        - pc.cdf(hi[:, 0], lo[:, 1]) + pc.cdf(lo[:, 0], lo[:, 1])
    )
    assert np.all(mass >= -1e-12)


def test_density_boundary_errors():
    with pytest.raises(DomainError):
        ILOG.density(0.0, 0.5)
    with pytest.raises(DomainError):
        EVLOG.density(0.5, 1.0)
    with pytest.raises(DomainError):
        ILOG.cdf(1.2, 0.5)


def test_swapped_conditions_on_first_argument():
    pc = PairCopula("ev", AsymmetricLogistic(0.4, 0.1, 0.8))
    h = 1e-6
    for u in (0.3, 0.6):
        for v in (0.4, 0.7):
            fd = (pc.cdf(u + h, v) - pc.cdf(u - h, v)) / (2 * h)
            assert pc.swapped().hfunc(v, u) == pytest.approx(fd, abs=1e-6)
    assert pc.swapped().swapped() is pc


@pytest.mark.parametrize("family", ["ev", "iev"])
@pytest.mark.parametrize(
    "measure",
    [Logistic(0.3), Logistic(0.5), Logistic(0.7), AsymmetricLogistic(0.5, 0.3, 0.6)],
    ids=repr,
)
def test_log_scale_solve_deep_tail(family, measure):
    """t -> w = cond_exponent(t, tv) -> t on the exponential scale, out to
    t = 35, past -ln(1e-15), where the clouds' deepest coordinates live."""
    pc = PairCopula(family, measure)
    t = np.geomspace(1e-3, 35.0, 80)
    tv = np.concatenate([pc._t(np.linspace(0.01, 0.99, 9)), np.geomspace(1e-3, 35.0, 12)])
    T, TV = (a.ravel() for a in np.meshgrid(t, tv))
    w = measure._cond_exponent(T, TV)
    assert np.all(w < 0.0)
    assert np.max(np.abs(measure._solve_t(w, TV) - T)) <= 1e-6


@pytest.mark.parametrize("family", ["ev", "iev"])
@pytest.mark.parametrize(
    "measure",
    [Logistic(0.3), Logistic(0.7), AsymmetricLogistic(0.5, 0.3, 0.6), AsymmetricLogistic(0.5, 0.6, 0.3)],
    ids=repr,
)
def test_exponential_coordinate_roundtrip_deep_tail(family, measure):
    """hfunc_x(hinv_x(xp, xv), xv) = xp out to xp, xv = 60, where the
    uniform scale has no room: 1 - e^-40 already rounds to 1."""
    assert -np.expm1(-40.0) == 1.0
    pc = PairCopula(family, measure)
    x = np.geomspace(1e-4, 60.0, 40)
    XP, XV = (a.ravel() for a in np.meshgrid(x, x))
    back = pc.hfunc_x(pc.hinv_x(XP, XV), XV)
    assert np.all(np.abs(back - XP) <= 1e-12 * XP)


def test_generic_solve_keeps_precision_at_tiny_t():
    # with alpha = 1 and no atoms the IEV h-inverse is u = p; s = ln t near
    # -549 carries 4e-14 of relative error into e^s, which the closing
    # Newton step in t removes
    pc = PairCopula("iev", AsymmetricLogistic(1.0, 0.0, 0.0))
    p = 2.807216203941101e-239
    assert abs(pc.hinv(p, 1.0 - 1e-15) - p) <= 4 * np.spacing(p)


@pytest.mark.parametrize("alpha", [0.001, 0.003, 0.05, 0.3, 0.7, 0.95, 1.0])
@pytest.mark.parametrize("family", ["ev", "iev"])
def test_logistic_solve_matches_generic_route(family, alpha):
    """AsymmetricLogistic(alpha, 0, 0) is Logistic(alpha) in value, and its
    h-inverse runs the generic Newton solve in s = ln t: on a grid of t and
    tv out to 60 the two solves agree, at the w* each family solves for."""
    logistic, generic = Logistic(alpha), AsymmetricLogistic(alpha, 0.0, 0.0)
    t = np.geomspace(1e-3, 60.0, 60)
    T, TV = (a.ravel() for a in np.meshgrid(t, t))
    w = logistic._cond_exponent(T, TV)
    p = np.exp(w) if family == "ev" else -np.expm1(w)
    # hinv maps p = 0 and p = 1 to u directly, and below about 1e-300 w
    # keeps too few significant bits to pin t down
    keep = (p > 0.0) & (p < 1.0) & (w < -1e-300)
    # w* = ln p (EV) or ln(1 - p) (IEV), as hinv forms it
    wstar = np.log(p[keep]) if family == "ev" else np.log1p(-p[keep])
    TV = TV[keep]
    got, want = logistic._solve_t(wstar, TV), generic._solve_t(wstar, TV)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


@pytest.mark.parametrize("family", ["ev", "iev"])
def test_logistic_h_functions_skip_the_full_kernel(monkeypatch, family):
    # the logistic hfunc needs w alone, and its hinv solves its own convex
    # equation; a fall-back to the generic solve would call _cond_parts on
    # every Newton step
    calls = []

    def counted(self, tu, tv, _kernel=Logistic._cond_parts):
        calls.append(tu.size)
        return _kernel(self, tu, tv)

    monkeypatch.setattr(Logistic, "_cond_parts", counted)
    pc = PairCopula(family, Logistic(0.5))
    u, v = RNG.random(200), RNG.uniform(0.01, 0.99, 200)
    back = pc.hinv(pc.hfunc(u, v), v)
    assert calls == []
    assert np.max(np.abs(back - u)) < 1e-9


# the logistic measure has its own solve; the asymmetric one runs the default
@pytest.mark.parametrize(
    "pc", [ILOG, PairCopula("iev", AsymmetricLogistic(0.5, 0.3, 0.6))], ids=["logistic", "asymmetric_logistic"]
)
def test_hinv_reports_non_convergence(monkeypatch, pc):
    import vinetail.measures as measures

    monkeypatch.setattr(measures, "_SOLVE_MAXITER", 1)
    with pytest.raises(ConvergenceError) as info:
        pc.hinv(np.array([0.2, 0.7]), np.array([0.4, 0.9]))
    assert info.value.diagnostics["unconverged"] == 2
    assert info.value.diagnostics["max_bracket_width"] > 0.0
