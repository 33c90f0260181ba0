import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vinetail import (
    AsymmetricLogistic,
    DomainError,
    Logistic,
    PairCopula,
    TailOrders,
    UnsupportedCombinationError,
    VineSpec,
    asymmetric_logistic_gauge,
    bev_gauge,
    bev_gauge_from_measure,
    boundary_point,
    gauge_bivariate,
    gauge_cvine,
    gauge_dvine,
    gauge_project,
    gauge_trivariate,
    gaussian_gauge,
    independence_gauge,
    inverted_ev_gauge,
    simplex_directions,
)
from vinetail import gauges
from vinetail.eta import eta_mixed_trivariate, eta_numeric
from vinetail.vines import expected_edges

RNG = np.random.default_rng(1618)


def ilog(a):
    return PairCopula("iev", Logistic(a))


def lgst(a):
    return PairCopula("ev", Logistic(a))


def tri(c12, c23, c13):
    return gauge_trivariate(VineSpec.trivariate(c12, c23, c13))


ALL_PATTERNS = [
    tri(ilog(0.5), ilog(0.25), ilog(0.5)),
    tri(ilog(0.5), ilog(0.25), lgst(0.5)),
    tri(lgst(0.5), ilog(0.25), ilog(0.5)),
    tri(lgst(0.5), ilog(0.25), lgst(0.5)),
    tri(lgst(0.5), lgst(0.25), ilog(0.5)),
    tri(lgst(0.5), lgst(0.25), lgst(0.5)),
    tri(ilog(0.5), lgst(0.25), ilog(0.5)),   # mirror of the third
    tri(ilog(0.5), lgst(0.25), lgst(0.5)),   # mirror of the fourth
]

BIVARIATE = [
    independence_gauge(),
    gaussian_gauge(0.5),
    inverted_ev_gauge(Logistic(0.5)),
    bev_gauge(0.0, 0.0),
    bev_gauge(0.5, 1.5),
    asymmetric_logistic_gauge(0.5),
]


def test_bivariate_values():
    assert independence_gauge()((0.5, 0.5)) == 1.0
    assert gaussian_gauge(0.5)((1.0, 1.0)) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert inverted_ev_gauge(Logistic(0.5))((1.0, 1.0)) == pytest.approx(2.0**0.5, rel=1e-14)
    assert bev_gauge(0.0, 0.0)((1.0, 1.0)) == 1.0
    assert asymmetric_logistic_gauge(0.5)((1.0, 1.0)) == 1.0
    # gaussian with rho = 0 degenerates to independence
    pts = RNG.uniform(0.0, 2.0, (50, 2))
    assert_allclose(gaussian_gauge(0.0)(pts), independence_gauge()(pts), rtol=1e-14)


def test_bev_asymmetric_axis_intercepts():
    # straight lines with intercepts 1/(s1+2) and 1/(s2+2), crossing at (1,1)
    g = bev_gauge(0.5, 1.5)
    assert g((1.0, 1.0)) == pytest.approx(1.0)
    assert g((1.0 / 2.5, 0.0)) == pytest.approx(1.0)
    assert g((0.0, 1.0 / 3.5)) == pytest.approx(1.0)


def _assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape and a.view(np.uint64).tolist() == b.view(np.uint64).tolist()


@pytest.mark.parametrize("s1, s2", [(0.0, 0.0), (0.5, 1.5), (-0.9, 3.0), (18.0, 18.0)])
def test_bev_gauge_is_the_plan_rule_bit_for_bit(s1, s2):
    # a grid whose every value meets every other, so it holds ties and zeros
    axis = [0.0, 5e-324, 1e-300, 0.1, 0.3, 1.0 / 3.0, 1.0, 1.0 + 2.0**-52, 2.0, 7.5, 1e6, 1e300]
    grid = np.array(list(itertools.product(axis, repeat=2))).reshape(len(axis), len(axis), 2)
    g = bev_gauge(s1, s2)
    _assert_same_bits([[g(x) for x in row] for row in grid],
                      [[_bev_oracle_s(x1, x2, s1, s2) for x1, x2 in row] for row in grid.tolist()])
    _assert_same_bits(g(grid), _bev_oracle(grid[..., 0], grid[..., 1], TailOrders(s1, s2, np.nan, np.nan)))
    # a plan with an EV step has no gradient, and at d = 2 no middle search,
    # so its box minima take the face search
    assert g.gradient_evaluator() is None and g._middle is None
    assert eta_numeric(g).diagnostics["local_solver"] == "face-search"


def test_bev_from_measure_matches_logistic_form():
    g = bev_gauge_from_measure(Logistic(0.5))
    pts = RNG.uniform(0.0, 3.0, (100, 2))
    expected = np.maximum(pts[:, 0], pts[:, 1]) / 0.5 + (1 - 1 / 0.5) * np.minimum(pts[:, 0], pts[:, 1])
    assert_allclose(g(pts), expected, rtol=1e-14)


def test_gauge_bivariate_dispatch():
    g = gauge_bivariate("gaussian", rho=0.25)
    assert g.dim == 2
    with pytest.raises(Exception):
        gauge_bivariate("nope")


def test_trivariate_all_iev_matches_direct_formula():
    a, b, c = 0.5, 0.25, 0.5
    g = tri(ilog(a), ilog(b), ilog(c))
    for x1, x2, x3 in RNG.uniform(0.05, 3.0, (200, 3)):
        f1 = (x1 ** (1 / a) + x2 ** (1 / a)) ** a - x2
        f2 = (x2 ** (1 / b) + x3 ** (1 / b)) ** b - x2
        direct = x2 + (f1 ** (1 / c) + f2 ** (1 / c)) ** c
        assert g((x1, x2, x3)) == pytest.approx(direct, rel=1e-12)
    assert g((1.0, 1.0, 1.0)) == pytest.approx(
        1.0 + ((2**a - 1) ** (1 / c) + (2**b - 1) ** (1 / c)) ** c, rel=1e-14
    )


def test_known_closed_form_anchors():
    g_iii = tri(ilog(0.5), ilog(0.5), ilog(0.5))
    assert g_iii((1, 1, 1)) == pytest.approx(1.0 + np.sqrt(2.0) * (np.sqrt(2.0) - 1.0), rel=1e-12)
    g_iie = tri(ilog(0.5), ilog(0.25), lgst(0.5))
    assert g_iie((1.0, 0.0, 1.0)) == pytest.approx(1.0, abs=1e-14)
    for g in (tri(lgst(0.5), lgst(0.25), ilog(0.5)), tri(lgst(0.5), lgst(0.25), lgst(0.5))):
        assert g((1.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("g", ALL_PATTERNS + BIVARIATE)
def test_order_one_homogeneity(g):
    for _ in range(500 // 8):
        x = RNG.uniform(0.02, 4.0, g.dim)
        t = RNG.uniform(0.05, 20.0)
        ref = t * g(x)
        assert abs(g(t * x) - ref) < 1e-10 * max(abs(ref), 1e-12)


@pytest.mark.parametrize("g", ALL_PATTERNS)
def test_scalar_and_vector_paths_agree(g):
    pts = RNG.uniform(0.0, 3.0, (500, 3))
    vec = g(pts)
    sca = np.array([g._sfn(*row) for row in pts])
    assert_allclose(vec, sca, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("g", [ALL_PATTERNS[0], ALL_PATTERNS[3], BIVARIATE[1], BIVARIATE[5]], ids=repr)
def test_arrays_of_several_blocks_equal_their_rows(g, monkeypatch):
    # an (n, d) array of more than one block of rows is evaluated block by
    # block; every evaluator is elementwise over rows, so each value is the
    # one its row gives alone
    rng = np.random.default_rng(2718)
    pts = rng.uniform(0.0, 3.0, (29, g.dim))
    monkeypatch.setattr(gauges, "_BLOCK", 8)
    vals = g(pts)
    assert vals.shape == (29,)
    assert np.array_equal(vals, [g(row[None, :])[0] for row in pts])
    monkeypatch.undo()
    many = rng.uniform(0.0, 3.0, (gauges._BLOCK + 3, g.dim))
    assert np.array_equal(g(many), g._fn(many))
    assert g(np.empty((0, g.dim))).shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-300])
def test_a_bad_value_in_the_last_block_raises(bad, monkeypatch):
    g = ALL_PATTERNS[0]
    monkeypatch.setattr(gauges, "_BLOCK", 8)
    pts = np.random.default_rng(2718).uniform(0.0, 3.0, (29, 3))
    pts[-1, 1] = bad
    with pytest.raises(DomainError):
        g(pts)


@pytest.mark.parametrize("g", ALL_PATTERNS + BIVARIATE)
def test_limit_set_inside_unit_cube(g):
    dirs = RNG.dirichlet(np.ones(g.dim), size=1000)
    pts = np.array([boundary_point(g, w) for w in dirs])
    assert np.all(pts <= 1.0 + 1e-9)
    assert np.all(pts >= -1e-15)


def _containment_points(d, seed):
    # a draw with a zero coordinate, ties with the largest and one coordinate
    # far above the others, where g meets max(x) or comes closest
    pts = np.random.default_rng(seed).uniform(0.0, 5.0, (3000, d))
    for k in range(d):
        pts[k::2 * d + 2, k] = 0.0
        pts[d + k::2 * d + 2, k] = pts[d + k::2 * d + 2].max(axis=1) * (1.0 + 50.0 * (k == 0))
    return pts.tolist()


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.7, 0.95])
def test_single_points_keep_g_at_least_max_x(alpha):
    # g(x) >= max(x), the unit-cube containment that lets the one-coordinate
    # search of ``gauges._minimise_gauge`` stop at a panel whose lower end
    # reaches its best value.  It holds to rounding: a few ulps, times 1 + s
    # with s = 1/alpha - 2 where an EV rule (2 + s) hi - (1 + s) lo cancels
    tol = 1.0 - 8.0 * (1.0 + 1.0 / alpha) * 2.0**-52
    pts = _containment_points(2, 3141)
    for g in (independence_gauge(), gaussian_gauge(alpha), inverted_ev_gauge(Logistic(alpha)),
              bev_gauge_from_measure(Logistic(alpha)), asymmetric_logistic_gauge(alpha)):
        sfn = g.scalar_evaluator()
        assert all(sfn(*p) >= max(p) * tol for p in pts), g
    pts = _containment_points(3, 2718)
    for fams in itertools.product((ilog, lgst), repeat=3):
        g = tri(*(f(a) for f, a in zip(fams, (alpha, 0.5, max(alpha, 0.25)))))
        assert all(g._sfn(*p) >= max(p) * tol for p in pts), g


def test_all_iev_monotone_in_outer_coordinates():
    g = tri(ilog(0.5), ilog(0.25), ilog(0.5))
    h = 1e-6
    for x1, x2, x3 in RNG.uniform(0.1, 2.5, (100, 3)):
        assert g((x1 + h, x2, x3)) >= g((x1, x2, x3)) - 1e-12
        assert g((x1, x2, x3 + h)) >= g((x1, x2, x3)) - 1e-12


def test_middle_coordinate_increasing_beyond_one():
    g = tri(ilog(0.5), ilog(0.25), ilog(0.5))
    vs = np.linspace(1.0, 4.0, 200)
    vals = g(np.column_stack([np.ones_like(vs), vs, np.ones_like(vs)]))
    assert np.all(np.diff(vals) > 0)


def test_branch_boundary_agreement():
    piecewise = [
        tri(lgst(0.5), ilog(0.25), ilog(0.5)),
        tri(lgst(0.5), ilog(0.25), lgst(0.5)),
        tri(lgst(0.5), lgst(0.25), ilog(0.5)),
        tri(lgst(0.5), lgst(0.25), lgst(0.5)),
        tri(ilog(0.5), lgst(0.25), ilog(0.5)),
        tri(ilog(0.5), lgst(0.25), lgst(0.5)),
    ]
    for g in piecewise:
        for _ in range(60):
            x2, other = RNG.uniform(0.1, 2.0, 2)
            for point in ([x2, x2, other], [other, x2, x2]):
                mid = g(np.array(point))
                for k in (0, 2):
                    for direction in (-np.inf, np.inf):
                        nudged = np.array(point)
                        nudged[k] = np.nextafter(point[k], direction)
                        assert abs(g(nudged) - mid) < 1e-12


def test_alpha_beta_swap_symmetry():
    ga = tri(ilog(0.3), ilog(0.7), ilog(0.5))
    gb = tri(ilog(0.7), ilog(0.3), ilog(0.5))
    pts = RNG.uniform(0.05, 3.0, (200, 3))
    assert_allclose(ga(pts), gb(pts[:, ::-1]), rtol=1e-13)


def test_mirror_patterns_relabel():
    # (iev, ev, *) must equal the (ev, iev, *) gauge evaluated at reversed points
    direct = tri(lgst(0.5), ilog(0.25), ilog(0.4))
    mirror = tri(ilog(0.25), lgst(0.5), ilog(0.4))
    pts = RNG.uniform(0.05, 2.5, (200, 3))
    assert_allclose(mirror(pts), direct(pts[:, ::-1]), rtol=1e-13)


def _folded_oracle_points():
    pts = RNG.uniform(0.0, 3.0, (600, 3))
    for k in range(3):
        pts[k::10, k] = 0.0
    # tree-1 ties a = b: x2 = 0 with x1 = x3 gives a = x1 = b, and
    # x1 = x3 = 0 gives a = x2 = b
    pts[3::10, 1] = 0.0
    pts[3::10, 2] = pts[3::10, 0]
    pts[4::10, [0, 2]] = 0.0
    return pts


@pytest.mark.parametrize("alphas, rtol", [
    ((0.3, 0.7, 0.45), 1e-15),
    ((0.8, 0.35, 0.6), 1e-15),
    # an EV top edge with alpha 0.2 has s = 3: bev weighs the rounding of
    # its arguments by 2 + s and 1 + s
    ((0.8, 0.35, 0.2), 2e-15),
])
@pytest.mark.parametrize("top", ["iev", "ev"])
def test_iev_tree1_patterns_match_their_formulas(top, alphas, rtol):
    # the iii and iie patterns run through the vine plan; these are their
    # formulas in the tree-1 gauges a = g12(x1, x2) and b = g23(x2, x3)
    a12, a23, a13 = alphas
    g = tri(ilog(a12), ilog(a23), PairCopula(top, Logistic(a13)))
    pts = _folded_oracle_points()
    x2 = pts[:, 1]
    a = inverted_ev_gauge(Logistic(a12))(pts[:, :2])
    b = inverted_ev_gauge(Logistic(a23))(pts[:, 1:])
    assert np.any((a == b) & (a > 0.0))
    if top == "iev":
        # x2 + V13(1/(a - x2), 1/(b - x2)); rounding-negative gaps are 0
        gaps = np.maximum(np.column_stack([a - x2, b - x2]), 0.0)
        oracle = x2 + inverted_ev_gauge(Logistic(a13))(gaps)
    else:
        t = Logistic(a13).tail_orders()
        s = np.where(a >= b, t.s1, t.s2)
        oracle = (2.0 + s) * np.maximum(a, b) - (1.0 + s) * np.minimum(a, b)
    assert_allclose(g(pts), oracle, rtol=rtol, atol=0.0)
    assert_allclose([g(p) for p in pts], oracle, rtol=rtol, atol=0.0)


class SkewLogistic(Logistic):
    """A logistic measure reporting made-up tail orders s1 != s2, so that
    an s1 / s2 mix-up shows (every shipped measure has s1 = s2); its
    transpose swaps them."""

    def __init__(self, alpha, s1, s2):
        super().__init__(alpha)
        self.s1, self.s2 = s1, s2

    def tail_orders(self):
        return TailOrders(self.s1, self.s2, np.nan, np.nan)

    def transposed(self):
        return SkewLogistic(self.alpha, self.s2, self.s1)


def _recip_oracle(a):
    a = np.maximum(a, 0.0)
    return np.divide(1.0, a, out=np.full_like(a, np.inf), where=a > 0.0)


def _bev_oracle(a, b, t):
    # the bev formula of the array path the plan's EV rule replaced, which
    # ``bev_gauge`` ran until it became the one-step plan of that rule
    s = np.where(a >= b, t.s1, t.s2)
    return (2.0 + s) * np.maximum(a, b) - (1.0 + s) * np.minimum(a, b)


def _bev_oracle_s(x1, x2, s1, s2):
    # the scalar twin of _bev_oracle that ``bev_gauge`` ran on single points
    sm, hi, lo = (s1, x1, x2) if x1 >= x2 else (s2, x2, x1)
    return (2.0 + sm) * hi - (1.0 + sm) * lo


def _piecewise_oracle(spec, x):
    """The piecewise formulas of the patterns with an EV copula in tree 1;
    those with it on edge 23 only are the x1 <-> x3 mirror of the others."""
    c12, c23, c13 = spec.copula(1, 2), spec.copula(2, 3), spec.copula(1, 3)
    fams = spec.families()
    if fams[:2] == ("iev", "ev"):
        return _piecewise_oracle(spec.mirrored(), x[:, ::-1])
    x1, x2, x3 = x.T
    t12, t13 = c12.measure.tail_orders(), c13.measure.tail_orders()
    v13 = c13.measure.V
    if fams[1] == "iev":
        b = c23.measure.V(_recip_oracle(x2), _recip_oracle(x3))
        if fams[2] == "iev":
            low = (2.0 + t13.s1) * (1.0 + t12.s2) * (x2 - x1) + b
            high = x2 + v13(_recip_oracle((x1 - x2) * (2.0 + t12.s1)), _recip_oracle(b - x2))
        else:
            low = x2 + (1.0 + t12.s2) * (x2 - x1) + (2.0 + t13.s2) * (b - x2)
            high = x2 + _bev_oracle((2.0 + t12.s1) * (x1 - x2), b - x2, t13)
        return np.where(x1 <= x2, low, high)
    t23 = c23.measure.tail_orders()
    if fams[2] == "iev":
        r1 = x2 + _bev_oracle((1.0 + t12.s2) * (x2 - x1), (1.0 + t23.s1) * (x2 - x3), t13)
        r2 = x2 + (2.0 + t13.s1) * (1.0 + t12.s2) * (x2 - x1) + (2.0 + t23.s2) * (x3 - x2)
        r3 = x2 + (2.0 + t13.s2) * (1.0 + t23.s1) * (x2 - x3) + (2.0 + t12.s1) * (x1 - x2)
        r4 = x2 + v13(_recip_oracle((2.0 + t12.s1) * (x1 - x2)), _recip_oracle((2.0 + t23.s2) * (x3 - x2)))
        below1, below3 = x1 < x2, x3 < x2
    else:
        r1 = x2 + v13(_recip_oracle((1.0 + t12.s2) * (x2 - x1)), _recip_oracle((1.0 + t23.s1) * (x2 - x3)))
        r2 = x2 + (2.0 + t13.s2) * (2.0 + t23.s2) * (x3 - x2) + (1.0 + t12.s2) * (x2 - x1)
        r3 = x2 + (2.0 + t13.s1) * (2.0 + t12.s1) * (x1 - x2) + (1.0 + t23.s1) * (x2 - x3)
        r4 = x2 + _bev_oracle((2.0 + t12.s1) * (x1 - x2), (2.0 + t23.s2) * (x3 - x2), t13)
        below1, below3 = x1 <= x2, x3 <= x2
    return np.where(below1, np.where(below3, r1, r2), np.where(below3, r3, r4))


@pytest.mark.parametrize("fams", ["eii", "eie", "eei", "eee", "iei", "iee"])
@pytest.mark.parametrize("skews", [
    ((0.5, 0.5), (0.25, 0.25), (0.5, 0.5)),  # s1 = s2, as in every shipped measure
    ((0.1, 1.7), (2.5, -0.4), (-0.6, 0.9)),
    ((3.0, 0.2), (0.0, 1.1), (1.4, -0.3)),
])
def test_ev_tree1_patterns_match_their_formulas(fams, skews):
    # the six patterns with an EV copula in tree 1 run through the vine
    # plan; these are their piecewise formulas, on points with zeros and
    # with the x1 = x2 and x3 = x2 ties where the pieces meet
    spec = VineSpec.trivariate(*(
        PairCopula("ev" if f == "e" else "iev", SkewLogistic(a, s1, s2))
        for f, a, (s1, s2) in zip(fams, (0.4, 0.55, 0.7), skews)
    ))
    g = gauge_trivariate(spec)
    pts = _folded_oracle_points()
    pts[5::10, 0] = pts[5::10, 1]
    pts[6::10, 2] = pts[6::10, 1]
    pts[7::10, 0] = pts[7::10, 2] = pts[7::10, 1]
    oracle = _piecewise_oracle(spec, pts)
    assert_allclose(g(pts), oracle, rtol=1e-14, atol=0.0)
    assert_allclose([g(p) for p in pts], oracle, rtol=1e-14, atol=0.0)


def test_ev_edges_need_tail_orders():
    alog_ev = PairCopula("ev", AsymmetricLogistic(0.5, 0.3, 0.5))
    with pytest.raises(UnsupportedCombinationError):
        gauge_trivariate(VineSpec.trivariate(alog_ev, ilog(0.25), ilog(0.5)))
    with pytest.raises(UnsupportedCombinationError):
        gauge_trivariate(VineSpec.trivariate(lgst(1.0), ilog(0.25), ilog(0.5)))


def test_dvine_specialises_to_trivariate():
    spec = VineSpec.trivariate(ilog(0.5), ilog(0.25), ilog(0.6))
    g3 = gauge_trivariate(spec)
    gd = gauge_dvine(VineSpec(3, "dvine", {"12": ilog(0.5), "23": ilog(0.25), "13|2": ilog(0.6)}))
    grid = np.stack(np.meshgrid(*[np.linspace(0.05, 2.0, 10)] * 3), axis=-1).reshape(-1, 3)
    assert np.max(np.abs(g3(grid) - gd(grid))) < 1e-12


def test_dvine_cvine_agree_at_ones():
    for d in range(3, 7):
        for a in (0.2, 0.5, 0.8):
            gd = gauge_dvine(VineSpec.uniform("dvine", d, ilog(a)))
            gc = gauge_cvine(VineSpec.uniform("cvine", d, ilog(a)))
            ones = np.ones(d)
            assert gd(ones) == pytest.approx(gc(ones), rel=1e-13)


def test_dvine_d4_known_value():
    g = gauge_dvine(VineSpec.uniform("dvine", 4, ilog(0.5)))
    assert 1.0 / g(np.ones(4)) == pytest.approx(0.6035533905932737, abs=1e-12)


def test_zero_coordinates_resolve_through_extended_reals():
    # x2 = 0 turns the conditional edge into the direct (1,3) pair; x1 = 0
    # collapses the gauge onto the (2,3) sub-vine.  Both need the exact
    # infinite-argument limits of the exponent measures.
    a, b, c = 0.5, 0.25, 0.6
    g = tri(ilog(a), ilog(b), ilog(c))
    v13 = inverted_ev_gauge(Logistic(c))
    v23 = inverted_ev_gauge(Logistic(b))
    for x, y in RNG.uniform(0.1, 3.0, (50, 2)):
        assert g((x, 0.0, y)) == pytest.approx(v13((x, y)), rel=1e-13)
        assert g((0.0, x, y)) == pytest.approx(v23((x, y)), rel=1e-13)
    gd = gauge_dvine(VineSpec.uniform("dvine", 4, ilog(0.5)))
    pts = RNG.uniform(0.0, 2.0, (50, 4))
    pts[:, 0] = 0.0
    assert np.all(np.isfinite(gd(pts)))
    assert_allclose(gd(2.0 * pts), 2.0 * gd(pts), rtol=1e-12)


def test_recursion_rejects_ev_edges():
    edges = {str(e): ilog(0.4) for e in __import__("vinetail").vines.expected_edges("dvine", 4)}
    edges["14|23"] = lgst(0.4)
    with pytest.raises(UnsupportedCombinationError):
        gauge_dvine(VineSpec(4, "dvine", edges))


def test_recursion_gauges_scalar_vector_agree():
    for g in (gauge_dvine(VineSpec.uniform("dvine", 5, ilog(0.35))),
              gauge_cvine(VineSpec.uniform("cvine", 5, ilog(0.35)))):
        pts = RNG.uniform(0.05, 2.0, (100, 5))
        assert_allclose(g(pts), [g._sfn(*p) for p in pts], rtol=1e-13)


def test_projection_onto_linked_pair_recovers_pair_gauge():
    spec = VineSpec.trivariate(ilog(0.5), ilog(0.25), ilog(0.5))
    g12 = gauge_project(gauge_trivariate(spec), (1, 2))
    oracle = inverted_ev_gauge(Logistic(0.5))
    for x in RNG.uniform(0.1, 2.5, (25, 2)):
        assert g12(x) == pytest.approx(oracle(x), abs=1e-6)


def test_projection_single_coordinate_is_identity():
    g = gauge_trivariate(VineSpec.trivariate(ilog(0.5), ilog(0.25), ilog(0.5)))
    g2 = gauge_project(g, (2,))
    for x in (0.3, 0.7, 1.9):
        assert g2(np.array([x])) == pytest.approx(x, abs=1e-8)


def test_projection_mixed_case_attains_one():
    spec = VineSpec.trivariate(ilog(0.5), ilog(0.25), lgst(0.5))
    g13 = gauge_project(gauge_trivariate(spec), (1, 3))
    assert g13((1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)


def test_projection_matches_grid_minimum():
    spec = VineSpec.trivariate(ilog(0.5), ilog(0.25), ilog(0.5))
    g = gauge_trivariate(spec)
    g13 = gauge_project(g, (1, 3))
    vs = np.linspace(0.0, 4.0, 200_001)
    for x1, x3 in [(1.0, 1.0), (0.5, 2.0)]:
        pts = np.column_stack([np.full_like(vs, x1), vs, np.full_like(vs, x3)])
        brute = float(np.min(g(pts)))
        assert g13((x1, x3)) == pytest.approx(brute, abs=1e-7)


def test_projection_two_dropped_coordinates():
    """Multi-start quasi-Newton over two dropped coordinates, checked
    against a 401 x 401 brute-force grid (grid value 1.36576904...)."""
    edges = {"12": ilog(0.3), "23": ilog(0.5), "34": ilog(0.7),
             "13|2": ilog(0.4), "24|3": ilog(0.6), "14|23": ilog(0.55)}
    g = gauge_dvine(VineSpec(4, "dvine", edges))
    g14 = gauge_project(g, (1, 4))
    val = g14((1.0, 1.0))
    assert val == pytest.approx(1.3657650966, abs=1e-6)
    assert val <= 1.3657690423 + 1e-9  # never above the brute-force grid


def dvine4(alphas):
    return VineSpec(4, "dvine", {e: ilog(a) for e, a in zip(expected_edges("dvine", 4), alphas)})


def _every_panel(g, lower, j, n_starts=8):
    """The one-coordinate search of ``gauges._minimise_gauge`` with no early
    stop: the corner, the far end and every Brent panel.  An oracle for the
    bits of its value and argmin."""
    xs = list(lower)
    m = max(xs)

    def f(t):
        xs[j] = t
        return float(g._sfn(*xs))

    best_t = lo = xs[j]
    best_val = f(lo)
    hi = max(10.0 * m, 1.05 * best_val)
    seeds = [lo + s for s in [0.0, *np.geomspace(hi * 1e-6, hi, n_starts).tolist()]]
    found = [(lo + hi, f(lo + hi))] + [gauges._fminbound(f, a, b, 1e-10)[:2] for a, b in zip(seeds[:-1], seeds[1:])]
    for t, val in found:
        if val < best_val:
            best_t, best_val = t, val
    return best_val, best_t


@pytest.mark.parametrize("g", ALL_PATTERNS + [gauge_dvine(dvine4([0.3, 0.5, 0.7, 0.4, 0.6, 0.35]))], ids=repr)
def test_one_coordinate_search_stops_early_with_the_same_bits(g):
    # the search stops at the first panel whose lower end reaches its best
    # value, since g(x) >= max(x) puts the rest no lower.  The Brent panels
    # serve every coordinate of a gauge with a gradient, and x2 alone of a
    # pattern with an EV edge, whose outer coordinates take the middle search
    rng = np.random.default_rng(8128)
    for j in range(g.dim) if g._middle is None else [1]:
        for _ in range(12):
            lower = rng.uniform(0.05, 2.0, g.dim)
            lower[j] = 0.0
            found = gauges._minimise_gauge(g, lower, [j])
            assert (found.value, found.x[j]) == _every_panel(g, lower.tolist(), j)
            assert np.array_equal(np.delete(found.x, j), np.delete(lower, j))


EV_PATTERNS = ALL_PATTERNS[1:]


def test_outer_coordinate_minimum_is_closed_and_never_above_the_panels():
    # with x2 held, the middle search takes the minimum over x1 or x3 in
    # closed form.  Where the minimum is flat (at g = max(x), say) the
    # panels can read a few ulps below the exact value, even below max(x),
    # so "never above" holds to 4 eps relative
    rng = np.random.default_rng(2718)
    eps = np.finfo(float).eps
    below = 0
    for fams in itertools.product((ilog, lgst), repeat=3):
        if fams == (ilog, ilog, ilog):
            continue
        for _ in range(6):
            g = tri(*(f(a) for f, a in zip(fams, rng.uniform(0.3, 0.7, 3))))
            for j in (0, 2):
                lower = rng.uniform(0.05, 2.0, 3)
                lower[j] = 0.0
                if rng.random() < 0.3:
                    lower[2 - j] = 0.0
                found = gauges._minimise_gauge(g, lower, [j])
                panels, _ = _every_panel(g, lower.tolist(), j)
                assert found.solver == "middle-search"
                assert found.value <= panels * (1.0 + 4.0 * eps)
                below += found.value < panels * (1.0 - 1e-12)
                assert found.value == g._sfn(*found.x) or np.array_equal(found.x, lower)
                assert np.array_equal(np.delete(found.x, j), np.delete(lower, j)) and found.x[j] >= 0.0
                hi = max(10.0 * lower.max(), 1.05 * found.corner_value)
                pts = np.tile(lower, (20_001, 1))
                pts[:, j] = np.linspace(0.0, hi, 20_001)
                assert found.value <= float(np.min(g(pts))) * (1.0 + 1e-12)
    assert below > 0  # the panels stop above a kink the closed route reaches


@pytest.mark.parametrize("g", EV_PATTERNS, ids=repr)
def test_tree1_pair_argmin_reads_one_over_eta(g):
    # the closed outer minimum lands on the kink where the panels' Brent
    # stop read g·eta up to about 1e-7 off one
    rng = np.random.default_rng(31)
    families = [pc.family for pc in g.spec.edges.values()]
    for _ in range(20):
        spec = VineSpec.trivariate(*(PairCopula(f, Logistic(a)) for f, a in zip(families, rng.uniform(0.2, 0.9, 3))))
        h = gauge_trivariate(spec)
        for C in ((1, 2), (2, 3)):
            res = eta_mixed_trivariate(spec, C)
            assert abs(h(res.argmin) * res.eta - 1.0) <= 1e-12


def test_projection_off_tree1_pair_lies_in_its_bounds():
    # minimising over x1 and x3 used to stop with "did not stabilise"
    g = gauge_dvine(dvine4([0.56426, 0.520418, 0.641805, 0.321789, 0.530049, 0.538621]))
    x = np.array([0.372367, 0.707567])
    val = gauge_project(g, (2, 4))(x)
    assert np.max(x) <= val <= g([0.0, x[0], 0.0, x[1]])


def test_projection_tree1_pair_matches_margin():
    spec = dvine4([0.66628, 0.435393, 0.472873, 0.671552, 0.60109, 0.458283])
    x = np.array([1.678018, 0.051226])
    val = gauge_project(gauge_dvine(spec), (1, 2))(x)
    assert val == pytest.approx(inverted_ev_gauge(spec.copula(1, 2).measure)(x), abs=1e-6)


def test_projection_polish_leaves_collapsed_face():
    # a minimum next to the face x3 = 0, which the near-corner start meets
    # at about x3 = 1e-8
    g = gauge_dvine(dvine4([0.488077, 0.579518, 0.416815, 0.633143, 0.343542, 0.653497]))
    assert gauge_project(g, (2, 4))((1.166474, 0.090259)) <= 1.1667034449 + 1e-9


@pytest.mark.parametrize("families", list(itertools.product(["iev", "ev"], repeat=3)), ids="".join)
def test_trivariate_projections_onto_tree1_pairs_keep_the_search(families):
    # the all-IEV pattern takes its sub-vine's gauge, which the box search
    # reaches to rounding; a pattern with an EV edge keeps the search bit for
    # bit.  For eii the search reads g(0.3, 0.9, 0) = 2.1 onto (1, 2), where
    # the edge's own bivariate EV gauge reads 1.5
    spec = VineSpec.trivariate(*(PairCopula(f, Logistic(0.5)) for f in families))
    g = gauge_trivariate(spec)
    for keep in ((1, 2), (2, 3)):
        proj = gauge_project(g, keep)
        for x in ((0.3, 0.9), (0.9, 0.3), (1.0, 1.0), (0.05, 2.0)):
            lower = np.zeros(3)
            lower[[k - 1 for k in keep]] = x
            ref = gauges._minimise_gauge(g, lower, [({1, 2, 3} - set(keep)).pop() - 1]).value
            if spec.all_iev():
                assert abs(proj(x) - ref) <= 1e-12 * ref
            else:
                assert proj(x) == ref
    if families == ("ev", "iev", "iev"):
        assert gauge_project(g, (1, 2))((0.3, 0.9)) == pytest.approx(2.1, rel=1e-12)
        assert bev_gauge_from_measure(Logistic(0.5))((0.3, 0.9)) == pytest.approx(1.5, rel=1e-12)


def test_sub_vine_projection_arrays_match_single_points():
    for spec in (VineSpec(5, "dvine", {e: ilog(a) for e, a in zip(expected_edges("dvine", 5),
                                                                  RNG.uniform(0.3, 0.7, 10))}),
                 VineSpec(5, "cvine", {e: ilog(a) for e, a in zip(expected_edges("cvine", 5),
                                                                  RNG.uniform(0.3, 0.7, 10))})):
        g = gauge_dvine(spec) if spec.structure == "dvine" else gauge_cvine(spec)
        assert g.spec is spec
        for keep in ((1, 2), (1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5) if spec.structure == "dvine" else (1, 2, 5)):
            proj = gauge_project(g, keep)
            assert proj.tag == f"project({g.tag}; keep={keep})"
            pts = RNG.uniform(0.05, 2.0, (50, len(keep)))
            assert_allclose(proj(pts), [proj(p) for p in pts], rtol=1e-13)


def test_projection_spec_is_recorded_on_vine_gauges_only():
    assert independence_gauge().spec is None
    assert inverted_ev_gauge(Logistic(0.5)).spec is not None
    g = gauge_dvine(dvine4([0.3, 0.4, 0.5, 0.6, 0.45, 0.55]))
    # a keep whose hull is larger than itself keeps the search
    assert gauge_project(g, (1, 3)).spec is None
    assert gauge_project(g, (2, 3, 4)).spec.edges == g.spec.marginal((2, 3, 4)).edges


def test_projection_validates_keep():
    g = independence_gauge()
    with pytest.raises(DomainError):
        gauge_project(g, ())
    with pytest.raises(DomainError):
        gauge_project(g, (0, 1))


def test_boundary_point():
    assert_allclose(boundary_point(independence_gauge(), (1.0, 1.0)), [0.5, 0.5])
    assert_allclose(boundary_point(gaussian_gauge(0.5), (1.0, 1.0)), [0.75, 0.75], rtol=1e-14)
    g = tri(ilog(0.5), ilog(0.25), lgst(0.5))
    for w in RNG.dirichlet(np.ones(3), 50):
        assert g(boundary_point(g, w)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        boundary_point(g, (0.0, 0.0, 0.0))
    # k directions: every row is checked
    for bad in ([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0], [1.0, -0.5, 1.0]], 1.0):
        with pytest.raises(DomainError):
            boundary_point(g, bad)


@pytest.mark.parametrize("g", BIVARIATE + ALL_PATTERNS + [
    build(VineSpec(4, structure, dict(zip(expected_edges(structure, 4), map(ilog, [0.3, 0.5, 0.7, 0.4, 0.6, 0.2])))))
    for structure, build in (("dvine", gauge_dvine), ("cvine", gauge_cvine))
])
def test_boundary_point_rows_match_single_directions(g):
    w = np.vstack([simplex_directions(40, g.dim), RNG.uniform(0.0, 5.0, (20, g.dim))])
    b = boundary_point(g, w)
    assert b.shape == w.shape
    assert_allclose(b, [boundary_point(g, row) for row in w], rtol=1e-15, atol=0)


def test_simplex_directions():
    d2 = simplex_directions(5, 2)
    assert d2.shape == (5, 2)
    assert_allclose(d2.sum(axis=1), 1.0)
    d3 = simplex_directions(40, 3)
    assert len(d3) >= 40
    assert_allclose(d3.sum(axis=1), 1.0)
    # the symmetric mid-edge direction needed for the mixed-case contour
    assert any(np.allclose(w, [0.5, 0.0, 0.5]) for w in d3)


def test_gauge_input_validation():
    g = independence_gauge()
    with pytest.raises(DomainError):
        g((1.0, -0.5))
    with pytest.raises(DomainError):
        g((1.0, 2.0, 3.0))


@pytest.mark.parametrize("bad", [
    1.0,
    [1.0, 2.0, 3.0],
    [1.0, 2.0, 3.0, 4.0, 5.0],
    [np.nan, 1.0, 1.0, 1.0],
    [1.0, 1.0, 1.0, np.nan],
    [1.0, -1e-300, 1.0, 1.0],
    [1.0, 1.0, -np.inf, 1.0],
    [np.inf, 1.0, 1.0, 1.0],
    [1.0, np.inf, 1.0, 1.0],
    [1.0, 1.0, 1.0, np.inf],
    [[1.0, 1.0, 1.0, 1.0], [1.0, np.inf, 1.0, 1.0]],  # array path
])
def test_single_point_validation(bad):
    g = gauge_dvine(VineSpec.uniform("dvine", 4, ilog(0.5)))
    assert g._sfn is not None
    with pytest.raises(DomainError):
        g(bad)
    with pytest.raises(DomainError):
        g(np.asarray(bad))
    # -0.0 passes the check, as it does on the array path
    assert g([0.0, 2.0, -0.0, 1.0]) == g(np.array([[0.0, 2.0, -0.0, 1.0]]))[0]


# ---------------------------------------------------------------------------
# the scalar plan: one generated function per plan shape
# ---------------------------------------------------------------------------

def _srecip(a):
    return 1.0 / a if a > 0.0 else math.inf


def _interpreted_plan(spec):
    """The interpreted scalar path the generated code replaced: one rule per
    step, run on a list of slots, with the point-dependent sides picked per
    call.  A test oracle for the generated evaluator's bits."""
    plan = []
    for out, left, right, inner, m, sides, t in gauges._compile_vine(spec):
        if sides is None:
            plan.append((out, left, right, inner, m._v, None))
            continue
        s1, s2 = t.s1, t.s2

        def bev(p, q, s1=s1, s2=s2):
            sm, hi, lo = (s1, p, q) if p >= q else (s2, q, p)
            return (2.0 + sm) * hi - (1.0 + sm) * lo

        rules = {
            False: {False: lambda p, q, vals, v=m._v: v(_srecip(p), _srecip(q)),
                    True: lambda p, q, vals, s2=s2: p + (2.0 + s2) * q},
            True: {False: lambda p, q, vals, s1=s1: q + (2.0 + s1) * p,
                   True: lambda p, q, vals, bev=bev: bev(p, q)},
        }
        (i, j, f), (k, l, h) = sides

        def rule(p, q, vals, i=i, j=j, f=f, k=k, l=l, h=h, rules=rules):
            return rules[(vals[i] < vals[j]) != f][(vals[k] < vals[l]) != h](p, q, vals)

        plan.append((out, left, right, inner, None, rule))
    free = [None] * len(plan)

    def run(*xs):
        vals = [*xs, *free]
        for out, left, right, inner, v, rule in plan:
            if inner is None:
                p, q = vals[left], vals[right]
                vals[out] = v(_srecip(p), _srecip(q)) if rule is None else rule(p, q, vals)
            else:
                g_d = vals[inner]
                p, q = vals[left] - g_d, vals[right] - g_d
                vals[out] = g_d + (v(_srecip(p), _srecip(q)) if rule is None else rule(p, q, vals))
        return vals[-1]

    return run


def _interpreted_array_plan(spec):
    """The interpreted array path the generated code replaced: one rule per
    step that evaluates every form the step's sides can reach and blends
    them pointwise, run on a list of slots.  A test oracle for the generated
    array evaluator's bits."""
    plan = []
    for out, left, right, inner, m, sides, t in gauges._compile_vine(spec):
        if sides is None:
            plan.append((out, left, right, inner, m._v, None))
            continue
        s1, s2 = t.s1, t.s2

        def bev(p, q, s1=s1, s2=s2):
            sm = np.where(p >= q, s1, s2)
            return (2.0 + sm) * np.maximum(p, q) - (1.0 + sm) * np.minimum(p, q)

        forms = {
            (False, False): lambda p, q, v=m._v: v(_recip_oracle(p), _recip_oracle(q)),
            (False, True): lambda p, q, s2=s2: p + (2.0 + s2) * q,
            (True, False): lambda p, q, s1=s1: q + (2.0 + s1) * p,
            (True, True): bev,
        }
        (i, j, f), (k, l, h) = sides
        # a side known when compiling (i == j) reaches only its flip
        reach = [(lp, lq) for lp in ((f,) if i == j else (False, True))
                 for lq in ((h,) if k == l else (False, True))]

        def rule(p, q, vals, i=i, j=j, f=f, k=k, l=l, h=h, forms=forms, reach=reach):
            lower_p, lower_q = (vals[i] < vals[j]) != f, (vals[k] < vals[l]) != h
            blend = forms[reach[0]](p, q)
            for lp, lq in reach[1:]:
                blend = np.where((lower_p == lp) & (lower_q == lq), forms[lp, lq](p, q), blend)
            return blend

        plan.append((out, left, right, inner, m._v, rule))
    free = [None] * len(plan)

    def run(x):
        vals = [x[..., k] for k in range(spec.d)] + free
        for out, left, right, inner, v, rule in plan:
            if inner is None:
                p, q = vals[left], vals[right]
                vals[out] = v(_recip_oracle(p), _recip_oracle(q)) if rule is None else rule(p, q, vals)
            else:
                g_d = vals[inner]
                p, q = vals[left] - g_d, vals[right] - g_d
                vals[out] = g_d + (v(_recip_oracle(p), _recip_oracle(q)) if rule is None else rule(p, q, vals))
        return vals[-1]

    return run


def _unequal_vine(structure, d, family=ilog):
    labels = expected_edges(structure, d)
    alphas = np.linspace(0.23, 0.91, len(labels))[::-1 if structure == "cvine" else 1]
    return VineSpec(d, structure, {e: family(a) for e, a in zip(labels, alphas)})


def _plan_points(d):
    pts = RNG.uniform(0.0, 3.0, (300, d))
    for k in range(d):
        pts[k::12, k] = 0.0
    pts[d::12, :] = 0.0
    if d >= 3:  # the ties x1 = x2 and x3 = x2 where the trivariate pieces meet
        pts[5::12, 0] = pts[5::12, 1]
        pts[6::12, 2] = pts[6::12, 1]
        pts[7::12, 0] = pts[7::12, 2] = pts[7::12, 1]
        # x1 = x3 ties the top step's margins, p = q, on the vines whose
        # tree-1 edges are equal (the bev kink when both sides are lower),
        # and x1 = x3 = 0 < x2 zeroes both margins below inverted EV edges
        pts[9::12, 2] = pts[9::12, 0]
        pts[10::12, 0] = pts[10::12, 2] = 0.0
    return pts.tolist()


def _al(a):
    return PairCopula("iev", AsymmetricLogistic(a, 0.3, 0.6))


PLAN_SPECS = [
    VineSpec.trivariate(*(
        PairCopula("ev" if f == "e" else "iev", SkewLogistic(a, s1, s2))
        for f, a, (s1, s2) in zip(fams, (0.4, 0.55, 0.7), ((0.1, 1.7), (2.5, -0.4), (-0.6, 0.9)))
    ))
    for fams in ("iii", "iie", "eii", "eie", "eei", "eee", "iei", "iee")
] + [
    # equal symmetric tree-1 edges: g12(x1, x2) = g23(x2, x3) bit for bit at x1 = x3
    VineSpec.trivariate(*(PairCopula("ev" if f == "e" else "iev", Logistic(a)) for f, a in zip(fams, (0.45, 0.45, 0.6))))
    for fams in ("iii", "iie", "eei", "eee")
] + [_unequal_vine(s, d) for s in ("dvine", "cvine") for d in range(2, 9)] + [
    _unequal_vine("dvine", 4, _al),
    _unequal_vine("cvine", 5, _al),
    VineSpec(4, "dvine", {e: (_al if k % 2 else ilog)(0.3 + 0.1 * k)
                          for k, e in enumerate(expected_edges("dvine", 4))}),
]


def _plan_id(spec):
    # one letter per edge: i(nverted), e(xtreme value), a(symmetric logistic,
    # inverted); "-sym" marks the trivariate vines with equal logistic tree-1 edges
    sym = "-sym" if spec.structure == "trivariate" and type(spec.copula(1, 2).measure) is Logistic else ""
    return f"{spec.structure}{spec.d}-" + "".join(
        "a" if isinstance(pc.measure, AsymmetricLogistic) else pc.family[0] for pc in spec.edges.values()) + sym


@pytest.mark.parametrize("spec", PLAN_SPECS, ids=_plan_id)
def test_scalar_plan_is_bit_identical_to_interpreted_plan(spec):
    g, oracle = gauges._vine_gauge(spec, "test"), _interpreted_plan(spec)
    pts = _plan_points(spec.d)
    assert [g._sfn(*p) for p in pts] == [oracle(*p) for p in pts]
    pts = np.array(pts)
    assert np.array_equal(g(pts), _interpreted_array_plan(spec)(pts))


def test_recip_takes_zero_signed_zero_and_roundoff_to_inf():
    # the array plan's 1/a: a zero margin, -0.0 and a negative difference
    # left by roundoff all give +inf, never -inf or a warning
    out = gauges._recip(np.array([0.0, -0.0, -1e-17, -3.0, 0.25, np.inf]))
    assert out.tolist() == [np.inf, np.inf, np.inf, np.inf, 4.0, 0.0]
    assert not np.signbit(out).any()


def _array_code(g):
    # the generated array evaluator that a vine gauge's array path binds
    # (through a cached builder) and calls
    return next(c.cell_contents for c in g._fn.__closure__ if callable(c.cell_contents))().__code__


def test_scalar_plan_code_is_shared_per_shape(monkeypatch):
    def spec(alphas, top="iev"):
        return VineSpec.trivariate(lgst(alphas[0]), ilog(alphas[1]), PairCopula(top, Logistic(alphas[2])))

    sources = []
    plan_source = gauges._plan_source
    monkeypatch.setattr(gauges, "_plan_source", lambda *shape: sources.append(plan_source(*shape)) or sources[-1])
    gauges._plan_code.cache_clear()
    first, second = (0.3172, 0.6481, 0.5519), (0.4271, 0.2893, 0.7713)
    g1, g2 = gauge_trivariate(spec(first)), gauge_trivariate(spec(second))
    pts = np.array([[0.8, 1.1, 0.6], [0.2, 0.1, 0.4]])
    for g in (g1, g2):
        g(pts)  # the array dialect is bound on the first array call
    assert len(sources) == 2  # one source and one compile per dialect for the shape
    assert g1._sfn.__code__ is g2._sfn.__code__
    assert _array_code(g1) is _array_code(g2)
    x = [0.8, 1.1, 0.6]
    assert g1(x) == _interpreted_plan(spec(first))(*x) != g2(x) == _interpreted_plan(spec(second))(*x)
    g3 = gauge_trivariate(spec(first, "ev"))
    g3(pts)
    assert g3._sfn.__code__ is not g1._sfn.__code__ and _array_code(g3) is not _array_code(g1)
    assert len(sources) == 4
    for source in sources[:2]:
        assert source.startswith("def vine_gauge(s0, s1, s2):")
        for a in first + second:
            for text in (repr(a), repr(1.0 / a), repr(-1.0 / a)):
                assert text not in source


@pytest.mark.parametrize("g", [
    inverted_ev_gauge(Logistic(0.001)),
    gauge_dvine(VineSpec.uniform("dvine", 4, ilog(0.001))),
])
def test_scalar_logistic_overflow_band(g):
    # at alpha = 0.001, x^-1000 and y^-1000 are finite for ln x up to
    # 0.70978 but their sum overflows from ln x = 0.70909: the one-power
    # form takes that band on both paths
    q = 1.0 / 0.001
    band = 2.0335
    assert math.isfinite((1.0 / band) ** -q) and math.isinf((1.0 / band) ** -q + (1.0 / band) ** -q)
    grid = np.exp(np.linspace(0.7085, 0.7105, 9))
    pts = np.stack(np.meshgrid(*[grid] * 2), axis=-1).reshape(-1, 2)
    pts = np.vstack([pts, [[band, band]]])
    if g.dim == 4:
        pts = np.column_stack([pts, pts[::-1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sca = [g(p) for p in pts]
        vec = g(pts)
    assert np.all(np.isfinite(sca))
    assert_allclose(sca, vec, rtol=1e-13, atol=0)
    # the gradient dialect takes the same branch, and p/r <= 1 keeps the
    # partials (p/r)^(1/alpha - 1) of each step in [0, 1]
    gradient = g.gradient_evaluator()
    for p, v in zip(pts.tolist(), sca):
        value, grad = gradient(*p)
        assert value == v and all(math.isfinite(t) for t in grad)
        if g.dim == 2:
            assert all(0.0 <= t <= 1.0 for t in grad)


def test_gradient_code_is_compiled_on_first_use_and_shared_per_shape(monkeypatch):
    sources = []
    plan_source = gauges._plan_source
    monkeypatch.setattr(gauges, "_plan_source", lambda *shape: sources.append(plan_source(*shape)) or sources[-1])
    gauges._plan_code.cache_clear()
    g1, g2 = (gauge_dvine(VineSpec.uniform("dvine", 4, ilog(a))) for a in (0.3, 0.6))
    for g in (g1, g2):
        g(np.ones((2, 4)))  # the array dialect is bound on the first array call
    assert len(sources) == 2  # one array call and building compile the scalar and array dialects only
    grad1 = g1.gradient_evaluator()
    assert len(sources) == 3 and sources[-1].startswith("def vine_gauge(s0, s1, s2, s3):")
    assert g1.gradient_evaluator() is grad1
    grad2 = g2.gradient_evaluator()
    assert grad2.__code__ is grad1.__code__ and len(sources) == 3
    x = [1.0, 0.4, 0.2, 1.0]
    assert grad1(*x)[0] == g1(x) != grad2(*x)[0] == g2(x)


def test_scalar_only_gauge_never_binds_the_array_dialect(monkeypatch):
    dialects = []
    bind_plan = gauges._bind_plan
    monkeypatch.setattr(gauges, "_bind_plan", lambda d, plan, dialect: dialects.append(dialect)
                        or bind_plan(d, plan, dialect))
    spec = VineSpec.trivariate(lgst(0.4), ilog(0.5), ilog(0.6))
    g = gauge_trivariate(spec)
    g([0.8, 1.1, 0.6])
    g.scalar_evaluator()(0.2, 0.1, 0.4)
    gauges._minimise_gauge(gauge_dvine(VineSpec.uniform("dvine", 4, ilog(0.5))), [1.0, 0.0, 0.0, 1.0], range(4))
    assert dialects == [gauges.SCALAR, gauges.SCALAR, gauges.GRADIENT]
    assert g(np.array([[0.8, 1.1, 0.6]]))[0] == pytest.approx(g([0.8, 1.1, 0.6]), rel=1e-14)
    assert dialects[-1] == gauges.ARRAY


def test_gradient_at_zero_coordinates_takes_the_documented_limits():
    # alpha = 1: V(1/p, 1/q) = p + q, so every vine gauge is the sum of its
    # coordinates and every partial is 1, at zero margins (0^0 = 1) and at
    # two zero margins alike
    for build, structure in ((gauge_dvine, "dvine"), (gauge_cvine, "cvine")):
        gradient = build(VineSpec.uniform(structure, 5, ilog(1.0))).gradient_evaluator()
        for x in ([0.0] * 5, [1.0, 0.0, 0.0, 0.0, 2.0], [0.0, 0.5, 0.0, 0.0, 0.0], [0.3, 0.4, 0.5, 0.6, 0.7]):
            value, grad = gradient(*x)
            assert value == pytest.approx(sum(x), rel=1e-15) and grad == [1.0] * 5
    # alpha < 1: a zero margin has partial 0 and two zero margins 1 each
    gradient = inverted_ev_gauge(Logistic(0.5)).gradient_evaluator()
    assert gradient(2.0, 0.0) == (2.0, [1.0, 0.0])
    assert gradient(0.0, 0.0) == (0.0, [1.0, 1.0])
    # a measure's own partials: a zero margin takes -V1(1, 0+) = theta1 or
    # -V2(0+, 1) = theta2 for alpha < 1, and 1 at alpha = 1, where V(1/p, 1/q)
    # is p + q; the other margin's partial is 1
    for alpha, z1, z2 in ((0.5, 0.3, 0.6), (1.0, 1.0, 1.0)):
        gradient = inverted_ev_gauge(AsymmetricLogistic(alpha, 0.3, 0.6)).gradient_evaluator()
        assert gradient(2.0, 0.0) == (2.0, [1.0, z2])
        assert gradient(0.0, 2.0) == (2.0, [z1, 1.0])
        assert gradient(0.0, 0.0) == (0.0, [1.0, 1.0])


@pytest.mark.parametrize("spec", [
    VineSpec.uniform("dvine", 4, PairCopula("iev", AsymmetricLogistic(0.5, 0.3, 0.6))),
    VineSpec.trivariate(PairCopula("iev", AsymmetricLogistic(0.4, 0.2, 0.7)), ilog(0.5),
                        PairCopula("iev", AsymmetricLogistic(0.6, 0.5, 0.1))),
], ids=["dvine4", "trivariate"])
def test_gradient_dialect_of_the_measures_partials(spec):
    # steps whose V is not inlined take -V1(1, p/q) and -V2(q/p, 1): the value
    # is the scalar evaluator's bit for bit, and the partials match central
    # differences at positive points and one-sided ones at a zero coordinate
    g = gauges.gauge_vine(spec)
    scalar, gradient = g.scalar_evaluator(), g.gradient_evaluator()
    rng = np.random.default_rng(2718)
    for x in rng.uniform(0.05, 3.0, (40, spec.d)).tolist() + [[1.0] * spec.d]:
        value, grad = gradient(*x)
        assert value == scalar(*x) and all(type(t) is float for t in grad)
        for k, v in enumerate(x):
            up, down = x.copy(), x.copy()
            h = 1e-6 * v
            up[k], down[k] = v + h, v - h
            assert abs(grad[k] - (scalar(*up) - scalar(*down)) / (2.0 * h)) <= 1e-6
    x = [0.0, 0.7] + [1.2] * (spec.d - 2)
    value, grad = gradient(*x)
    up = [1e-9, *x[1:]]
    assert value == scalar(*x) and abs(grad[0] - (scalar(*up) - value) / 1e-9) <= 1e-6


# ---------------------------------------------------------------------------
# gauge_vine: the one place that decides which specs have a gauge
# ---------------------------------------------------------------------------

def _one_ev_edge(structure, d, tree):
    """A logistic vine whose first edge in the given tree is EV and whose
    other edges are inverted EV; tree 0 gives the all-IEV vine."""
    labels = expected_edges(structure, d)
    ev = next((e for e in labels if len(e.cond) == tree - 1), None) if tree else None
    return VineSpec(d, structure, {e: (lgst if e == ev else ilog)(0.3 + 0.05 * k) for k, e in enumerate(labels)})


# the trivariate structure exists only for d = 3
SUPPORT_MATRIX = [(structure, d, tree) for structure in ("trivariate", "dvine", "cvine") for d in (2, 3, 4, 5)
                  if structure != "trivariate" or d == 3 for tree in range(d)]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("structure, d, tree", SUPPORT_MATRIX,
                         ids=[f"{s}{d}-" + (f"ev-in-tree{t}" if t else "iev") for s, d, t in SUPPORT_MATRIX])
def test_gauge_vine_support_matrix(structure, d, tree):
    # it builds the trivariate vine in every pattern and any all-IEV D- or
    # C-vine, and there it is the named builder's gauge bit for bit
    spec = _one_ev_edge(structure, d, tree)
    trivariate = d == 3 and structure != "cvine"
    named = gauge_trivariate if trivariate else {"dvine": gauge_dvine, "cvine": gauge_cvine}[structure]
    if not (trivariate or tree == 0):
        with pytest.raises(UnsupportedCombinationError, match="no gauge for this vine"):
            gauges.gauge_vine(spec)
        with pytest.raises(UnsupportedCombinationError):
            named(spec)
        return
    g, ref = gauges.gauge_vine(spec), named(spec)
    assert g.dim == d and g.spec is spec
    pts = _plan_points(d)
    assert _bits([g._sfn(*x) for x in pts]) == _bits([ref._sfn(*x) for x in pts])
    assert _bits(g(np.array(pts))) == _bits(ref(np.array(pts)))
    grad, ref_grad = g.gradient_evaluator(), ref.gradient_evaluator()
    assert (grad is None) == (ref_grad is None) == (tree != 0)
    if grad is not None:
        for x in pts:
            value, partials = grad(*x)
            ref_value, ref_partials = ref_grad(*x)
            assert _bits([value, *partials]) == _bits([ref_value, *ref_partials])


def test_named_builders_keep_their_refusals():
    ev_dvine3 = _one_ev_edge("dvine", 3, 1)
    gauges.gauge_vine(ev_dvine3)  # the trivariate vine has a gauge in every pattern
    with pytest.raises(UnsupportedCombinationError, match="inverted extreme value"):
        gauge_dvine(ev_dvine3)
    with pytest.raises(UnsupportedCombinationError, match="cvine structure"):
        gauge_cvine(_one_ev_edge("dvine", 4, 0))
    with pytest.raises(UnsupportedCombinationError, match="dvine structure"):
        gauge_dvine(_one_ev_edge("cvine", 4, 0))
    with pytest.raises(UnsupportedCombinationError, match="trivariate vine"):
        gauge_trivariate(_one_ev_edge("cvine", 3, 0))
