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


@pytest.mark.parametrize("g", ALL_PATTERNS + BIVARIATE)
def test_limit_set_inside_unit_cube(g):
    dirs = RNG.dirichlet(np.ones(g.dim), size=1000)
    pts = np.array([boundary_point(g, w) for w in dirs])
    assert np.all(pts <= 1.0 + 1e-9)
    assert np.all(pts >= -1e-15)


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
    s = np.where(a >= b, t.s1, t.s2)
    return (2.0 + s) * np.maximum(a, b) - (1.0 + s) * np.minimum(a, b)


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
    """Bounded Nelder-Mead over two dropped coordinates, checked
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
    # the near-corner start leaves x3 at about 1e-8; a polish simplex sized
    # from that coordinate cannot leave the face x3 = 0
    g = gauge_dvine(dvine4([0.488077, 0.579518, 0.416815, 0.633143, 0.343542, 0.653497]))
    assert gauge_project(g, (2, 4))((1.166474, 0.090259)) <= 1.1667034449 + 1e-9


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
