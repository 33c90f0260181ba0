"""Property tests of the D-vine and C-vine gauges, their gradients, their
projections and eta_dvine/eta_cvine."""

from itertools import combinations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from vinetail import (
    Logistic,
    PairCopula,
    VineSpec,
    eta_cvine,
    eta_dvine,
    gauge_cvine,
    gauge_dvine,
    gauge_project,
    gauge_trivariate,
    inverted_ev_gauge,
)
from vinetail.eta import _eta_whole_vine
from vinetail.gauges import _minimise_gauge
from vinetail.vines import expected_edges

BUILD = {"dvine": (gauge_dvine, eta_dvine), "cvine": (gauge_cvine, eta_cvine),
         "trivariate": (gauge_trivariate, None)}


@st.composite
def vines(draw):
    structure = draw(st.sampled_from(["cvine", "dvine"]))
    d = draw(st.integers(3, 7))
    edges = expected_edges(structure, d)
    alphas = draw(st.lists(st.floats(0.3, 1.0), min_size=len(edges), max_size=len(edges)))
    return VineSpec(d, structure, {e: PairCopula("iev", Logistic(a)) for e, a in zip(edges, alphas)})


def gauge(spec):
    return BUILD[spec.structure][0](spec)


# exponential-margin coordinates; exact zeros reach the 1/0 = inf limits.
# Positive coordinates stay well above 1/DBL_MAX, below which 1/x overflows.
coordinate = st.one_of(st.just(0.0), st.floats(1e-6, 4.0))


def points(spec):
    return st.lists(st.lists(coordinate, min_size=spec.d, max_size=spec.d), min_size=1, max_size=20)


@given(st.data())
def test_order_one_homogeneity(data):
    spec = data.draw(vines())
    g = gauge(spec)
    x = np.array(data.draw(points(spec)))
    t = data.draw(st.floats(0.05, 20.0))
    ref = t * g(x)
    assert np.all(np.abs(g(t * x) - ref) <= 1e-12 * ref)


@given(st.data())
def test_limit_set_inside_unit_cube(data):
    # g(x) >= max(x): {g <= 1} lies in the unit cube
    spec = data.draw(vines())
    x = np.array(data.draw(points(spec)))
    assert np.all(gauge(spec)(x) >= np.max(x, axis=-1) * (1.0 - 1e-13))


@given(vines())
def test_unit_at_the_axes(spec):
    g = gauge(spec)
    for e in np.eye(spec.d):
        assert g(e) == 1.0


@given(st.data())
def test_scalar_path_matches_array_path(data):
    spec = data.draw(vines())
    g = gauge(spec)
    x = np.array(data.draw(points(spec)))
    np.testing.assert_allclose([g._sfn(*row) for row in x.tolist()], g(x), rtol=1e-13)


@given(vines())
def test_eta_is_reciprocal_gauge_at_ones_where_the_gradient_certifies_it(spec):
    # else the minimum lies off the all-ones point, and eta above the recursion
    res = _eta_whole_vine(gauge(spec))
    at_ones = 1.0 / gauge(spec)(np.ones(spec.d))
    assert BUILD[spec.structure][1](spec) == res.eta
    assert res.eta == at_ones if res.method == "closed" else res.eta >= at_ones


@st.composite
def logistic_vines(draw, top):
    # all-IEV logistic vines, whose plans have a gradient dialect
    structure = draw(st.sampled_from(sorted(BUILD)))
    d = 3 if structure == "trivariate" else draw(st.integers(2, 8))
    edges = expected_edges(structure, d)
    alphas = draw(st.lists(st.floats(0.05, top), min_size=len(edges), max_size=len(edges)))
    return VineSpec(d, structure, {e: PairCopula("iev", Logistic(a)) for e, a in zip(edges, alphas)})


@given(st.data())
def test_gradient_dialect_matches_the_scalar_value_and_finite_differences(data):
    # positive coordinates take central differences.  A zero coordinate runs
    # the V(x, inf) = 1/x limits, and its partial is one-sided: it takes a
    # forward difference when every alpha is at most 1/2, where the
    # difference's error O(h^(1/alpha - 1)) is O(h)
    top = data.draw(st.sampled_from([0.5, 1.0]))
    spec = data.draw(logistic_vines(top))
    g = gauge(spec)
    scalar, gradient = g.scalar_evaluator(), g.gradient_evaluator()
    x = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 4.0)), min_size=spec.d, max_size=spec.d))
    value, grad = gradient(*x)
    assert value == scalar(*x) and len(grad) == spec.d
    for k, v in enumerate(x):
        up, down = x.copy(), x.copy()
        if v > 0.0:
            h = 1e-6 * v
            up[k], down[k] = v + h, v - h
            assert abs(grad[k] - (scalar(*up) - scalar(*down)) / (2.0 * h)) <= 1e-6
        elif top == 0.5:
            up[k] = 1e-8
            assert abs(grad[k] - (scalar(*up) - value) / 1e-8) <= 1e-6


KEEPS_4 = [keep for r in (2, 3) for keep in combinations(range(1, 5), r)]


@given(st.lists(st.floats(0.3, 0.7), min_size=6, max_size=6), st.lists(coordinate, min_size=3, max_size=3))
def test_dvine4_projections(alphas, xs):
    # onto every pair and triple: a projection onto a sub-vine's nodes (a
    # tree-1 pair or the block 123 or 234) is the marginal vine's gauge; any
    # other lies in [max(x), g(x, 0)]
    edges = {e: PairCopula("iev", Logistic(a)) for e, a in zip(expected_edges("dvine", 4), alphas)}
    spec = VineSpec(4, "dvine", edges)
    g = gauge_dvine(spec)
    for keep in KEEPS_4:
        x = np.array(xs[:len(keep)])
        val = gauge_project(g, keep)(x)
        if len(keep) == 2 and keep[1] == keep[0] + 1:
            ref = inverted_ev_gauge(spec.copula(*keep).measure)(x)
            assert abs(val - ref) <= 1e-6 * ref
        elif keep in ((1, 2, 3), (2, 3, 4)):
            ref = gauge_dvine(spec.marginal(keep))(x)
            assert abs(val - ref) <= 1e-6 * ref
        else:
            full = np.zeros(4)
            full[[k - 1 for k in keep]] = x
            assert np.max(x) * (1.0 - 1e-13) <= val <= g(full)


@given(st.lists(st.floats(0.3, 0.7), min_size=10, max_size=10), st.lists(coordinate, min_size=4, max_size=4))
def test_cvine5_projections_onto_sub_vines(alphas, xs):
    # the C-vine twin: the projection onto {1, 2, m} or {1, 2, 3, m} is the
    # gauge of the marginal C-vine on those nodes
    edges = {e: PairCopula("iev", Logistic(a)) for e, a in zip(expected_edges("cvine", 5), alphas)}
    spec = VineSpec(5, "cvine", edges)
    g = gauge_cvine(spec)
    for keep in [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 3, 4), (1, 2, 3, 5)]:
        x = np.array(xs[:len(keep)])
        ref = gauge_cvine(spec.marginal(keep))(x)
        assert abs(gauge_project(g, keep)(x) - ref) <= 1e-6 * ref


@st.composite
def unequal_vines(draw):
    structure = draw(st.sampled_from(["cvine", "dvine"]))
    d = draw(st.integers(3, 6))
    edges = expected_edges(structure, d)
    alphas = draw(st.lists(st.floats(0.3, 0.7), min_size=len(edges), max_size=len(edges), unique=True))
    return VineSpec(d, structure, {e: PairCopula("iev", Logistic(a)) for e, a in zip(edges, alphas)})


@given(unequal_vines(), st.lists(coordinate, min_size=5, max_size=5))
def test_sub_vine_projection_is_the_full_gauge_box_minimum(spec, xs):
    # the projection onto a proper sub-vine's nodes is that sub-vine's gauge;
    # the box search on the full gauge reaches the same value another way
    g = gauge(spec)
    keeps = [keep for r in range(2, spec.d) for keep in combinations(range(1, spec.d + 1), r)
             if spec.hull(keep) == keep]
    for keep in keeps:
        x = xs[:len(keep)]
        val = gauge_project(g, keep)(x)
        if not any(x):
            assert val == 0.0
            continue
        lower = np.zeros(spec.d)
        lower[[k - 1 for k in keep]] = x
        ref = _minimise_gauge(g, lower, [k for k in range(spec.d) if k + 1 not in keep]).value
        assert abs(val - ref) <= 1e-12 * ref

