"""Property tests of the D-vine and C-vine gauges and of eta_dvine/eta_cvine."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from vinetail import Logistic, PairCopula, VineSpec, eta_cvine, eta_dvine, gauge_cvine, gauge_dvine
from vinetail.vines import expected_edges

BUILD = {"dvine": (gauge_dvine, eta_dvine), "cvine": (gauge_cvine, eta_cvine)}


@st.composite
def vines(draw):
    structure = draw(st.sampled_from(sorted(BUILD)))
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
def test_eta_is_reciprocal_gauge_at_ones(spec):
    assert BUILD[spec.structure][1](spec) == 1.0 / gauge(spec)(np.ones(spec.d))
