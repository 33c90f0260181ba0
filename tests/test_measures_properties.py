"""Property tests of the measure kernel _cond_parts -> (w, V, ln K), with
K = V1 V2 - V12, all at (1/tu, 1/tv)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from vinetail import AsymmetricLogistic, Logistic, PairCopula
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
