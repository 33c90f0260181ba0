"""Property tests of the public h-inverse, PairCopula.hinv."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vinetail import AsymmetricLogistic, DomainError, Logistic, PairCopula

EDGE = 1e-15  # hfunc clamps u and v to [EDGE, 1 - EDGE]

unit = st.floats(0.0, 1.0)
alphas = st.floats(0.3, 1.0)
# Logistic has its own h-inverse solve, checked down to alpha = 0.001
logistic_alphas = st.floats(0.001, 1.0)


def copulas_with(logistic_alpha):
    measures = st.one_of(
        logistic_alpha.map(Logistic),
        st.tuples(alphas, unit, unit).map(lambda a: AsymmetricLogistic(*a)),
    )
    return st.builds(PairCopula, st.sampled_from(["ev", "iev"]), measures)


copulas = copulas_with(alphas)
wide_copulas = copulas_with(logistic_alphas)
conditioners = st.floats(0.01, 0.99)
any_conditioner = st.one_of(conditioners, st.sampled_from([EDGE, 1.0 - EDGE]))


@given(copulas, st.lists(st.floats(0.01, 0.99), min_size=1, max_size=20), conditioners)
def test_roundtrip(pc, u, v):
    # u stays inside [0.01, 0.99]: further out hfunc(u, v) can lie within a
    # few ulps of 0 or 1, and no solve recovers u from it to 1e-9.  Small
    # alpha does the same inside: Logistic(0.125) at v = 0.25 has
    # dh/du = 3e-9 at u = 0.9375, so the rounding of p alone moves u by 1e-8
    u = np.array(u)
    back = pc.hinv(pc.hfunc(u, v), v)
    assert np.max(np.abs(back - u)) < 1e-9


@given(wide_copulas, st.lists(unit, min_size=1, max_size=20), any_conditioner)
# a subnormal root y: a solve that stops only on |dy| <= 1e-15 y never ends
@example(PairCopula("iev", Logistic(0.3047)), [1.1125e-308], 1.0 - 1e-15)
def test_root_within_one_ulp(pc, p, v):
    # p lies between hfunc at the floats either side of u; hfunc is flat
    # where it clamps u, so there u need only lie on the right side
    p = np.array(p)
    u = pc.hinv(p, v)
    assert np.all((u >= 0.0) & (u <= 1.0))
    below = np.where(u <= EDGE, 0.0, pc.hfunc(np.nextafter(u, 0.0), v))
    above = np.where(u >= 1.0 - EDGE, 1.0, pc.hfunc(np.nextafter(u, 1.0), v))
    assert np.all((below - 1e-9 <= p) & (p <= above + 1e-9))


@given(wide_copulas, st.lists(unit, min_size=2, max_size=40), any_conditioner)
def test_non_decreasing_in_p(pc, p, v):
    u = pc.hinv(np.sort(p), v)
    # the generic solve stops once a step in ln t is below 1e-12, the
    # logistic one once a step in y is below 1e-15 y
    assert np.all(np.diff(u) >= -1e-12)


@given(wide_copulas, unit, st.lists(conditioners, min_size=1, max_size=10))
def test_scalar_p_broadcasts_against_array_v(pc, p, v):
    v = np.array(v)
    u = pc.hinv(p, v)
    assert u.shape == v.shape
    assert np.array_equal(u, [pc.hinv(p, vi) for vi in v])


@given(wide_copulas, st.lists(unit, min_size=1, max_size=5), st.lists(conditioners, min_size=1, max_size=5))
def test_two_dimensional_inputs(pc, p, v):
    P, Vv = np.array(p)[:, None], np.array(v)[None, :]
    u = pc.hinv(P, Vv)
    assert u.shape == (len(p), len(v))
    assert np.array_equal(u, [[pc.hinv(pi, vj) for vj in v] for pi in p])


@given(wide_copulas)
def test_nan_raises_domain_error(pc):
    with pytest.raises(DomainError):
        pc.hinv(np.nan, 0.5)
    with pytest.raises(DomainError):
        pc.hinv(0.5, np.nan)
    with pytest.raises(DomainError):
        pc.hinv(np.array([0.2, np.nan]), np.array([0.5, 0.5]))
