import random
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vinetail import (
    DomainError,
    Logistic,
    PairCopula,
    UnsupportedCombinationError,
    VineSpec,
    asymmetric_logistic_gauge,
    bev_gauge,
    eta13_trivariate_ilog,
    eta_cvine,
    eta_dvine,
    eta_dvine_ilog_closed,
    eta_mixed_trivariate,
    eta_numeric,
    eta_subvine,
    eta_trivariate_ilog_closed,
    gauge_cvine,
    gauge_dvine,
    gauge_trivariate,
    gaussian_gauge,
    independence_gauge,
    inverted_ev_gauge,
)
from vinetail.vines import expected_edges

RNG = np.random.default_rng(577215)


def ilog(a):
    return PairCopula("iev", Logistic(a))


def lgst(a):
    return PairCopula("ev", Logistic(a))


gallery = [
    (independence_gauge(), 0.5),
    (gaussian_gauge(0.5), 0.75),
    (inverted_ev_gauge(Logistic(0.5)), 2.0**-0.5),
    (bev_gauge(0.0, 0.0), 1.0),
    (asymmetric_logistic_gauge(0.5), 1.0),
]


@pytest.mark.parametrize("g,expected", gallery)
def test_numeric_gallery(g, expected):
    res = eta_numeric(g)
    assert res.eta == pytest.approx(expected, abs=1e-6)
    assert res.method == "numeric"
    # the known minimisers all sit at the all-ones point here
    assert_allclose(res.argmin, np.ones(2), atol=1e-6)


def test_numeric_lower_bound_and_detector():
    for g, _ in gallery:
        res = eta_numeric(g)
        assert res.eta >= 1.0 / g(np.ones(g.dim)) - 1e-12
        if g(np.ones(g.dim)) == pytest.approx(1.0, abs=1e-12):
            assert res.eta == pytest.approx(1.0, abs=1e-9)


def test_closed_form_trivariate():
    assert eta_trivariate_ilog_closed(0.5, 0.5, 0.5) == pytest.approx(0.6306019374818707, abs=1e-12)
    # limits: alpha = beta = gamma -> 1 gives complete independence 1/3
    assert eta_trivariate_ilog_closed(1.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert eta_trivariate_ilog_closed(0.999999, 0.999999, 0.999999) == pytest.approx(1.0 / 3.0, abs=1e-5)
    # max parameter -> 0 drives eta to 1
    assert eta_trivariate_ilog_closed(1e-9, 1e-9, 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_eta13_closed_value_and_root_agreement():
    res = eta13_trivariate_ilog(0.5, 0.5, 0.5)
    assert res.method == "closed"
    assert res.eta == pytest.approx(0.7395, abs=5e-5)
    for a in (0.2, 0.5, 0.8):
        for c in (0.2, 0.5, 0.8):
            closed = eta13_trivariate_ilog(a, a, c)
            rooted = eta13_trivariate_ilog(a, a, c, force_root=True)
            assert rooted.method == "root"
            assert abs(closed.eta - rooted.eta) < 1e-8
            assert 0.0 < rooted.diagnostics["v"] < 1.0


def test_eta13_range_and_vs_numeric():
    for a in np.arange(0.15, 0.95, 0.15):
        for b in np.arange(0.15, 0.95, 0.3):
            for c in (0.3, 0.7):
                res = eta13_trivariate_ilog(a, b, c)
                assert 0.5 < res.eta < 1.0
    spec = VineSpec.trivariate(ilog(0.5), ilog(0.25), ilog(0.5))
    num = eta_numeric(gauge_trivariate(spec), (1, 3))
    assert num.eta == pytest.approx(eta13_trivariate_ilog(0.5, 0.25, 0.5).eta, abs=1e-6)


def test_oracle_equivalence_sample():
    for a, b, c in RNG.uniform(0.1, 0.9, (10, 3)):
        spec = VineSpec.trivariate(ilog(a), ilog(b), ilog(c))
        res = eta_numeric(gauge_trivariate(spec))
        assert res.eta == pytest.approx(eta_trivariate_ilog_closed(a, b, c), abs=1e-6)
        assert_allclose(res.argmin, np.ones(3), atol=1e-6)


def test_dvine_closed_form():
    assert eta_dvine_ilog_closed(0.5, 2) == pytest.approx(2.0**-0.5, abs=1e-15)
    assert eta_dvine_ilog_closed(0.5, 4) == pytest.approx(0.6035533905932737, abs=1e-12)
    # alpha -> 1 approaches complete independence 1/d
    for d in (3, 5, 8):
        assert eta_dvine_ilog_closed(0.999, d) == pytest.approx(1.0 / d, abs=1e-3)
        assert eta_dvine_ilog_closed(1.0, d) == pytest.approx(1.0 / d, abs=1e-12)


def test_recursions_match_closed_form():
    for d in range(3, 9):
        for a in np.arange(0.1, 0.95, 0.1):
            closed = eta_dvine_ilog_closed(a, d)
            assert abs(eta_dvine(VineSpec.uniform("dvine", d, ilog(a))) - closed) < 1e-10
            assert abs(eta_cvine(VineSpec.uniform("cvine", d, ilog(a))) - closed) < 1e-10


def test_recursion_decreasing_in_dimension():
    for a in (0.2, 0.5, 0.8):
        vals = [eta_dvine_ilog_closed(a, d) for d in range(2, 11)]
        assert np.all(np.diff(vals) < 0)


def test_recursion_with_unequal_parameters_matches_gauge():
    edges = {"12": ilog(0.3), "23": ilog(0.5), "34": ilog(0.7),
             "13|2": ilog(0.4), "24|3": ilog(0.6), "14|23": ilog(0.55)}
    spec = VineSpec(4, "dvine", edges)
    recursive = eta_dvine(spec)
    at_ones = 1.0 / gauge_dvine(spec)(np.ones(4))
    assert recursive == pytest.approx(at_ones, rel=1e-13)
    numeric = eta_numeric(gauge_dvine(spec))
    assert numeric.eta == pytest.approx(recursive, abs=1e-6)


# all-IEV logistic vines, alphas in expected_edges order, whose recursion
# meets sub-vine gauges equal in floating point (left == inner), with 1/g(1, ..., 1)
ZERO_DENOMINATOR_VINES = [
    ("cvine", 7, [0.90758, 0.760936, 0.615619, 0.448094, 0.51646, 0.82184, 0.793396, 0.523986,
                  0.629718, 0.334553, 0.747658, 0.345719, 0.967938, 0.399419, 0.669867, 0.908511,
                  0.362166, 0.938251, 0.356359, 0.809834, 0.91709], 0.3641797607770967),
    ("dvine", 8, [0.562264, 0.630699, 0.697068, 0.629336, 0.778419, 0.937642, 0.337443, 0.566602,
                  0.38045, 0.491009, 0.404904, 0.447214, 0.514923, 0.300052, 0.503554, 0.840824,
                  0.95268, 0.346253, 0.390452, 0.459099, 0.549093, 0.528227, 0.57764, 0.85506,
                  0.398024, 0.455999, 0.575243, 0.659172], 0.4332693608572072),
]


def zero_denominator_spec(structure, d, alphas):
    edges = expected_edges(structure, d)
    return VineSpec(d, structure, {e: ilog(a) for e, a in zip(edges, alphas)})


@pytest.mark.parametrize("structure, d, alphas, expected", ZERO_DENOMINATOR_VINES)
def test_recursion_resolves_zero_denominators(structure, d, alphas, expected):
    eta = (eta_dvine if structure == "dvine" else eta_cvine)(zero_denominator_spec(structure, d, alphas))
    assert eta == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("structure, a, C, evals, eta, argmin, eta_before", [
    ("dvine", 0.5, (1, 6), 3601, 0.7866772990874522,
     [1.0, 0.2859843111895362, 0.44118680167323876, 0.4356887129719023, 0.23695341641542678, 1.0],
     0.7866772797115702),
    ("cvine", 0.45, (1, 3), 1923, 0.7320428479728127, [1, 0, 1, 0, 0, 0], 0.7320428479728127),
], ids=["dvine", "cvine"])
def test_numeric_optimiser_path_is_pinned(structure, a, C, evals, eta, argmin, eta_before):
    # the gauge must stay bit-identical: any change in its rounding moves the
    # Nelder-Mead path and with it the evaluation count.  The D-vine is
    # symmetric under reversal, so the mirror image of this argmin is a
    # minimiser too; which one the path reaches turns on tied simplex values,
    # which keep their order on every CPU.  eta_before is what the
    # pinned-subset solver returned.
    build = gauge_dvine if structure == "dvine" else gauge_cvine
    res = eta_numeric(build(VineSpec.uniform(structure, 6, ilog(a))), C)
    assert res.diagnostics["n_gauge_evals"] == evals
    assert res.eta == pytest.approx(eta, abs=1e-13)
    assert_allclose(res.argmin, argmin, rtol=0, atol=1e-13)
    assert res.eta == pytest.approx(eta_before, abs=1e-6)


@pytest.mark.parametrize("alphas", [[0.516893, 0.642191, 0.417231], [0.515846, 0.688727, 0.38182]])
def test_numeric_reaches_minimum_on_constrained_face(alphas):
    # the minimum sits at the corner (1, 1, 1) of the box, where g has a kink
    res = eta_numeric(gauge_trivariate(VineSpec.trivariate(*(lgst(a) for a in alphas))), (1, 3))
    assert res.eta == pytest.approx(1.0, abs=1e-9)


def test_numeric_matches_root_solve_with_boundary_minimum():
    spec = VineSpec.trivariate(ilog(0.352981), lgst(0.623491), lgst(0.352631))
    res = eta_numeric(gauge_trivariate(spec), (1, 3))
    assert res.eta == pytest.approx(eta_mixed_trivariate(spec, (1, 3)).eta, abs=1e-8)


def test_numeric_polish_leaves_collapsed_corner():
    # the simplices of all eight log-spaced starts collapse onto the corner
    # (1, 1, 1); the minimum sits at x1 = 1.0053 on the edge x2 = x3 = 1
    spec = VineSpec.trivariate(ilog(0.366609), ilog(0.370434), lgst(0.334335))
    res = eta_numeric(gauge_trivariate(spec))
    assert res.eta == pytest.approx(eta_mixed_trivariate(spec, (1, 2, 3)).eta, abs=1e-8)


def test_numeric_dvine_end_pair_at_default_budget():
    # reference value: the same solve at 16 starts and maxfev=20000
    res = eta_numeric(gauge_dvine(VineSpec.uniform("dvine", 7, ilog(0.5))), (1, 7))
    assert res.eta == pytest.approx(0.7990078876, abs=1e-8)


def test_numeric_evaluations_do_not_grow_with_free_subsets():
    n_starts, maxfev = 8, 400
    for d in range(3, 9):
        res = eta_numeric(gauge_dvine(VineSpec.uniform("dvine", d, ilog(0.5))), (1, d), n_starts, maxfev)
        assert res.diagnostics["n_gauge_evals"] <= (n_starts + 1) * maxfev + 2


def test_recursion_rejects_bad_specs():
    edges = {"12": ilog(0.3), "23": lgst(0.5), "13|2": ilog(0.4)}
    with pytest.raises(UnsupportedCombinationError):
        eta_dvine(VineSpec(3, "dvine", edges))
    with pytest.raises(UnsupportedCombinationError):
        eta_cvine(VineSpec.uniform("dvine", 4, ilog(0.4)))


mixed_cases = [
    # (spec builder, expected eta123, expected eta13 property)
    (lambda a, b: VineSpec.trivariate(ilog(a), ilog(b), lgst(0.5)), lambda a, b: min(2.0**-a, 2.0**-b), "one"),
    (lambda a, b: VineSpec.trivariate(lgst(a), ilog(b), ilog(0.5)), lambda a, b: 2.0**-b, "root"),
    (lambda a, b: VineSpec.trivariate(lgst(a), ilog(b), lgst(0.5)), lambda a, b: 2.0**-b, "gt"),
    (lambda a, b: VineSpec.trivariate(lgst(a), lgst(b), ilog(0.5)), lambda a, b: 1.0, "one"),
    (lambda a, b: VineSpec.trivariate(lgst(a), lgst(b), lgst(0.5)), lambda a, b: 1.0, "one"),
]


@pytest.mark.parametrize("build,expected,eta13_kind", mixed_cases)
def test_mixed_closed_forms_and_numeric(build, expected, eta13_kind):
    for a, b in [(0.5, 0.25), (0.3, 0.6)]:
        spec = build(a, b)
        res = eta_mixed_trivariate(spec, (1, 2, 3))
        assert res.eta == pytest.approx(expected(a, b), abs=1e-12)
        num = eta_numeric(gauge_trivariate(spec))
        assert num.eta == pytest.approx(res.eta, abs=1e-6)
        r13 = eta_mixed_trivariate(spec, (1, 3))
        if eta13_kind == "one":
            assert r13.eta == pytest.approx(1.0, abs=1e-12)
        elif eta13_kind == "gt":
            assert r13.eta > res.eta
        else:
            n13 = eta_numeric(gauge_trivariate(spec), (1, 3))
            assert r13.eta == pytest.approx(n13.eta, abs=1e-6)


def test_mixed_mirror_patterns():
    direct = eta_mixed_trivariate(VineSpec.trivariate(lgst(0.5), ilog(0.25), lgst(0.4)), (1, 2, 3))
    mirrored = eta_mixed_trivariate(VineSpec.trivariate(ilog(0.25), lgst(0.5), lgst(0.4)), (1, 2, 3))
    assert mirrored.eta == pytest.approx(direct.eta, rel=1e-12)
    assert_allclose(mirrored.argmin, np.asarray(direct.argmin)[::-1])


def test_mixed_tree1_pairs():
    spec = VineSpec.trivariate(lgst(0.5), ilog(0.25), ilog(0.4))
    assert eta_mixed_trivariate(spec, (1, 2)).eta == pytest.approx(1.0)
    assert eta_mixed_trivariate(spec, (2, 3)).eta == pytest.approx(2.0**-0.25)


def test_mixed_iie_argmin_hits_boundary():
    spec = VineSpec.trivariate(ilog(0.5), ilog(0.25), lgst(0.5))
    res = eta_numeric(gauge_trivariate(spec), (1, 3))
    assert res.eta == pytest.approx(1.0, abs=1e-9)
    assert res.argmin[1] == pytest.approx(0.0, abs=1e-9)


def test_monotone_nesting():
    spec = VineSpec.trivariate(ilog(0.5), ilog(0.25), ilog(0.5))
    g = gauge_trivariate(spec)
    full = eta_numeric(g).eta
    for C in ((1, 2), (2, 3), (1, 3)):
        assert eta_numeric(g, C).eta >= full - 1e-9


def test_numeric_with_two_free_coordinates():
    """C = {1, 4} on a four-dimensional vine: the minimiser must optimise
    both free middle coordinates (interior optimum, found independently by
    projection + brute force: eta = 0.7321903...)."""
    edges = {"12": ilog(0.3), "23": ilog(0.5), "34": ilog(0.7),
             "13|2": ilog(0.4), "24|3": ilog(0.6), "14|23": ilog(0.55)}
    g = gauge_dvine(VineSpec(4, "dvine", edges))
    res = eta_numeric(g, (1, 4))
    assert res.eta == pytest.approx(0.7321903324, abs=1e-6)
    assert res.argmin[0] == pytest.approx(1.0, abs=1e-6)
    assert res.argmin[3] == pytest.approx(1.0, abs=1e-6)
    assert 0.0 < res.argmin[1] < 1.0 and 0.0 < res.argmin[2] < 1.0


def test_numeric_input_validation_and_diagnostics():
    g = independence_gauge()
    with pytest.raises(DomainError):
        eta_numeric(g, (1,))
    with pytest.raises(DomainError):
        eta_numeric(g, (1, 5))
    # a one-variable set has no eta on the trivariate route either
    for fams in ("iii", "eii", "eee"):
        spec = VineSpec.trivariate(*((lgst if f == "e" else ilog)(0.5) for f in fams))
        for C in ((1,), (2,), (3,)):
            with pytest.raises(DomainError):
                eta_mixed_trivariate(spec, C)
    res = eta_numeric(g)
    assert res.diagnostics["n_starts"] >= 9
    assert res.diagnostics["spread"] < 1e-4
    assert not res.diagnostics["suspicious_landscape"]


def test_eta_result_validates_range():
    from vinetail import EtaResult

    with pytest.raises(DomainError):
        EtaResult(eta=1.5, argmin=np.ones(2), method="closed")
    with pytest.raises(DomainError):
        EtaResult(eta=0.0, argmin=np.ones(2), method="closed")


# triples drawn from [0.05, 0.99]^3 whose minimum of g(1, v, 1) sits at an end of
# v in [0, 1], where the stationarity equation has no root to bracket
@pytest.mark.parametrize("alphas, v", [
    ((0.929, 0.8169, 0.0526), 0.0),
    ((0.9717, 0.0842, 0.0703), 0.0),
    ((0.6823, 0.9586, 0.1046), 0.0),
])
def test_eta13_root_takes_the_end_without_a_stationary_point(alphas, v):
    res = eta13_trivariate_ilog(*alphas, force_root=True)
    assert res.method == "root" and res.diagnostics["v"] == v
    assert_allclose(res.argmin, [1.0, v, 1.0], rtol=0, atol=0)
    assert res.eta == pytest.approx(2.0 ** -alphas[2], rel=1e-15)
    g = gauge_trivariate(VineSpec.trivariate(*(ilog(a) for a in alphas)))
    assert res.eta == pytest.approx(eta_numeric(g, (1, 3), n_starts=16, maxfev=20000).eta, abs=1e-10)


@pytest.mark.parametrize("alphas, v", [
    ((0.2855, 0.9052, 0.9738), 1.0),
    ((0.087, 0.1449, 0.9789), 1.0),
    ((0.9294, 0.9886, 0.1959), 0.0),
    ((0.9484, 0.976, 0.1015), 0.0),
])
def test_eii_root_takes_the_end_without_a_stationary_point(alphas, v):
    spec = VineSpec.trivariate(lgst(alphas[0]), ilog(alphas[1]), ilog(alphas[2]))
    res = eta_mixed_trivariate(spec, (1, 3))
    assert res.method == "root" and res.diagnostics["v"] == v
    assert_allclose(res.argmin, [1.0, v, 1.0], rtol=0, atol=0)
    ref = eta_numeric(gauge_trivariate(spec), (1, 3), n_starts=16, maxfev=20000)
    assert res.eta == pytest.approx(ref.eta, abs=1e-10)


def unequal_vine(structure, d, seed):
    alphas = np.random.default_rng(seed).uniform(0.05, 0.99, d * (d - 1) // 2).round(4)
    return VineSpec(d, structure, {e: ilog(a) for e, a in zip(expected_edges(structure, d), alphas)})


def hull(structure, C):
    return tuple(range(C[0], C[-1] + 1)) if structure == "dvine" else (*range(1, C[-2] + 1), C[-1])


@pytest.mark.parametrize("structure", ["dvine", "cvine"])
@pytest.mark.parametrize("d", [4, 5, 6])
def test_subvine_route_matches_the_full_gauge(structure, d):
    # the pairs and triples of a vine with one alpha per edge whose hull is a
    # proper sub-vine: all of them at d = 4 and a seeded sample beyond, where
    # each reference solve takes 0.1-0.5 s.  A hull of five nodes runs the
    # default budget of eta_numeric on five coordinates, which can stop about
    # 1e-7 short of the reference, as the full-gauge solve can on six
    spec = unequal_vine(structure, d, seed=1000 + d)
    g = (gauge_dvine if structure == "dvine" else gauge_cvine)(spec)
    sets = [C for r in (2, 3) for C in combinations(range(1, d + 1), r) if len(hull(structure, C)) < d]
    if d > 4:
        sets = random.Random(d).sample(sets, 10 - d)
    for C in sets:
        S = hull(structure, C)
        res = eta_subvine(spec, C)
        assert res.diagnostics["marginal"] == S and "fallback_reason" not in res.diagnostics
        if len(S) == 2 or (structure == "dvine" and S == C):
            assert res.method == "closed"
        else:
            assert res.method == ("root" if structure == "dvine" and len(S) == 3 else "numeric")
        x = res.argmin
        assert np.all(x >= 0.0) and np.all(x[[c - 1 for c in C]] >= 1.0)
        assert np.all(x[[k for k in range(d) if k + 1 not in S]] == 0.0)
        assert abs(g(x) * res.eta - 1.0) <= 1e-9
        ref = eta_numeric(g, C, n_starts=16, maxfev=20000)
        assert res.eta == pytest.approx(ref.eta, abs=1e-8 if len(S) < 5 else 1e-6), C


@pytest.mark.parametrize("structure, C", [("dvine", (1, 5)), ("dvine", (1, 3, 5)), ("cvine", (4, 5)),
                                          ("cvine", (2, 4, 5))])
def test_subvine_route_on_the_whole_vine_is_the_full_gauge_solve(structure, C):
    spec = unequal_vine(structure, 5, seed=7)
    res = eta_subvine(spec, C)
    today = eta_numeric((gauge_dvine if structure == "dvine" else gauge_cvine)(spec), C)
    assert res.eta == today.eta and res.method == "numeric"
    assert np.array_equal(res.argmin, today.argmin)
    assert res.diagnostics == today.diagnostics  # n_gauge_evals included, and no marginal


def test_subvine_route_falls_back_when_the_full_gauge_disagrees(monkeypatch):
    import vinetail.eta as eta_mod

    spec = unequal_vine("dvine", 5, seed=7)
    good = eta_subvine(spec, (2, 4))
    assert good.method == "root" and good.diagnostics["marginal"] == (2, 3, 4)

    def off_by_1e7(margin, C):
        res = eta_mixed_trivariate(margin, C)
        return eta_mod.EtaResult(res.eta * (1.0 + 1e-7), res.argmin, res.method, res.diagnostics)

    monkeypatch.setattr(eta_mod, "eta_mixed_trivariate", off_by_1e7)
    res = eta_subvine(spec, (2, 4))
    full = eta_numeric(gauge_dvine(spec), (2, 4))
    assert res.method == "numeric" and res.eta == full.eta
    assert np.array_equal(res.argmin, full.argmin)
    assert res.diagnostics["marginal"] == (2, 3, 4)
    assert "1e-07" in res.diagnostics["fallback_reason"]
    assert res.eta == pytest.approx(good.eta, abs=1e-6)


def test_subvine_route_rejects_bad_specs_and_sets():
    with pytest.raises(UnsupportedCombinationError):
        eta_subvine(VineSpec(4, "dvine", {e: (lgst if e.cond else ilog)(0.5)
                                          for e in expected_edges("dvine", 4)}), (1, 3))
    with pytest.raises(DomainError):
        eta_subvine(VineSpec.uniform("cvine", 4, ilog(0.5)), (2,))
