import random
from itertools import combinations, product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vinetail import (
    AsymmetricLogistic,
    ConvergenceError,
    DomainError,
    Logistic,
    PairCopula,
    ParameterError,
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
    eta_vine,
    gauge_cvine,
    gauge_dvine,
    gauge_project,
    gauge_trivariate,
    gaussian_gauge,
    independence_gauge,
    inverted_ev_gauge,
)
from vinetail import gauges
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


@pytest.mark.parametrize("structure, a, C, evals, eta, argmin, eta_before, reference", [
    ("dvine", 0.5, (1, 6), (0, 212), 0.7866772990874611,
     [1.0, 0.23695372236449372, 0.4356887537761208, 0.4411868801556232, 0.28598405329740856, 1.0],
     0.7866772797115702, 0.7866772990874414),
    ("cvine", 0.45, (1, 3), (0, 126), 0.7320428479728127, [1, 0, 1, 0, 0, 0], 0.7320428479728127,
     0.7320428479728127),
], ids=["dvine", "cvine"])
def test_numeric_optimiser_path_is_pinned(structure, a, C, evals, eta, argmin, eta_before, reference):
    # the gauge and its gradient must stay bit-identical: any change in their
    # rounding moves the quasi-Newton path and with it the evaluation counts
    # (value-only, value and gradient; with a gradient the starts are the
    # whole solve, so there are no value-only ones).  The D-vine is symmetric
    # under reversal, so the mirror image of this argmin is a minimiser too;
    # the tilt of the quasi-Newton solve's first step picks this one.
    # eta_before is what the pinned-subset solver returned, and reference the
    # Nelder-Mead solve at 16 starts and maxfev=20000.
    build = gauge_dvine if structure == "dvine" else gauge_cvine
    res = eta_numeric(build(VineSpec.uniform(structure, 6, ilog(a))), C)
    assert res.diagnostics["local_solver"] == "quasi-newton"
    assert (res.diagnostics["n_gauge_evals"], res.diagnostics["n_gradient_evals"]) == evals
    assert res.eta == pytest.approx(eta, abs=1e-13)
    assert_allclose(res.argmin, argmin, rtol=0, atol=1e-13)
    assert res.eta == pytest.approx(eta_before, abs=1e-6)
    assert res.eta == pytest.approx(reference, abs=1e-9)


@pytest.mark.parametrize("spec, C, solver, evals, eta, argmin", [
    (VineSpec.trivariate(lgst(0.5), ilog(0.25), ilog(0.5)), (1, 3), "middle-search", (238, 0), 0.8470979811115801,
     [1.0, 0.9690567857721193, 1.0]),
    (VineSpec.uniform("dvine", 4, PairCopula("iev", AsymmetricLogistic(0.5, 0.3, 0.6))), (1, 4), "quasi-newton",
     (0, 25), 0.5860889073134066, [1.0, 0.0, 0.0, 1.0]),
], ids=["eii", "asymmetric-logistic"])
def test_numeric_path_is_pinned_off_the_inline_logistic_gradient(spec, C, solver, evals, eta, argmin):
    # an EV tree-1 edge leaves the plan with no gradient dialect, so the
    # search runs in x2 alone; an asymmetric logistic edge has the measure's
    # partials, so it takes the quasi-Newton solve.  The eii value moved by
    # 4e-13 from the former solver's 0.8470979811111795, the root solve's
    # 0.847097981111580 being the closer
    g = gauge_trivariate(spec) if spec.d == 3 else gauge_dvine(spec)
    assert (g.gradient_evaluator() is None) == (solver == "middle-search")
    res = eta_numeric(g, C)
    d = res.diagnostics
    assert (d["local_solver"], d["n_gauge_evals"], d["n_gradient_evals"]) == (solver, *evals)
    assert ("kkt_residual" in d) == (solver == "quasi-newton")
    assert res.eta == pytest.approx(eta, abs=1e-13)
    assert_allclose(res.argmin, argmin, rtol=0, atol=1e-13)
    if spec.d == 3:
        assert res.eta == pytest.approx(eta_mixed_trivariate(spec, C).eta, abs=1e-15)


@pytest.mark.parametrize("alphas", [[0.516893, 0.642191, 0.417231], [0.515846, 0.688727, 0.38182]])
def test_numeric_reaches_minimum_on_constrained_face(alphas):
    # the minimum sits at the corner (1, 1, 1) of the box, where g has a kink
    res = eta_numeric(gauge_trivariate(VineSpec.trivariate(*(lgst(a) for a in alphas))), (1, 3))
    assert res.eta == pytest.approx(1.0, abs=1e-9)


def test_numeric_matches_root_solve_with_boundary_minimum():
    spec = VineSpec.trivariate(ilog(0.352981), lgst(0.623491), lgst(0.352631))
    res = eta_numeric(gauge_trivariate(spec), (1, 3))
    assert res.eta == pytest.approx(eta_mixed_trivariate(spec, (1, 3)).eta, abs=1e-8)


def test_numeric_dvine_end_pair_at_default_budget():
    # reference value: the same solve at 16 starts and maxfev=20000
    res = eta_numeric(gauge_dvine(VineSpec.uniform("dvine", 7, ilog(0.5))), (1, 7))
    assert res.eta == pytest.approx(0.7990078876, abs=1e-8)


def test_numeric_dvine_end_pair_at_d8_reaches_the_reference():
    # the Nelder-Mead starts used to spend the default budget here and stop
    # at 0.8082849712; the reference is Nelder-Mead at 16 starts and maxfev=20000
    res = eta_numeric(gauge_dvine(VineSpec.uniform("dvine", 8, ilog(0.5))), (1, 8))
    assert res.eta == pytest.approx(0.8083830698, abs=1e-8)
    assert res.diagnostics["local_solver"] == "quasi-newton"


def test_numeric_evaluations_do_not_grow_with_free_subsets():
    # the bound holds on value-only and value-and-gradient evaluations
    # together, also on budgets the starts use up
    for n_starts, maxfev in [(8, 400), (2, 30), (1, 8)]:
        for d in range(3, 9):
            res = eta_numeric(gauge_dvine(VineSpec.uniform("dvine", d, ilog(0.5))), (1, d), n_starts, maxfev)
            diag = res.diagnostics
            assert diag["n_gauge_evals"] + diag["n_gradient_evals"] <= (n_starts + 1) * maxfev + 2


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


def _trivariate(fams, alphas=(0.45, 0.3, 0.6)):
    return VineSpec.trivariate(*((lgst if f == "e" else ilog)(a) for f, a in zip(fams, alphas)))


@pytest.mark.parametrize("fams", ["iii", "iie", "eii", "eie", "eei", "eee", "iei", "iee"])
def test_tree1_pair_argmin_is_the_box_minimum(fams):
    # a tree-1 pair takes the corner x_other = 0 unsearched when g there is
    # at most (1 + 1e-12)/eta, else the one-coordinate box minimum.  Where
    # the search leaves that corner, it does so for a value that rounds below
    # g(corner) = 1/eta (one ulp on the all-IEV vines with an edge at 0.7)
    corners = 0
    for alphas in product((0.2, 0.45, 0.7), repeat=3):
        spec = _trivariate(fams, alphas)
        g = gauge_trivariate(spec)
        for C, other in (((1, 2), 2), ((2, 3), 0)):
            res = eta_mixed_trivariate(spec, C)
            lower = np.ones(3)
            lower[other] = 0.0
            found = gauges._minimise_gauge(g, lower, [other])
            if np.array_equal(res.argmin, lower):
                corners += 1
                assert found.corner_value <= (1.0 + 1e-12) / res.eta
                assert np.array_equal(found.x, lower) or found.value >= found.corner_value * (1.0 - 1e-15)
            else:
                assert np.array_equal(res.argmin, found.x)
    assert corners > 0 or fams in ("iie", "eei", "eee")


def test_mixed_closed_and_root_routes_build_no_gauge(monkeypatch):
    from vinetail import eta as eta_module
    from vinetail import gauges

    def no_gauge(*args):
        raise AssertionError("a gauge was built")

    monkeypatch.setattr(eta_module, "gauge_vine", no_gauge)
    monkeypatch.setattr(gauges, "_vine_gauge", no_gauge)
    for fams in ("eee", "iii"):
        assert eta_mixed_trivariate(_trivariate(fams), (1, 2, 3)).method == "closed"
    # the mirrored patterns and the root solves build none either
    for fams in ("iii", "iie", "iei", "iee", "eii", "eie", "eei", "eee"):
        for C in ((1, 2, 3), (1, 3)):
            assert eta_mixed_trivariate(_trivariate(fams), C).method in ("closed", "root")
    with pytest.raises(AssertionError, match="a gauge was built"):
        eta_mixed_trivariate(_trivariate("iii"), (1, 2))  # a tree-1 pair reads the gauge


@pytest.mark.parametrize("spec", [
    VineSpec.trivariate(PairCopula("ev", AsymmetricLogistic(0.5, 0.3, 0.6)), ilog(0.4), ilog(0.5)),
    VineSpec.trivariate(ilog(0.4), ilog(0.5), PairCopula("ev", AsymmetricLogistic(0.5, 0.3, 0.6))),
    VineSpec.trivariate(lgst(0.4), ilog(0.5), PairCopula("iev", AsymmetricLogistic(0.5, 0.3, 0.6))),
    VineSpec.trivariate(ilog(0.4), lgst(0.5), PairCopula("iev", AsymmetricLogistic(0.5, 0.3, 0.6))),
    VineSpec.trivariate(lgst(1.0), ilog(0.5), ilog(0.6)),
    VineSpec.uniform("cvine", 3, ilog(0.5)),
], ids=["ev-al-tree1", "ev-al-top", "iev-al-top-over-ev", "mirrored", "ev-alpha-1", "cvine"])
def test_mixed_routes_reject_vines_without_a_trivariate_gauge(spec):
    # an EV edge needs regularly varying spectral tails, and so does the
    # top edge over an EV tree-1 edge; every route raises where the gauge would
    for C in ((1, 2, 3), (1, 3), (1, 2)):
        with pytest.raises(UnsupportedCombinationError):
            eta_mixed_trivariate(spec, C)


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
    assert res.diagnostics["local_solver"] == "face-search" and res.diagnostics["n_starts"] >= 2
    assert "spread" not in res.diagnostics and "suspicious_landscape" not in res.diagnostics


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
    # proper sub-vine: all of them at d = 4 and a seeded sample beyond
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
        assert res.eta == pytest.approx(ref.eta, abs=1e-9), C


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


def test_subvine_route_on_a_five_node_hull_reaches_the_reference():
    # the third draw of this generator, after the 4- and 5-d D-vines.  The
    # Nelder-Mead starts on the hull {2, ..., 6} used to spend the default
    # budget and stop at 0.6754153761; the reference is Nelder-Mead at 16
    # starts and maxfev=20000, on the full gauge and on the marginal alike
    rng = np.random.default_rng(20260)
    for d in (4, 5, 6):
        alphas = rng.uniform(0.1, 0.95, d * (d - 1) // 2).round(4)
    spec = VineSpec(6, "dvine", {e: ilog(a) for e, a in zip(expected_edges("dvine", 6), alphas)})
    res = eta_subvine(spec, (2, 3, 6))
    assert res.diagnostics["marginal"] == (2, 3, 4, 5, 6)
    assert res.diagnostics["local_solver"] == "quasi-newton"
    assert res.eta == pytest.approx(0.6754154217, abs=1e-9)


def test_kkt_residual_replaces_the_start_spread_for_gradient_gauges():
    # a well-posed problem: the minimum (1, v, 1) is interior in v, where g is
    # smooth, and the residual, not the spread of the starts' values, flags it
    g = gauge_trivariate(VineSpec.trivariate(ilog(0.5), ilog(0.5), ilog(0.5)))
    res = eta_numeric(g, (1, 3))
    d = res.diagnostics
    assert d["local_solver"] == "quasi-newton" and d["n_gradient_evals"] > 0
    assert 0.0 <= d["kkt_residual"] <= 1e-6 and d["suspicious_landscape"] is False
    assert res.eta == pytest.approx(eta13_trivariate_ilog(0.5, 0.5, 0.5).eta, abs=1e-9)
    # the residual is the largest projected partial at the argmin (1, v, 1):
    # the partial in v, as x1 and x3 sit at their bound with positive partials
    grad = g.gradient_evaluator()(*res.argmin.tolist())[1]
    assert grad[0] > 0.0 and grad[2] > 0.0 and d["kkt_residual"] == abs(grad[1])


@pytest.mark.parametrize("g, solver", [
    (independence_gauge(), "face-search"), (gaussian_gauge(0.5), "face-search"), (bev_gauge(0.0, 0.0), "face-search"),
    (asymmetric_logistic_gauge(0.5), "face-search"),
    (inverted_ev_gauge(AsymmetricLogistic(0.5, 0.3, 0.6)), "quasi-newton"),
    (gauge_trivariate(VineSpec.trivariate(lgst(0.5), ilog(0.25), ilog(0.5))), "middle-search"),
    (gauge_trivariate(VineSpec.trivariate(ilog(0.5), ilog(0.25), lgst(0.5))), "middle-search"),
], ids=["independence", "gaussian", "bev", "asymmetric-logistic", "iev-asymmetric-logistic", "eii", "iie"])
def test_each_gauge_takes_the_solver_of_its_structure(g, solver):
    # no gradient: Brent searches on the faces of a 2-d gauge and in x2 alone
    # on a trivariate vine; every all-IEV vine, the asymmetric logistic one
    # too, has a gradient
    assert (g.gradient_evaluator() is None) == (solver != "quasi-newton")
    d = eta_numeric(g).diagnostics
    assert d["local_solver"] == solver and (d["n_gradient_evals"] == 0) == (solver != "quasi-newton")
    assert "spread" not in d
    assert ("kkt_residual" in d) == ("suspicious_landscape" in d) == (solver == "quasi-newton")


def test_numeric_refuses_a_gauge_with_neither_a_gradient_nor_a_trivariate_plan():
    # a projection of a 4-d vine onto three labels is searched point by
    # point, so it has no plan: its box minimum over three free coordinates
    # has no route
    g = gauge_project(gauge_dvine(VineSpec.uniform("dvine", 4, ilog(0.5))), (1, 2, 4))
    assert g.dim == 3 and g.gradient_evaluator() is None
    with pytest.raises(UnsupportedCombinationError, match="free coordinates"):
        eta_numeric(g)


# Every trivariate pattern with an EV edge, at four alpha triples drawn from
# random.Random(2026) on [0.2, 0.9], at C = 123 and 13: 56 queries.  The
# reference is eta_numeric at 16 starts and maxfev=20000 as it stood with the
# bounded Nelder-Mead solver and its polish, which the search in x2 alone
# replaced; per pattern, the two C of each triple in turn
EV_PATTERNS = ("iie", "iei", "iee", "eii", "eie", "eei", "eee")
FROZEN_REFERENCE = [
    0.6821869070953007, 1.0, 0.5735533485677203, 1.0,  # iie
    0.6503456243732565, 1.0, 0.610736809602136, 1.0,
    0.8216615036364389, 0.8273627780349992, 0.573553348576248, 0.5913675043867328,  # iei
    0.6503456243746064, 0.6528470786060275, 0.6673576219575658, 0.6728008432903759,
    0.8216615036294274, 0.8848297344944592, 0.5735533485742832, 0.6398128092787522,  # iee
    0.6503456243733252, 0.7902146674108599, 0.6673576219529141, 0.8416533366806808,
    0.6821869070961205, 0.6849546620829556, 0.8282591863413412, 0.865043869091382,  # eii
    0.6645311278449465, 0.6672951710526814, 0.6107368096024685, 0.6145543061204473,
    0.6821869070945094, 0.733267521308457, 0.8282591863261531, 0.9336864614640189,  # eie
    0.6645311278449454, 0.8083099959961692, 0.6107368096010858, 0.76571902207725,
    1.0, 0.9999999999714684, 1.0, 0.9999999999996647,  # eei
    1.0, 0.9999999999553091, 1.0, 0.9999999999656715,
    1.0, 0.999999999985087, 1.0, 0.9999999999984011,  # eee
    1.0, 0.999999999999504, 1.0, 0.999999999999301,
]


def test_middle_search_meets_the_frozen_reference_and_the_closed_routes():
    rng = random.Random(2026)
    triples = [[rng.uniform(0.2, 0.9) for _ in range(3)] for _ in range(4)]
    reference = iter(FROZEN_REFERENCE)
    for fams in EV_PATTERNS:
        for k, alphas in enumerate(triples):
            spec = VineSpec.trivariate(*((lgst if f == "e" else ilog)(a) for f, a in zip(fams, alphas)))
            g = gauge_trivariate(spec)
            for C in ((1, 2, 3), (1, 3)):
                res, routed = eta_numeric(g, C), eta_mixed_trivariate(spec, C)
                assert res.diagnostics["local_solver"] == "middle-search" and routed.method in ("closed", "root")
                assert abs(res.eta - next(reference)) <= 1e-9 and abs(res.eta - routed.eta) <= 1e-9, (fams, C)
                assert abs(g(res.argmin) * res.eta - 1.0) <= 1e-12
            if k:
                continue
            # a projection onto one label drops two coordinates: with x2
            # kept it is the closed minimum over x1 and x3, else the search.
            # The margin of a unit exponential coordinate is x itself, and no
            # point of a 401 x 401 grid over the dropped ones lies below
            for keep, x in (((1,), 0.7), ((2,), 1.3)):
                val = gauge_project(g, keep)(np.array([x]))
                grid = np.linspace(0.0, x, 401)
                pts = np.insert(np.stack([a.ravel() for a in np.meshgrid(grid, grid)], axis=1), keep[0] - 1, x, axis=1)
                assert val == pytest.approx(x, rel=1e-12) and val <= float(np.min(g(pts))) + 1e-12


@pytest.mark.parametrize("fams", EV_PATTERNS)
def test_middle_search_with_an_outer_coordinate_held(fams):
    # two free coordinates: holding the outer coordinate that sits at its
    # bound in the argmin of eta_13 gives the same minimum, and no point of a
    # grid over the two free ones lies below it
    rng = random.Random(2026)
    spec = VineSpec.trivariate(*((lgst if f == "e" else ilog)(rng.uniform(0.2, 0.9)) for f in fams))
    g = gauge_trivariate(spec)
    res = eta_numeric(g, (1, 3))
    held = 0 if res.argmin[0] == 1.0 else 2
    assert res.argmin[held] == 1.0
    found = gauges._minimise_gauge(g, [1.0, 0.0, 1.0], [1, 2 - held])
    assert found.solver == "middle-search" and found.x[held] == 1.0
    assert found.value == pytest.approx(1.0 / res.eta, rel=1e-12)
    grid = np.linspace(0.0, 3.0, 301)
    pts = np.array([[1.0, v, 1.0 + w] if held == 0 else [1.0 + w, v, 1.0] for v in grid for w in grid])
    assert found.value <= float(np.min(g(pts))) + 1e-12


# 6-d vines, alphas in expected_edges order, whose gauge decreases from the
# all-ones point along x4, so the closed recursion 1/g(1, ..., 1) (the last
# value) understates eta over all six variables; the reference is
# eta_numeric at 16 starts and maxfev=20000
UNCERTIFIED_VINES = [
    ("cvine", [0.395186, 0.517692, 0.447982, 0.541568, 0.550288, 0.326212, 0.305267, 0.634988, 0.403742,
               0.393732, 0.698258, 0.488105, 0.634585, 0.490541, 0.555627], 0.58288888016332, 0.5828150368350014),
    ("dvine", [0.613814, 0.41081, 0.302518, 0.333348, 0.627495, 0.567375, 0.352225, 0.352219, 0.461363,
               0.548146, 0.453012, 0.635334, 0.334296, 0.645995, 0.52807], 0.5706204933822314, 0.5706001575466838),
]


@pytest.mark.parametrize("structure, alphas, reference, at_ones", UNCERTIFIED_VINES, ids=["cvine", "dvine"])
def test_whole_vine_recursion_is_certified_by_the_gradient(structure, alphas, reference, at_ones):
    from vinetail.eta import _kkt_residual

    spec = zero_denominator_spec(structure, 6, alphas)
    res = eta_subvine(spec, range(1, 7))
    assert res.method == "numeric" and "x4" in res.diagnostics["fallback_reason"]
    assert res.eta == pytest.approx(reference, abs=1e-8)
    # eta_dvine and eta_cvine take the certified value too, not the bare recursion
    assert (eta_dvine if structure == "dvine" else eta_cvine)(spec) == res.eta > at_ones + 1e-5
    assert res.diagnostics["suspicious_landscape"] is False
    # the negative partial at ones is genuine: the probe reads below g(1, ..., 1),
    # so the residual counts it
    g = (gauge_dvine if structure == "dvine" else gauge_cvine)(spec)
    value, grad = g.gradient_evaluator()(*[1.0] * 6)
    assert [k for k, gk in enumerate(grad) if gk < 0.0] == [3]
    assert _kkt_residual(g.scalar_evaluator(), [1.0] * 6, value, grad, [1.0] * 6) == (-grad[3], 1)


@pytest.mark.parametrize("structure", ["dvine", "cvine"])
def test_whole_uniform_vines_stay_closed(structure):
    # one alpha on every edge: the recursion's value and the all-ones argmin,
    # bit for bit, with the residual of the certificate
    for d in range(2, 9):
        for a in (0.05, 0.2, 0.5, 0.8, 0.95, 1.0):
            spec = VineSpec.uniform(structure, d, ilog(a))
            res = eta_subvine(spec, range(1, d + 1))
            assert res.method == "closed" and res.diagnostics["kkt_residual"] <= 1e-12
            assert res.eta == (eta_dvine if structure == "dvine" else eta_cvine)(spec)
            assert np.array_equal(res.argmin, np.ones(d))


def test_whole_asymmetric_logistic_vine_is_certified_by_the_gradient():
    # the measure's own partials give the gradient: the recursion is certified
    # at the all-ones point, with no warning, and a minimum over the box agrees
    import warnings

    spec = VineSpec.uniform("dvine", 4, PairCopula("iev", AsymmetricLogistic(0.5, 0.3, 0.6)))
    g = gauge_dvine(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = eta_subvine(spec, (1, 2, 3, 4))
        assert eta_dvine(spec) == res.eta
    assert res.method == "closed" and res.diagnostics["kkt_residual"] <= 1e-12
    assert res.eta == 1.0 / g(np.ones(4)) and np.array_equal(res.argmin, np.ones(4))
    assert res.eta == pytest.approx(eta_numeric(g, n_starts=16, maxfev=20000).eta, abs=1e-12)


# minima on a zero coordinate where g has a kink: the gradient dialect gives
# that coordinate a negative partial, though g rises along it
@pytest.mark.parametrize("structure, alphas, C, argmin, k", [
    ("dvine", [0.7189, 0.9442, 0.0466], (1, 3), [1.0, 0.0, 1.0], 1),
    ("cvine", [0.9957, 0.9103, 0.8833, 0.3088, 0.8757, 0.8778], (2, 3), [0.0, 1.0, 1.0, 0.0], 0),
], ids=["dvine", "cvine"])
def test_kkt_residual_probes_a_negative_partial_at_a_bound(structure, alphas, C, argmin, k):
    d = len(argmin)
    g = (gauge_dvine if structure == "dvine" else gauge_cvine)(zero_denominator_spec(structure, d, alphas))
    res = eta_numeric(g, C)
    assert_allclose(res.argmin, argmin, rtol=0, atol=0)
    assert g.gradient_evaluator()(*argmin)[1][k] < -0.03
    assert res.diagnostics["kkt_residual"] == 0.0 and res.diagnostics["suspicious_landscape"] is False
    assert res.diagnostics["n_gauge_evals"] == 1  # the one probe
    assert res.eta == pytest.approx(eta_numeric(g, C, n_starts=16, maxfev=20000).eta, abs=1e-12)


# ---------------------------------------------------------------------------
# eta_vine: one entry point that routes every spec's eta
# ---------------------------------------------------------------------------

def _same_result(a, b):
    assert (a.eta, a.method, a.diagnostics) == (b.eta, b.method, b.diagnostics)
    assert np.asarray(a.argmin, dtype=float).tobytes() == np.asarray(b.argmin, dtype=float).tobytes()


_UNEQUAL_DVINE4 = zero_denominator_spec("dvine", 4, [0.3, 0.5, 0.7, 0.4, 0.6, 0.2])

# (spec, C, the route eta_vine must take, the method that route returns)
ETA_VINE_ROUTES = {
    "trivariate-closed": (_trivariate("iii"), (1, 2, 3), eta_mixed_trivariate, "closed"),
    "trivariate-root": (_trivariate("iii"), (1, 3), eta_mixed_trivariate, "root"),
    "trivariate-numeric-fallback": (
        VineSpec.trivariate(ilog(0.4), ilog(0.5), PairCopula("iev", AsymmetricLogistic(0.5, 0.3, 0.6))), (1, 3),
        eta_mixed_trivariate, "numeric"),
    "dvine3-ev": (VineSpec(3, "dvine", {"12": lgst(0.4), "23": ilog(0.5), "13|2": ilog(0.6)}), (1, 2, 3),
                  eta_mixed_trivariate, "closed"),
    "subvine-2-nodes": (_UNEQUAL_DVINE4, (2, 3), eta_subvine, "closed"),
    "subvine-3-nodes": (_UNEQUAL_DVINE4, (1, 3), eta_subvine, "root"),
    "cvine3": (VineSpec.uniform("cvine", 3, ilog(0.4)), (2, 3), eta_subvine, "numeric"),
    "whole-certified": (VineSpec.uniform("cvine", 4, ilog(0.4)), (1, 2, 3, 4), eta_subvine, "closed"),
    "whole-uncertified": (zero_denominator_spec("dvine", 6, UNCERTIFIED_VINES[1][1]), tuple(range(1, 7)),
                          eta_subvine, "numeric"),
}


@pytest.mark.parametrize("case", ETA_VINE_ROUTES)
def test_eta_vine_takes_the_route_of_the_spec(case):
    spec, C, route, method = ETA_VINE_ROUTES[case]
    direct = route(spec, C)
    assert direct.method == method
    _same_result(eta_vine(spec, C), direct)
    _same_result(eta_vine(spec, C, "auto"), direct)
    # forced numeric is eta_numeric on the spec's gauge
    _same_result(eta_vine(spec, C, "numeric"), eta_numeric(gauges.gauge_vine(spec), C))
    # "closed" refuses exactly the numeric results of the route
    if method == "numeric":
        with pytest.raises(ConvergenceError, match="no closed form"):
            eta_vine(spec, C, "closed")
    else:
        _same_result(eta_vine(spec, C, "closed"), direct)


def test_eta_vine_defaults_to_every_variable_and_checks_its_method():
    for spec in (_trivariate("eii"), _UNEQUAL_DVINE4, VineSpec.uniform("cvine", 5, ilog(0.3))):
        _same_result(eta_vine(spec), eta_vine(spec, range(1, spec.d + 1)))
    with pytest.raises(ParameterError, match="unknown eta method"):
        eta_vine(_trivariate("iii"), method="root")
    with pytest.raises(UnsupportedCombinationError, match="no gauge for this vine"):
        eta_vine(VineSpec.uniform("dvine", 4, lgst(0.5)), method="numeric")
    with pytest.raises(UnsupportedCombinationError):
        eta_vine(VineSpec.uniform("dvine", 4, lgst(0.5)))


def test_package_eta_is_still_the_module():
    import types

    from vinetail import eta

    assert isinstance(eta, types.ModuleType)
    assert eta.NUMERIC == "numeric" and eta.eta_vine is eta_vine
