import numpy as np
import pytest

from vinetail import (
    DomainError,
    Logistic,
    PairCopula,
    SampleCloud,
    VineSpec,
    chi_hat,
    cloud_coverage,
    eta_hat,
    eta_trivariate_ilog_closed,
    independence_gauge,
    sample_vine,
    scale_cloud,
)
from vinetail.empirical import threshold_at

RNG = np.random.default_rng(662607)


def perfect_cloud(n=50_000):
    x = RNG.exponential(1.0, n)
    return SampleCloud(values=np.column_stack([x, x]), seed=0)


def indep_cloud(n=200_000, d=2):
    return SampleCloud(values=RNG.exponential(1.0, (n, d)), seed=0)


def test_chi_perfect_dependence():
    cloud = perfect_cloud()
    u = threshold_at(cloud, (1, 2), 95)
    est = chi_hat(cloud, (1, 2), u)
    assert est.estimate == pytest.approx(1.0, abs=3 * est.stderr + 0.01)


def test_chi_independent_pair_decays():
    cloud = indep_cloud()
    u = float(np.percentile(cloud.values[:, 0], 95))
    est = chi_hat(cloud, (1, 2), u)
    # joint survival of independent exponentials is e^(-2u): chi_hat ~ e^(-u)
    assert est.estimate == pytest.approx(np.exp(-u), abs=3 * est.stderr)
    # decreasing trend over rising thresholds, allowing Monte Carlo noise
    prev = None
    for q in (80.0, 90.0, 95.0, 97.5, 99.0):
        e = chi_hat(cloud, (1, 2), float(np.percentile(cloud.values[:, 0], q)))
        if prev is not None:
            assert e.estimate < prev.estimate + 3 * (e.stderr + prev.stderr)
        prev = e


def test_chi_trivariate_ilog_vanishes():
    spec = VineSpec.trivariate(*[PairCopula("iev", Logistic(0.5))] * 3)
    cloud = sample_vine(spec, 300_000, seed=41)
    ests = [chi_hat(cloud, (1, 2, 3), u) for u in (2.0, 3.0, 4.0)]
    vals = [e.estimate for e in ests]
    assert vals[0] > vals[-1] - 3 * (ests[0].stderr + ests[-1].stderr)
    assert vals[-1] < 0.25


def test_eta_hat_independent_pair():
    cloud = indep_cloud()
    u = threshold_at(cloud, (1, 2), 95)
    est = eta_hat(cloud, (1, 2), u)
    assert est.n_exceed >= 30 and not est.low_data
    assert abs(est.estimate - 0.5) < 2 * est.stderr + 0.01


def test_eta_hat_perfect_dependence():
    cloud = perfect_cloud()
    u = threshold_at(cloud, (1, 2), 95)
    est = eta_hat(cloud, (1, 2), u)
    assert abs(est.estimate - 1.0) < 3 * est.stderr + 0.02


def test_eta_hat_trivariate_matches_analytic():
    spec = VineSpec.trivariate(*[PairCopula("iev", Logistic(0.5))] * 3)
    cloud = sample_vine(spec, 300_000, seed=43)
    u = threshold_at(cloud, (1, 2, 3), 95)
    est = eta_hat(cloud, (1, 2, 3), u)
    assert abs(est.estimate - eta_trivariate_ilog_closed(0.5, 0.5, 0.5)) < 0.05


def test_eta_hat_threshold_stability():
    spec = VineSpec.trivariate(*[PairCopula("iev", Logistic(0.5))] * 3)
    cloud = sample_vine(spec, 300_000, seed=47)
    vals = [eta_hat(cloud, (1, 2, 3), threshold_at(cloud, (1, 2, 3), q)).estimate
            for q in (90.0, 95.0, 97.5)]
    assert max(vals) - min(vals) < 0.08


def test_eta_hat_consistency_within_three_stderr():
    """At thresholds high enough for the first-order theory (the stderr
    ignores the slowly varying factor), the analytic value lies within
    three standard errors."""
    from vinetail import eta13_trivariate_ilog

    spec = VineSpec.trivariate(*[PairCopula("iev", Logistic(0.5))] * 3)
    cloud = sample_vine(spec, 500_000, seed=20_240_501)
    targets = [((1, 2, 3), eta_trivariate_ilog_closed(0.5, 0.5, 0.5)),
               ((1, 3), eta13_trivariate_ilog(0.5, 0.5, 0.5).eta)]
    for C, true in targets:
        est = eta_hat(cloud, C, threshold_at(cloud, C, 99.0))
        assert abs(est.estimate - true) < 3.0 * est.stderr


def test_low_data_flag():
    cloud = indep_cloud(n=2000)
    est = eta_hat(cloud, (1, 2), 8.0)
    assert est.n_exceed < 30
    assert est.low_data


def test_estimates_need_unscaled_clouds():
    cloud = scale_cloud(indep_cloud(n=1000))
    with pytest.raises(DomainError):
        chi_hat(cloud, (1, 2), 1.0)
    with pytest.raises(DomainError):
        eta_hat(cloud, (1, 2), 1.0)


@pytest.mark.parametrize("u", [0.0, -1.0, np.nan, np.inf])
def test_thresholds_must_be_positive_and_finite(u):
    cloud = indep_cloud(n=1000)
    for estimator in (chi_hat, eta_hat):
        with pytest.raises(DomainError, match="threshold"):
            estimator(cloud, (1, 2), u)


@pytest.mark.parametrize("percentile", [-0.5, 100.5, np.nan])
def test_threshold_percentile_must_lie_in_0_100(percentile):
    with pytest.raises(DomainError, match="percentile"):
        threshold_at(indep_cloud(n=1000), (1, 2), percentile)


def test_coverage_basics():
    cloud = scale_cloud(indep_cloud(n=100_000))
    g = independence_gauge()
    assert cloud_coverage(cloud, g, np.inf) == 1.0
    c_tight = cloud_coverage(cloud, g, 0.0)
    c_loose = cloud_coverage(cloud, g, 0.15)
    assert c_loose >= c_tight
    assert c_loose >= 0.99
    with pytest.raises(DomainError):
        cloud_coverage(indep_cloud(n=100), g, 0.1)
    for slack in (-0.1, np.nan):
        with pytest.raises(DomainError):
            cloud_coverage(cloud, g, slack)


def test_coverage_improves_with_sample_size():
    g = independence_gauge()
    covs = []
    for n in (10_000, 1_000_000):
        cloud = scale_cloud(SampleCloud(values=RNG.exponential(1.0, (n, 2)), seed=0))
        covs.append(cloud_coverage(cloud, g, 0.15))
    assert covs[1] >= covs[0] - 0.002


def test_estimate_json_record():
    cloud = indep_cloud(n=5000)
    est = chi_hat(cloud, (1, 2), 1.0)
    doc = est.to_dict(label=(1, 2))
    assert set(doc) == {"estimate", "stderr", "u", "n_exceed", "low_data", "set"}
