"""Empirical tail-dependence estimators and cloud-vs-gauge diagnostics.

chi is estimated from joint survival frequencies above a threshold, eta by
the mean excess of T = min over the index set (the maximum-likelihood tail
index under P(T > x) ~ L e^(-x/eta) on exponential margins).  Standard
errors are first order only and ignore the slowly varying factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gauges import Gauge
from .simulate import SampleCloud

__all__ = ["TailEstimate", "chi_hat", "eta_hat", "cloud_coverage", "min_over_set"]

MIN_EXCEEDANCES = 30


@dataclass(frozen=True)
class TailEstimate:
    estimate: float
    stderr: float
    threshold: float
    n_exceed: int

    @property
    def low_data(self) -> bool:
        return self.n_exceed < MIN_EXCEEDANCES

    def to_dict(self, label=None) -> dict:
        doc = {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "u": self.threshold,
            "n_exceed": self.n_exceed,
            "low_data": self.low_data,
        }
        if label is not None:
            doc["set"] = list(label)
        return doc


def min_over_set(cloud: SampleCloud, C) -> np.ndarray:
    """The structure variable T = min of the coordinates indexed by C."""
    C = tuple(sorted(set(int(c) for c in C)))
    if not C or C[0] < 1 or C[-1] > cloud.d:
        raise DomainError(f"index set must be a subset of 1..{cloud.d}")
    return cloud.values[:, [c - 1 for c in C]].min(axis=1)


def _require_unscaled(cloud):
    if cloud.scaled:
        raise DomainError("estimator needs an unscaled cloud on exponential margins")


def _threshold(u) -> float:
    u = float(u)
    if not 0.0 < u < math.inf:  # also false for NaN
        raise DomainError(f"threshold must be positive and finite, got {u}")
    return u


def chi_hat(cloud: SampleCloud, C, u: float) -> TailEstimate:
    """e^u * P_hat(min over C > u), the finite-level version of chi_C."""
    _require_unscaled(cloud)
    u = _threshold(u)
    t = min_over_set(cloud, C)
    n = cloud.n
    k = int(np.count_nonzero(t > u))
    p = k / n
    boost = np.exp(u)
    stderr = boost * np.sqrt(max(p * (1.0 - p), 0.0) / n)
    return TailEstimate(estimate=boost * p, stderr=stderr, threshold=u, n_exceed=k)


def eta_hat(cloud: SampleCloud, C, u: float) -> TailEstimate:
    """Mean-excess estimate of eta_C over the threshold u, clipped to (0, 1]."""
    _require_unscaled(cloud)
    u = _threshold(u)
    t = min_over_set(cloud, C)
    excess = t[t > u] - u
    k = excess.size
    if k == 0:
        return TailEstimate(estimate=np.nan, stderr=np.nan, threshold=u, n_exceed=0)
    est = float(np.clip(np.mean(excess), np.finfo(float).tiny, 1.0))
    return TailEstimate(estimate=est, stderr=est / np.sqrt(k), threshold=u, n_exceed=k)


def threshold_at(cloud: SampleCloud, C, percentile: float = 95.0) -> float:
    """Empirical percentile of T = min over C, the default threshold rule."""
    if not 0.0 <= percentile <= 100.0:  # also false for NaN
        raise DomainError(f"percentile must be in [0, 100], got {percentile}")
    return float(np.percentile(min_over_set(cloud, C), percentile))


def cloud_coverage(cloud: SampleCloud, g: Gauge, slack: float) -> float:
    """Fraction of a scaled cloud with g(x) <= 1 + slack."""
    if not cloud.scaled:
        raise DomainError("coverage is a diagnostic for ln(n)-scaled clouds")
    if not slack >= 0.0:  # also true for NaN
        raise DomainError(f"slack must be nonnegative, got {slack}")
    if g.dim != cloud.d:
        raise DomainError(f"gauge dimension {g.dim} does not match cloud dimension {cloud.d}")
    vals = g(cloud.values)
    return float(np.mean(vals <= 1.0 + slack))
