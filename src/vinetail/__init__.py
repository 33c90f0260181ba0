"""Extremal dependence of vine copulas.

Analytic gauge functions and coefficients of tail dependence for vines
built from extreme value and inverted extreme value pair copulas, plus
seedable simulation and empirical estimators to cross-validate them.
"""

from .copulas import EV, IEV, PairCopula
from .empirical import TailEstimate, chi_hat, cloud_coverage, eta_hat
from .errors import (
    AlreadyScaledError,
    ConvergenceError,
    DegenerateConditionerError,
    DomainError,
    ParameterError,
    SpecError,
    UnsupportedCombinationError,
    UnsupportedMeasureError,
    VinetailError,
)
from .eta import (
    EtaResult,
    eta13_trivariate_ilog,
    eta_cvine,
    eta_dvine,
    eta_dvine_ilog_closed,
    eta_mixed_trivariate,
    eta_numeric,
    eta_subvine,
    eta_trivariate_ilog_closed,
    eta_vine,
)
from .gauges import (
    Gauge,
    asymmetric_logistic_gauge,
    bev_gauge,
    bev_gauge_from_measure,
    boundary_point,
    gauge_bivariate,
    gauge_cvine,
    gauge_dvine,
    gauge_project,
    gauge_trivariate,
    gauge_vine,
    gaussian_gauge,
    independence_gauge,
    inverted_ev_gauge,
    simplex_directions,
)
from .measures import AsymmetricLogistic, ExponentMeasure, Logistic, TailOrders
from .simulate import SampleCloud, sample_vine, scale_cloud
from .vines import EdgeLabel, VineSpec, expected_edges

__version__ = "0.1.0"
