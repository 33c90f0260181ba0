"""Gauge functions and limit-set geometry.

A gauge g is homogeneous of order 1 on the nonnegative orthant and encodes
the limiting shape of ln(n)-scaled exponential-margin sample clouds: the
cloud converges onto {x : g(x) <= 1}, a subset of the unit cube.  This
module builds gauges analytically:

* six bivariate families (independence, Gaussian, inverted EV, EV with
  regularly varying spectral tails, asymmetric logistic),
* every trivariate vine built from EV / inverted-EV pair copulas,
* d-dimensional D-vines and C-vines with inverted-EV components, via the
  nested sub-vine recursion, compiled into one evaluation plan per vine
  that the scalar and array paths both run,

and numerically: projections onto coordinate subsets by minimising over the
dropped coordinates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from .copulas import EV, IEV, PairCopula
from .errors import (
    ConvergenceError,
    DomainError,
    ParameterError,
    UnsupportedCombinationError,
)
from .measures import ExponentMeasure, TailOrders
from .vines import CVINE, DVINE, TRIVARIATE, VineSpec

__all__ = [
    "Gauge",
    "independence_gauge",
    "gaussian_gauge",
    "inverted_ev_gauge",
    "bev_gauge",
    "asymmetric_logistic_gauge",
    "gauge_bivariate",
    "gauge_trivariate",
    "gauge_dvine",
    "gauge_cvine",
    "gauge_project",
    "boundary_point",
    "simplex_directions",
]


def _recip(a):
    """1/a with the conventions 1/0 = inf and negatives (roundoff) clamped."""
    a = np.maximum(a, 0.0)
    out = np.full(np.shape(a), np.inf)
    return np.divide(1.0, a, out=out, where=(a > 0.0))


def _srecip(a):
    # scalar twin of _recip; gauges feed the results into exponent measures,
    # whose formulas handle the inf limits exactly
    return 1.0 / a if a > 0.0 else math.inf


class Gauge:
    """An evaluable gauge function on the nonnegative orthant.

    Calling with an array of shape (d,) returns a float; shape (..., d)
    returns an array of shape (...).  Extended-real intermediates are
    resolved analytically inside the evaluators.  Single points use a plain
    scalar code path when available (optimisers hammer that case), arrays
    the vectorised one; the two are checked against each other in the test
    suite.  D-vine and C-vine gauges have one evaluation plan per vine,
    which both paths run.
    """

    def __init__(self, dim: int, fn, tag: str, sfn=None):
        self.dim = int(dim)
        self._fn = fn
        self._sfn = sfn
        self.tag = str(tag)

    def __repr__(self):
        return f"Gauge(dim={self.dim}, tag={self.tag!r})"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dim:
            raise DomainError(f"gauge expects points with last axis of length {self.dim}")
        if np.any(np.isnan(x)) or np.any(x < 0.0):
            raise DomainError("gauge arguments must be nonnegative reals")
        if x.ndim == 1 and self._sfn is not None:
            return float(self._sfn(*x.tolist()))
        out = np.asarray(self._fn(x))
        return float(out) if out.ndim == 0 else out

    def scalar_evaluator(self):
        """The fastest single-point evaluator, taking d separate floats."""
        if self._sfn is not None:
            return self._sfn
        fn = self._fn
        return lambda *xs: float(fn(np.array(xs)))


# ---------------------------------------------------------------------------
# bivariate gauges
# ---------------------------------------------------------------------------

def independence_gauge() -> Gauge:
    """g(x1, x2) = x1 + x2; unit set is the simplex boundary."""
    return Gauge(2, lambda x: x[..., 0] + x[..., 1], "independence", sfn=lambda x1, x2: x1 + x2)


def gaussian_gauge(rho: float) -> Gauge:
    """Gaussian copula with exponential margins, correlation rho in [0, 1)."""
    rho = float(rho)
    if not 0.0 <= rho < 1.0:
        raise ParameterError(f"gaussian correlation must be in [0, 1), got {rho}")
    denom = 1.0 - rho**2

    def fn(x):
        x1, x2 = x[..., 0], x[..., 1]
        return (x1 + x2 - 2.0 * rho * np.sqrt(x1 * x2)) / denom

    def sfn(x1, x2):
        return (x1 + x2 - 2.0 * rho * math.sqrt(x1 * x2)) / denom

    return Gauge(2, fn, f"gaussian(rho={rho})", sfn=sfn)


def inverted_ev_gauge(measure: ExponentMeasure) -> Gauge:
    """Inverted extreme value copula: g(x1, x2) = V(1/x1, 1/x2)."""
    if not isinstance(measure, ExponentMeasure):
        raise ParameterError("measure must be an ExponentMeasure")

    def fn(x):
        return measure._v(_recip(x[..., 0]), _recip(x[..., 1]))

    def sfn(x1, x2):
        return measure._v(_srecip(x1), _srecip(x2))

    return Gauge(2, fn, f"inverted-ev({measure!r})", sfn=sfn)


def _bev_eval(x1, x2, s1, s2):
    sm = np.where(x1 >= x2, s1, s2)
    return (2.0 + sm) * np.maximum(x1, x2) - (1.0 + sm) * np.minimum(x1, x2)


def bev_gauge(s1: float, s2: float) -> Gauge:
    """Extreme value copula whose spectral density has regularly varying
    tails with exponents s1 (w -> 1) and s2 (w -> 0), both > -1.

    Piecewise linear; the slope switch uses ">= selects s1" at the tie,
    where both branches coincide anyway.
    """
    orders = TailOrders(s1, s2, np.nan, np.nan)  # validates the exponents

    def sfn(x1, x2):
        sm = orders.s1 if x1 >= x2 else orders.s2
        return (2.0 + sm) * max(x1, x2) - (1.0 + sm) * min(x1, x2)

    return Gauge(
        2,
        lambda x: _bev_eval(x[..., 0], x[..., 1], orders.s1, orders.s2),
        f"bev(s1={s1}, s2={s2})",
        sfn=sfn,
    )


def bev_gauge_from_measure(measure: ExponentMeasure) -> Gauge:
    """BEV gauge with tail orders taken from a parametric measure."""
    t = measure.tail_orders()
    return bev_gauge(t.s1, t.s2)


def asymmetric_logistic_gauge(alpha: float) -> Gauge:
    """Asymmetric logistic EV copula; independent of the atom weights.

    The gauge is the lower envelope of the independence and logistic
    gauges, reflecting the mixture structure of the model.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"asymmetric logistic alpha must be in (0, 1), got {alpha}")

    def fn(x):
        x1, x2 = x[..., 0], x[..., 1]
        logistic = np.maximum(x1, x2) / alpha + (1.0 - 1.0 / alpha) * np.minimum(x1, x2)
        return np.minimum(x1 + x2, logistic)

    def sfn(x1, x2):
        logistic = max(x1, x2) / alpha + (1.0 - 1.0 / alpha) * min(x1, x2)
        return min(x1 + x2, logistic)

    return Gauge(2, fn, f"asymmetric-logistic(alpha={alpha})", sfn=sfn)


def gauge_bivariate(case: str, **params) -> Gauge:
    """Dispatch the bivariate gauges by name (used by the CLI builtins)."""
    builders = {
        "independence": independence_gauge,
        "gaussian": gaussian_gauge,
        "inverted_ev": inverted_ev_gauge,
        "bev": bev_gauge,
        "asymmetric_logistic": asymmetric_logistic_gauge,
    }
    if case not in builders:
        raise ParameterError(f"unknown bivariate gauge case {case!r}; expected one of {sorted(builders)}")
    return builders[case](**params)


# ---------------------------------------------------------------------------
# trivariate vine gauges
# ---------------------------------------------------------------------------

def _orders(pc: PairCopula, where: str) -> TailOrders:
    try:
        return pc.measure.tail_orders()
    except Exception as exc:
        raise UnsupportedCombinationError(
            f"the component on edge {where} needs regularly varying spectral tails "
            f"for this family pattern: {exc}"
        ) from exc


def _tri_iii(m12, m23, m13, x1, x2, x3):
    a = m12._v(_recip(x1), _recip(x2))
    b = m23._v(_recip(x2), _recip(x3))
    return x2 + m13._v(_recip(a - x2), _recip(b - x2))


def _tri_iie(m12, m23, t13, x1, x2, x3):
    a = m12._v(_recip(x1), _recip(x2))
    b = m23._v(_recip(x2), _recip(x3))
    sm = np.where(a >= b, t13.s1, t13.s2)
    return (2.0 + sm) * np.maximum(a, b) - (1.0 + sm) * np.minimum(a, b)


def _tri_eii(t12, m23, m13, t13, x1, x2, x3):
    b = m23._v(_recip(x2), _recip(x3))
    low = (2.0 + t13.s1) * (1.0 + t12.s2) * (x2 - x1) + b
    high = x2 + m13._v(_recip((x1 - x2) * (2.0 + t12.s1)), _recip(b - x2))
    return np.where(x1 <= x2, low, high)


def _tri_eie(t12, m23, t13, x1, x2, x3):
    b = m23._v(_recip(x2), _recip(x3))
    low = x2 + (1.0 + t12.s2) * (x2 - x1) + (2.0 + t13.s2) * (b - x2)
    b1 = (2.0 + t12.s1) * (x1 - x2)
    b2 = b - x2
    sm = np.where(b1 >= b2, t13.s1, t13.s2)
    high = x2 + (2.0 + sm) * np.maximum(b1, b2) - (1.0 + sm) * np.minimum(b1, b2)
    return np.where(x1 <= x2, low, high)


def _tri_eei(t12, t23, m13, t13, x1, x2, x3):
    below1, below3 = x1 < x2, x3 < x2
    a = (1.0 + t12.s2) * (x2 - x1)
    b = (1.0 + t23.s1) * (x2 - x3)
    sm = np.where(a >= b, t13.s1, t13.s2)
    r1 = x2 + (2.0 + sm) * np.maximum(a, b) - (1.0 + sm) * np.minimum(a, b)
    r2 = x2 + (2.0 + t13.s1) * (1.0 + t12.s2) * (x2 - x1) + (2.0 + t23.s2) * (x3 - x2)
    r3 = x2 + (2.0 + t13.s2) * (1.0 + t23.s1) * (x2 - x3) + (2.0 + t12.s1) * (x1 - x2)
    r4 = x2 + m13._v(
        _recip((2.0 + t12.s1) * (x1 - x2)),
        _recip((2.0 + t23.s2) * (x3 - x2)),
    )
    return np.where(
        below1,
        np.where(below3, r1, r2),
        np.where(below3, r3, r4),
    )


def _tri_eee(t12, t23, m13, t13, x1, x2, x3):
    at_most1, at_most3 = x1 <= x2, x3 <= x2
    r1 = x2 + m13._v(
        _recip((1.0 + t12.s2) * (x2 - x1)),
        _recip((1.0 + t23.s1) * (x2 - x3)),
    )
    r2 = x2 + (2.0 + t13.s2) * (2.0 + t23.s2) * (x3 - x2) + (1.0 + t12.s2) * (x2 - x1)
    r3 = x2 + (2.0 + t13.s1) * (2.0 + t12.s1) * (x1 - x2) + (1.0 + t23.s1) * (x2 - x3)
    b1 = (2.0 + t12.s1) * (x1 - x2)
    b2 = (2.0 + t23.s2) * (x3 - x2)
    sm = np.where(b1 >= b2, t13.s1, t13.s2)
    r4 = x2 + (2.0 + sm) * np.maximum(b1, b2) - (1.0 + sm) * np.minimum(b1, b2)
    return np.where(
        at_most1,
        np.where(at_most3, r1, r2),
        np.where(at_most3, r3, r4),
    )


# scalar twins of the pattern evaluators (single points; plain float maths)

def _tri_iii_s(m12, m23, m13, x1, x2, x3):
    a = m12._v(_srecip(x1), _srecip(x2))
    b = m23._v(_srecip(x2), _srecip(x3))
    return x2 + m13._v(_srecip(a - x2), _srecip(b - x2))


def _tri_iie_s(m12, m23, t13, x1, x2, x3):
    a = m12._v(_srecip(x1), _srecip(x2))
    b = m23._v(_srecip(x2), _srecip(x3))
    sm, hi, lo = (t13.s1, a, b) if a >= b else (t13.s2, b, a)
    return (2.0 + sm) * hi - (1.0 + sm) * lo


def _tri_eii_s(t12, m23, m13, t13, x1, x2, x3):
    b = m23._v(_srecip(x2), _srecip(x3))
    if x1 <= x2:
        return (2.0 + t13.s1) * (1.0 + t12.s2) * (x2 - x1) + b
    return x2 + m13._v(_srecip((x1 - x2) * (2.0 + t12.s1)), _srecip(b - x2))


def _tri_eie_s(t12, m23, t13, x1, x2, x3):
    b = m23._v(_srecip(x2), _srecip(x3))
    if x1 <= x2:
        return x2 + (1.0 + t12.s2) * (x2 - x1) + (2.0 + t13.s2) * (b - x2)
    b1 = (2.0 + t12.s1) * (x1 - x2)
    b2 = b - x2
    sm, hi, lo = (t13.s1, b1, b2) if b1 >= b2 else (t13.s2, b2, b1)
    return x2 + (2.0 + sm) * hi - (1.0 + sm) * lo


def _tri_eei_s(t12, t23, m13, t13, x1, x2, x3):
    if x1 < x2:
        if x3 < x2:
            a = (1.0 + t12.s2) * (x2 - x1)
            b = (1.0 + t23.s1) * (x2 - x3)
            sm, hi, lo = (t13.s1, a, b) if a >= b else (t13.s2, b, a)
            return x2 + (2.0 + sm) * hi - (1.0 + sm) * lo
        return x2 + (2.0 + t13.s1) * (1.0 + t12.s2) * (x2 - x1) + (2.0 + t23.s2) * (x3 - x2)
    if x3 < x2:
        return x2 + (2.0 + t13.s2) * (1.0 + t23.s1) * (x2 - x3) + (2.0 + t12.s1) * (x1 - x2)
    return x2 + m13._v(
        _srecip((2.0 + t12.s1) * (x1 - x2)),
        _srecip((2.0 + t23.s2) * (x3 - x2)),
    )


def _tri_eee_s(t12, t23, m13, t13, x1, x2, x3):
    if x1 <= x2:
        if x3 <= x2:
            return x2 + m13._v(
                _srecip((1.0 + t12.s2) * (x2 - x1)),
                _srecip((1.0 + t23.s1) * (x2 - x3)),
            )
        return x2 + (2.0 + t13.s2) * (2.0 + t23.s2) * (x3 - x2) + (1.0 + t12.s2) * (x2 - x1)
    if x3 <= x2:
        return x2 + (2.0 + t13.s1) * (2.0 + t12.s1) * (x1 - x2) + (1.0 + t23.s1) * (x2 - x3)
    b1 = (2.0 + t12.s1) * (x1 - x2)
    b2 = (2.0 + t23.s2) * (x3 - x2)
    sm, hi, lo = (t13.s1, b1, b2) if b1 >= b2 else (t13.s2, b2, b1)
    return x2 + (2.0 + sm) * hi - (1.0 + sm) * lo


def gauge_trivariate(spec: VineSpec) -> Gauge:
    """Gauge of a trivariate vine with edges {12}, {23}, {13|2}.

    Dispatches on the (c12, c23, c13|2) family pattern; the patterns with
    the extreme value copula on edge {23} instead of {12} are evaluated by
    relabelling x1 <-> x3, under which edge {12} swaps with {23}.
    """
    if not (spec.d == 3 and spec.structure in (TRIVARIATE, DVINE)):
        raise UnsupportedCombinationError("gauge_trivariate needs a trivariate vine with edges 12, 23, 13|2")
    c12, c23, c13 = spec.copula(1, 2), spec.copula(2, 3), spec.copula(1, 3)
    fams = (c12.family, c23.family, c13.family)
    tag = "trivariate-vine(" + ",".join(fams) + ")"

    if fams[0] == IEV and fams[1] == EV:
        # mirror pattern: evaluate the relabelled vine at (x3, x2, x1)
        mirrored = VineSpec.trivariate(
            PairCopula(c23.family, c23.measure.transposed()),
            PairCopula(c12.family, c12.measure.transposed()),
            PairCopula(c13.family, c13.measure.transposed()),
        )
        inner = gauge_trivariate(mirrored)
        return Gauge(
            3,
            lambda x: inner._fn(x[..., ::-1]),
            tag,
            sfn=lambda x1, x2, x3: inner._sfn(x3, x2, x1),
        )

    m12, m23, m13 = c12.measure, c23.measure, c13.measure

    if fams == (IEV, IEV, IEV):
        fn = lambda x: _tri_iii(m12, m23, m13, x[..., 0], x[..., 1], x[..., 2])
        sfn = lambda x1, x2, x3: _tri_iii_s(m12, m23, m13, x1, x2, x3)
    elif fams == (IEV, IEV, EV):
        t13 = _orders(c13, "13|2")
        fn = lambda x: _tri_iie(m12, m23, t13, x[..., 0], x[..., 1], x[..., 2])
        sfn = lambda x1, x2, x3: _tri_iie_s(m12, m23, t13, x1, x2, x3)
    elif fams == (EV, IEV, IEV):
        t12, t13 = _orders(c12, "12"), _orders(c13, "13|2")
        fn = lambda x: _tri_eii(t12, m23, m13, t13, x[..., 0], x[..., 1], x[..., 2])
        sfn = lambda x1, x2, x3: _tri_eii_s(t12, m23, m13, t13, x1, x2, x3)
    elif fams == (EV, IEV, EV):
        t12, t13 = _orders(c12, "12"), _orders(c13, "13|2")
        fn = lambda x: _tri_eie(t12, m23, t13, x[..., 0], x[..., 1], x[..., 2])
        sfn = lambda x1, x2, x3: _tri_eie_s(t12, m23, t13, x1, x2, x3)
    elif fams == (EV, EV, IEV):
        t12, t23, t13 = _orders(c12, "12"), _orders(c23, "23"), _orders(c13, "13|2")
        fn = lambda x: _tri_eei(t12, t23, m13, t13, x[..., 0], x[..., 1], x[..., 2])
        sfn = lambda x1, x2, x3: _tri_eei_s(t12, t23, m13, t13, x1, x2, x3)
    elif fams == (EV, EV, EV):
        t12, t23, t13 = _orders(c12, "12"), _orders(c23, "23"), _orders(c13, "13|2")
        fn = lambda x: _tri_eee(t12, t23, m13, t13, x[..., 0], x[..., 1], x[..., 2])
        sfn = lambda x1, x2, x3: _tri_eee_s(t12, t23, m13, t13, x1, x2, x3)
    else:  # pragma: no cover - patterns above are exhaustive
        raise UnsupportedCombinationError(f"no gauge for family pattern {fams}")
    return Gauge(3, fn, tag, sfn=sfn)


# ---------------------------------------------------------------------------
# D-vine and C-vine recursions (all inverted extreme value components)
# ---------------------------------------------------------------------------

def _require_all_iev(spec: VineSpec, op: str):
    if not spec.all_iev():
        raise UnsupportedCombinationError(f"{op} requires every edge to be an inverted extreme value copula")


def _compile_vine(spec: VineSpec):
    """The nested sub-vine recursion as a flat plan, one step per edge.

    In a D-vine or C-vine, edge (a, b | D) joins the sub-vines on {a} u D
    and {b} u D, which overlap in the sub-vine on D, so its node set has the
    gauge g_D + V(1/(g_aD - g_D), 1/(g_bD - g_D)); tree-1 edges have D empty
    and give V(1/x_a, 1/x_b).  Slots 0..d-1 hold the coordinates and slot
    d + n the sub-vine gauge of the n-th edge in tree order, so the last
    slot is the whole vine.  A step is (out, left, right, inner, V), with
    inner None in tree 1.
    """
    slot = {frozenset([k]): k - 1 for k in range(1, spec.d + 1)}
    plan = []
    for label, pc in spec.edges.items():  # tree order: every operand is computed first
        (a, b), cond = label.pair, frozenset(label.cond)
        out = spec.d + len(plan)
        plan.append((out, slot[cond | {a}], slot[cond | {b}], slot.get(cond), pc.measure._v))
        slot[cond | {a, b}] = out
    return plan


def _run_plan(plan, vals, recip):
    """Execute a compiled plan on vals, the d coordinates followed by one
    free slot per step; recip is _srecip for floats, _recip for arrays."""
    for out, left, right, inner, v in plan:
        if inner is None:
            vals[out] = v(recip(vals[left]), recip(vals[right]))
        else:
            g_d = vals[inner]
            vals[out] = g_d + v(recip(vals[left] - g_d), recip(vals[right] - g_d))
    return vals[-1]


def _vine_gauge(spec: VineSpec, tag: str) -> Gauge:
    d, plan = spec.d, _compile_vine(spec)
    free = [None] * len(plan)
    return Gauge(
        d,
        lambda x: _run_plan(plan, [x[..., k] for k in range(d)] + free, _recip),
        tag,
        sfn=lambda *xs: _run_plan(plan, [*xs, *free], _srecip),
    )


def gauge_dvine(spec: VineSpec) -> Gauge:
    """Gauge of an all-IEV D-vine via the nested sub-vine recursion.

    Sub-vines of a D-vine live on consecutive index blocks [i, j]; the block
    gauge combines the two (size-1 smaller) overlapping blocks and the
    block's top edge measure.  Zero denominators resolve through the
    extended-real limits of the exponent measures.
    """
    if spec.structure not in (DVINE, TRIVARIATE):
        raise UnsupportedCombinationError("gauge_dvine requires a dvine structure")
    if spec.d < 3:
        raise UnsupportedCombinationError("the D-vine recursion needs dimension >= 3")
    _require_all_iev(spec, "gauge_dvine")
    return _vine_gauge(spec, f"dvine(d={spec.d})")


def gauge_cvine(spec: VineSpec) -> Gauge:
    """Gauge of an all-IEV C-vine.

    Sub-vines are the sets {1..k, m} with m > k; removing the last-attached
    node m or the deepest root k yields the two overlapping sub-vines of the
    recursion, which bottoms out at single variables and tree-1 edges.
    """
    if spec.structure != CVINE:
        raise UnsupportedCombinationError("gauge_cvine requires a cvine structure")
    if spec.d < 3:
        raise UnsupportedCombinationError("the C-vine recursion needs dimension >= 3")
    _require_all_iev(spec, "gauge_cvine")
    return _vine_gauge(spec, f"cvine(d={spec.d})")


# ---------------------------------------------------------------------------
# projections and boundary geometry
# ---------------------------------------------------------------------------

_PROJ_SEEDS = 8


def _minimise_coordinate(f, hi, xatol=1e-10):
    """Minimise a scalar function over [0, hi] with log-spaced multi-starts.

    Runs a bounded Brent search on each of the panels between consecutive
    log-spaced seeds, plus the exact endpoints as candidates.
    """
    if hi <= 0.0:
        return 0.0, f(0.0)
    seeds = np.concatenate([[0.0], np.geomspace(hi * 1e-6, hi, _PROJ_SEEDS)])
    best_t, best_v = 0.0, f(0.0)
    v_hi = f(hi)
    if v_hi < best_v:
        best_t, best_v = hi, v_hi
    for lo, up in zip(seeds[:-1], seeds[1:]):
        res = optimize.minimize_scalar(f, bounds=(lo, up), method="bounded", options={"xatol": xatol})
        if res.fun < best_v:
            best_t, best_v = float(res.x), float(res.fun)
    return best_t, best_v


def gauge_project(g: Gauge, keep) -> Gauge:
    """Lower-dimensional gauge: minimise g over the dropped coordinates.

    keep is a set of 1-based coordinate labels.  Uses per-coordinate bounded
    Brent searches (the limit-set containment g(x) >= max(x) bounds every
    dropped coordinate by the current minimum value), cyclic coordinate
    descent when more than one coordinate is dropped, and a Nelder-Mead
    polish.  Non-convergence raises with diagnostics rather than returning
    silently.
    """
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or any(k < 1 or k > g.dim for k in keep):
        raise DomainError(f"keep must be a nonempty subset of 1..{g.dim}")
    dropped = [k - 1 for k in range(1, g.dim + 1) if k not in keep]
    kept_idx = [k - 1 for k in keep]
    if not dropped:
        return g

    def minimise_point(x_keep):
        point = np.zeros(g.dim)
        point[kept_idx] = x_keep
        if np.all(x_keep == 0.0):
            return 0.0
        top = float(g(point))  # dropped coordinates at zero
        hi = max(10.0 * float(np.max(x_keep)), 1.05 * top)
        if len(dropped) == 1:
            j = dropped[0]

            def f(t):
                point[j] = t
                return float(g(point))

            _, val = _minimise_coordinate(f, hi)
            point[j] = 0.0
            return min(val, top)

        best = top
        current = point.copy()
        for sweep in range(60):
            moved = 0.0
            for j in dropped:

                def f(t, j=j):
                    trial = current.copy()
                    trial[j] = t
                    return float(g(trial))

                t_star, val = _minimise_coordinate(f, hi)
                moved = max(moved, abs(current[j] - t_star))
                current[j] = t_star
            value = float(g(current))
            if moved < 1e-8:
                best = min(best, value)
                break
        else:
            raise ConvergenceError(
                "projection coordinate descent did not stabilise",
                {"keep": keep, "point": x_keep.tolist(), "last_move": moved},
            )
        # Nelder-Mead polish over the dropped block
        def fdrop(t):
            trial = current.copy()
            trial[dropped] = np.abs(t)
            return float(g(trial))

        res = optimize.minimize(fdrop, current[dropped], method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-12})
        return min(best, float(res.fun))

    def fn(x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, len(keep))
        vals = np.array([minimise_point(row) for row in flat])
        return vals.reshape(x.shape[:-1])

    return Gauge(len(keep), fn, f"project({g.tag}; keep={keep})")


def boundary_point(g: Gauge, w):
    """The unique point on the unit level set {g = 1} along the ray w."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0) or not np.any(w > 0.0):
        raise DomainError("direction must be nonnegative and nonzero")
    val = g(w)
    return w / val


def simplex_directions(k: int, d: int):
    """At least k directions spanning the unit simplex in dimension d.

    d = 2 gives exactly k evenly spaced mixtures including the axes; d = 3
    emits a full triangular lattice of even resolution (so axis points and
    the symmetric mid-edge directions are always present); higher d uses a
    deterministic Dirichlet fill.
    """
    if k < 1:
        raise DomainError("need at least one direction")
    if d == 2:
        if k == 1:
            return np.array([[0.5, 0.5]])
        w = np.linspace(0.0, 1.0, k)
        return np.column_stack([w, 1.0 - w])
    if d == 3:
        m = 2
        while (m + 1) * (m + 2) // 2 < k:
            m += 2
        rows = [
            (i, j, m - i - j)
            for i in range(m + 1)
            for j in range(m + 1 - i)
        ]
        return np.array(rows, dtype=float) / m
    rng = np.random.default_rng(160301)
    return rng.dirichlet(np.ones(d), size=k)
