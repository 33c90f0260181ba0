"""Gauge functions and limit-set geometry.

A gauge g is homogeneous of order 1 on the nonnegative orthant and encodes
the limiting shape of ln(n)-scaled exponential-margin sample clouds: the
cloud converges onto {x : g(x) <= 1}, a subset of the unit cube.  This
module builds gauges analytically:

* six bivariate families (independence, Gaussian, inverted EV, EV with
  regularly varying spectral tails, asymmetric logistic),
* every vine whose tree 1 is inverted EV, via the nested sub-vine
  recursion compiled into one evaluation plan per vine: d-dimensional
  D-vines and C-vines with inverted-EV components, and the trivariate vines
  with either family on edge {13|2},
* the trivariate vines with an EV copula in tree 1, by piecewise formulas
  (the patterns with EV only on edge {23} by the x1 <-> x3 mirror),

and numerically: projections onto coordinate subsets by minimising over the
dropped coordinates.  One box-constrained minimiser, ``_minimise_gauge``,
serves the projections and ``eta.eta_numeric`` alike.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from .copulas import EV, IEV, PairCopula
from .errors import DomainError, ParameterError, UnsupportedCombinationError
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
    suite.  Vine gauges with an inverted-EV tree 1 have one evaluation plan
    per vine and path, compiled from the same recursion.
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
        if x.ndim == 1 and self._sfn is not None:
            # one point: checking the floats in Python beats two array passes
            xs = x.tolist()
            for v in xs:
                if not 0.0 <= v < math.inf:  # also false for NaN
                    raise DomainError("gauge arguments must be finite nonnegative reals")
            return float(self._sfn(*xs))
        if not np.all((x >= 0.0) & (x < np.inf)):  # also false for NaN
            raise DomainError("gauge arguments must be finite nonnegative reals")
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


def _bev_eval_s(x1, x2, s1, s2):
    # scalar twin of _bev_eval
    sm, hi, lo = (s1, x1, x2) if x1 >= x2 else (s2, x2, x1)
    return (2.0 + sm) * hi - (1.0 + sm) * lo


def bev_gauge(s1: float, s2: float) -> Gauge:
    """Extreme value copula whose spectral density has regularly varying
    tails with exponents s1 (w -> 1) and s2 (w -> 0), both > -1.

    Piecewise linear; the slope switch uses ">= selects s1" at the tie,
    where both branches coincide anyway.
    """
    TailOrders(s1, s2, np.nan, np.nan)  # validates the exponents
    return Gauge(
        2,
        lambda x: _bev_eval(x[..., 0], x[..., 1], s1, s2),
        f"bev(s1={s1}, s2={s2})",
        sfn=lambda x1, x2: _bev_eval_s(x1, x2, s1, s2),
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


def _tri_eii(t12, m23, m13, t13, x1, x2, x3):
    b = m23._v(_recip(x2), _recip(x3))
    low = (2.0 + t13.s1) * (1.0 + t12.s2) * (x2 - x1) + b
    high = x2 + m13._v(_recip((x1 - x2) * (2.0 + t12.s1)), _recip(b - x2))
    return np.where(x1 <= x2, low, high)


def _tri_eie(t12, m23, t13, x1, x2, x3):
    b = m23._v(_recip(x2), _recip(x3))
    low = x2 + (1.0 + t12.s2) * (x2 - x1) + (2.0 + t13.s2) * (b - x2)
    high = x2 + _bev_eval((2.0 + t12.s1) * (x1 - x2), b - x2, t13.s1, t13.s2)
    return np.where(x1 <= x2, low, high)


def _tri_eei(t12, t23, m13, t13, x1, x2, x3):
    below1, below3 = x1 < x2, x3 < x2
    r1 = x2 + _bev_eval((1.0 + t12.s2) * (x2 - x1), (1.0 + t23.s1) * (x2 - x3), t13.s1, t13.s2)
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
    r4 = x2 + _bev_eval((2.0 + t12.s1) * (x1 - x2), (2.0 + t23.s2) * (x3 - x2), t13.s1, t13.s2)
    return np.where(
        at_most1,
        np.where(at_most3, r1, r2),
        np.where(at_most3, r3, r4),
    )


# scalar twins of the pattern evaluators (single points; plain float maths)

def _tri_eii_s(t12, m23, m13, t13, x1, x2, x3):
    b = m23._v(_srecip(x2), _srecip(x3))
    if x1 <= x2:
        return (2.0 + t13.s1) * (1.0 + t12.s2) * (x2 - x1) + b
    return x2 + m13._v(_srecip((x1 - x2) * (2.0 + t12.s1)), _srecip(b - x2))


def _tri_eie_s(t12, m23, t13, x1, x2, x3):
    b = m23._v(_srecip(x2), _srecip(x3))
    if x1 <= x2:
        return x2 + (1.0 + t12.s2) * (x2 - x1) + (2.0 + t13.s2) * (b - x2)
    return x2 + _bev_eval_s((2.0 + t12.s1) * (x1 - x2), b - x2, t13.s1, t13.s2)


def _tri_eei_s(t12, t23, m13, t13, x1, x2, x3):
    if x1 < x2:
        if x3 < x2:
            return x2 + _bev_eval_s((1.0 + t12.s2) * (x2 - x1), (1.0 + t23.s1) * (x2 - x3), t13.s1, t13.s2)
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
    return x2 + _bev_eval_s((2.0 + t12.s1) * (x1 - x2), (2.0 + t23.s2) * (x3 - x2), t13.s1, t13.s2)


def gauge_trivariate(spec: VineSpec) -> Gauge:
    """Gauge of a trivariate vine with edges {12}, {23}, {13|2}.

    With inverted EV copulas on both tree-1 edges the vine is the d = 3 case
    of the nested sub-vine recursion, whatever the family of edge {13|2},
    and runs through its evaluation plan.  The patterns with an extreme
    value copula in tree 1 dispatch on the (c12, c23, c13|2) family pattern
    to piecewise formulas; those with it on edge {23} only are evaluated on
    the x1 <-> x3 mirror (``VineSpec.mirrored``), under which edge {12}
    swaps with {23}.
    """
    if not (spec.d == 3 and spec.structure in (TRIVARIATE, DVINE)):
        raise UnsupportedCombinationError("gauge_trivariate needs a trivariate vine with edges 12, 23, 13|2")
    c12, c23, c13 = spec.copula(1, 2), spec.copula(2, 3), spec.copula(1, 3)
    fams = (c12.family, c23.family, c13.family)
    tag = "trivariate-vine(" + ",".join(fams) + ")"

    if fams[0] == IEV and fams[1] == IEV:
        return _vine_gauge(spec, tag)
    if fams[0] == IEV and fams[1] == EV:
        # mirror pattern: evaluate the relabelled vine at (x3, x2, x1)
        inner = gauge_trivariate(spec.mirrored())
        return Gauge(
            3,
            lambda x: inner._fn(x[..., ::-1]),
            tag,
            sfn=lambda x1, x2, x3: inner._sfn(x3, x2, x1),
        )

    m23, m13 = c23.measure, c13.measure

    if fams == (EV, IEV, IEV):
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
# the nested sub-vine recursion (inverted extreme value tree 1)
# ---------------------------------------------------------------------------

def _require_all_iev(spec: VineSpec, op: str):
    if not spec.all_iev():
        raise UnsupportedCombinationError(f"{op} requires every edge to be an inverted extreme value copula")


def _compile_vine(spec: VineSpec, recip, bev):
    """The nested sub-vine recursion as a flat plan, one step per edge.

    Edge (a, b | D) joins the sub-vines on {a} u D and {b} u D, which
    overlap in the sub-vine on D, so its node set has the gauge
    g_D + g_e(g_aD - g_D, g_bD - g_D), where g_e is the edge's own bivariate
    gauge: V(1/., 1/.) for an inverted EV edge, the bev gauge of its tail
    orders for an EV edge.  Tree-1 steps have no g_D and give g_e(x_a, x_b).
    The recursion needs inverted EV edges below the top tree; the callers
    check that.  Slots 0..d-1 hold the coordinates and slot d + n the
    sub-vine gauge of the n-th edge in tree order, so the last slot is the
    whole vine.  A step is (out, left, right, inner, v), with inner None in
    tree 1; v takes the reciprocals of the two operands, so it is V itself
    for an inverted EV edge.  recip and bev are the helpers of the path
    (scalar or array) that runs the plan.
    """
    slot = {frozenset([k]): k - 1 for k in range(1, spec.d + 1)}
    plan = []
    for label, pc in spec.edges.items():  # tree order: every operand is computed first
        (a, b), cond = label.pair, frozenset(label.cond)
        out = spec.d + len(plan)
        v = pc.measure._v if pc.family == IEV else _bev_step(_orders(pc, str(label)), recip, bev)
        plan.append((out, slot[cond | {a}], slot[cond | {b}], slot.get(cond), v))
        slot[cond | {a, b}] = out
    return plan


def _bev_step(orders: TailOrders, recip, bev):
    # recip undoes the reciprocal the plan applies (1/0 = inf and back)
    s1, s2 = orders.s1, orders.s2
    return lambda p, q: bev(recip(p), recip(q), s1, s2)


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
    d = spec.d
    plan, splan = _compile_vine(spec, _recip, _bev_eval), _compile_vine(spec, _srecip, _bev_eval_s)
    free = [None] * len(plan)
    return Gauge(
        d,
        lambda x: _run_plan(plan, [x[..., k] for k in range(d)] + free, _recip),
        tag,
        sfn=lambda *xs: _run_plan(splan, [*xs, *free], _srecip),
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
    _require_all_iev(spec, "gauge_cvine")
    return _vine_gauge(spec, f"cvine(d={spec.d})")


# ---------------------------------------------------------------------------
# projections and boundary geometry
# ---------------------------------------------------------------------------

def _minimise_gauge(g: Gauge, lower, free, n_starts: int = 8, maxfev: int = 400):
    """Minimise g over the box x >= lower, moving only the coordinates in free.

    lower needs a positive coordinate.  The other coordinates stay at lower,
    and the corner x = lower is always a candidate.  One free coordinate runs a bounded Brent search on each
    panel between log-spaced seeds in [0, hi] above its lower bound, where
    hi = max(10 m, 1.05 g(lower)) and m = max(lower): the containment
    g(x) >= max(x) puts every minimiser below g(lower).  Two or more free
    run one bound-constrained Nelder-Mead solve per start lower + s m, for
    n_starts log-spaced s in [0.05, 20] and a near-corner s = 1e-8, then
    polish the best point with the evaluations the starts left of
    (n_starts + 1) * maxfev.  Returns the best value, its argmin, g(lower),
    the value each start reached and the number of evaluations.
    """
    lower = np.asarray(lower, dtype=float)
    free = list(free)
    scalar = g.scalar_evaluator()
    xs = lower.tolist()
    corner_val = float(scalar(*xs))
    n_evals = 1
    m = max(xs)

    if len(free) == 1:
        # a list holds the point: minimize_scalar passes np.float64, which the
        # scalar plans run far slower than float
        j = free[0]

        def f(t):
            nonlocal n_evals
            n_evals += 1
            xs[j] = float(t)
            return float(scalar(*xs))

        lo_j = best_t = xs[j]
        best_val, runs = corner_val, []
        hi = max(10.0 * m, 1.05 * corner_val)
        seeds = lo_j + np.concatenate([[0.0], np.geomspace(hi * 1e-6, hi, int(n_starts))])
        v_hi = f(lo_j + hi)
        if v_hi < best_val:
            best_t, best_val = lo_j + hi, v_hi
        for lo, up in zip(seeds[:-1], seeds[1:]):
            res = optimize.minimize_scalar(f, bounds=(lo, up), method="bounded", options={"xatol": 1e-10})
            runs.append(float(res.fun))
            if res.fun < best_val:
                best_t, best_val = float(res.x), float(res.fun)
        best_x = lower.copy()
        best_x[j] = best_t
        return best_val, best_x, corner_val, runs, n_evals

    if len(free) == len(xs):
        def fun(t):
            nonlocal n_evals
            n_evals += 1
            return float(scalar(*t.tolist()))
    else:
        def fun(t):
            nonlocal n_evals
            n_evals += 1
            for k, v in zip(free, t.tolist()):
                xs[k] = v
            return float(scalar(*xs))

    lo = lower[free]
    bounds = optimize.Bounds(lo, np.inf)  # bounded Nelder-Mead keeps every vertex in the box

    def solve(t0, budget, simplex=None):
        return optimize.minimize(
            fun,
            t0,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-6, "fatol": 1e-10, "maxfev": budget, "maxiter": budget,
                     "initial_simplex": simplex},
        )

    best_val, best_t, runs = corner_val, lo, []
    for s in [*np.geomspace(0.05, 20.0, int(n_starts)), 1e-8]:
        res = solve(lo + s * m, maxfev)
        runs.append(float(res.fun))
        if res.fun < best_val:
            best_val, best_t = float(res.fun), res.x

    # polish: clipping to the box can collapse a simplex onto a face or a
    # corner next to the minimum, so restart from the best point on fresh
    # simplices, ten times smaller after each restart that does not
    # improve.  The step floor 0.005 m lets a simplex built at a coordinate
    # the near-corner start left at about 1e-8 leave that face.
    budget = len(runs) * maxfev - (n_evals - 1)
    scale = 0.05
    while np.isfinite(best_val) and budget > len(free) and scale > 1e-6:
        step = np.maximum(best_t, 0.005 * m) * scale
        res = solve(best_t, budget, np.vstack([best_t, best_t + np.diag(step)]))
        budget -= res.nfev
        if res.fun < best_val - 1e-10:
            best_val, best_t = float(res.fun), res.x
        else:
            scale *= 0.1
    best_x = lower.copy()
    best_x[free] = best_t
    return best_val, best_x, corner_val, runs, n_evals


def gauge_project(g: Gauge, keep) -> Gauge:
    """Lower-dimensional gauge: minimise g over the dropped coordinates.

    keep is a set of 1-based coordinate labels.  Each point is the box
    minimum of g with the kept coordinates fixed at their values and the
    dropped ones >= 0 (``_minimise_gauge``): bounded Brent searches when one
    coordinate is dropped, multi-start bounded Nelder-Mead when more are.
    The corner, with every dropped coordinate at zero, is a candidate, so a
    projection never reads above g(x, 0).
    """
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or any(k < 1 or k > g.dim for k in keep):
        raise DomainError(f"keep must be a nonempty subset of 1..{g.dim}")
    dropped = [k - 1 for k in range(1, g.dim + 1) if k not in keep]
    kept_idx = [k - 1 for k in keep]
    if not dropped:
        return g

    def minimise_point(x_keep):
        if np.all(x_keep == 0.0):
            return 0.0
        lower = np.zeros(g.dim)
        lower[kept_idx] = x_keep
        return _minimise_gauge(g, lower, dropped)[0]

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
