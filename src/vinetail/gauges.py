"""Gauge functions and limit-set geometry.

A gauge g is homogeneous of order 1 on the nonnegative orthant and encodes
the limiting shape of ln(n)-scaled exponential-margin sample clouds: the
cloud converges onto {x : g(x) <= 1}, a subset of the unit cube.  This
module builds gauges analytically:

* six bivariate families (independence, Gaussian, inverted EV, EV with
  regularly varying spectral tails, asymmetric logistic),
* the vines, via the nested sub-vine recursion compiled into one
  evaluation plan per vine: d-dimensional D-vines and C-vines with
  inverted-EV components, and the trivariate vines in all eight EV /
  inverted-EV family patterns.  Each plan step applies its edge's own
  bivariate gauge to two margins; a margin's side (upper, or lower below
  an EV tree-1 edge) selects the form,

and numerically: projections onto coordinate subsets by minimising over the
dropped coordinates.  One box-constrained minimiser, ``_minimise_gauge``,
serves the projections and ``eta.eta_numeric`` alike.  Its two solvers,
``_nelder_mead`` and ``_fminbound``, repeat scipy's bounded Nelder-Mead and
bounded Brent step for step on Python floats, so the scalar evaluators get
floats with no array round trip, and importing the package does not load
scipy.
"""

from __future__ import annotations

import bisect
import math
from functools import reduce
from operator import add

import numpy as np

from .copulas import EV, PairCopula
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
    suite.  Vine gauges have one evaluation plan per vine and path, compiled
    from the same recursion: the scalar plan evaluates only the form each
    point's sides select, the array plan blends the reachable forms.
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
# vine gauges: the nested sub-vine recursion as one plan per vine
# ---------------------------------------------------------------------------

def _edge_rules(pc: PairCopula, where: str, recip, bev):
    """The edge gauge g_e(p, q, vals) on the sides of its margins, indexed
    [lower_p][lower_q]: V(1/p, 1/q) with both margins upper, the bev gauge
    of the tail orders with both lower, and upper + (2 + s) lower
    otherwise, with s1 when the lower margin is p and s2 when it is q."""
    try:
        t = pc.measure.tail_orders()
    except Exception as exc:
        raise UnsupportedCombinationError(
            f"the component on edge {where} needs regularly varying spectral tails "
            f"for this family pattern: {exc}"
        ) from exc
    v, s1, s2 = pc.measure._v, t.s1, t.s2
    return {
        False: {False: lambda p, q, vals: v(recip(p), recip(q)),
                True: lambda p, q, vals: p + (2.0 + s2) * q},
        True: {False: lambda p, q, vals: q + (2.0 + s1) * p,
               True: lambda p, q, vals: bev(p, q, s1, s2)},
    }


def _pick_rule(sp, sq, rules):
    """Scalar path: evaluate only the rule that the point's sides select."""
    (i, j, f), (k, l, h) = sp, sq
    return lambda p, q, vals: rules[(vals[i] < vals[j]) != f][(vals[k] < vals[l]) != h](p, q, vals)


def _blend_rules(sp, sq, rules):
    """Array path: evaluate every reachable rule and blend them pointwise."""
    (i, j, f), (k, l, h) = sp, sq
    # a side known when compiling (i == j) reaches only its flip
    (_, _, first), *rest = [(lp, lq, rules[lp][lq]) for lp in ((f,) if i == j else (False, True))
                            for lq in ((h,) if k == l else (False, True))]

    def rule(p, q, vals):
        lower_p, lower_q = (vals[i] < vals[j]) != f, (vals[k] < vals[l]) != h
        out = first(p, q, vals)
        for lp, lq, form in rest:
            out = np.where((lower_p == lp) & (lower_q == lq), form(p, q, vals), out)
        return out

    return rule


def _compile_vine(spec: VineSpec, recip, bev, pick):
    """The nested sub-vine recursion as a flat plan, one step per edge.

    Edge (a, b | D) joins the sub-vines on {a} u D and {b} u D, which
    overlap in the sub-vine on D, so its node set has the gauge
    g_D + g_e(p, q) with margins p = g_aD - g_D and q = g_bD - g_D; tree-1
    steps have no g_D and take the coordinates as margins.  g_e is the
    edge's own bivariate gauge, chosen by the sides of the margins
    (``_edge_rules``).  A margin is upper, except one from an EV tree-1 edge
    whose outer coordinate lies below the shared one (x1 < x2 for edge 12
    of the trivariate vine, x3 < x2 for edge 23), which is lower; an EV
    edge flips both sides of its own step.  So an inverted EV edge over
    upper margins gives V(1/p, 1/q), and an EV edge over them the bev
    gauge.  The recursion needs inverted EV edges below the top tree except
    in tree 1 of the trivariate vine; the callers check that.

    Slots 0..d-1 hold the coordinates and slot d + n the sub-vine gauge of
    the n-th edge in tree order, so the last slot is the whole vine.  A step
    is (out, left, right, inner, v, rule), with inner None in tree 1.  A
    step over two upper margins has v = V and rule None, so every all-IEV
    vine runs V on the reciprocals alone; any other step has a rule
    g_e(p, q, vals).  A side is (i, j, flip), lower when
    (x_i < x_j) != flip; a side known when compiling has i == j, and its
    flip alone gives it.  Only the sides of the trivariate top edge over an
    EV tree-1 edge depend on the point; pick builds the rule for those.
    recip, bev and pick are the helpers of the path (scalar or array) that
    runs the plan.
    """
    slot = {frozenset([k]): k - 1 for k in range(1, spec.d + 1)}
    ev_tree1 = set()  # slots of the EV tree-1 edges
    plan = []
    for label, pc in spec.edges.items():  # tree order: every operand is computed first
        (a, b), cond = label.pair, frozenset(label.cond)
        out = spec.d + len(plan)
        left, right, inner = slot[cond | {a}], slot[cond | {b}], slot.get(cond)
        flip = pc.family == EV
        sp = (a - 1, inner, flip) if left in ev_tree1 else (0, 0, flip)
        sq = (b - 1, inner, flip) if right in ev_tree1 else (0, 0, flip)
        known = sp[0] == sp[1] and sq[0] == sq[1]
        if known and not (sp[2] or sq[2]):
            plan.append((out, left, right, inner, pc.measure._v, None))
        else:
            rules = _edge_rules(pc, str(label), recip, bev)
            rule = rules[sp[2]][sq[2]] if known else pick(sp, sq, rules)
            plan.append((out, left, right, inner, None, rule))
        if flip and not cond:
            ev_tree1.add(out)
        slot[cond | {a, b}] = out
    return plan


def _run_plan(plan, vals, recip):
    """Execute a compiled plan on vals, the d coordinates followed by one
    free slot per step; recip is _srecip for floats, _recip for arrays."""
    for out, left, right, inner, v, rule in plan:
        if inner is None:
            p, q = vals[left], vals[right]
            vals[out] = v(recip(p), recip(q)) if rule is None else rule(p, q, vals)
        else:
            g_d = vals[inner]
            p, q = vals[left] - g_d, vals[right] - g_d
            vals[out] = g_d + (v(recip(p), recip(q)) if rule is None else rule(p, q, vals))
    return vals[-1]


def _vine_gauge(spec: VineSpec, tag: str) -> Gauge:
    d = spec.d
    plan = _compile_vine(spec, _recip, _bev_eval, _blend_rules)
    splan = _compile_vine(spec, _srecip, _bev_eval_s, _pick_rule)
    free = [None] * len(plan)
    return Gauge(
        d,
        lambda x: _run_plan(plan, [x[..., k] for k in range(d)] + free, _recip),
        tag,
        sfn=lambda *xs: _run_plan(splan, [*xs, *free], _srecip),
    )


def gauge_trivariate(spec: VineSpec) -> Gauge:
    """Gauge of a trivariate vine with edges {12}, {23}, {13|2}.

    Every family pattern of (c12, c23, c13|2) is the d = 3 case of the
    nested sub-vine recursion and runs through its evaluation plan
    (``_compile_vine``).  Below an EV tree-1 edge the margin of the top edge
    switches side where the outer coordinate passes x2, which turns the
    gauge piecewise.
    """
    if not (spec.d == 3 and spec.structure in (TRIVARIATE, DVINE)):
        raise UnsupportedCombinationError("gauge_trivariate needs a trivariate vine with edges 12, 23, 13|2")
    return _vine_gauge(spec, "trivariate-vine(" + ",".join(spec.families()) + ")")


def _require_all_iev(spec: VineSpec, op: str):
    if not spec.all_iev():
        raise UnsupportedCombinationError(f"{op} requires every edge to be an inverted extreme value copula")


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

def _nelder_mead(f, sim, lower, maxfev):
    """Bounded Nelder-Mead on Python floats: scipy's
    ``minimize(method="Nelder-Mead", bounds=Bounds(lower, inf))`` step for
    step, with xatol 1e-6, fatol 1e-10 and maxiter = maxfev (which never
    binds first: every iteration costs at least one evaluation).

    f takes a list of floats.  sim holds the n + 1 starting vertices, lists
    inside the box x >= lower.  Trial points are clipped to lower and use
    scipy's coefficients: reflection 1, expansion 2, contraction and shrink
    1/2.  The vertices are ordered by a stable sort, so tied values keep
    their order on every CPU (numpy's argsort breaks ties by its SIMD
    dispatch).  A step that would need more than maxfev evaluations is
    dropped, as in scipy, except that a shrink keeps the vertices it has
    moved.  Returns the best vertex, its value and the evaluation count.
    """
    n = len(lower)
    nfev = min(n + 1, maxfev)
    fsim = [f(x) for x in sim[:nfev]] + [math.inf] * (n + 1 - nfev)
    order = sorted(range(n + 1), key=fsim.__getitem__)
    sim, fsim = [sim[k] for k in order], [fsim[k] for k in order]
    while nfev < maxfev:
        best, f0 = sim[0], fsim[0]
        if all(abs(f0 - fk) <= 1e-10 for fk in fsim[1:]) and all(
                abs(v - b) <= 1e-6 for x in sim[1:] for v, b in zip(x, best)):
            break
        # the centroid of all but the worst vertex, summed in vertex order
        xbar = [reduce(add, col) / n for col in zip(*sim[:-1])]
        worst = sim[-1]
        xr = [lo if (v := 2 * a - w) <= lo else v for a, w, lo in zip(xbar, worst, lower)]
        fxr = f(xr)
        nfev += 1
        new = None
        if fxr < f0:
            if nfev >= maxfev:
                break
            xe = [lo if (v := 3 * a - 2 * w) <= lo else v for a, w, lo in zip(xbar, worst, lower)]
            fxe = f(xe)
            nfev += 1
            new = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            new = (xr, fxr)
        elif nfev >= maxfev:
            break
        elif fxr < fsim[-1]:
            xc = [lo if (v := 1.5 * a - 0.5 * w) <= lo else v for a, w, lo in zip(xbar, worst, lower)]
            fxc = f(xc)
            nfev += 1
            if fxc <= fxr:
                new = (xc, fxc)
        else:
            xcc = [lo if (v := 0.5 * a + 0.5 * w) <= lo else v for a, w, lo in zip(xbar, worst, lower)]
            fxcc = f(xcc)
            nfev += 1
            if fxcc < fsim[-1]:
                new = (xcc, fxcc)
        if new is None:  # shrink towards the best vertex
            for j in range(1, n + 1):
                sim[j] = [lo if (v := b + 0.5 * (x - b)) <= lo else v for x, b, lo in zip(sim[j], best, lower)]
                if nfev >= maxfev:
                    break
                fsim[j] = f(sim[j])
                nfev += 1
            order = sorted(range(n + 1), key=fsim.__getitem__)
            sim, fsim = [sim[k] for k in order], [fsim[k] for k in order]
        else:  # only the worst vertex changed: insert it after its ties
            del sim[-1], fsim[-1]
            k = bisect.bisect_right(fsim, new[1])
            sim.insert(k, new[0])
            fsim.insert(k, new[1])
    return sim[0], fsim[0], nfev


def _fminbound(f, lo, hi, xatol):
    """Bounded Brent minimisation of f on [lo, hi] on Python floats: scipy's
    ``minimize_scalar(method="bounded")`` step for step, with its maxiter of
    500.  Returns the minimiser, its value and the evaluation count."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = -tol1 if xm - xf < 0.0 else tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx, num


def _minimise_gauge(g: Gauge, lower, free, n_starts: int = 8, maxfev: int = 400):
    """Minimise g over the box x >= lower, moving only the coordinates in free.

    lower needs a positive coordinate.  The other coordinates stay at lower,
    and the corner x = lower is always a candidate.  One free coordinate
    runs a bounded Brent search (``_fminbound``) on each panel between
    log-spaced seeds in [0, hi] above its lower bound, where
    hi = max(10 m, 1.05 g(lower)) and m = max(lower): the containment
    g(x) >= max(x) puts every minimiser below g(lower).  Two or more free
    run one bounded Nelder-Mead solve (``_nelder_mead``) per start
    lower + s m, for n_starts log-spaced s in [0.05, 20] and a near-corner
    s = 1e-8, then polish the best point with the evaluations the starts
    left of (n_starts + 1) * maxfev.  Both solvers run on Python floats, so
    the scalar evaluator gets floats straight from them.  Returns the best
    value, its argmin, g(lower), the value each start reached and the number
    of evaluations.
    """
    lower = np.asarray(lower, dtype=float)
    free = list(free)
    scalar = g.scalar_evaluator()
    xs = lower.tolist()
    corner_val = float(scalar(*xs))
    n_evals = 1
    m = max(xs)

    if len(free) == 1:
        j = free[0]

        def f(t):
            xs[j] = t
            return float(scalar(*xs))

        lo_j = best_t = xs[j]
        best_val, runs = corner_val, []
        hi = max(10.0 * m, 1.05 * corner_val)
        seeds = [lo_j + s for s in [0.0, *np.geomspace(hi * 1e-6, hi, int(n_starts)).tolist()]]
        v_hi = f(lo_j + hi)
        n_evals += 1
        if v_hi < best_val:
            best_t, best_val = lo_j + hi, v_hi
        for lo, up in zip(seeds[:-1], seeds[1:]):
            t, val, nfev = _fminbound(f, lo, up, 1e-10)
            n_evals += nfev
            runs.append(val)
            if val < best_val:
                best_t, best_val = t, val
        best_x = lower.copy()
        best_x[j] = best_t
        return best_val, best_x, corner_val, runs, n_evals

    if len(free) == len(xs):
        def fun(t):
            return float(scalar(*t))
    else:
        def fun(t):
            for k, v in zip(free, t):
                xs[k] = v
            return float(scalar(*xs))

    lo = [xs[k] for k in free]
    best_val, best_t, runs = corner_val, lo, []
    for s in [*np.geomspace(0.05, 20.0, int(n_starts)).tolist(), 1e-8]:
        x0 = [a + s * m for a in lo]
        # scipy's default simplex for a start with no zero coordinate
        sim = [x0] + [x0[:k] + [1.05 * x0[k]] + x0[k + 1:] for k in range(len(x0))]
        t, val, nfev = _nelder_mead(fun, sim, lo, maxfev)
        n_evals += nfev
        runs.append(val)
        if val < best_val:
            best_val, best_t = val, t

    # polish: clipping to the box can collapse a simplex onto a face or a
    # corner next to the minimum, so restart from the best point on fresh
    # simplices, ten times smaller after each restart that does not
    # improve.  The step floor 0.005 m lets a simplex built at a coordinate
    # the near-corner start left at about 1e-8 leave that face.
    budget = len(runs) * maxfev - (n_evals - 1)
    scale = 0.05
    while math.isfinite(best_val) and budget > len(free) and scale > 1e-6:
        sim = [best_t] + [best_t[:k] + [t + max(t, 0.005 * m) * scale] + best_t[k + 1:]
                          for k, t in enumerate(best_t)]
        t, val, nfev = _nelder_mead(fun, sim, lo, budget)
        n_evals += nfev
        budget -= nfev
        if val < best_val - 1e-10:
            best_val, best_t = val, t
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
    """The unique point w / g(w) on the unit level set {g = 1} along the ray w.

    w is one direction of shape (d,) or k directions of shape (k, d), each
    nonnegative and nonzero; k directions take one array gauge call and give
    the k boundary points as rows.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 0 or np.any(w < 0.0) or not np.all(np.any(w > 0.0, axis=-1)):
        raise DomainError("every direction must be nonnegative and nonzero")
    return w / np.asarray(g(w))[..., None]


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
