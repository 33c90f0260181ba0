"""Gauge functions and limit-set geometry.

A gauge g is homogeneous of order 1 on the nonnegative orthant and encodes
the limiting shape of ln(n)-scaled exponential-margin sample clouds: the
cloud converges onto {x : g(x) <= 1}, a subset of the unit cube.  This
module builds gauges analytically:

* six bivariate families (independence, Gaussian, inverted EV, EV with
  regularly varying spectral tails, asymmetric logistic),
* the vines, from one entry point, ``gauge_vine``, the only place that
  decides which specs have a gauge: the trivariate vine in all eight EV /
  inverted-EV family patterns, and D- and C-vines with inverted-EV
  components in any dimension.  The nested sub-vine recursion is compiled
  into one evaluation plan per vine; each step applies its edge's own
  bivariate gauge to two margins, and a margin's side (upper, or lower
  below an EV tree-1 edge) selects the form.  One emitter turns each plan
  shape into straight-line Python in three dialects, each bound to the
  plan's parameters: one for single points, which inlines the logistic V,
  one for arrays, and, for the all-IEV logistic vines, one that returns
  the value of a single point with its gradient from a reverse (adjoint)
  sweep.  One table of EV edge rules (``_EV_FORMS``) feeds the first two
  dialects alike,

and numerically: projections onto coordinate subsets by minimising over the
dropped coordinates, except that an all-IEV vine projected onto the nodes
of a sub-vine gives that sub-vine's gauge.  One box-constrained minimiser,
``_minimise_gauge``, serves the projections and ``eta.eta_numeric`` alike,
with one local solver per gauge.  ``_fminbound`` repeats scipy's bounded
Brent step for step and serves one free coordinate.  For more,
``_quasi_newton`` is a projected BFGS solve for the gauges with a gradient,
whose starts are the whole solve, and ``_nelder_mead`` repeats scipy's
bounded Nelder-Mead step for step for the others, polishing the best
start.  All three run on Python floats, so the scalar evaluators get floats
with no array round trip, and importing the package does not load scipy.
"""

from __future__ import annotations

import bisect
import math
import types
from functools import cache, partial, reduce
from operator import add, mul, sub
from typing import NamedTuple

import numpy as np

from .copulas import EV, IEV, PairCopula
from .errors import DomainError, ParameterError, UnsupportedCombinationError
from .measures import ExponentMeasure, Logistic, TailOrders
from .simulate import _BLOCK
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
    "gauge_vine",
    "gauge_project",
    "boundary_point",
    "simplex_directions",
]


def _recip(a):
    """1/a with the conventions 1/0 = inf and negatives (roundoff) clamped:
    np.maximum(-0.0, 0.0) is +0.0, so -0.0 and negatives give inf too."""
    with np.errstate(divide="ignore"):
        return np.divide(1.0, np.maximum(a, 0.0))


class Gauge:
    """An evaluable gauge function on the nonnegative orthant.

    Calling with an array of shape (d,) returns a float; shape (..., d)
    returns an array of shape (...).  Extended-real intermediates are
    resolved analytically inside the evaluators.  Single points use a plain
    scalar code path when available (optimisers hammer that case), arrays
    the vectorised one; the two are checked against each other in the test
    suite.  Vine gauges compile one evaluation plan per vine, and one
    emitter generates both paths from it as straight-line functions per
    plan shape, with the vine's parameters bound as their globals: the
    scalar path evaluates only the form each point's sides select, the
    array path blends the forms a point's sides can reach.  The scalar
    dialect is bound when the gauge is built; the array dialect is bound on
    the first array call, and the gradient dialect, which only an all-IEV
    logistic vine has, on first use, so a gauge that only ever sees single
    points binds neither.
    """

    def __init__(self, dim: int, fn, tag: str, sfn=None, gradient=None):
        self.dim = int(dim)
        self.spec = None  # the VineSpec of a vine gauge (``_vine_gauge``)
        self._fn = fn
        self._sfn = sfn
        self._gradient = gradient  # returns the gradient evaluator, or None
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
        if x.ndim == 2 and x.shape[0] > _BLOCK:
            # a cloud: block by block, so that the evaluator's temporaries
            # stay cache-sized and are reused, not faulted in afresh
            out = np.empty(x.shape[0])
            for i in range(0, x.shape[0], _BLOCK):
                out[i : i + _BLOCK] = self._array(x[i : i + _BLOCK])
            return out
        out = np.asarray(self._array(x))
        return float(out) if out.ndim == 0 else out

    def _array(self, x):
        # reductions, not boolean temporaries; an empty array passes
        if x.size and not (x.min() >= 0.0 and x.max() < math.inf):  # also true for NaN
            raise DomainError("gauge arguments must be finite nonnegative reals")
        return self._fn(x)

    def scalar_evaluator(self):
        """The fastest single-point evaluator, taking d separate floats."""
        if self._sfn is not None:
            return self._sfn
        fn = self._fn
        return lambda *xs: float(fn(np.array(xs)))

    def gradient_evaluator(self):
        """g and its gradient at one point: a function of d separate floats
        that returns the value, bit for bit the scalar evaluator's, and the
        list of the d partials.  Only vine gauges whose every plan step is a
        logistic V over upper margins have one; the others return None.  It
        is bound on first use, to code compiled once per plan shape."""
        return None if self._gradient is None else self._gradient()


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
    """Inverted extreme value copula: g(x1, x2) = V(1/x1, 1/x2).

    The gauge of the 2-d vine on this one IEV edge, so it runs the vine
    plan (``_vine_gauge``).
    """
    if not isinstance(measure, ExponentMeasure):
        raise ParameterError("measure must be an ExponentMeasure")
    return _vine_gauge(VineSpec(2, DVINE, {"12": PairCopula(IEV, measure)}), f"inverted-ev({measure!r})")


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

def _compile_vine(spec: VineSpec):
    """The nested sub-vine recursion as a flat plan, one step per edge.

    Edge (a, b | D) joins the sub-vines on {a} u D and {b} u D, which
    overlap in the sub-vine on D, so its node set has the gauge
    g_D + g_e(p, q) with margins p = g_aD - g_D and q = g_bD - g_D; tree-1
    steps have no g_D and take the coordinates as margins.  g_e is the
    edge's own bivariate gauge, chosen by the sides of the margins
    (``_EV_FORMS``).  A margin is upper, except one from an EV tree-1 edge
    whose outer coordinate lies below the shared one (x1 < x2 for edge 12
    of the trivariate vine, x3 < x2 for edge 23), which is lower; an EV
    edge flips both sides of its own step.  So an inverted EV edge over
    upper margins gives V(1/p, 1/q), and an EV edge over them the bev
    gauge.  The recursion needs inverted EV edges below the top tree except
    in tree 1 of the trivariate vine; ``gauge_vine`` checks that.

    Slots 0..d-1 hold the coordinates and slot d + n the sub-vine gauge of
    the n-th edge in tree order, so the last slot is the whole vine.  A step
    is (out, left, right, inner, measure, sides, t), with inner None in
    tree 1.  A step over two upper margins has sides None, so every all-IEV
    vine runs V on the reciprocals alone; any other step has sides (sp, sq)
    and the tail orders t of its edge.  A side is (i, j, flip), lower when
    (x_i < x_j) != flip; a side known when compiling has i == j, and its
    flip alone gives it.  Only the sides of the trivariate top edge over an
    EV tree-1 edge depend on the point.  ``_step_source`` emits each step
    in the scalar and the array dialect, and ``_bind_plan`` binds the
    plan's parameters to either.
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
        if sp == sq == (0, 0, False):
            plan.append((out, left, right, inner, pc.measure, None, None))
        else:
            try:
                t = pc.measure.tail_orders()
            except Exception as exc:
                raise UnsupportedCombinationError(
                    f"the component on edge {label} needs regularly varying spectral tails "
                    f"for this family pattern: {exc}"
                ) from exc
            plan.append((out, left, right, inner, pc.measure, (sp, sq), t))
        if flip and not cond:
            ev_tree1.add(out)
        slot[cond | {a, b}] = out
    return plan


# V(1/p, 1/q) on floats for a logistic measure in step n, with 1/0 = inf:
# the direct form (x^e + y^e)^a of Logistic._v, e = -1/alpha, with the same
# operations in the same order; an infinite argument or a sum that is not a
# normal float (it overflows, or both powers underflow) calls Logistic._v
# itself (v{n}), which repeats the form and takes the exact limits and the
# one-power form there, so every value keeps its bits.  The smallest normal
# float is a literal: a constant is loaded faster than a global
_LOGISTIC_FORM = """\
x = 1.0 / {p} if {p} > 0.0 else inf
y = 1.0 / {q} if {q} > 0.0 else inf
try:
    {r} = x ** e{n} + y ** e{n} if x < inf > y else inf
except OverflowError:
    {r} = inf
{r} = {r} ** a{n} if 2.2250738585072014e-308 <= {r} < inf else v{n}(x, y)"""

# the partials of r = V(1/p, 1/q) = (p^(1/alpha) + q^(1/alpha))^alpha in step
# n, kept by the gradient dialect: dr/dp = (p/r)^c{n} with c{n} = 1/alpha - 1.
# p/r <= 1, so the power cannot overflow, and the one-power branches (the
# sum overflows or underflows), whose r they leave exact, take the same
# power.  A zero margin (p <= 0, where the value takes V(inf, y) = 1/y)
# takes the limit z{n} = 0^c{n}: 0 for alpha < 1, 1 at alpha = 1.  With
# both margins zero r = 0, and each partial is 1, the one-sided partial
# r(t, 0)/t along that margin with the other held at zero.
_LOGISTIC_PARTIALS = """\
if {r} > 0.0:
    d{n}p = ({p} / {r}) ** c{n} if {p} > 0.0 else z{n}
    d{n}q = ({q} / {r}) ** c{n} if {q} > 0.0 else z{n}
else:
    d{n}p = d{n}q = 1.0"""

# The EV edge rules g_e(p, q) in step n over margins with a lower side, keyed
# by (lower_p, lower_q), as the expressions both dialects emit: upper +
# (2 + s) lower with one lower margin, s1 when it is p and s2 when it is q,
# and with both lower the bev gauge, whose slope switch at p >= q
# (``_bev_eval_s``) picks the first of its two expressions.  Over two upper
# margins g_e is V(1/p, 1/q).  The tail-order sums are bound as
# h{n}p = 2 + s1, h{n}q = 2 + s2, l{n}p = 1 + s1 and l{n}q = 1 + s2
_EV_FORMS = {
    (False, True): "{p} + h{n}q * {q}",
    (True, False): "{q} + h{n}p * {p}",
    (True, True): ("h{n}p * {p} - l{n}p * {q}", "h{n}q * {q} - l{n}q * {p}"),
}

SCALAR, ARRAY, GRADIENT = "scalar", "array", "gradient"


def _step_source(out, left, right, inner, inline, sides, dialect):
    """The statements of one plan step, leaving its gauge in s{out}.  The
    scalar dialect runs on floats and picks the form a point's sides select
    with if/else; the array dialect runs on arrays and blends the reachable
    forms with where, evaluating each once.  Both emit the EV edge rules of
    ``_EV_FORMS``.  The gradient dialect runs the scalar statements of an
    inline logistic step over upper margins and keeps the step's partials in
    d{out}p and d{out}q for the reverse sweep (``_adjoint_source``)."""
    array = dialect == ARRAY
    if inner is None:  # tree 1: the coordinates are the margins
        p, q, r, lines = f"s{left}", f"s{right}", f"s{out}", []
    else:
        p, q, r = "p", "q", "r"
        lines = [f"g = s{inner}", f"p = s{left} - g", f"q = s{right} - g"]

    def branch(test, yes, no):
        # yes where test holds, else no: an expression or statements
        if array:
            return f"where({test}, {yes}, {no})"
        return [f"if {test}:", *("    " + line for line in yes), "else:", *("    " + line for line in no)]

    def assign(expr):
        return expr if array else [f"{r} = {expr}"]

    def form(lp, lq):
        # an expression in the array dialect, statements in the others
        if lp and lq:  # bev: the slope switches at p >= q
            return branch(f"{p} >= {q}", *(assign(e.format(p=p, q=q, n=out)) for e in _EV_FORMS[lp, lq]))
        if lp or lq:
            return assign(_EV_FORMS[lp, lq].format(p=p, q=q, n=out))
        if inline:  # never in the array dialect
            return _LOGISTIC_FORM.format(p=p, q=q, r=r, n=out).splitlines()
        if array:
            return f"v{out}(recip({p}), recip({q}))"
        return assign(f"v{out}(1.0 / {p} if {p} > 0.0 else inf, 1.0 / {q} if {q} > 0.0 else inf)")

    def side(s, arm):
        # arm(lower) for the side s = (i, j, flip), lower where (x_i < x_j) != flip
        i, j, f = s
        return arm(f) if i == j else branch(f"s{i} < s{j}", arm(not f), arm(f))

    if sides is None:
        code = form(False, False)
    else:
        sp, sq = sides
        code = side(sp, lambda lp: side(sq, lambda lq: form(lp, lq)))
    lines += [f"{r} = {code}"] if array else code
    if dialect == GRADIENT:
        lines += _LOGISTIC_PARTIALS.format(p=p, q=q, r=r, n=out).splitlines()
    if inner is not None:
        lines.append(f"s{out} = g + r")
    return lines


def _adjoint_source(d, shape):
    """The reverse sweep of the gradient dialect: b{k} accumulates dg/ds{k}
    from the last step back.  A step s{out} = g + r(s{left} - g, s{right} - g)
    passes its adjoint on with the weights d{out}p, d{out}q and
    1 - d{out}p - d{out}q; a tree-1 step r(s{left}, s{right}) with the first
    two.  Returns the statements and the d coordinate adjoints, "0.0" for a
    coordinate no step reads."""
    last = d + len(shape) - 1
    seen, lines = set(), []

    def accumulate(k, term):
        lines.append(f"b{k} {'+=' if k in seen else '='} {term}")
        seen.add(k)

    for out, left, right, inner, *_ in reversed(shape):
        b = "" if out == last else f"b{out} * "
        accumulate(left, f"{b}d{out}p")
        accumulate(right, f"{b}d{out}q")
        if inner is not None:
            accumulate(inner, f"{b}(1.0 - d{out}p - d{out}q)")
    return lines, [f"b{k}" if k in seen else "0.0" for k in range(d)]


def _plan_source(d, shape, dialect):
    """The evaluator of one plan shape in one dialect as Python source: a
    function of the d coordinates s0..s{d-1}, floats or arrays, that runs
    every step as straight-line statements on local slots.  The gradient
    dialect returns the value and the list of the d partials.  The shape
    holds slots, sides and which V forms are inlined, never a value;
    parameters and callables are globals of the function (``_bind_plan``)."""
    body = [line for step in shape for line in _step_source(*step, dialect)]
    result = f"s{d + len(shape) - 1}"
    if dialect == GRADIENT:
        sweep, grad = _adjoint_source(d, shape)
        body += sweep
        result += f", [{', '.join(grad)}]"
    return "\n    ".join([f"def vine_gauge({', '.join(f's{k}' for k in range(d))}):", *body,
                           f"return {result}"]) + "\n"


@cache
def _plan_code(d, shape, dialect):
    """The compiled code of ``_plan_source``, shared by every plan of one
    shape, so a vine rebuilt with new parameters compiles nothing."""
    scope = {}
    exec(compile(_plan_source(d, shape, dialect), f"<vine plan, d={d}, {dialect}>", "exec"), scope)
    return scope["vine_gauge"].__code__


def _bind_plan(d, plan, dialect):
    """The evaluator of a compiled plan in one dialect: its shape's
    generated code (``_plan_code``) bound to the plan's measures and rules.
    The scalar and gradient dialects inline the direct form of a logistic V;
    the scalar and array dialects emit the EV edge rules (``_EV_FORMS``),
    whose tail-order sums each binds.  The gradient dialect takes plans
    whose steps are all inline logistic steps over upper margins
    (``_has_gradient``)."""
    env = {"inf": math.inf, "recip": _recip, "where": np.where}
    shape = []
    for out, left, right, inner, m, sides, t in plan:
        inline = dialect != ARRAY and type(m)._v is Logistic._v
        env[f"v{out}"] = m._v
        if inline:
            env.update({f"e{out}": -m._q, f"a{out}": m.alpha})
        if dialect == GRADIENT:
            env.update({f"c{out}": m._q - 1.0, f"z{out}": 0.0 ** (m._q - 1.0)})
        if sides is not None:
            env.update({f"h{out}p": 2.0 + t.s1, f"h{out}q": 2.0 + t.s2,
                        f"l{out}p": 1.0 + t.s1, f"l{out}q": 1.0 + t.s2})
        shape.append((out, left, right, inner, inline, sides))
    return types.FunctionType(_plan_code(d, tuple(shape), dialect), env)


def _has_gradient(plan):
    """Whether every step is a logistic V over two upper margins, the steps
    the gradient dialect differentiates; the EV patterns' piecewise linear
    rules and other measures have no emitted gradient."""
    return all(sides is None and type(m)._v is Logistic._v for *_, m, sides, t in plan)


def _vine_gauge(spec: VineSpec, tag: str) -> Gauge:
    d = spec.d
    plan = _compile_vine(spec)
    # the array and gradient dialects are bound on first use, once
    array = cache(lambda: _bind_plan(d, plan, ARRAY))
    gradient = cache(lambda: _bind_plan(d, plan, GRADIENT)) if _has_gradient(plan) else None
    g = Gauge(d, lambda x: array()(*(x[..., k] for k in range(d))), tag, sfn=_bind_plan(d, plan, SCALAR),
              gradient=gradient)
    g.spec = spec
    return g


def _is_trivariate(spec: VineSpec) -> bool:
    """Whether spec is the trivariate vine, with edges 12, 23 and 13|2: the
    trivariate structure or a 3-d D-vine."""
    return spec.d == 3 and spec.structure in (TRIVARIATE, DVINE)


def gauge_vine(spec: VineSpec) -> Gauge:
    """The gauge of a vine spec, and the one place that decides which specs
    have one: the trivariate vine in all eight EV / inverted-EV family
    patterns, and any D- or C-vine whose every edge is inverted EV.  Every
    other spec raises UnsupportedCombinationError, as does an edge whose
    measure lacks the regularly varying spectral tails its family pattern
    needs (``_compile_vine``).  The named builders call it."""
    if _is_trivariate(spec):
        tag = "trivariate-vine(" + ",".join(spec.families()) + ")"
    elif spec.all_iev():
        tag = f"{spec.structure}(d={spec.d})"
    else:
        raise UnsupportedCombinationError(
            "no gauge for this vine: a gauge needs the trivariate vine (edges 12, 23, 13|2) "
            "or a D- or C-vine whose every edge is an inverted extreme value copula")
    return _vine_gauge(spec, tag)


def gauge_trivariate(spec: VineSpec) -> Gauge:
    """Gauge of a trivariate vine with edges {12}, {23}, {13|2}.

    Every family pattern of (c12, c23, c13|2) is the d = 3 case of the
    nested sub-vine recursion (``gauge_vine``).  Below an EV tree-1 edge the
    margin of the top edge switches side where the outer coordinate passes
    x2, which turns the gauge piecewise.
    """
    if not _is_trivariate(spec):
        raise UnsupportedCombinationError("gauge_trivariate needs a trivariate vine with edges 12, 23, 13|2")
    return gauge_vine(spec)


def gauge_dvine(spec: VineSpec) -> Gauge:
    """Gauge of an all-IEV D-vine via the nested sub-vine recursion
    (``gauge_vine``).

    Sub-vines of a D-vine live on consecutive index blocks [i, j]; the block
    gauge combines the two (size-1 smaller) overlapping blocks and the
    block's top edge measure.  Zero denominators resolve through the
    extended-real limits of the exponent measures.
    """
    if spec.structure not in (DVINE, TRIVARIATE):
        raise UnsupportedCombinationError("gauge_dvine requires a dvine structure")
    if not spec.all_iev():  # gauge_vine also builds the 3-d D-vine with EV edges
        raise UnsupportedCombinationError("gauge_dvine requires every edge to be an inverted extreme value copula")
    return gauge_vine(spec)


def gauge_cvine(spec: VineSpec) -> Gauge:
    """Gauge of an all-IEV C-vine (``gauge_vine``).

    Sub-vines are the sets {1..k, m} with m > k; removing the last-attached
    node m or the deepest root k yields the two overlapping sub-vines of the
    recursion, which bottoms out at single variables and tree-1 edges.
    """
    if spec.structure != CVINE:
        raise UnsupportedCombinationError("gauge_cvine requires a cvine structure")
    return gauge_vine(spec)


# ---------------------------------------------------------------------------
# projections and boundary geometry
# ---------------------------------------------------------------------------

_map_add = partial(map, add)  # the elementwise sum of two vectors, lazily


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
        # scipy's stop test alone decides; the spread of the sorted values,
        # which it implies (NaN and inf fail both), skips it cheaply
        if fsim[-1] - f0 <= 1e-10 and all(abs(f0 - fk) <= 1e-10 for fk in fsim[1:]) and all(
                abs(v - b) <= 1e-6 for x in sim[1:] for v, b in zip(x, best)):
            break
        # the centroid of all but the worst vertex, summed in vertex order:
        # each coordinate's maps add the vertices from the first on
        xbar = [v / n for v in reduce(_map_add, sim[1:-1], sim[0])]
        worst = sim[-1]
        xr = [lo if (v := 2.0 * a - w) <= lo else v for a, w, lo in zip(xbar, worst, lower)]
        fxr = f(xr)
        nfev += 1
        new = None
        if fxr < f0:
            if nfev >= maxfev:
                break
            xe = [lo if (v := 3.0 * a - 2.0 * w) <= lo else v for a, w, lo in zip(xbar, worst, lower)]
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


def _projected_gradient(x, grad, lower):
    """The projected gradient x - P(x - grad) on the box x >= lower: the
    partial itself, or the distance to the bound where that is smaller, so
    it vanishes exactly at a KKT point."""
    return [gk if gk <= v - lo else v - lo for v, gk, lo in zip(x, grad, lower)]


def _dot(a, b):
    """The exactly rounded sum of the products a_k b_k (``math.fsum``, so
    the result does not depend on the Python version's ``sum``)."""
    return math.fsum(map(mul, a, b))


def _quasi_newton(fg, x, lower, maxfev):
    """Projected BFGS on the box x >= lower, on Python floats.

    fg takes a list of floats and returns the value and the gradient there.
    Each iteration splits the coordinates by the projected gradient pg
    (``_projected_gradient``) and w = max |pg_k|.  A coordinate within
    min(1e-3, w) of its bound whose partial pushes outward is binding and
    takes the steepest-descent step; the others take the BFGS step of the
    inverse Hessian approximation H restricted to them.  The line search
    projects each trial point onto the box and halves the step from 1 until
    f(x_t) - f(x) <= 1e-4 grad'(x_t - x) (Armijo, with a strict decrease).
    H is updated with the step and the gradient change on the non-binding
    coordinates when their product is positive.  A BFGS step that is no
    descent direction, or finds no Armijo point, resets H and the
    iteration takes the steepest-descent step instead.

    Steepest descent, and H until its first update, use the metric
    diag(1.05^k); the first update scales it by s'y/y'y.  The tilt makes the
    first step leave a symmetry axis of g, as the 5 % steps of Nelder-Mead's
    starting simplex do.  Without it a start on the axis (the diagonal start
    of a reversal-symmetric D-vine) keeps every iterate on the axis, where
    the solve can stop at a saddle.  The solve ends at w = 0, when a
    steepest-descent step finds no Armijo point, once the decrease
    -grad'(x_t - x) a trial step predicts is at most 1e-15 |f(x)| (rounding
    level), or after maxfev calls of fg.  Returns the last point, its value
    and gradient, and the number of calls (inf, None and 0 if maxfev < 1).
    """
    n = len(x)
    tilt = [1.05**k for k in range(n)]
    x = [lo if v <= lo else v for v, lo in zip(x, lower)]
    if maxfev < 1:  # as Nelder-Mead, which then evaluates nothing either
        return x, math.inf, None, 0
    f, grad = fg(x)
    nfev = 1
    H = None  # None is diag(tilt)

    def search(d):
        # the first point of the projected arc x + t d that passes Armijo
        nonlocal nfev
        t = 1.0
        while nfev < maxfev:
            xt = [lo if (v := a + t * b) <= lo else v for a, b, lo in zip(x, d, lower)]
            slope = _dot(grad, map(sub, xt, x))
            if -slope <= 1e-15 * abs(f):
                return None
            ft, gt = fg(xt)
            nfev += 1
            if ft - f <= 1e-4 * slope:
                return xt, ft, gt
            t *= 0.5
        return None

    while nfev < maxfev:
        w = max(map(abs, _projected_gradient(x, grad, lower)))
        if w == 0.0:
            break
        eps = min(1e-3, w)
        free = [v - lo > eps or gk <= 0.0 for v, gk, lo in zip(x, grad, lower)]
        binds = not all(free)  # with none binding, the masks would be copies
        found = None
        if H is not None:
            if binds:
                gfree = [gk if fr else 0.0 for gk, fr in zip(grad, free)]
                d = [-_dot(row, gfree) if fr else -gk * tk for row, fr, gk, tk in zip(H, free, grad, tilt)]
            else:
                d = [-_dot(row, grad) for row in H]
            if _dot(grad, d) < 0.0:
                found = search(d)
            if found is None:
                H = None
        if found is None:
            found = search([-gk * tk for gk, tk in zip(grad, tilt)])
            if found is None:
                break
        xt, ft, gt = found
        if binds:
            s = [b - a if fr else 0.0 for a, b, fr in zip(x, xt, free)]
            y = [b - a if fr else 0.0 for a, b, fr in zip(grad, gt, free)]
        else:
            s, y = list(map(sub, xt, x)), list(map(sub, gt, grad))
        x, f, grad = found
        sy = _dot(s, y)
        if sy <= 0.0:
            continue
        if H is None:
            scale = sy / _dot(y, y)
            H = [[scale * tk if i == j else 0.0 for j in range(n)] for i, tk in enumerate(tilt)]
        # H <- (I - rho s y')H(I - rho y s') + rho s s', rho = 1/s'y
        rho = 1.0 / sy
        hy = [_dot(row, y) for row in H]
        c = rho * rho * _dot(y, hy) + rho
        for i, (si, hi) in enumerate(zip(s, hy)):
            a, b = c * si - rho * hi, rho * si
            H[i] = [h + a * sj - b * hj for h, sj, hj in zip(H[i], s, hy)]
    return x, f, grad, nfev


class _BoxMinimum(NamedTuple):
    """What ``_minimise_gauge`` found: the best value, its argmin and, for a
    gauge with a gradient and two or more free coordinates, the partials in
    the free coordinates there (else None), the corner value g(lower), the
    value each start reached, and the counts of value-only and of
    value-and-gradient evaluations."""

    value: float
    x: np.ndarray
    gradient: list | None
    corner_value: float
    runs: list
    n_evals: int
    n_gradient_evals: int


def _minimise_gauge(g: Gauge, lower, free, n_starts: int = 8, maxfev: int = 400) -> _BoxMinimum:
    """Minimise g over the box x >= lower, moving only the coordinates in free.

    lower needs a positive coordinate.  The other coordinates stay at lower,
    and the corner x = lower is always a candidate.  One free coordinate
    runs a bounded Brent search (``_fminbound``) on each panel between
    log-spaced seeds in [0, hi] above its lower bound, where
    hi = max(10 m, 1.05 g(lower)) and m = max(lower): the containment
    g(x) >= max(x) puts every minimiser below g(lower), and it puts a panel
    whose lower end reaches the best value so far at or above that value
    (to rounding), so the search stops there.  Two or more free
    run one local solve per start lower + s m, for n_starts log-spaced s in
    [0.05, 20] and a near-corner s = 1e-8: the projected quasi-Newton solve
    (``_quasi_newton``) when g has a gradient evaluator, whose best start,
    with its gradient, is the result, and bounded Nelder-Mead
    (``_nelder_mead``) otherwise, whose best start Nelder-Mead restarts
    polish with the evaluations left of (n_starts + 1) * maxfev + 1.  The
    solvers run on Python floats, so the evaluators get floats straight
    from them.
    """
    lower = np.asarray(lower, dtype=float)
    free = list(free)
    scalar = g.scalar_evaluator()
    gradient = g.gradient_evaluator() if len(free) > 1 else None
    xs = lower.tolist()
    m = max(xs)
    if len(free) == len(xs):
        def fun(t):
            return float(scalar(*t))

        def fg(t):
            return gradient(*t)
    else:
        def fun(t):
            for k, v in zip(free, t):
                xs[k] = v
            return float(scalar(*xs))

        def fg(t):
            for k, v in zip(free, t):
                xs[k] = v
            val, grad = gradient(*xs)
            return val, [grad[k] for k in free]

    lo = [xs[k] for k in free]
    if gradient is None:
        corner_val, corner_grad, n_evals, n_grad = fun(lo), None, 1, 0
    else:
        (corner_val, corner_grad), n_evals, n_grad = fg(lo), 0, 1

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
            # g(x) >= x_j >= lo, to a few ulps: neither this panel nor a
            # later one improves by more than rounding
            if lo >= best_val:
                break
            t, val, nfev = _fminbound(f, lo, up, 1e-10)
            n_evals += nfev
            runs.append(val)
            if val < best_val:
                best_t, best_val = t, val
        best_x = lower.copy()
        best_x[j] = best_t
        return _BoxMinimum(best_val, best_x, None, corner_val, runs, n_evals, n_grad)

    best_val, best_t, best_grad, runs = corner_val, lo, corner_grad, []
    for s in [*np.geomspace(0.05, 20.0, int(n_starts)).tolist(), 1e-8]:
        x0 = [a + s * m for a in lo]
        if gradient is not None:
            t, val, grad, nfev = _quasi_newton(fg, x0, lo, maxfev)
            n_grad += nfev
        else:
            # scipy's default simplex for a start with no zero coordinate
            sim = [x0] + [x0[:k] + [1.05 * x0[k]] + x0[k + 1:] for k in range(len(x0))]
            t, val, nfev = _nelder_mead(fun, sim, lo, maxfev)
            grad = None
            n_evals += nfev
        runs.append(val)
        if val < best_val:
            best_val, best_t, best_grad = val, t, grad

    # Nelder-Mead polish: clipping to the box can collapse a simplex onto a
    # face or a corner next to the minimum, so restart from the best point on
    # fresh simplices, ten times smaller after each restart that does not
    # improve.  The step floor 0.005 m lets a simplex built at a coordinate
    # the near-corner start left at about 1e-8 leave that face.
    budget = len(runs) * maxfev + 1 - n_evals
    scale = 0.05
    while gradient is None and math.isfinite(best_val) and budget > len(free) and scale > 1e-6:
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
    return _BoxMinimum(best_val, best_x, best_grad, corner_val, runs, n_evals, n_grad)


def gauge_project(g: Gauge, keep) -> Gauge:
    """Lower-dimensional gauge: the minimum of g over the dropped coordinates.

    keep is a set of 1-based coordinate labels.  The limit set of a margin
    is the projection of the joint limit set, so the projection of an
    all-IEV vine's gauge onto the nodes of a proper sub-vine (two or more
    labels with ``spec.hull(keep) == keep``) is that sub-vine's gauge, and
    it is returned, built as ``eta.eta_subvine`` builds its margins
    (``gauge_vine``): a plan step that meets a zero margin takes
    V(x, inf) = 1/x, so g(x_S, 0) = g_S(x_S), the corner where the search
    below stops.  It evaluates arrays in one call, with the vine's scalar,
    array and gradient dialects.

    Every other projection is searched point by point: each value is the
    box minimum of g with the kept coordinates fixed and the dropped ones
    >= 0 (``_minimise_gauge``), by bounded Brent searches when one
    coordinate is dropped and multi-start quasi-Newton or Nelder-Mead
    solves when more are.  That covers the builtins, single labels and
    two cases the sub-vine route leaves alone:
    - a trivariate vine with an EV edge, whose projection onto a tree-1
      pair need not be that edge's own gauge: for the (EV, IEV, IEV)
      pattern with alpha 0.5 on every edge, the search reads
      g(0.3, 0.9, 0) = 2.1 onto (1, 2), where the bivariate EV gauge of
      edge 12 reads 1.5, so the search keeps the value until the sampler
      settles which is right;
    - a keep whose hull is larger than itself: a minimisation over
      hull(keep) minus keep on the hull's marginal alone can stop above the
      full-gauge search where two or more coordinates are free.
    The corner, with every dropped coordinate at zero, is a candidate, so a
    projection never reads above g(x, 0).

    Both routes tag the result ``project(<g.tag>; keep=...)``.
    """
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or any(k < 1 or k > g.dim for k in keep):
        raise DomainError(f"keep must be a nonempty subset of 1..{g.dim}")
    dropped = [k - 1 for k in range(1, g.dim + 1) if k not in keep]
    if not dropped:
        return g
    tag = f"project({g.tag}; keep={keep})"
    spec = g.spec
    if spec is not None and len(keep) > 1 and spec.all_iev() and spec.hull(keep) == keep:
        margin = gauge_vine(spec.marginal(keep))
        margin.tag = tag
        return margin
    kept_idx = [k - 1 for k in keep]

    def minimise_point(x_keep):
        if np.all(x_keep == 0.0):
            return 0.0
        lower = np.zeros(g.dim)
        lower[kept_idx] = x_keep
        return _minimise_gauge(g, lower, dropped).value

    def fn(x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, len(keep))
        vals = np.array([minimise_point(row) for row in flat])
        return vals.reshape(x.shape[:-1])

    return Gauge(len(keep), fn, tag)


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
