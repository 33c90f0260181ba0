"""Gauge functions and limit-set geometry.

A gauge g is homogeneous of order 1 on the nonnegative orthant and encodes
the limiting shape of ln(n)-scaled exponential-margin sample clouds: the
cloud converges onto {x : g(x) <= 1}, a subset of the unit cube.  This
module builds gauges analytically:

* five bivariate families (independence, Gaussian, inverted EV, EV with
  regularly varying spectral tails, asymmetric logistic), the inverted EV
  and EV ones as one-step plans of the vines below,
* the vines, from one entry point, ``gauge_vine``, the only place that
  decides which specs have a gauge: the trivariate vine in all eight EV /
  inverted-EV family patterns, and D- and C-vines with inverted-EV
  components in any dimension.  The nested sub-vine recursion is compiled
  into one evaluation plan per vine; each step applies its edge's own
  bivariate gauge to two margins, and a margin's side (upper, or lower
  below an EV tree-1 edge) selects the form.  One emitter turns each plan
  shape into straight-line Python in three dialects, each bound to the
  plan's parameters: one for single points, which inlines the logistic V,
  one for arrays, and, for every all-IEV vine, one that returns the value
  of a single point with its gradient from a reverse (adjoint) sweep.  One
  table of EV edge rules (``_EV_FORMS``) feeds the first two dialects
  alike,

and numerically: projections onto coordinate subsets by minimising over the
dropped coordinates, except that an all-IEV vine projected onto the nodes
of a sub-vine gives that sub-vine's gauge.  One box-constrained minimiser,
``_minimise_gauge``, serves the projections and ``eta.eta_numeric`` alike.
``_fminbound`` repeats scipy's bounded Brent step for step, in panels
(``_panels``), and serves one free coordinate, save x1 or x3 of a
trivariate vine with an EV edge: with x2 held, its middle search
(``_middle_search``) takes that minimum in closed form.  For more,
``_quasi_newton`` is a projected BFGS solve for the gauges with a gradient,
whose starts are the whole solve, run as straight-line code emitted per
dimension like the plans (``_qn_source``); a trivariate vine with an EV
edge runs the Brent panels in x2 alone, minimising over x1 and x3 in
closed form at each x2, and a 2-d gauge without a gradient runs them on
its faces.
All run on Python floats, so the scalar evaluators get floats with no
array round trip, and importing the package does not load scipy.
"""

from __future__ import annotations

import math
import types
from functools import cache
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
    suite.  Vine gauges compile one evaluation plan per vine, from which one
    emitter generates both paths (``_bind_plan``).  The scalar dialect is
    bound when the gauge is built; the array dialect on the first array
    call, and the gradient dialect, which every all-IEV vine has, on first
    use, so a gauge that only ever sees single points binds neither.
    """

    def __init__(self, dim: int, fn, tag: str, sfn=None, gradient=None, middle=None):
        self.dim = int(dim)
        self.spec = None  # the VineSpec of a vine gauge (``_vine_gauge``)
        self._fn = fn
        self._sfn = sfn
        self._gradient = gradient  # returns the gradient evaluator, or None
        self._middle = middle  # returns the trivariate middle search (``_middle_search``), or None
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
        V over upper margins have one, which is every all-IEV vine whatever
        its measures; the others (the builtins other than inverted EV, the
        trivariate patterns with an EV edge, projections) return None.  It
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


def bev_gauge(s1: float, s2: float) -> Gauge:
    """Extreme value copula whose spectral density has regularly varying
    tails with exponents s1 (w -> 1) and s2 (w -> 0), both > -1.

    Piecewise linear: (2 + s1) x1 - (1 + s1) x2 where x1 >= x2, else
    (2 + s2) x2 - (1 + s2) x1, the two coinciding at the tie.  It is the
    vine plan's EV rule over two lower margins (``_EV_FORMS``), run as the
    one-step plan of an EV edge with no measure (``_plan_gauge``).
    """
    t = TailOrders(s1, s2, np.nan, np.nan)  # validates the exponents
    lower = (0, 0, True)
    return _plan_gauge(2, [(2, 0, 1, None, None, (lower, lower), t)], f"bev(s1={s1}, s2={s2})")


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
        (a, b), nodes = label.pair, label.nodes
        out = spec.d + len(plan)
        left, right, inner = slot[nodes - {b}], slot[nodes - {a}], slot.get(nodes - {a, b})
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
        if flip and not label.cond:
            ev_tree1.add(out)
        slot[nodes] = out
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

# the partials of r = V(1/p, 1/q) in step n for a V not inlined, by the
# homogeneity of V1 and V2: dr/dp = -V1(1, p/q), dr/dq = -V2(q/p, 1), which
# is -V1 of the transposed measure at (1, q/p); w{n} and u{n} are the V1.  A
# zero margin, or an underflowing ratio, takes the limit zp{n} = -V1(1, 0+)
# or zq{n} = -V2(0+, 1) (theta1, theta2 for the asymmetric logistic with
# alpha < 1), and the other partial is 1; with both zero, each is 1
_MEASURE_PARTIALS = """\
if {p} > 0.0 < {q}:
    y = {p} / {q}
    d{n}p = -float(w{n}(1.0, y)) if y > 0.0 else zp{n}
    y = {q} / {p}
    d{n}q = -float(u{n}(1.0, y)) if y > 0.0 else zq{n}
else:
    d{n}p = zp{n} if {q} > 0.0 else 1.0
    d{n}q = zq{n} if {p} > 0.0 else 1.0"""

# The EV edge rules g_e(p, q) in step n over margins with a lower side, keyed
# by (lower_p, lower_q), as the expressions both dialects emit: upper +
# (2 + s) lower with one lower margin, s1 when it is p and s2 when it is q,
# and with both lower the bev gauge, whose slope switch at p >= q picks the
# first of its two expressions; ``bev_gauge`` is that rule's one-step plan,
# so this table is its only copy.  Over two upper margins g_e is
# V(1/p, 1/q).  The tail-order sums are bound as h{n}p = 2 + s1,
# h{n}q = 2 + s2, l{n}p = 1 + s1 and l{n}q = 1 + s2
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
    ``_EV_FORMS``.  The gradient dialect runs the scalar statements of a
    step over upper margins and keeps the step's partials in d{out}p and
    d{out}q for the reverse sweep (``_adjoint_source``): the inline logistic
    ones, or those of the measure's V1 and V2."""
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
        lines += (_LOGISTIC_PARTIALS if inline else _MEASURE_PARTIALS).format(p=p, q=q, r=r, n=out).splitlines()
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
    whose steps are all over upper margins (``_has_gradient``), and binds
    the logistic exponents of the inline steps and the measures' V1, with
    their zero-margin limits, for the others."""
    env = {"inf": math.inf, "recip": _recip, "where": np.where}
    shape = []
    for out, left, right, inner, m, sides, t in plan:
        inline = m is not None and dialect != ARRAY and type(m)._v is Logistic._v
        if m is not None:  # a step with no measure (``bev_gauge``) runs its EV rule alone
            env[f"v{out}"] = m._v
        if inline:
            env.update({f"e{out}": -m._q, f"a{out}": m.alpha})
        if dialect == GRADIENT and inline:
            env.update({f"c{out}": m._q - 1.0, f"z{out}": 0.0 ** (m._q - 1.0)})
        elif dialect == GRADIENT:
            mt = m.transposed()
            with np.errstate(divide="ignore", invalid="ignore"):  # the limits at a zero argument
                zp, zq = (float(-v1(np.float64(1.0), np.float64(0.0))) for v1 in (m._v1, mt._v1))
            env.update({f"w{out}": m._v1, f"u{out}": mt._v1, f"zp{out}": zp, f"zq{out}": zq})
        if sides is not None:
            env.update({f"h{out}p": 2.0 + t.s1, f"h{out}q": 2.0 + t.s2,
                        f"l{out}p": 1.0 + t.s1, f"l{out}q": 1.0 + t.s2})
        shape.append((out, left, right, inner, inline, sides))
    return types.FunctionType(_plan_code(d, tuple(shape), dialect), env)


def _has_gradient(plan):
    """Whether every step is a V over two upper margins, the steps the
    gradient dialect differentiates, as in every all-IEV vine; the EV
    patterns' piecewise linear rules have no emitted gradient."""
    return all(sides is None for *_, sides, t in plan)


def _plan_gauge(d: int, plan, tag: str) -> Gauge:
    """The gauge of a compiled plan on d coordinates.  The array and
    gradient dialects, and the middle search of a 3-d plan with no gradient
    (the trivariate vine with an EV edge), bind on first use, once; a 2-d
    plan with no gradient (``bev_gauge``) keeps the face search."""
    array = cache(lambda: _bind_plan(d, plan, ARRAY))
    gradient = middle = None
    if _has_gradient(plan):
        gradient = cache(lambda: _bind_plan(d, plan, GRADIENT))
    elif d == 3:
        middle = cache(lambda: _middle_search(plan))
    return Gauge(d, lambda x: array()(*(x[..., k] for k in range(d))), tag, sfn=_bind_plan(d, plan, SCALAR),
                 gradient=gradient, middle=middle)


def _vine_gauge(spec: VineSpec, tag: str) -> Gauge:
    g = _plan_gauge(spec.d, _compile_vine(spec), tag)
    g.spec = spec
    return g


def gauge_vine(spec: VineSpec) -> Gauge:
    """The gauge of a vine spec, and the one place that decides which specs
    have one: the trivariate vine in all eight EV / inverted-EV family
    patterns, and any D- or C-vine whose every edge is inverted EV.  Every
    other spec raises UnsupportedCombinationError, as does an edge whose
    measure lacks the regularly varying spectral tails its family pattern
    needs (``_compile_vine``).  The named builders call it."""
    if spec.is_trivariate():
        tag = "trivariate-vine(" + ",".join(spec.families()) + ")"
    elif spec.all_iev():
        tag = f"{spec.structure}(d={spec.d})"
    else:
        raise UnsupportedCombinationError(
            "no gauge for this vine: a gauge needs the trivariate vine (edges 12, 23, 13|2) "
            "or a D- or C-vine whose every edge is an inverted extreme value copula")
    return _vine_gauge(spec, tag)


def gauge_trivariate(spec: VineSpec) -> Gauge:
    """Gauge of a trivariate vine with edges {12}, {23}, {13|2}, in any
    family pattern: the d = 3 case of the recursion (``gauge_vine``)."""
    if not spec.is_trivariate():
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


def _qn_source(n):
    """The projected BFGS solve of ``_quasi_newton`` on n coordinates as
    Python source: one function whose every vector and matrix operation is
    written out per coordinate.  x, the gradient g, the step s, the gradient
    change y, the direction e, the trial point u and H y (z) are n locals
    each, H the n^2 locals h{i}_{j}, the mask of free coordinates the n
    booleans m{k}, and each dot product one ``math.fsum`` of its n products
    in coordinate order; the tilt 1.05^k is the global t{k}.  Every float
    operation is that of the solve written with lists (the test oracle
    ``_quasi_newton_lists``), in the same order: a masked entry is a zero
    term of its sum, as it is there, so every result keeps its bits."""
    ks = range(n)

    def each(fmt):
        return ", ".join(fmt.format(k=k) for k in ks)

    def dot(fmt):
        return f"fsum(({each(fmt)},))"

    def lines(fmt):
        return [fmt.format(k=k) for k in ks]

    search = [  # the first point u of the projected arc x + step e that passes Armijo; ok if found
        "step = 1.0",
        "while nfev < maxfev:",
        *("    " + line for k in ks for line in (f"v = x{k} + step * e{k}", f"u{k} = l{k} if v <= l{k} else v")),
        f"    slope = {dot('g{k} * (u{k} - x{k})')}",
        "    if -slope <= 1e-15 * abs(f):",
        "        break",
        f"    fu, gu = fg([{each('u{k}')}])",
        "    nfev += 1",
        "    if fu - f <= 1e-4 * slope:",
        "        ok = True",
        "        break",
        "    step *= 0.5",
    ]
    fresh_h = [f"h{i}_{j} = {f'scale * t{i}' if i == j else '0.0'}" for i in ks for j in ks]
    update = [line for i in ks for line in (f"a = c * s{i} - rho * z{i}", f"b = rho * s{i}",
                                            *(f"h{i}_{j} = h{i}_{j} + a * s{j} - b * z{j}" for j in ks))]
    body = [
        f"{each('x{k}')}, = x",
        f"{each('l{k}')}, = lower",
        *lines("x{k} = l{k} if x{k} <= l{k} else x{k}"),
        "if maxfev < 1:",
        f"    return [{each('x{k}')}], inf, None, 0",
        f"f, grad = fg([{each('x{k}')}])",
        f"{each('g{k}')}, = grad",
        "nfev = 1",
        "fresh = True  # H is diag(tilt)",
        "while nfev < maxfev:",
        *("    " + line for line in [
            *lines("v{k} = x{k} - l{k}"),
            "# w = max |pg_k| and eps = min(1e-3, w), taking the first of equals as max and min do",
            "w = abs(g0 if g0 <= v0 else v0)",
            *(line for k in ks[1:] for line in (f"p = abs(g{k} if g{k} <= v{k} else v{k})", "w = p if p > w else w")),
            "if w == 0.0:",
            "    break",
            "eps = w if w < 1e-3 else 1e-3",
            *lines("m{k} = v{k} > eps or g{k} <= 0.0"),
            "ok = False",
            "if not fresh:",
            *lines("    q{k} = g{k} if m{k} else 0.0"),
            *(f"    e{i} = -{dot(f'h{i}_{{k}} * q{{k}}')} if m{i} else -g{i} * t{i}" for i in ks),
            f"    if {dot('g{k} * e{k}')} < 0.0:",
            *("        " + line for line in search),
            "    fresh = not ok",
            "if not ok:",
            *lines("    e{k} = -g{k} * t{k}"),
            *("    " + line for line in search),
            "    if not ok:",
            "        break",
            f"{each('r{k}')}, = gu",
            *lines("s{k} = u{k} - x{k} if m{k} else 0.0"),
            *lines("y{k} = r{k} - g{k} if m{k} else 0.0"),
            f"{each('x{k}')}, {each('g{k}')} = {each('u{k}')}, {each('r{k}')}",
            "f, grad = fu, gu",
            f"sy = {dot('s{k} * y{k}')}",
            "if sy <= 0.0:",
            "    continue",
            "if fresh:",
            f"    scale = sy / {dot('y{k} * y{k}')}",
            *("    " + line for line in fresh_h),
            "    fresh = False",
            "# H <- (I - rho s y')H(I - rho y s') + rho s s', rho = 1/s'y",
            "rho = 1.0 / sy",
            *(f"z{i} = {dot(f'h{i}_{{k}} * y{{k}}')}" for i in ks),
            f"c = rho * rho * {dot('y{k} * z{k}')} + rho",
            *update,
        ]),
        f"return [{each('x{k}')}], f, grad, nfev",
    ]
    return "\n    ".join(["def quasi_newton(fg, x, lower, maxfev):", *body]) + "\n"


@cache
def _qn_code(n):
    """The solver of ``_qn_source`` for n coordinates, compiled once per n
    and shared by every solve of that n, with 1.05^k bound as t{k}."""
    scope = {"fsum": math.fsum, "inf": math.inf, **{f"t{k}": 1.05**k for k in range(n)}}
    exec(compile(_qn_source(n), f"<quasi-newton, n={n}>", "exec"), scope)
    return scope["quasi_newton"]


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
    first step leave a symmetry axis of g: without it a start on the axis
    (the diagonal start of a reversal-symmetric D-vine) keeps every iterate
    on the axis, where the solve can stop at a saddle.  The solve ends at
    w = 0, when a steepest-descent step finds no Armijo point, once the
    decrease -grad'(x_t - x) a trial step predicts is at most 1e-15 |f(x)|
    (rounding level), or after maxfev calls of fg.  Returns the last point,
    its value and gradient, and the number of calls (inf, None and 0 if
    maxfev < 1).

    The solve runs as straight-line code for len(x) coordinates
    (``_qn_source``), compiled once per dimension (``_qn_code``).  Each dot
    product is a ``math.fsum``, exactly rounded, so no result depends on the
    Python version's ``sum``."""
    return _qn_code(len(x))(fg, x, lower, maxfev)


def _panels(f, lo, hi, n_starts, best_t, best_val):
    """Bounded Brent searches (``_fminbound``) of f over [lo, lo + hi]: the
    far end, then one per panel between n_starts + 1 log-spaced seeds, from
    the best point and value so far.  f(t) >= t to a few ulps (g(x) >=
    max(x)), so the search stops at a panel whose lower end reaches the best
    value.  Returns the best point, its value, the number of panels
    searched and the evaluation count."""
    seeds = [lo + s for s in [0.0, *np.geomspace(hi * 1e-6, hi, int(n_starts)).tolist()]]
    v_hi = f(lo + hi)
    n_evals, n_panels = 1, 0
    if v_hi < best_val:
        best_t, best_val = lo + hi, v_hi
    for a, b in zip(seeds[:-1], seeds[1:]):
        if a >= best_val:
            break
        t, val, nfev = _fminbound(f, a, b, 1e-10)
        n_evals += nfev
        n_panels += 1
        if val < best_val:
            best_t, best_val = t, val
    return best_t, best_val, n_panels, n_evals


def _middle_search(plan):
    """The box minimum of a trivariate vine gauge without a gradient (an EV
    edge), as a search in x2 alone: over x1 or x3 with x2 held, the closed
    minimum at x2 = l2; over two or three free coordinates, the least such
    minimum over x2.

    The plan is g = x2 + G(p, q), p = g12(x1, x2) - x2, q = g23(x2, x3) - x2.
    At fixed x2 the top step's side rule splits each outer coordinate's
    range at x2 into pieces where the form of G is fixed and the margin
    monotone (an IEV margin rises with x1, an EV one is linear either side
    of x1 = x2), so it spans the interval between its end values.  G is
    nondecreasing in p and q, its minimum at the lower ends, or the bev
    form, at least max(p, q) with equality on p = q: its minimum is
    max(p_lo, q_lo) where the intervals meet, else at the corner nearest
    the diagonal.  The tree-1 gauges and the forms of G are the plan's steps
    bound as 2-d plans (``_EV_FORMS``).  An outer coordinate is capped at its
    bound plus hi of ``_panels``, beyond which g exceeds g(lower).

    search(xs, free, corner_val, n_starts) returns the argmin, the number
    of panels searched and the count of such minima taken.  A held x2
    takes one, with no panels.  A free x2 runs the Brent
    panels after the candidates x2 = l2, l1, l3, as minima sit on kinks,
    then bisects on the sign of a central difference in [x2 - w, x2 + w],
    w = 1e-6 max(x2, lower), closing in on a kink the Brent stop leaves up
    to 3e-9 above.  The outer argmin is a piece's end, or the margin's
    inverse by bisection on the bev diagonal.
    """
    g12, g23 = (_bind_plan(2, [(2, 0, 1, None, m, sides, t)], SCALAR) for *_, m, sides, t in plan[:2])
    *_, m, sides, t = plan[2]
    forms = {(lp, lq): _bind_plan(2, [(2, 0, 1, None, m, ((0, 0, lp), (0, 0, lq)) if lp or lq else None, t)],
                                  SCALAR)
             for lp in (False, True) for lq in (False, True) if t is not None or not (lp or lq)}
    sp, sq = sides or ((0, 0, False), (0, 0, False))

    def pieces(margin, a, b, side, v):
        # (lower, lo, x at lo, hi, x at hi) on each piece of [a, b] where the
        # side (i, j, flip), lower where (x_i < x_j) != flip, is fixed
        i, j, flip = side
        spans = [(flip, a, b)] if i == j else \
            [(not flip, a, min(b, v))] * (a < v) + [(flip, max(a, v), b)] * (b >= v)
        out = []
        for lower, x0, x1 in spans:
            e0, e1 = margin(x0), margin(x1)
            out.append((lower, e0, x0, e1, x1) if e0 <= e1 else (lower, e1, x1, e0, x0))
        return out

    def at(v, b1, b3):
        # the least g at x2 = v, with the pieces and the margins that reach it
        best = (math.inf,)
        for P in pieces(lambda x: g12(x, v) - v, *b1, sp, v):
            for Q in pieces(lambda x: g23(v, x) - v, *b3, sq, v):
                (lp, p_lo, _, p_hi, _), (lq, q_lo, _, q_hi, _) = P, Q
                if not (lp and lq):
                    p, q = p_lo, q_lo
                elif p_lo <= q_hi and q_lo <= p_hi:
                    p = q = max(p_lo, q_lo)
                else:
                    p, q = (p_hi, q_lo) if p_hi < q_lo else (p_lo, q_hi)
                val = v + forms[lp, lq](p, q)
                if val < best[0]:
                    best = (val, P, p, Q, q)
        return best

    def invert(margin, piece, target):
        # the coordinate where the margin, monotone on the piece, reads target
        _, lo, x_lo, hi, x_hi = piece
        if not lo < target < hi:
            return x_lo if target <= lo else x_hi
        for _ in range(200):
            if (mid := 0.5 * (x_lo + x_hi)) in (x_lo, x_hi):
                break
            x_lo, x_hi = (mid, x_hi) if margin(mid) < target else (x_lo, mid)
        return x_hi

    def search(xs, free, corner_val, n_starts):
        (l1, l2, l3), m = xs, max(xs)
        hi = max(10.0 * m, 1.05 * corner_val)
        b1, b3 = (l1, l1 + hi if 0 in free else l1), (l3, l3 + hi if 2 in free else l3)
        v, n_panels, n = l2, 0, 1
        if 1 in free:
            def phi(u):
                return at(u, b1, b3)[0]

            candidates = sorted({u for u in (l1, l2, l3) if u >= l2})
            best_val, v = min((phi(u), u) for u in candidates)
            v, best_val, n_panels, nfev = _panels(phi, l2, hi, n_starts, v, best_val)
            n += len(candidates) + nfev
            w = 1e-6 * max(v, m)
            a, b = max(l2, v - w), v + w
            for _ in range(100):
                if b - a <= 4e-16 * b:
                    break
                c, h = 0.5 * (a + b), (b - a) / 64.0
                left, right = phi(c - h), phi(c + h)
                n += 2
                for u, val in ((c - h, left), (c + h, right)):
                    if val < best_val:
                        v, best_val = u, val
                a, b = (c - h if right <= left else a), (c + h if left <= right else b)
        _, P, p, Q, q = at(v, b1, b3)
        return [invert(lambda x: g12(x, v) - v, P, p), v, invert(lambda x: g23(v, x) - v, Q, q)], n_panels, n

    return search


class _BoxMinimum(NamedTuple):
    """What ``_minimise_gauge`` found: the best value, its argmin, the
    partials in the free coordinates there after a quasi-Newton solve (else
    None), g(lower), the number of starts or panels run, the counts of
    value-only and value-and-gradient evaluations, and the solver."""

    value: float
    x: np.ndarray
    gradient: list | None
    corner_value: float
    n_runs: int
    n_evals: int
    n_gradient_evals: int
    solver: str


def _minimise_gauge(g: Gauge, lower, free, n_starts: int = 8, maxfev: int = 400) -> _BoxMinimum:
    """Minimise g over the box x >= lower, moving only the coordinates in free.

    lower needs a positive coordinate.  The other coordinates stay at lower,
    and the corner x = lower is always a candidate.  One free coordinate
    runs the Brent panels of ``_panels`` on [lo, lo + hi], where
    hi = max(10 m, 1.05 g(lower)) and m = max(lower): the containment
    g(x) >= max(x) puts every minimiser below g(lower).  The exception is
    x1 or x3 of a gauge with a middle search (a trivariate vine with an EV
    edge): with x2 held, ``_middle_search`` takes the minimum over the outer
    coordinate in closed form, at a piece end or by one bisection of a
    monotone margin, where the panels' Brent stop can sit up to 5e-8 above
    a kink.  x2 alone keeps the panels.  Two or more free
    coordinates take one route by the gauge: with a gradient evaluator, one
    projected quasi-Newton solve (``_quasi_newton``) per start lower + s m,
    for n_starts log-spaced s in [0.05, 20] and a near-corner s = 1e-8,
    each within maxfev evaluations, the best of which, with its gradient,
    is the result; on a trivariate vine without one, the search in x2 alone
    (``_middle_search``); and on a 2-d gauge without one, the better of the
    one-free searches on the faces x_c = lower_c > 0, since by homogeneity
    g(x) = s g(x/s) > g(x/s) for s = min over those c of x_c/lower_c > 1.
    Any other gauge, of three or more dimensions with neither a gradient nor
    a trivariate plan, raises UnsupportedCombinationError.  The solvers run
    on Python floats, so the evaluators get floats straight from them.
    """
    lower = np.asarray(lower, dtype=float)
    free = list(free)
    scalar = g.scalar_evaluator()
    gradient = g.gradient_evaluator() if len(free) > 1 else None
    xs = lower.tolist()
    m = max(xs)
    if len(free) > 1 and gradient is None and g._middle is None:
        if g.dim != 2:
            raise UnsupportedCombinationError(f"no box minimum of {g.tag} over {len(free)} free coordinates: "
                                              "it needs a gradient or a trivariate vine plan")
        faces = [_minimise_gauge(g, lower, [1 - c], n_starts) for c in (0, 1) if xs[c] > 0.0]
        best = min(faces, key=lambda face: face.value)  # the first on a tie
        return best._replace(n_runs=sum(face.n_runs for face in faces),
                             n_evals=sum(face.n_evals for face in faces), solver="face-search")

    if gradient is None:
        corner_val, corner_grad, n_evals, n_grad = float(scalar(*xs)), None, 1, 0
    else:
        corner_val, grad = gradient(*xs)
        corner_grad, n_evals, n_grad = [grad[k] for k in free], 0, 1

    if len(free) == 1 and (g._middle is None or free == [1]):
        j = free[0]

        def f(t):
            xs[j] = t
            return float(scalar(*xs))

        best_x = lower.copy()
        best_x[j], best_val, n_runs, nfev = _panels(f, xs[j], max(10.0 * m, 1.05 * corner_val), n_starts, xs[j],
                                                  corner_val)
        return _BoxMinimum(best_val, best_x, None, corner_val, n_runs, n_evals + nfev, n_grad, "brent")

    if gradient is None:
        x, n_runs, nfev = g._middle()(xs, free, corner_val, n_starts)
        val = float(scalar(*x))
        n_evals += nfev + 1
        best_x = np.array(x) if val < corner_val else lower.copy()
        return _BoxMinimum(min(val, corner_val), best_x, None, corner_val, n_runs, n_evals, n_grad, "middle-search")

    if len(free) == len(xs):
        def fg(t):
            return gradient(*t)
    else:
        def fg(t):
            for k, v in zip(free, t):
                xs[k] = v
            val, grad = gradient(*xs)
            return val, [grad[k] for k in free]

    lo = [xs[k] for k in free]
    best_val, best_t, best_grad = corner_val, lo, corner_grad
    starts = [*np.geomspace(0.05, 20.0, int(n_starts)).tolist(), 1e-8]
    for s in starts:
        t, val, grad, nfev = _quasi_newton(fg, [a + s * m for a in lo], lo, maxfev)
        n_grad += nfev
        if val < best_val:
            best_val, best_t, best_grad = val, t, grad
    best_x = lower.copy()
    best_x[free] = best_t
    return _BoxMinimum(best_val, best_x, best_grad, corner_val, len(starts), n_evals, n_grad, "quasi-newton")


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
    >= 0 (``_minimise_gauge``), raising UnsupportedCombinationError where
    that has no route for two or more dropped coordinates.  That covers the
    builtins, single labels and two cases the sub-vine route leaves alone:
    - a trivariate vine with an EV edge, whose projection onto a tree-1
      pair need not be that edge's own gauge: for the (EV, IEV, IEV)
      pattern with alpha 0.5 on every edge, the search reads
      g(0.3, 0.9, 0) = 2.1 onto (1, 2), where the bivariate EV gauge of
      edge 12 reads 1.5, so the search keeps the value until the sampler
      settles which is right.  Onto (1, 2) or (2, 3) the one dropped
      coordinate is x3 or x1, whose minimum at the kept x2 is closed
      (``_middle_search``);
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
