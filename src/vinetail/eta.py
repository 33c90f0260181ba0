"""Coefficients of tail dependence.

eta_C is recovered from a gauge g as

    eta_C = [ min g(x)  over  x_i >= 1 (i in C),  x_i >= 0 (i not in C) ]^-1

which this module evaluates three ways, in order of preference: closed
forms where they exist (bivariate gallery, inverted-logistic trivariate,
the D-/C-vine recursions, the mixed trivariate cases), one-dimensional
root solves for the stationary points with proved unique roots (``_bisect``,
scipy's bisection on Python floats, raising ``ConvergenceError``), and, as
the general fallback, numerical minimisation over that box with the
gauge box minimiser ``gauges._minimise_gauge``: projected quasi-Newton
solves on the gauges with a gradient (every all-IEV vine), whose gradient
gives the KKT residual of the result, and bounded Brent searches on the
others, in x2 alone on a trivariate vine or on the faces of a 2-d gauge.
1/g(1, ..., 1) is always a lower bound for eta, with equality exactly when
the minimiser sits at the all-ones point.  For the D-/C-vine recursions,
which return that value, the gradient at the all-ones point tells the two
apart where a partial is negative (``eta_subvine`` over every variable).

``eta_vine`` is the entry point for a vine spec: it routes each spec to
the solvers below, or a forced numeric query to ``eta_numeric``.

For an all-IEV D- or C-vine, ``eta_subvine`` first shrinks the problem to
the smallest sub-vine S that holds C: the margin of a vine on a sub-vine's
nodes is that sub-vine, and the limit set of a margin is the projection of
the joint limit set, so eta_C is eta_C of the marginal vine on S, with
zeros for the dropped coordinates at the minimiser.  S often has two or
three nodes, where the closed forms and root solves above apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .copulas import EV, IEV
from .errors import ConvergenceError, DomainError, ParameterError, UnsupportedCombinationError
from .gauges import Gauge, _compile_vine, _minimise_gauge, _projected_gradient, gauge_vine
from .measures import Logistic
from .vines import CVINE, DVINE, TRIVARIATE, VineSpec, index_set

__all__ = [
    "EtaResult",
    "eta_vine",
    "eta_numeric",
    "eta_trivariate_ilog_closed",
    "eta13_trivariate_ilog",
    "eta_mixed_trivariate",
    "eta_dvine",
    "eta_cvine",
    "eta_dvine_ilog_closed",
    "eta_subvine",
]

CLOSED = "closed"
ROOT = "root"
NUMERIC = "numeric"

_ROOT_LO = 1e-12
_ROOT_HI = 1.0 - 1e-12
_ROOT_XTOL = 1e-12
_ROOT_RTOL = 4 * 2.0**-52  # 4 eps, the smallest relative tolerance scipy allows
_MARGIN_GUARD = 1e-9  # |g(argmin) eta - 1| on the full gauge that certifies a sub-vine solve


def _bisect(f, a, b, xtol=_ROOT_XTOL, maxiter=200):
    """Root of f on [a, b] by bisection on Python floats: scipy's
    ``optimize.bisect`` step for step, with its relative tolerance 4 eps.

    Raises ConvergenceError, with the bracket and the values seen, where
    scipy raises ValueError (no sign change, or a NaN value) or RuntimeError
    (no convergence within maxiter halvings).
    """
    fa, fb = f(a), f(b)
    if not fa * fb <= 0.0:  # also true when either value is NaN
        raise ConvergenceError("bisection needs f(a) and f(b) of opposite signs",
                               {"a": a, "b": b, "f(a)": fa, "f(b)": fb})
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    x, dm = a, b - a
    for _ in range(maxiter):
        dm *= 0.5
        xm = x + dm
        fm = f(xm)
        if fm != fm:
            raise ConvergenceError("bisection met a NaN value", {"a": a, "b": b, "x": xm})
        if fm * fa >= 0.0:
            x = xm
        if fm == 0.0 or abs(dm) < xtol + _ROOT_RTOL * abs(xm):
            return xm
    raise ConvergenceError(f"bisection did not converge in {maxiter} halvings",
                           {"a": a, "b": b, "x": x, "step": dm, "maxiter": maxiter})


@dataclass(frozen=True)
class EtaResult:
    """A coefficient of tail dependence with its minimiser and provenance."""

    eta: float
    argmin: np.ndarray
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0 + 1e-9):
            raise DomainError(f"eta must lie in (0, 1], got {self.eta}")


def _normalise_labels(C, dim):
    C = index_set(C, dim)
    if len(C) < 2:
        raise DomainError("eta is defined for index sets with at least two variables")
    return C


# ---------------------------------------------------------------------------
# generic numeric minimisation
# ---------------------------------------------------------------------------

def _kkt_residual(scalar, x, fx, grad, lower):
    """The largest projected partial of g at x on the box x >= lower
    (``gauges._projected_gradient``), which vanishes at a KKT point, and the
    number of value evaluations it took.  At a kink on a bound the gradient
    dialect can give a partial of the wrong sign, so the negative partial of
    a coordinate at its bound counts only when the probe
    g(x + 1e-6 max(x) e_k) reads below fx = g(x)."""
    h = 1e-6 * max(x)
    residual, n_probes = 0.0, 0
    for k, (v, lo, pk) in enumerate(zip(x, lower, _projected_gradient(x, grad, lower))):
        if pk < 0.0 and v == lo:
            n_probes += 1
            if not scalar(*x[:k], v + h, *x[k + 1:]) < fx:
                continue
        residual = max(residual, abs(pk))
    return residual, n_probes


def eta_numeric(g: Gauge, C=None, n_starts: int = 8, maxfev: int = 400) -> EtaResult:
    """eta_C by bound-constrained minimisation of the gauge.

    The box x_i >= 1 (i in C), x_i >= 0 (i not in C) has every coordinate
    free, and ``gauges._minimise_gauge`` picks the solver by the gauge:
    quasi-Newton solves directly in x with a gradient (every all-IEV vine),
    the search in x2 alone on a trivariate vine with an EV edge, the face
    searches x_c = 1 on a 2-d gauge, and UnsupportedCombinationError on any
    other (a ``gauge_project`` result of three or more dimensions).  The
    corner (ones on C, zeros elsewhere) is one more candidate, taken when it
    matches the optimum to rounding; else the best point is rescaled by
    homogeneity so that its smallest C coordinate is one.  The quasi-Newton
    solves make at most (n_starts + 1) * maxfev + 2 evaluations, value-only
    and value-and-gradient together, and up to d probes of the KKT
    residual; a Brent search at most 500 per panel and 3 more, the x2
    search up to 205 more again, and the face search two Brent searches.

    The diagnostics give ``local_solver`` ("quasi-newton", "middle-search"
    or "face-search"), the starts or panels run as ``n_starts``, and the
    counts ``n_gauge_evals`` (value only; a value of the x2 search counts
    as one) and ``n_gradient_evals``.
    With a gradient, ``kkt_residual`` is the largest projected partial at
    the argmin (``_kkt_residual``), zero at a KKT point of the box, and
    ``suspicious_landscape`` flags one above 1e-6.
    """
    d = g.dim
    C = _normalise_labels(C if C is not None else range(1, d + 1), d)
    cons = [c - 1 for c in C]
    corner = np.zeros(d)
    corner[cons] = 1.0

    found = _minimise_gauge(g, corner, range(d), n_starts, maxfev)
    best_val, best_x, grad = found.value, found.x, found.gradient
    n_evals, n_grad = found.n_evals, found.n_gradient_evals
    if not np.isfinite(best_val):
        raise ConvergenceError("no minimisation start produced a finite gauge value",
                               {"C": C, "candidates": found.n_runs + 1})

    # homogeneity clean-up: take the corner when the optimum matches it to
    # rounding (g(x/m) = g(x)/m), else scale so that min over C is one exactly
    scalar, gradient = g.scalar_evaluator(), g.gradient_evaluator()
    m = float(np.min(best_x[cons]))
    snap = found.corner_value <= best_val / m + 1e-12 and not np.array_equal(best_x, corner)
    if snap or abs(m - 1.0) > 1e-12:
        best_x = corner if snap else best_x / m
        if gradient is not None:
            best_val, grad = gradient(*best_x.tolist())
            n_grad += 1
        elif snap:
            best_val = found.corner_value
        else:
            best_val = float(scalar(*best_x.tolist()))  # the evaluator n_gauge_evals counts
            n_evals += 1

    diagnostics = {
        "n_starts": found.n_runs,
        "local_solver": found.solver,
        "n_gauge_evals": n_evals,
        "n_gradient_evals": n_grad,
        "best_value": best_val,
    }
    if gradient is not None:
        kkt, n_probes = _kkt_residual(scalar, best_x.tolist(), best_val, grad, corner.tolist())
        diagnostics["n_gauge_evals"] += n_probes
        diagnostics |= {"kkt_residual": kkt, "suspicious_landscape": bool(kkt > 1e-6)}
    return EtaResult(eta=1.0 / best_val, argmin=best_x, method=NUMERIC, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# inverted-logistic trivariate closed forms and root solves
# ---------------------------------------------------------------------------

def _check_ilog_param(name, a, allow_one=False):
    a = float(a)
    hi_ok = a <= 1.0 if allow_one else a < 1.0
    if not (0.0 < a and hi_ok):
        rng = "(0, 1]" if allow_one else "(0, 1)"
        raise ParameterError(f"{name} must lie in {rng}, got {a}")
    return a


def eta_trivariate_ilog_closed(alpha: float, beta: float, gamma: float) -> float:
    """eta_{123} for the all inverted-logistic trivariate vine.

    The gauge minimum over min(x) >= 1 sits at the all-ones point, giving
    [1 + {(2^a - 1)^(1/g) + (2^b - 1)^(1/g)}^g]^-1.
    """
    a = _check_ilog_param("alpha", alpha, allow_one=True)
    b = _check_ilog_param("beta", beta, allow_one=True)
    c = _check_ilog_param("gamma", gamma, allow_one=True)
    return 1.0 / (1.0 + ((2.0**a - 1.0) ** (1.0 / c) + (2.0**b - 1.0) ** (1.0 / c)) ** c)


def _ilog_f(v, a):
    """(1 + v^(1/a))^a - v: V(1, 1/v) - v, a tree-1 term of g(1, v, 1)."""
    return (1.0 + v ** (1.0 / a)) ** a - v


def _ilog_df(v, a):
    """d/dv of ``_ilog_f``, in the form v^((1-a)/a) (1 + v^(1/a))^(a-1) - 1 of
    (1 + v^(-1/a))^(a-1) - 1 that cannot overflow as v -> 0."""
    return v ** ((1.0 - a) / a) * (1.0 + v ** (1.0 / a)) ** (a - 1.0) - 1.0


def _ilog_g1v1(alpha, beta, gamma, v):
    f1, f2 = _ilog_f(v, alpha), _ilog_f(v, beta)
    return v + (f1 ** (1.0 / gamma) + f2 ** (1.0 / gamma)) ** gamma


def _ilog_g1v1_deriv(alpha, beta, gamma, v):
    f1, f2 = _ilog_f(v, alpha), _ilog_f(v, beta)
    s = f1 ** (1.0 / gamma) + f2 ** (1.0 / gamma)
    return 1.0 + s ** (gamma - 1.0) * (f1 ** (1.0 / gamma - 1.0) * _ilog_df(v, alpha)
                                       + f2 ** (1.0 / gamma - 1.0) * _ilog_df(v, beta))


def _stationary_v(deriv):
    """The minimiser over v in [0, 1] of a function with derivative deriv and
    at most one stationary point, a minimum, in (0, 1): the root of deriv by
    bisection, or the end of [0, 1] where deriv keeps one sign throughout,
    0 when it is positive and 1 when it is negative."""
    if deriv(_ROOT_LO) > 0.0:
        return 0.0
    if deriv(_ROOT_HI) < 0.0:
        return 1.0
    return _bisect(deriv, _ROOT_LO, _ROOT_HI)


def eta13_trivariate_ilog(alpha: float, beta: float, gamma: float, force_root: bool = False) -> EtaResult:
    """eta_{13} for the all inverted-logistic trivariate vine.

    Minimises g(1, v, 1) over the middle coordinate: the stationarity
    equation has at most one root in (0, 1), found by bisection; without
    one the derivative is positive and the minimum sits at v = 0, where
    eta = 2^-gamma.  For alpha = beta the root and the resulting eta have
    closed forms, used unless force_root is set.
    """
    a = _check_ilog_param("alpha", alpha)
    b = _check_ilog_param("beta", beta)
    c = _check_ilog_param("gamma", gamma)

    if a == b and not force_root:
        base = (1.0 - 2.0 ** (-c)) ** (-1.0 / (1.0 - a))
        v = (base - 1.0) ** (-a)
        eta = (base - 1.0) ** a / (1.0 - 2.0**c + 2.0**c * (1.0 - 2.0 ** (-c)) ** (-a / (1.0 - a)))
        return EtaResult(eta=eta, argmin=np.array([1.0, v, 1.0]), method=CLOSED,
                         diagnostics={"v": v})

    v = _stationary_v(lambda t: _ilog_g1v1_deriv(a, b, c, t))
    eta = 1.0 / _ilog_g1v1(a, b, c, v)
    return EtaResult(eta=eta, argmin=np.array([1.0, v, 1.0]), method=ROOT,
                     diagnostics={"v": v})


# ---------------------------------------------------------------------------
# mixed EV / inverted-EV trivariate cases
# ---------------------------------------------------------------------------

def _pair_margin_eta(spec, gauge, i, j, other):
    """eta for a pair directly linked in tree 1 (its copula is the margin).

    The argmin is the corner x_other = 0 when g there is at most
    (1 + 1e-12)/eta, the rounding level at which ``eta_numeric`` snaps to
    its corner, and the box minimum over x_other otherwise."""
    pc = spec.copula(i, j)
    lower = np.zeros(3)
    lower[[i - 1, j - 1]] = 1.0
    if pc.family == EV:
        eta = 1.0
    else:
        eta = 1.0 / pc.measure.V(1.0, 1.0)
    if gauge.scalar_evaluator()(*lower.tolist()) <= (1.0 + 1e-12) / eta:
        x = lower
    else:
        x = _minimise_gauge(gauge, lower, [other - 1]).x
    return EtaResult(eta=eta, argmin=x, method=CLOSED, diagnostics={"pair": (i, j)})


def _eta13_eii_root(alpha, beta, gamma):
    """Minimiser of g(1, v, 1) over v in [0, 1] for the (EV, IEV, IEV)
    logistic case, where the EV tree-1 term is (1 - v)/alpha."""

    def deriv(v):
        A = (1.0 - v) / alpha
        B = _ilog_f(v, beta)
        s = A ** (1.0 / gamma) + B ** (1.0 / gamma)
        return 1.0 + s ** (gamma - 1.0) * (
            -(alpha ** (-1.0 / gamma)) * (1.0 - v) ** (1.0 / gamma - 1.0)
            + B ** (1.0 / gamma - 1.0) * _ilog_df(v, beta)
        )

    v = _stationary_v(deriv)
    A = (1.0 - v) / alpha
    B = _ilog_f(v, beta)
    g = v + (A ** (1.0 / gamma) + B ** (1.0 / gamma)) ** gamma
    return 1.0 / g, v


def _eta13_eie_root(alpha, beta):
    """Root of (1 + v^(1/b))^b - (1 - v)/a - v on (0, 1)."""

    def f(v):
        return (1.0 + v ** (1.0 / beta)) ** beta - (1.0 - v) / alpha - v

    v = _bisect(f, _ROOT_LO, _ROOT_HI)
    return (1.0 + v ** (1.0 / beta)) ** (-beta), v


def eta_mixed_trivariate(spec: VineSpec, C) -> EtaResult:
    """eta_C for a trivariate vine of EV / inverted-EV components.

    Dispatches to the derived closed form or root-solved value for the
    matched family pattern; parameter combinations without a derived result
    fall back to numeric minimisation of the analytic gauge, flagged by
    method = "numeric".  Patterns with the families of edges 12 and 23
    exchanged are handled by the x1 <-> x3 relabelling.

    Only the two routes that read the gauge build it: a tree-1 pair and
    the numeric fallback.  The others compile its plan alone
    (``gauges._compile_vine``), so a pattern whose gauge cannot be built
    raises UnsupportedCombinationError on every route.
    """
    if not spec.is_trivariate():
        raise UnsupportedCombinationError("eta_mixed_trivariate needs a trivariate vine with edges 12, 23, 13|2")
    C = _normalise_labels(C, 3)

    if C in ((1, 2), (2, 3)):
        i, j = C
        return _pair_margin_eta(spec, gauge_vine(spec), i, j, other=({1, 2, 3} - set(C)).pop())

    c12, c23, c13 = spec.copula(1, 2), spec.copula(2, 3), spec.copula(1, 3)
    fams = (c12.family, c23.family, c13.family)

    if fams[0] == IEV and fams[1] == EV:
        res = eta_mixed_trivariate(spec.mirrored(), C)
        return EtaResult(eta=res.eta, argmin=np.asarray(res.argmin)[::-1].copy(),
                         method=res.method, diagnostics=res.diagnostics | {"relabelled": "x1<->x3"})

    _compile_vine(spec)  # raises where the gauge cannot be built
    all_logistic = all(isinstance(pc.measure, Logistic) for pc in (c12, c23, c13))
    v12_11 = c12.measure.V(1.0, 1.0)
    v23_11 = c23.measure.V(1.0, 1.0)

    def numeric():
        return eta_numeric(gauge_vine(spec), C)

    if fams == (IEV, IEV, IEV):
        if not all_logistic:
            return numeric()
        a, b, g_ = c12.measure.alpha, c23.measure.alpha, c13.measure.alpha
        if C == (1, 2, 3):
            eta = eta_trivariate_ilog_closed(a, b, g_)
            return EtaResult(eta=eta, argmin=np.ones(3), method=CLOSED, diagnostics={})
        return eta13_trivariate_ilog(a, b, g_)

    if fams == (IEV, IEV, EV):
        if C == (1, 2, 3):
            eta = min(1.0 / v12_11, 1.0 / v23_11)
            # the minimum sits where the smaller tree-1 term catches the larger
            if v12_11 >= v23_11:
                x3 = _bisect(
                    lambda t: c23.measure.V(1.0, 1.0 / t) - v12_11,
                    1.0, max(v12_11, 1.0) + 1e-9,
                ) if v12_11 > v23_11 else 1.0
                arg = np.array([1.0, 1.0, x3])
            else:
                x1 = _bisect(
                    lambda t: c12.measure.V(1.0 / t, 1.0) - v23_11,
                    1.0, max(v23_11, 1.0) + 1e-9,
                )
                arg = np.array([x1, 1.0, 1.0])
            return EtaResult(eta=eta, argmin=arg, method=CLOSED, diagnostics={})
        # g(1, 0, 1) = 1, the smallest value a gauge can attain on the region
        return EtaResult(eta=1.0, argmin=np.array([1.0, 0.0, 1.0]), method=CLOSED, diagnostics={})

    if fams == (EV, IEV, IEV):
        if C == (1, 2, 3):
            return EtaResult(eta=1.0 / v23_11, argmin=np.ones(3), method=CLOSED, diagnostics={})
        if all_logistic:
            a, b, g_ = c12.measure.alpha, c23.measure.alpha, c13.measure.alpha
            eta, v = _eta13_eii_root(a, b, g_)
            x1 = 1.0  # minimum at x1 = x3 = 1 with x2 = v
            return EtaResult(eta=eta, argmin=np.array([x1, v, 1.0]), method=ROOT,
                             diagnostics={"v": v})
        return numeric()

    if fams == (EV, IEV, EV):
        if not all_logistic:
            return numeric()
        a, b = c12.measure.alpha, c23.measure.alpha
        if C == (1, 2, 3):
            eta = 2.0 ** (-b)
            arg = np.array([a * 2.0**b + 1.0 - a, 1.0, 1.0])
            return EtaResult(eta=eta, argmin=arg, method=CLOSED, diagnostics={})
        eta, v = _eta13_eie_root(a, b)
        x1 = v + a * ((1.0 + v ** (1.0 / b)) ** b - v)
        return EtaResult(eta=eta, argmin=np.array([x1, v, 1.0]), method=ROOT,
                         diagnostics={"v": v})

    if fams in ((EV, EV, IEV), (EV, EV, EV)):
        # g(1,1,1) = 1: asymptotic dependence, every eta_C equals one
        return EtaResult(eta=1.0, argmin=np.ones(3), method=CLOSED, diagnostics={})

    raise UnsupportedCombinationError(f"no mixed-case result for family pattern {fams}")


# ---------------------------------------------------------------------------
# D-vine and C-vine recursions
# ---------------------------------------------------------------------------

def eta_dvine(spec: VineSpec) -> float:
    """eta_D for an all-IEV D-vine: the recursion 1/g(1, ..., 1) through
    the gauge's own plan, where reciprocals of eta combine like the block
    gauges, if the gradient there certifies it, else the numeric minimum
    (``_eta_whole_vine``); unequal parameters can move the minimum."""
    if spec.structure not in (DVINE, TRIVARIATE) or not spec.all_iev():
        raise UnsupportedCombinationError("eta_dvine requires a dvine structure with all-IEV edges")
    return _eta_whole_vine(gauge_vine(spec)).eta


def eta_cvine(spec: VineSpec) -> float:
    """eta_D for an all-IEV C-vine; the C-vine analogue of ``eta_dvine``,
    whose recursion runs over the sub-vines {1..k} and {1..k-1, m}."""
    if spec.structure != CVINE:
        raise UnsupportedCombinationError("eta_cvine requires a cvine structure")
    return _eta_whole_vine(gauge_vine(spec)).eta


def eta_dvine_ilog_closed(alpha: float, d: int) -> float:
    """eta_D for a D-vine of inverted-logistic copulas with equal parameter.

    d = 2 recovers the known bivariate value 2^-alpha; for d >= 3 the
    recursion telescopes into a geometric series with separate odd and even
    forms.
    """
    a = _check_ilog_param("alpha", alpha, allow_one=True)
    d = int(d)
    if d < 2:
        raise ParameterError(f"dimension must be at least 2, got {d}")
    if d == 2:
        return 2.0 ** (-a)
    if a == 1.0:
        return 1.0 / d  # independence edges; the geometric series telescopes to d
    q = 2.0**a - 1.0
    if d % 2 == 1:
        return 1.0 / (1.0 + q * (1.0 - q ** (d - 1)) / (2.0 - 2.0**a))
    return (2.0 - 2.0**a) / (1.0 - q**d)


# ---------------------------------------------------------------------------
# sub-vine margins
# ---------------------------------------------------------------------------

def _eta_whole_vine(g: Gauge) -> EtaResult:
    """eta over every variable of an all-IEV vine: the closed recursion
    1/g(1, ..., 1) when the gradient there certifies it, else
    ``eta_numeric`` with ``fallback_reason`` in the diagnostics.

    The closed value is eta only if the minimum of g over x >= 1 sits at
    the all-ones point.  A partial below -1e-12 there shows a descent
    direction into the box, so the minimum lies elsewhere; with none, the
    all-ones point is a KKT point of the box, and ``kkt_residual`` is the
    largest projected partial.  The gradient dialect's value is the scalar
    one bit for bit, so a certified eta is the recursion's."""
    ones = [1.0] * g.dim
    value, grad = g.gradient_evaluator()(*ones)
    below = [f"x{k + 1}" for k, gk in enumerate(grad) if gk < -1e-12]
    if not below:
        kkt = max(map(abs, _projected_gradient(ones, grad, ones)))
        return EtaResult(eta=1.0 / value, argmin=np.ones(g.dim), method=CLOSED,
                         diagnostics={"kkt_residual": kkt})
    reason = f"g decreases from (1, ..., 1) along {', '.join(below)}: 1/g(1, ..., 1) understates eta"
    res = eta_numeric(g)
    return EtaResult(eta=res.eta, argmin=res.argmin, method=res.method,
                     diagnostics=res.diagnostics | {"fallback_reason": reason})


def eta_subvine(spec: VineSpec, C) -> EtaResult:
    """eta_C for an all-IEV D- or C-vine, solved on the smallest sub-vine
    S that holds C.

    The margin of a vine on S is the sub-vine on S, and the limit set of a
    margin is the projection of the joint one, so eta_C is the marginal's
    eta over the relabelled C.  It is solved by the route the marginal has:
    1/V(1, 1) of its one edge on two nodes, ``eta_mixed_trivariate`` on a
    three-node D-vine block, and ``eta_numeric`` on the marginal's gauge
    otherwise, in fewer dimensions.  When S is the whole vine there is no
    marginal: C of every variable takes the closed recursion
    1/g(1, ..., 1) where the gradient at the all-ones point certifies it
    (``_eta_whole_vine``), and any other C, or an uncertified recursion,
    ``eta_numeric`` on the vine's gauge, as if called directly.

    The argmin takes zeros on the dropped coordinates: a plan step that
    meets a zero margin takes V(x, inf) = 1/x, so g(x_S, 0) = g_S(x_S).  One
    evaluation of the full gauge certifies that; should |g(argmin) eta - 1|
    exceed 1e-9, the result is ``eta_numeric`` on the full gauge instead,
    with ``fallback_reason`` in the diagnostics.  The diagnostics name S,
    in the vine's labels, as ``marginal``.
    """
    if not spec.all_iev():  # gauge_vine also builds the trivariate vine with EV edges
        raise UnsupportedCombinationError("eta_subvine requires every edge to be an inverted extreme value copula")
    g = gauge_vine(spec)
    C = _normalise_labels(C, spec.d)
    S = spec.hull(C)
    if len(S) == spec.d:
        return _eta_whole_vine(g) if len(C) == spec.d else eta_numeric(g, C)
    margin = spec.marginal(S)
    C_S = [S.index(c) + 1 for c in C]
    if len(S) == 2:
        eta = 1.0 / margin.copula(1, 2).measure.V(1.0, 1.0)
        res = EtaResult(eta=eta, argmin=np.ones(2), method=CLOSED)
    elif margin.is_trivariate():
        res = eta_mixed_trivariate(margin, C_S)
    else:
        res = eta_numeric(gauge_vine(margin), C_S)
    argmin = np.zeros(spec.d)
    argmin[[s - 1 for s in S]] = res.argmin
    gap = abs(g(argmin) * res.eta - 1.0)
    if gap <= _MARGIN_GUARD:
        return EtaResult(eta=res.eta, argmin=argmin, method=res.method,
                         diagnostics=res.diagnostics | {"marginal": S})
    full = eta_numeric(g, C)
    reason = f"|g(argmin) eta - 1| = {gap:.3g} on the full gauge for the marginal's argmin"
    return EtaResult(eta=full.eta, argmin=full.argmin, method=full.method,
                     diagnostics=full.diagnostics | {"marginal": S, "fallback_reason": reason})


# ---------------------------------------------------------------------------
# the entry point
# ---------------------------------------------------------------------------

METHODS = ("auto", CLOSED, NUMERIC)  # of eta_vine, and of `vinetail eta --method`


def eta_vine(spec: VineSpec, C=None, method: str = "auto") -> EtaResult:
    """eta_C of a vine spec, over every variable when C is None.

    method "numeric" runs ``eta_numeric`` on ``gauge_vine(spec)``; else the
    trivariate vine takes ``eta_mixed_trivariate`` and any other spec
    ``eta_subvine``, each with its own numeric fallback.  method "closed"
    raises ConvergenceError where that route returns a numeric result."""
    if method not in METHODS:
        raise ParameterError(f"unknown eta method {method!r}; expected one of {list(METHODS)}")
    C = tuple(range(1, spec.d + 1)) if C is None else C
    if method == NUMERIC:
        res = eta_numeric(gauge_vine(spec), C)
    elif spec.is_trivariate():
        res = eta_mixed_trivariate(spec, C)
    else:
        res = eta_subvine(spec, C)
    if method == CLOSED and res.method == NUMERIC:
        raise ConvergenceError("no closed form available for this spec/set combination")
    return res
