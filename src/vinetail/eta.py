"""Coefficients of tail dependence.

eta_C is recovered from a gauge g as

    eta_C = [ min g(x)  over  x_i >= 1 (i in C),  x_i >= 0 (i not in C) ]^-1

which this module evaluates three ways, in order of preference: closed
forms where they exist (bivariate gallery, inverted-logistic trivariate,
the D-/C-vine recursions, the mixed trivariate cases), one-dimensional
root solves for the stationary points with proved unique roots (``_bisect``,
scipy's bisection on Python floats, raising ``ConvergenceError``), and, as
the general fallback, numerical minimisation over that box with the
gauge box minimiser ``gauges._minimise_gauge``: one bound-constrained
Nelder-Mead solve in x per start and a polish of the best point, within a
budget set by the number of starts and not by the number of box faces.
1/g(1, ..., 1) is always a lower bound for eta, with equality exactly when
the minimiser sits at the all-ones point.

For an all-IEV D- or C-vine, ``eta_subvine`` first shrinks the problem to
the smallest sub-vine S that holds C: the margin of a vine on a sub-vine's
nodes is that sub-vine, and the limit set of a margin is the projection of
the joint limit set, so eta_C is eta_C of the marginal vine on S, with
zeros for the dropped coordinates at the minimiser.  S often has two or
three nodes, where the closed forms and root solves above apply.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .copulas import EV, IEV
from .errors import ConvergenceError, DomainError, ParameterError, UnsupportedCombinationError
from .gauges import Gauge, _minimise_gauge, gauge_cvine, gauge_dvine, gauge_trivariate
from .measures import Logistic
from .vines import CVINE, DVINE, TRIVARIATE, VineSpec

__all__ = [
    "EtaResult",
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
    C = tuple(sorted(set(int(c) for c in C)))
    if not C or C[0] < 1 or C[-1] > dim:
        raise DomainError(f"index set must be a subset of 1..{dim}")
    if len(C) < 2:
        raise DomainError("eta is defined for index sets with at least two variables")
    return C


# ---------------------------------------------------------------------------
# generic numeric minimisation
# ---------------------------------------------------------------------------

def eta_numeric(g: Gauge, C=None, n_starts: int = 8, maxfev: int = 400) -> EtaResult:
    """eta_C by bound-constrained multi-start minimisation of the gauge.

    The box x_i >= 1 (i in C), x_i >= 0 (i not in C) has every coordinate
    free, so ``gauges._minimise_gauge`` runs one Nelder-Mead solve directly
    in x per start, with the simplex clipped to the box so that minima on
    its faces (x_c = 1, x_k = 0) are reached exactly.  The starts are
    corner + s for n_starts log-spaced s in [0.05, 20] and a near-corner
    s = 1e-8, where the corner (ones on C, zeros elsewhere) is the lower
    bound and one more candidate.  The best point is polished by restarts
    on fresh simplices with the evaluations the starts left unused, so at
    most (n_starts + 1) * maxfev + 2 evaluations are made in all.  It is
    then rescaled by homogeneity so that its smallest C coordinate is one,
    and the corner is taken when it matches the optimum to rounding.
    """
    d = g.dim
    C = _normalise_labels(C if C is not None else range(1, d + 1), d)
    cons = [c - 1 for c in C]
    corner = np.zeros(d)
    corner[cons] = 1.0

    best_val, best_x, corner_val, runs, n_evals = _minimise_gauge(g, corner, range(d), n_starts, maxfev)
    if not np.isfinite(best_val):
        raise ConvergenceError("no minimisation start produced a finite gauge value",
                               {"C": C, "candidates": len(runs) + 1})

    # homogeneity clean-up: scale so that min over C equals one exactly
    m = float(np.min(best_x[cons]))
    if m > 0 and abs(m - 1.0) > 1e-12:
        best_x = best_x / m
        best_val = float(g.scalar_evaluator()(*best_x.tolist()))  # the evaluator n_gauge_evals counts
        n_evals += 1

    # snap to the corner when the optimum matches it to rounding
    if corner_val <= best_val + 1e-12:
        best_val, best_x = corner_val, corner

    spread = float(np.max(runs) - np.min(runs))
    diagnostics = {
        "n_starts": len(runs),
        "spread": spread,
        "suspicious_landscape": bool(spread > 1e-4),
        "n_gauge_evals": n_evals,
        "best_value": best_val,
    }
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

def _is_logistic(pc):
    return isinstance(pc.measure, Logistic)


def _pair_margin_eta(spec, gauge, i, j, other):
    """eta for a pair directly linked in tree 1 (its copula is the margin)."""
    pc = spec.copula(i, j)
    lower = np.zeros(3)
    lower[[i - 1, j - 1]] = 1.0
    if pc.family == EV:
        eta = 1.0
    else:
        eta = 1.0 / float(pc.measure.V(1.0, 1.0))
    x = _minimise_gauge(gauge, lower, [other - 1])[1]
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
    """
    if spec.d != 3:
        raise UnsupportedCombinationError("eta_mixed_trivariate needs a trivariate vine")
    C = _normalise_labels(C, 3)
    gauge = gauge_trivariate(spec)

    if C in ((1, 2), (2, 3)):
        i, j = C
        return _pair_margin_eta(spec, gauge, i, j, other=({1, 2, 3} - set(C)).pop())

    c12, c23, c13 = spec.copula(1, 2), spec.copula(2, 3), spec.copula(1, 3)
    fams = (c12.family, c23.family, c13.family)

    if fams[0] == IEV and fams[1] == EV:
        res = eta_mixed_trivariate(spec.mirrored(), C)
        return EtaResult(eta=res.eta, argmin=np.asarray(res.argmin)[::-1].copy(),
                         method=res.method, diagnostics=res.diagnostics | {"relabelled": "x1<->x3"})

    all_logistic = all(_is_logistic(pc) for pc in (c12, c23, c13))
    v12_11 = float(c12.measure.V(1.0, 1.0))
    v23_11 = float(c23.measure.V(1.0, 1.0))

    def numeric():
        return eta_numeric(gauge, C)

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
                    lambda t: float(c23.measure.V(1.0, 1.0 / t)) - v12_11,
                    1.0, max(v12_11, 1.0) + 1e-9,
                ) if v12_11 > v23_11 else 1.0
                arg = np.array([1.0, 1.0, x3])
            else:
                x1 = _bisect(
                    lambda t: float(c12.measure.V(1.0 / t, 1.0)) - v23_11,
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

def _eta_vine(spec: VineSpec, build_gauge, name: str) -> float:
    if not spec.all_iev():
        raise UnsupportedCombinationError(f"{name} requires all-IEV edges")
    if not all(_is_logistic(pc) for pc in spec.edges.values()):
        warnings.warn(f"non-logistic IEV edges: {name} falls back to numeric minimisation")
        return eta_numeric(build_gauge(spec)).eta
    return 1.0 / build_gauge(spec)(np.ones(spec.d))


def eta_dvine(spec: VineSpec) -> float:
    """eta_D for an all-IEV D-vine via the nested sub-vine recursion.

    Reciprocals of eta combine exactly like the block gauges evaluated at
    the all-ones point, so this is 1/g(1, ..., 1) through the gauge's own
    evaluation plan.  Derived for inverted-logistic components; other
    all-IEV measures fall back to numeric minimisation of the recursive
    gauge (with a warning).
    """
    if spec.structure not in (DVINE, TRIVARIATE):
        raise UnsupportedCombinationError("eta_dvine requires a dvine structure")
    return _eta_vine(spec, gauge_dvine, "eta_dvine")


def eta_cvine(spec: VineSpec) -> float:
    """eta_D for an all-IEV C-vine; the C-vine analogue of the D-vine
    recursion, over the sub-vines {1..k} and {1..k-1, m}."""
    if spec.structure != CVINE:
        raise UnsupportedCombinationError("eta_cvine requires a cvine structure")
    return _eta_vine(spec, gauge_cvine, "eta_cvine")


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

def eta_subvine(spec: VineSpec, C) -> EtaResult:
    """eta_C for an all-IEV D- or C-vine, solved on the smallest sub-vine
    S that holds C.

    The margin of a vine on S is the sub-vine on S, and the limit set of a
    margin is the projection of the joint one, so eta_C is the marginal's
    eta over the relabelled C.  It is solved by the route the marginal has:
    1/V(1, 1) of its one edge on two nodes, ``eta_mixed_trivariate`` on a
    three-node D-vine block, and ``eta_numeric`` on the marginal's gauge
    otherwise, in fewer dimensions; when S is the whole vine that is
    ``eta_numeric`` on the vine's gauge, as if called directly.  The closed
    recursion is not used even where S = C, because 1/g(1, ..., 1) can
    understate eta for unequal parameters.

    The argmin takes zeros on the dropped coordinates: a plan step that
    meets a zero margin takes V(x, inf) = 1/x, so g(x_S, 0) = g_S(x_S).  One
    evaluation of the full gauge certifies that; should |g(argmin) eta - 1|
    exceed 1e-9, the result is ``eta_numeric`` on the full gauge instead,
    with ``fallback_reason`` in the diagnostics.  The diagnostics name S,
    in the vine's labels, as ``marginal``.
    """
    build = gauge_cvine if spec.structure == CVINE else gauge_dvine
    g = build(spec)
    C = _normalise_labels(C, spec.d)
    S = spec.hull(C)
    if len(S) == spec.d:
        return eta_numeric(g, C)
    margin = spec.marginal(S)
    C_S = [S.index(c) + 1 for c in C]
    if len(S) == 2:
        eta = 1.0 / float(margin.copula(1, 2).measure.V(1.0, 1.0))
        res = EtaResult(eta=eta, argmin=np.ones(2), method=CLOSED)
    elif len(S) == 3 and spec.structure != CVINE:
        res = eta_mixed_trivariate(margin, C_S)
    else:
        res = eta_numeric(build(margin), C_S)
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
