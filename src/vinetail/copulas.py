"""Extreme value and inverted extreme value pair copulas on uniform margins.

Both families are driven by an exponent measure V:

    EV:   C(u, v) = exp{-V(-1/ln u, -1/ln v)}
    IEV:  C(u, v) = u + v - 1 + exp{-V(-1/ln(1-u), -1/ln(1-v))}

The h-function is the conditional distribution d C(u, v) / d v, and all four
operations (cdf, h-function, its inverse, density) are evaluated through the
log-scale variables z = -ln u (EV) and x = -ln(1-u) (IEV), which is where the
exponential-margin sample clouds live.  The measure enters through two
hooks.  ``measure._cond_parts`` returns the conditional exponent w, V and
ln(V1 V2 - V12) together: its w is the h-function, and V and ln K give the
density.  ``measure._solve_t`` inverts w in the log-scale coordinate, so
that the inverse stays accurate out to t = 35 and beyond: by default with
safeguarded Newton on s = ln t over that kernel, and for the logistic
measure with Halley steps on one convex equation, one expm1 per step.

The uniform-scale methods validate their inputs and broadcast over numpy
arrays.  ``hfunc_x`` and ``hinv_x`` are the same h-function and inverse on
exponential margins, x = -ln(1 - u) in and out, for the sampling cascade:
they validate nothing and reach any depth of the tail.  On an IEV edge x is
the measure's own coordinate, so the h-function is -w(xu, xv) and the
inverse is ``_solve_t(-xp, xv)``, both exact; an EV edge passes through
z = -ln(1 - e^-x) and back.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateConditionerError, DomainError, ParameterError
from .measures import ExponentMeasure, _maybe_scalar

__all__ = ["PairCopula", "EV", "IEV"]

EV = "ev"
IEV = "iev"

# inputs within this distance of {0, 1} are clamped before log transforms
_EDGE = 1e-15


def _check_unit(name, a, lo_open=False, hi_open=False):
    a = np.asarray(a, dtype=float)
    if np.any(np.isnan(a)):
        raise DomainError(f"{name} must not be NaN")
    lo_bad = a <= 0.0 if lo_open else a < 0.0
    hi_bad = a >= 1.0 if hi_open else a > 1.0
    if np.any(lo_bad) or np.any(hi_bad):
        lo, hi = "(" if lo_open else "[", ")" if hi_open else "]"
        raise DomainError(f"{name} must lie in {lo}0, 1{hi}")
    return a


def _clamped(a):
    return np.clip(a, _EDGE, 1.0 - _EDGE)


_LN2 = float(np.log(2.0))


def _flip(x):
    """-ln(1 - e^-x): the EV coordinate z = -ln u of x = -ln(1 - u), and x
    of z, since the map is its own inverse.  Each branch keeps full relative
    precision on its side of ln 2."""
    with np.errstate(divide="ignore"):  # the limits at 0 and inf
        return np.where(x > _LN2, -np.log1p(-np.exp(-x)), -np.log(-np.expm1(-x)))


class PairCopula:
    """A bivariate EV or IEV copula built from an exponent measure.

    ``hfunc(u, v)`` conditions on the second argument; conditioning on the
    first is available through ``swapped()``, which transposes the measure.
    """

    def __init__(self, family: str, measure: ExponentMeasure):
        family = str(family).lower()
        if family not in (EV, IEV):
            raise ParameterError(f"family must be 'ev' or 'iev', got {family!r}")
        if not isinstance(measure, ExponentMeasure):
            raise ParameterError("measure must be an ExponentMeasure")
        self.family = family
        self.measure = measure
        self._swapped = None

    def __repr__(self):
        return f"PairCopula({self.family!r}, {self.measure!r})"

    def __eq__(self, other):
        return (
            isinstance(other, PairCopula)
            and other.family == self.family
            and other.measure == self.measure
        )

    @property
    def is_ev(self):
        return self.family == EV

    def swapped(self) -> "PairCopula":
        """Copula of (V, U); conditional on the first argument of self."""
        if self._swapped is None:
            self._swapped = PairCopula(self.family, self.measure.transposed())
            self._swapped._swapped = self
        return self._swapped

    # log-scale coordinate of a uniform value
    def _t(self, a):
        if self.is_ev:
            return -np.log(a)
        return -np.log1p(-a)

    def cdf(self, u, v):
        """C(u, v), boundary values honoured exactly."""
        u = _check_unit("u", u)
        v = _check_unit("v", v)
        uc, vc = _clamped(u), _clamped(v)
        tu, tv = self._t(uc), self._t(vc)
        V = self.measure._v(1.0 / tu, 1.0 / tv)
        if self.is_ev:
            inner = np.exp(-V)
        else:
            inner = uc + vc - 1.0 + np.exp(-V)
        out = np.where(u <= 0.0, 0.0, np.where(v <= 0.0, 0.0, inner))
        out = np.where((v >= 1.0) & (u > 0.0), u, out)
        out = np.where((u >= 1.0) & (v > 0.0), v, out)
        return _maybe_scalar(np.clip(out, 0.0, 1.0))

    def hfunc(self, u, v):
        """d C(u, v) / d v: the distribution of U at u given V = v."""
        u = _check_unit("u", u)
        v = _check_unit("v", v)
        if np.any(v <= 0.0) or np.any(v >= 1.0):
            raise DegenerateConditionerError("h-function conditioner must lie strictly inside (0, 1)")
        uc = _clamped(u)
        tu, tv = self._t(uc), self._t(_clamped(v))
        w = self.measure._cond_exponent(tu, tv)
        # EV: h = e^w; inverted EV: h = 1 - e^w, via expm1 so that tiny
        # conditional masses keep full relative precision
        inner = np.exp(w) if self.is_ev else -np.expm1(w)
        out = np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, inner))
        return _maybe_scalar(np.clip(out, 0.0, 1.0))

    def density(self, u, v):
        """Copula density c(u, v) on the open unit square."""
        u = _check_unit("u", u, lo_open=True, hi_open=True)
        v = _check_unit("v", v, lo_open=True, hi_open=True)
        tu, tv = self._t(u), self._t(v)
        _, V, lnK = self.measure._cond_parts(tu, tv)
        # for both families 1/(uv) (EV) and 1/((1-u)(1-v)) (IEV) equal
        # e^(tu+tv); the density is that times e^(-V) K / (tu tv)^2, and a
        # zero K (ln K = -inf) gives a zero density
        return _maybe_scalar(np.exp(tu + tv - V + lnK - 2.0 * np.log(tu) - 2.0 * np.log(tv)))

    def hinv(self, p, v):
        """u with hfunc(u, v) = p, solved on the log scale.

        With w = measure._cond_exponent the h-function is e^w (EV) or
        1 - e^w (IEV), so the root solves w(t, tv) = w* with w* = ln p or
        ln(1 - p) in the log-scale coordinate t of u.  The measure solves
        it, in ``measure._solve_t``: the default is safeguarded Newton in
        s = ln t on the kernel ``_cond_parts``, and ``Logistic`` solves one
        convex equation in y = ln(1 + (t/tv)^(1/alpha)) instead.  Inputs
        are validated once per call; p = 0 and p = 1 map to u = 0 and
        u = 1.
        """
        p = _check_unit("p", p)
        v = _check_unit("v", v)
        if np.any(v <= 0.0) or np.any(v >= 1.0):
            raise DegenerateConditionerError("h-function conditioner must lie strictly inside (0, 1)")
        p_b, v_b = np.broadcast_arrays(p, v)
        u = np.where(p_b >= 1.0, 1.0, 0.0)
        inner = (p_b > 0.0) & (p_b < 1.0)
        if np.any(inner):
            pi = p_b[inner]
            wstar = np.log(pi) if self.is_ev else np.log1p(-pi)
            t = self.measure._solve_t(wstar, self._t(_clamped(v_b[inner])))
            u[inner] = np.exp(-t) if self.is_ev else -np.expm1(-t)
        return _maybe_scalar(u)

    # exponential coordinates: the sampling cascade's entry points

    def hfunc_x(self, xu, xv):
        """-ln(1 - hfunc(u, v)) at x = -ln(1 - u), -ln(1 - v).

        Float arrays of one shape, with 0 < x < inf; nothing is validated.
        For IEV edges x is the measure's own coordinate and the result is
        -w exactly; EV edges pass through z = -ln u and back.
        """
        if self.is_ev:
            return _flip(-self.measure._cond_exponent(_flip(xu), _flip(xv)))
        return -self.measure._cond_exponent(xu, xv)

    def hinv_x(self, xp, xv):
        """x = -ln(1 - u) with hfunc_x(x, xv) = xp, on 1-d float arrays.

        The exponential-coordinate form of ``hinv``: the same solve, with
        w* = -xp (IEV) or -z(xp) (EV), and nothing validated or clamped.
        """
        if self.is_ev:
            return _flip(self.measure._solve_t(-_flip(xp), _flip(xv)))
        return self.measure._solve_t(-xp, xv)
