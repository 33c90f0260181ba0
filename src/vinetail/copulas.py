"""Extreme value and inverted extreme value pair copulas on uniform margins.

Both families are driven by an exponent measure V:

    EV:   C(u, v) = exp{-V(-1/ln u, -1/ln v)}
    IEV:  C(u, v) = u + v - 1 + exp{-V(-1/ln(1-u), -1/ln(1-v))}

The h-function is the conditional distribution d C(u, v) / d v, and all four
operations (cdf, h-function, its inverse, density) are evaluated through the
log-scale variables z = -ln u (EV) and x = -ln(1-u) (IEV), which is where the
exponential-margin sample clouds live.  The inverse is solved in that
coordinate too: safeguarded Newton on s = ln t, with bisection as the
fallback, so that it stays accurate out to t = 35 and beyond.  The measure
enters through one kernel, ``measure._cond_parts``, which returns the
conditional exponent w, V and ln(V1 V2 - V12) together: its w is the
h-function, and V and ln K give both the density and the slope of the
solve.  Everything broadcasts over numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DegenerateConditionerError, DomainError, ParameterError
from .measures import ExponentMeasure, _maybe_scalar

__all__ = ["PairCopula", "EV", "IEV"]

EV = "ev"
IEV = "iev"

# inputs within this distance of {0, 1} are clamped before log transforms
_EDGE = 1e-15
# h-inverse solve in s = ln t: bracket floor, step tolerance, iteration cap
_T_MIN = 1e-300
_S_TOL = 1e-12
_SOLVE_MAXITER = 100


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
        """u with hfunc(u, v) = p, by safeguarded Newton on the log scale.

        With w = measure._cond_exponent the h-function is e^w (EV) or
        1 - e^w (IEV), so the root solves w(t, tv) = w* with w* = ln p or
        ln(1 - p) in the log-scale coordinate t of u.  The solve runs in
        s = ln t on G(s) = ln(-w) - ln(-w*), which increases in s and is
        close to linear at both ends; see ``_solve_t``.  Inputs are
        validated once per call; p = 0 and p = 1 map to u = 0 and u = 1.
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
            t = self._solve_t(wstar, self._t(_clamped(v_b[inner])))
            u[inner] = np.exp(-t) if self.is_ev else -np.expm1(-t)
        return _maybe_scalar(u)

    def _solve_t(self, wstar, tv):
        """t > 0 with measure._cond_exponent(t, tv) = wstar < 0, on 1-d arrays.

        Newton steps on G(s) = ln(-w(e^s, tv)) - ln(-wstar), started from
        the independence root s = ln(-wstar).  One call of the measure
        kernel, ``_cond_parts(t, tv) -> (w, V, ln K)`` with K = V1 V2 - V12
        at (1/t, 1/tv), gives both G and its slope

            dG/ds = exp(tv - V - w + ln K - s - 2 ln tv - ln(-w)).

        A step that is not finite, leaves the bracket or fails to halve |G|
        (|2G| > |ds_prev G'|) is replaced by bisection.  The bracket
        [ln _T_MIN, ln(tv - wstar)] always holds the root, because
        -w >= t - tv for every exponent measure.  Only the points not yet
        converged are iterated.
        """
        out = np.empty_like(wstar)
        idx = np.arange(wstar.size)
        lgoal = np.log(-wstar)
        lo = np.full(idx.shape, np.log(_T_MIN))
        hi = np.log(tv - wstar)
        s = np.clip(lgoal, lo, hi)
        ds_old = ds = hi - lo
        # the parts of the slope's exponent that do not move with s
        tv_part = tv - 2.0 * np.log(tv)
        for _ in range(_SOLVE_MAXITER):
            t = np.exp(s)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                w, V, lnK = self.measure._cond_parts(t, tv)
                lnw = np.log(np.maximum(-w, 0.0))
                g = lnw - lgoal
                dg = np.exp(tv_part - V - w + lnK - s - lnw)
                lo = np.where(g < 0.0, s, lo)
                hi = np.where(g > 0.0, s, hi)
                new = s - g / dg
                bisect = ~np.isfinite(new) | (new < lo) | (new > hi) | (np.abs(2.0 * g) > np.abs(ds_old * dg))
            new = np.where(g == 0.0, s, np.where(bisect, 0.5 * (lo + hi), new))
            ds_old, ds, s = ds, new - s, new
            done = (g == 0.0) | (np.abs(ds) <= _S_TOL) | (hi - lo <= _S_TOL)
            if done.any():
                out[idx[done]] = s[done]
                keep = np.flatnonzero(~done)
                if keep.size == 0:
                    return np.exp(out)
                idx, tv, tv_part, lgoal, lo, hi, s, ds, ds_old = (
                    a.take(keep) for a in (idx, tv, tv_part, lgoal, lo, hi, s, ds, ds_old)
                )
        raise ConvergenceError(
            f"h-function inversion did not converge within {_SOLVE_MAXITER} iterations",
            {
                "unconverged": int(idx.size),
                "max_bracket_width": float(np.max(hi - lo)),
                "max_last_step": float(np.max(np.abs(ds))),
            },
        )
