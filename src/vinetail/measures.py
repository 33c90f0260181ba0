"""Parametric bivariate exponent measures.

An exponent measure V(x, y) is homogeneous of order -1, non-increasing in
each argument, and satisfies the marginal constraints V(x, inf) = 1/x and
V(inf, y) = 1/y.  Together with its partial derivatives V1, V2, V12 it
determines both the extreme value copula exp{-V(-1/ln u, -1/ln v)} and its
inverted counterpart, and the interior spectral density

    h(w) = -V12(w*s, (1-w)*s) * s^3 / 2     (any s > 0)

whose tail exponents s1 (w -> 1) and s2 (w -> 0) drive every gauge-function
result for vines with asymptotically dependent components.

All evaluators broadcast over numpy arrays and accept ``inf`` arguments, for
which the exact analytic limits are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError, UnsupportedMeasureError

__all__ = ["TailOrders", "ExponentMeasure", "Logistic", "AsymmetricLogistic"]

# h-inverse solves: the generic solve's bracket floor and step tolerance in
# s = ln t, the logistic solve's relative step tolerance in y, and the
# iteration cap of both
_T_MIN = 1e-300
_S_TOL = 1e-12
_Y_RTOL = 1e-15
_SOLVE_MAXITER = 100


@dataclass(frozen=True)
class TailOrders:
    """Spectral-density tail exponents and constants.

    h(w) ~ c1 * (1-w)^s1 as w -> 1 and h(w) ~ c2 * w^s2 as w -> 0, with
    s1, s2 > -1.  The constants only affect O(ln t) terms and never enter a
    gauge function; they are carried for completeness.
    """

    s1: float
    s2: float
    c1: float
    c2: float

    def __post_init__(self):
        if not (self.s1 > -1.0 and self.s2 > -1.0):
            raise ParameterError(f"tail exponents must exceed -1, got {self.s1}, {self.s2}")

    def transposed(self) -> "TailOrders":
        return TailOrders(self.s2, self.s1, self.c2, self.c1)


def _validate_positive(x, y, allow_inf):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.isnan(x)) or np.any(np.isnan(y)):
        raise DomainError("exponent measure arguments must not be NaN")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise DomainError("exponent measure arguments must be > 0")
    if not allow_inf and (np.any(np.isinf(x)) or np.any(np.isinf(y))):
        raise DomainError("derivatives of the exponent measure require finite arguments")
    return x, y


def _maybe_scalar(a):
    a = np.asarray(a)
    return float(a) if a.ndim == 0 else a


def _unconverged(n, bracket_width, last_step):
    return ConvergenceError(
        f"h-function inversion did not converge within {_SOLVE_MAXITER} iterations",
        {
            "unconverged": int(n),
            "max_bracket_width": float(np.max(bracket_width)),
            "max_last_step": float(np.max(np.abs(last_step))),
        },
    )


class ExponentMeasure:
    """Interface for bivariate exponent measures.

    Any implementation supplying V, its partials and tail orders plugs into
    every downstream module (pair copulas, gauges, eta, simulation).  The
    h-function and the copula density read the measure through one kernel,
    ``_cond_parts``, whose default is built from the partials; the
    h-inverse reads it through ``_solve_t``, whose default is a safeguarded
    Newton solve on that kernel.  These two are the hooks a new measure
    overrides for speed: ``Logistic`` overrides both, ``AsymmetricLogistic``
    the kernel alone.
    """

    def V(self, x, y):
        """V(x, y); extended-real inputs allowed, limits honoured exactly."""
        x, y = _validate_positive(x, y, allow_inf=True)
        return _maybe_scalar(self._v(x, y))

    def V1(self, x, y):
        """dV/dx; finite positive arguments only.  Homogeneous of order -2."""
        x, y = _validate_positive(x, y, allow_inf=False)
        return _maybe_scalar(self._v1(x, y))

    def V2(self, x, y):
        """dV/dy; finite positive arguments only.  Homogeneous of order -2."""
        x, y = _validate_positive(x, y, allow_inf=False)
        return _maybe_scalar(self._v2(x, y))

    def V12(self, x, y):
        """d2V/dxdy; finite positive arguments only.  Homogeneous of order -3."""
        x, y = _validate_positive(x, y, allow_inf=False)
        return _maybe_scalar(self._v12(x, y))

    def tail_orders(self) -> TailOrders:
        """Tail exponents of the interior spectral density, if it has one."""
        raise UnsupportedMeasureError(f"{type(self).__name__} has no regularly varying interior spectral density")

    def transposed(self) -> "ExponentMeasure":
        """The measure with swapped arguments, Vt(x, y) = V(y, x)."""
        raise NotImplementedError

    def _cond_exponent(self, tu, tv):
        """w = tv - V(1/tu, 1/tv) + ln(-V2(1/tu, 1/tv)) - 2 ln(tv).

        This is the log of the conditional survival weight behind both
        h-functions (EV: h = e^w on -ln-scale; inverted EV: h = 1 - e^w on
        -ln(1-.)-scale).  The generic form cancels badly where w is tiny;
        measures override it with an exact rearrangement where available.
        """
        au, av = 1.0 / tu, 1.0 / tv
        with np.errstate(divide="ignore"):
            return tv - self._v(au, av) + np.log(-self._v2(au, av)) - 2.0 * np.log(tv)

    def _cond_parts(self, tu, tv):
        """(w, V, ln K) at (1/tu, 1/tv), with K = V1 V2 - V12.

        w is ``_cond_exponent``; V and K are the measure terms of the copula
        density and of the slope of the h-inverse solve.  K is clamped at 0
        before the log, so a rounding-negative K gives ln K = -inf and a zero
        density, never NaN.
        """
        au, av = 1.0 / tu, 1.0 / tv
        K = self._v1(au, av) * self._v2(au, av) - self._v12(au, av)
        with np.errstate(divide="ignore"):
            return self._cond_exponent(tu, tv), self._v(au, av), np.log(np.maximum(K, 0.0))

    def _solve_t(self, wstar, tv):
        """t > 0 with _cond_exponent(t, tv) = wstar < 0, on 1-d arrays.

        Newton steps on G(s) = ln(-w(e^s, tv)) - ln(-wstar) in s = ln t,
        started from the independence root s = ln(-wstar).  G increases in
        s and is close to linear at both ends.  One call of the kernel,
        ``_cond_parts(t, tv) -> (w, V, ln K)`` with K = V1 V2 - V12 at
        (1/t, 1/tv), gives both G and its slope

            dG/ds = exp(tv - V - w + ln K - s - 2 ln tv - ln(-w)).

        A step that is not finite, leaves the bracket or fails to halve |G|
        (|2G| > |ds_prev G'|) is replaced by bisection.  The bracket
        [ln _T_MIN, ln(tv - wstar)] always holds the root, because
        -w >= t - tv for every exponent measure.  Only the points not yet
        converged are iterated.  A converged point closes with the Newton
        step in t from its last evaluation, t (1 - (1 - wstar/w) / G'):
        e^s carries the absolute error of s, |s| eps, into t as relative
        error, which the ratio wstar/w does not.
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
                w, V, lnK = self._cond_parts(t, tv)
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
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    close = t * (1.0 - (1.0 - wstar / w) / dg)
                close = np.where(np.isfinite(close), close, np.exp(s))
                out[idx[done]] = close[done]
                keep = np.flatnonzero(~done)
                if keep.size == 0:
                    return out
                idx, tv, tv_part, wstar, lgoal, lo, hi, s, ds, ds_old = (
                    a.take(keep) for a in (idx, tv, tv_part, wstar, lgoal, lo, hi, s, ds, ds_old)
                )
        raise _unconverged(idx.size, hi - lo, ds)

    # raw evaluators on validated float arrays; subclasses implement these
    def _v(self, x, y):
        raise NotImplementedError

    def _v1(self, x, y):
        raise NotImplementedError

    def _v2(self, x, y):
        raise NotImplementedError

    def _v12(self, x, y):
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


class Logistic(ExponentMeasure):
    """Logistic exponent measure V(x, y) = (x^(-1/alpha) + y^(-1/alpha))^alpha.

    alpha in (0, 1]; alpha = 1 is independence, V = 1/x + 1/y, and small
    alpha approaches perfect dependence.  Exchangeable in its arguments.
    """

    def __init__(self, alpha: float):
        alpha = float(alpha)
        if not 0.0 < alpha <= 1.0:
            raise ParameterError(f"logistic dependence parameter must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._q = 1.0 / alpha

    def __repr__(self):
        return f"Logistic(alpha={self.alpha})"

    def __eq__(self, other):
        return isinstance(other, Logistic) and other.alpha == self.alpha

    def _v(self, x, y):
        # arguments live in (0, inf]; infinite arguments take the exact
        # marginal limits V(inf, y) = 1/y, V(x, inf) = 1/x, V(inf, inf) = 0.
        # The direct form overflows once q ln(1/x) > 709 (alpha below about
        # 0.004 at ordinary arguments), in a power or in the sum of two
        # finite ones; there alone the one-power form
        # (1 + (m/M)^q)^alpha / m, with m = min(x, y) and M = max(x, y),
        # takes over, so values in range keep their bits.  The scalar vine
        # plan inlines the direct form of the float branch operation for
        # operation (gauges._LOGISTIC_FORM) and calls this method for the rest
        q = self._q
        if type(x) is float and type(y) is float:
            if x == math.inf:
                return 0.0 if y == math.inf else 1.0 / y
            if y == math.inf:
                return 1.0 / x
            try:
                s = x ** (-q) + y ** (-q)
            except OverflowError:
                s = math.inf
            if s == math.inf:
                m, M = (x, y) if x < y else (y, x)
                return (1.0 + (m / M) ** q) ** self.alpha / m
            return s ** self.alpha
        with np.errstate(over="ignore"):
            out = (x ** (-q) + y ** (-q)) ** self.alpha
        over = np.isinf(out)
        if np.any(over):
            m, M = np.minimum(x, y), np.maximum(x, y)
            with np.errstate(over="ignore", invalid="ignore"):  # the discarded points
                out = np.where(over, (1.0 + (m / M) ** q) ** self.alpha / m, out)
        if np.any(np.isinf(x)) or np.any(np.isinf(y)):
            x_inf, y_inf = np.isinf(x), np.isinf(y)
            with np.errstate(divide="ignore"):
                out = np.where(x_inf, np.where(y_inf, 0.0, 1.0 / y), out)
                out = np.where(y_inf & ~x_inf, 1.0 / x, out)
        return out

    def _v1(self, x, y):
        a = self.alpha
        q = 1.0 / a
        s = x ** (-q) + y ** (-q)
        return -(s ** (a - 1.0)) * x ** (-q - 1.0)

    def _v2(self, x, y):
        return self._v1(y, x)

    def _v12(self, x, y):
        a = self.alpha
        if a == 1.0:
            return np.zeros(np.broadcast(x, y).shape)
        q = 1.0 / a
        s = x ** (-q) + y ** (-q)
        return ((a - 1.0) / a) * (x * y) ** (-q - 1.0) * s ** (a - 2.0)

    def tail_orders(self) -> TailOrders:
        if self.alpha >= 1.0:
            raise UnsupportedMeasureError(
                "logistic measure with alpha = 1 has no regularly varying interior spectral density"
            )
        s = 1.0 / self.alpha - 2.0
        c = (1.0 - self.alpha) / (2.0 * self.alpha)
        return TailOrders(s1=s, s2=s, c1=c, c2=c)

    def _cond_exponent(self, tu, tv):
        return self._cond_terms(tu, tv)[0]

    def _cond_terms(self, tu, tv):
        # w and the terms _cond_parts reuses.  One power serves everything:
        # with q = 1/alpha, m = max(tu, tv), r = (min/m)^q, l1p = ln(1 + r)
        # and grow = (1 + r)^alpha - 1, S = tu^q + tv^q = m^q (1 + r) and
        # V = S^alpha = m (1 + grow).  w is the exact rearrangement of the
        # conditional exponent: the 2 ln(tv) term cancels against ln(-V2),
        # leaving expm1/log1p forms with full relative precision however
        # small the conditional mass is
        a = self.alpha
        q = 1.0 / a
        m = np.maximum(tu, tv)
        l1p = np.log1p((np.minimum(tu, tv) / m) ** q)
        grow = np.expm1(a * l1p)
        with np.errstate(divide="ignore", invalid="ignore"):
            ltu, ltv = np.log(tu), np.log(tv)
            w = np.where(
                tv >= tu,
                -tv * grow + (a - 1.0) * l1p,
                (tv - tu) - tu * grow + (q - 1.0) * (ltv - ltu) + (a - 1.0) * l1p,
            )
        return w, m, l1p, grow, ltu, ltv

    def _cond_parts(self, tu, tv):
        # K = (tu tv)^(q+1) S^(alpha-2) (V + q - 1), from the terms of w
        a = self.alpha
        q = 1.0 / a
        w, V, l1p, grow, ltu, ltv = self._cond_terms(tu, tv)
        # V holds m until it is scaled in place, so the kernel keeps few
        # arrays alive at once
        with np.errstate(divide="ignore", invalid="ignore"):
            V *= 1.0 + grow
            lnK = (q + 1.0) * (ltu + ltv)
            lnK += (1.0 - 2.0 * q) * np.maximum(ltu, ltv)
            lnK += (a - 2.0) * l1p
            lnK += np.log(V + (q - 1.0))
        return w, V, lnK

    def _solve_t(self, wstar, tv):
        """t > 0 with _cond_exponent(t, tv) = wstar < 0, on 1-d arrays.

        With q = 1/alpha, z = t/tv and y = ln(1 + z^q), homogeneity turns
        the conditional exponent into one function of y alone,

            -w = F(y) = tv expm1(alpha y) + (1 - alpha) y,

        increasing and convex with F(0) = 0.  Since expm1(x) >= x, both
        c/(alpha tv + 1 - alpha) and log1p(c/tv)/alpha bound the root of
        F(y) = c = -wstar from above, and the solve descends onto it from
        the smaller one by Halley steps, one expm1 per step: the curvature
        F'' = alpha (F' - (1 - alpha)) comes from the slope.  A Halley step
        that would leave the bracket (0, y] is replaced by the Newton step.
        A point stops once its step is below 1e-15 y or 1e-300, the latter
        for subnormal roots, and stays where it stopped; the arrays drop the
        stopped points only once a quarter of them have stopped, so a
        point's result does not depend on when they are dropped.
        z^q = expm1(y) then gives t = tv expm1(y)^alpha, one power with
        full relative precision however small t is; past y = 700, where
        expm1 overflows, ln t = ln tv + alpha (y + ln(-expm1(-y))) takes
        over.  At alpha = 1, -w = t.
        """
        a = self.alpha
        c = -wstar
        if a == 1.0:
            return c
        b = 1.0 - a
        atv = a * tv
        y0 = np.minimum(c / (atv + b), np.log1p(c / tv) / a)
        y = y0.copy()
        out = np.empty_like(c)
        idx = np.arange(c.size)
        moving = np.ones(c.size, dtype=bool)
        tv_all = tv
        for _ in range(_SOLVE_MAXITER):
            # the Halley step F F' / (F'^2 - F F''/2), with F' = e + 1 - alpha
            # and F'' = alpha e for e = alpha tv (1 + expm1(alpha y)); the
            # Newton step F/F' where it would leave (0, y]
            e = a * y
            np.expm1(e, out=e)
            F = tv * e
            F += b * y
            F -= c
            e += 1.0
            e *= atv
            slope = e + b
            e *= F
            e *= 0.5 * a
            den = slope * slope
            den -= e
            dy = F * slope
            with np.errstate(divide="ignore", invalid="ignore"):
                dy /= den
            newton = np.flatnonzero(~((dy >= 0.0) & (dy < y)))
            if newton.size:
                dy[newton] = F[newton] / slope[newton]
            dy *= moving
            y -= dy
            moving &= ~(np.abs(dy) <= _Y_RTOL * y + 1e-300)
            n_moving = np.count_nonzero(moving)
            if 4 * (idx.size - n_moving) >= idx.size:
                stopped = np.flatnonzero(~moving)
                out[idx[stopped]] = y[stopped]
                if n_moving == 0:
                    break
                keep = np.flatnonzero(moving)
                idx, tv, atv, c, y, dy = (v.take(keep) for v in (idx, tv, atv, c, y, dy))
                moving = np.ones(keep.size, dtype=bool)
        else:
            raise _unconverged(n_moving, y0[idx[moving]], dy[moving])
        t = tv_all * np.expm1(np.minimum(out, 700.0)) ** a
        big = np.flatnonzero(out > 700.0)
        if big.size:
            yb = out[big]
            t[big] = np.exp(np.log(tv_all[big]) + a * (yb + np.log(-np.expm1(-yb))))
        return t

    def transposed(self) -> "Logistic":
        return self

    def to_dict(self) -> dict:
        return {"type": "logistic", "alpha": self.alpha}


def _mix(t, E):
    """ln(t + (1-t) e^E) and (1-t) e^E / (t + (1-t) e^E), for t in [0, 1)
    and E <= 0.  log1p keeps relative precision near E = 0; below E = -1
    the sum of two positive terms has it, and stays above t > 0 where e^E
    underflows."""
    if t == 0.0:
        return E, 1.0
    u = (1.0 - t) * np.exp(E)
    lin = t + u
    with np.errstate(divide="ignore"):  # log1p(-1) at the discarded points
        return np.where(E > -1.0, np.log1p((1.0 - t) * np.expm1(E)), np.log(lin)), u / lin


class AsymmetricLogistic(ExponentMeasure):
    """Asymmetric logistic exponent measure.

    V(x, y) = theta1/x + theta2/y
              + [{(1-theta1)/x}^(1/alpha) + {(1-theta2)/y}^(1/alpha)]^alpha

    with alpha in (0, 1] and theta1, theta2 in [0, 1].  The spectral measure
    has atoms of mass theta2 at {0} and theta1 at {1}, so no tail orders are
    available; the corresponding gauge is handled directly in the gauges
    module instead of via the regular-variation route.
    """

    def __init__(self, alpha: float, theta1: float, theta2: float):
        alpha, theta1, theta2 = float(alpha), float(theta1), float(theta2)
        if not 0.0 < alpha <= 1.0:
            raise ParameterError(f"asymmetric logistic alpha must be in (0, 1], got {alpha}")
        if not (0.0 <= theta1 <= 1.0 and 0.0 <= theta2 <= 1.0):
            raise ParameterError(f"asymmetric logistic weights must be in [0, 1], got {theta1}, {theta2}")
        self.alpha = alpha
        self.theta1 = theta1
        self.theta2 = theta2

    def __repr__(self):
        return f"AsymmetricLogistic(alpha={self.alpha}, theta1={self.theta1}, theta2={self.theta2})"

    def __eq__(self, other):
        return (
            isinstance(other, AsymmetricLogistic)
            and (other.alpha, other.theta1, other.theta2) == (self.alpha, self.theta1, self.theta2)
        )

    @property
    def _degenerate(self):
        # either weight at 1 collapses the dependent component: V = 1/x + 1/y
        return self.theta1 == 1.0 or self.theta2 == 1.0

    def _p(self, x, y):
        q = 1.0 / self.alpha
        return ((1.0 - self.theta1) ** q) * x ** (-q) + ((1.0 - self.theta2) ** q) * y ** (-q)

    def _v(self, x, y):
        if self._degenerate:
            return 1.0 / x + 1.0 / y
        if type(x) is float and type(y) is float:
            if x == np.inf:
                return 0.0 if y == np.inf else 1.0 / y
            if y == np.inf:
                return 1.0 / x
            return self.theta1 / x + self.theta2 / y + self._p(x, y) ** self.alpha
        out = self.theta1 / x + self.theta2 / y + self._p(x, y) ** self.alpha
        if np.any(np.isinf(x)) or np.any(np.isinf(y)):
            x_inf, y_inf = np.isinf(x), np.isinf(y)
            with np.errstate(divide="ignore"):
                out = np.where(x_inf, np.where(y_inf, 0.0, 1.0 / y), out)
                out = np.where(y_inf & ~x_inf, 1.0 / x, out)
        return out

    def _v1(self, x, y):
        a = self.alpha
        q = 1.0 / a
        if self._degenerate:
            return -1.0 / x**2
        p = self._p(x, y)
        return -self.theta1 / x**2 - ((1.0 - self.theta1) ** q) * x ** (-q - 1.0) * p ** (a - 1.0)

    def _v2(self, x, y):
        return self.transposed()._v1(y, x)

    def _v12(self, x, y):
        a = self.alpha
        q = 1.0 / a
        if a == 1.0 or self._degenerate:
            return np.zeros(np.broadcast(x, y).shape)
        p = self._p(x, y)
        w = ((1.0 - self.theta1) * (1.0 - self.theta2)) ** q
        return ((a - 1.0) / a) * w * (x * y) ** (-q - 1.0) * p ** (a - 2.0)

    def _cond_exponent(self, tu, tv):
        if self._degenerate:
            return -tu - 0.0 * tv  # V = tu + tv at (1/tu, 1/tv)
        return self._cond_terms(tu, tv)[0]

    def _cond_terms(self, tu, tv):
        # w and the terms _cond_parts reuses, for a non-degenerate measure.
        # An exact rearrangement, as for Logistic: with A = (1-theta1) tu,
        # B = (1-theta2) tv, M = max(A, B), r = (min(A, B)/M)^(1/alpha),
        # l1p = log1p(r) and grow = expm1(alpha l1p), the dependent part of
        # V is W = (A^q + B^q)^alpha = M (1 + grow).  With E_A = ln uA,
        # uA = (A/M)^(q-1) (1 + r)^(alpha-1) <= 1, and E_B = ln uB likewise,
        #   -V1 tu^-2 = theta1 + (1-theta1) uA = mixA   (likewise mixB),
        #   w = -theta1 tu - (B grow, or (A - B) + A grow where A > B)
        #       + ln mixB,
        #   K = (tu tv)^2 mixA mixB (1 + (q-1) rhoA rhoB / W),
        # with rhoA = (1-theta1) uA / mixA <= 1.  Every term of w is <= 0
        # and every term of K >= 0, so nothing cancels however small w is
        a, t1, t2 = self.alpha, self.theta1, self.theta2
        q = 1.0 / a
        A, B = (1.0 - t1) * tu, (1.0 - t2) * tv
        big = A > B
        # (A/B)^q overflows where A >> B, so take r <= 1: then q ln(A/B)
        # moves into the log of the smaller one's u
        M = np.maximum(A, B)
        l1p = np.log1p((np.minimum(A, B) / M) ** q)
        grow = np.expm1(a * l1p)
        lr = q * np.log(A / B)
        lnmix_B, rho_B = _mix(t2, (a - 1.0) * (l1p + np.maximum(lr, 0.0)))
        w = -t1 * tu - np.where(big, (A - B) + A * grow, B * grow) + lnmix_B
        return w, M, l1p, grow, lr, lnmix_B, rho_B

    def _cond_parts(self, tu, tv):
        # K and W from the terms of w (see _cond_terms)
        if self._degenerate:
            # w = -tu and K = (tu tv)^2
            with np.errstate(divide="ignore"):
                return self._cond_exponent(tu, tv), tu + tv, 2.0 * (np.log(tu) + np.log(tv))
        a, t1, t2 = self.alpha, self.theta1, self.theta2
        q = 1.0 / a
        w, M, l1p, grow, lr, lnmix_B, rho_B = self._cond_terms(tu, tv)
        lnmix_A, rho_A = _mix(t1, (a - 1.0) * (l1p + np.maximum(-lr, 0.0)))
        W = M * (1.0 + grow)
        with np.errstate(divide="ignore"):
            lnK = 2.0 * (np.log(tu) + np.log(tv)) + lnmix_A + lnmix_B + np.log1p((q - 1.0) * rho_A * rho_B / W)
        return w, t1 * tu + t2 * tv + W, lnK

    def tail_orders(self) -> TailOrders:
        raise UnsupportedMeasureError("asymmetric logistic spectral measure has atoms at {0} and {1}")

    def transposed(self) -> "AsymmetricLogistic":
        if self.theta1 == self.theta2:
            return self
        return AsymmetricLogistic(self.alpha, self.theta2, self.theta1)

    def to_dict(self) -> dict:
        return {
            "type": "asymmetric_logistic",
            "alpha": self.alpha,
            "theta1": self.theta1,
            "theta2": self.theta2,
        }


_MEASURE_TYPES = {"logistic", "asymmetric_logistic"}


def measure_from_dict(doc: dict) -> ExponentMeasure:
    """Build a measure from its JSON description, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ParameterError(f"measure description must be an object, got {type(doc).__name__}")
    kind = doc.get("type")
    if kind == "logistic":
        extra = set(doc) - {"type", "alpha"}
        if extra:
            raise ParameterError(f"unknown keys in logistic measure: {sorted(extra)}")
        if "alpha" not in doc:
            raise ParameterError("logistic measure requires 'alpha'")
        return Logistic(doc["alpha"])
    if kind == "asymmetric_logistic":
        extra = set(doc) - {"type", "alpha", "theta1", "theta2"}
        if extra:
            raise ParameterError(f"unknown keys in asymmetric_logistic measure: {sorted(extra)}")
        missing = {"alpha", "theta1", "theta2"} - set(doc)
        if missing:
            raise ParameterError(f"asymmetric_logistic measure requires {sorted(missing)}")
        return AsymmetricLogistic(doc["alpha"], doc["theta1"], doc["theta2"])
    raise ParameterError(f"unknown measure type {kind!r}; expected one of {sorted(_MEASURE_TYPES)}")
