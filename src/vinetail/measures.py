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

from .errors import DomainError, ParameterError, UnsupportedMeasureError

__all__ = ["TailOrders", "ExponentMeasure", "Logistic", "AsymmetricLogistic"]


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


class ExponentMeasure:
    """Interface for bivariate exponent measures.

    Any implementation supplying V, its partials and tail orders plugs into
    every downstream module (pair copulas, gauges, eta, simulation).  The
    h-function, its inverse and the copula density read the measure through
    one kernel, ``_cond_parts``; its default is built from the partials, and
    it is the one hook a new measure overrides for speed.
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
        # 0.004 at ordinary arguments); there alone the one-power form
        # (1 + (m/M)^q)^alpha / m, with m = min(x, y) and M = max(x, y),
        # takes over, so values in range keep their bits and the scalar
        # path pays only for a try block
        q = self._q
        if type(x) is float and type(y) is float:
            if x == math.inf:
                return 0.0 if y == math.inf else 1.0 / y
            if y == math.inf:
                return 1.0 / x
            try:
                return (x ** (-q) + y ** (-q)) ** self.alpha
            except OverflowError:
                m, M = (x, y) if x < y else (y, x)
                return (1.0 + (m / M) ** q) ** self.alpha / m
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
        return self._cond_parts(tu, tv)[0]

    def _cond_parts(self, tu, tv):
        # one power serves all three outputs: with q = 1/alpha, m = max(tu, tv),
        # r = (min/m)^q, l1p = ln(1 + r) and grow = (1 + r)^alpha - 1,
        # S = tu^q + tv^q = m^q (1 + r), V = S^alpha = m (1 + grow) and
        # K = (tu tv)^(q+1) S^(alpha-2) (V + q - 1).  w is the exact
        # rearrangement of the conditional exponent: the 2 ln(tv) term
        # cancels against ln(-V2), leaving expm1/log1p forms with full
        # relative precision however small the conditional mass is
        a = self.alpha
        q = 1.0 / a
        # V holds m until it is scaled in place; the h-inverse calls this on
        # every Newton step, so the kernel keeps few arrays alive at once
        V = np.maximum(tu, tv)
        l1p = np.log1p((np.minimum(tu, tv) / V) ** q)
        grow = np.expm1(a * l1p)
        with np.errstate(divide="ignore", invalid="ignore"):
            ltu, ltv = np.log(tu), np.log(tv)
            w = np.where(
                tv >= tu,
                -tv * grow + (a - 1.0) * l1p,
                (tv - tu) - tu * grow + (q - 1.0) * (ltv - ltu) + (a - 1.0) * l1p,
            )
            V *= 1.0 + grow
            lnK = (q + 1.0) * (ltu + ltv)
            lnK += (1.0 - 2.0 * q) * np.maximum(ltu, ltv)
            lnK += (a - 2.0) * l1p
            lnK += np.log(V + (q - 1.0))
        return w, V, lnK

    def transposed(self) -> "Logistic":
        return self

    def to_dict(self) -> dict:
        return {"type": "logistic", "alpha": self.alpha}


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
        # exact rearrangement, as for Logistic: with A = (1-theta1) tu,
        # B = (1-theta2) tv, rho = (A/B)^(1/alpha), l = log1p(rho) and
        # E = (alpha-1) l <= 0,
        #   w = -theta1 tu - B expm1(alpha l) + ln(theta2 + (1-theta2) e^E),
        # three terms <= 0, so nothing cancels however small w is
        if self._degenerate:
            # V = tu + tv at (1/tu, 1/tv), so w = -tu, in the broadcast shape
            return -tu - 0.0 * tv
        a, t1, t2 = self.alpha, self.theta1, self.theta2
        q = 1.0 / a
        A, B = (1.0 - t1) * tu, (1.0 - t2) * tv
        big = A > B
        # rho overflows where A >> B, so take r = (min/max)^q <= 1: then
        # l = log1p(r) + q ln(A/B) and B expm1(alpha l) = (A - B) + A grow
        # where A > B
        l1p = np.log1p((np.minimum(A, B) / np.maximum(A, B)) ** q)
        grow = np.expm1(a * l1p)
        E = (a - 1.0) * (l1p + np.where(big, q * np.log(A / B), 0.0))
        with np.errstate(divide="ignore"):
            # log1p keeps relative precision near E = 0; logaddexp stays
            # finite where e^E underflows
            lnmix = np.where(
                E > -1.0, np.log1p((1.0 - t2) * np.expm1(E)), np.logaddexp(np.log(t2), np.log1p(-t2) + E)
            )
        return -t1 * tu - np.where(big, (A - B) + A * grow, B * grow) + lnmix

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
