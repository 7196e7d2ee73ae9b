"""The power-difference ratio r(x) = (a^x - b^x) / (c^x - d^x) and its log.

For an ordered quadruple a > b >= c > d > 0 the ratio r is positive, strictly
increasing and strictly convex on the whole real line, while ln r is convex,
concave or linear according to the sign of the discriminant a*d - b*c.  This
module evaluates r, ln r and their first derivatives stably:

* everything runs in the log domain, so a^x never overflows before the final
  exponentiation;
* x = 0 is a removable singularity with value ln(a/b)/ln(c/d); a small window
  around it uses that value with its exact first-order correction;
* the derivative (ln r)'(x) = (1/x) * ln( I(a^x,b^x) / I(c^x,d^x) ) is
  computed through a scaled identric helper, so it stays accurate down to
  x = 0 where it equals ln( G(a,b) / G(c,d) ).
"""

from __future__ import annotations

import math
from enum import Enum

from .means import ln_identric, _log_expm1
from .report import HypothesisViolation, check_finite_positive

__all__ = [
    "DiscClass", "ConvexityClass", "OrderedQuad",
    "ratio_value", "log_ratio_value", "ratio_derivative", "log_ratio_derivative",
    "convexity_class", "secant_slope", "midpoint_convexity_slack",
    "log_secant_slope_gap", "ln_identric_ratio_pow", "TAU_X",
]

_INF = math.inf

#: Half-width of the removable-singularity window around x = 0.
TAU_X = 1e-7

#: |ad - bc| <= DISC_ZERO_REL * (ad + bc) classifies the discriminant as zero.
DISC_ZERO_REL = 1e-12


class DiscClass(Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"


class ConvexityClass(Enum):
    STRICTLY_CONVEX = "strictly_convex"
    STRICTLY_CONCAVE = "strictly_concave"
    LINEAR = "linear"


#: Enum members bound once for the hot paths: each ``DiscClass.X`` lookup is slow on 3.11.
_POSITIVE, _ZERO, _NEGATIVE = DiscClass.POSITIVE, DiscClass.ZERO, DiscClass.NEGATIVE


class OrderedQuad:
    """An ordered quadruple a > b >= c > d > 0 (or a >= b >= c >= d > 0 relaxed).

    The strict form is the domain of the ratio functions; the relaxed form is
    accepted only by the mean-ratio chain check that tolerates ties.  Logs and
    log-ratios of the pairs are cached because every consumer needs them.
    ``memo`` starts empty: the catalog's rows fill it with the means they
    share, each the first time a row reads it, so rows judged on one quad
    compute each shared mean once.
    """

    __slots__ = ("a", "b", "c", "d", "relaxed",
                 "ln_a", "ln_b", "ln_c", "ln_d",
                 "r_ab", "r_cd", "h_ab", "h_cd", "disc_class", "memo")

    def __init__(self, a, b, c, d, relaxed=False):
        # four floats already in strict order, as the sampler draws them, pass
        # one test; anything else is checked and converted one input at a time
        if not (type(a) is float and type(b) is float and type(c) is float
                and type(d) is float and a > b >= c > d > 0.0 and a < _INF):
            a, b, c, d = _checked_coordinates(a, b, c, d, relaxed)
        self.a, self.b, self.c, self.d = a, b, c, d
        self.relaxed = relaxed
        self.memo = {}
        log = math.log
        self.ln_a = log(a)
        self.ln_b = log(b)
        self.ln_c = log(c)
        self.ln_d = log(d)
        self.r_ab = r_ab = _ln_ratio(a, b)
        self.r_cd = r_cd = _ln_ratio(c, d)
        self.h_ab = 0.5 * r_ab
        self.h_cd = 0.5 * r_cd
        # scale-free discriminant classification of ad - bc: both sides are
        # divided by max(a, b, c, d), which is a, so (a / a) * d is d
        x1 = d
        x2 = (b / a) * c
        if abs(x1 - x2) <= DISC_ZERO_REL * (x1 + x2):
            self.disc_class = _ZERO
        elif x1 > x2:
            self.disc_class = _POSITIVE
        else:
            self.disc_class = _NEGATIVE

    @property
    def is_strict(self) -> bool:
        return self.a > self.b >= self.c > self.d

    def require_strict(self):
        if not self.is_strict:
            raise HypothesisViolation(
                "ratio functions require the strict ordering a > b >= c > d > 0")

    def log_g_ratio(self) -> float:
        """ln( G(a,b) / G(c,d) ), accurate also for nearly proportional pairs."""
        return (self.ln_b - self.ln_d) + (self.h_ab - self.h_cd)

    def scaled(self, lam) -> "OrderedQuad":
        return OrderedQuad(self.a * lam, self.b * lam, self.c * lam, self.d * lam,
                           relaxed=self.relaxed)

    def as_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    def __repr__(self):
        tag = ", relaxed" if self.relaxed else ""
        return f"OrderedQuad({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r}{tag})"


def _checked_coordinates(a, b, c, d, relaxed):
    """The coordinates as floats; ValueError names the first bad one, or the order."""
    a = check_finite_positive("a", a)
    b = check_finite_positive("b", b)
    c = check_finite_positive("c", c)
    d = check_finite_positive("d", d)
    if relaxed:
        if not (a >= b >= c >= d > 0.0):
            raise ValueError(f"require a >= b >= c >= d > 0, got {(a, b, c, d)}")
    else:
        if not (a > b >= c > d > 0.0):
            raise ValueError(f"require a > b >= c > d > 0, got {(a, b, c, d)}")
    return a, b, c, d


def _ln_ratio(hi, lo):
    """ln(hi/lo) for hi >= lo, full relative accuracy as hi -> lo."""
    if hi == lo:
        return 0.0
    d = (hi - lo) / lo
    if math.isfinite(d):
        return math.log1p(d)
    return math.log(hi) - math.log(lo)


def _ln_identric_exp(z):
    """ln I(e^z, 1) for any real z."""
    if z > 300.0:
        return z - 1.0
    if z < -300.0:
        return -1.0
    return ln_identric(math.exp(z), 1.0)


def ln_identric_ratio_pow(quad: OrderedQuad, s: float) -> float:
    """ln( I(a^s, b^s) / I(c^s, d^s) ) without forming the powers, s != 0.

    Uses degree-1 homogeneity of I: I(a^s, b^s) = b^s * I((a/b)^s, 1).
    """
    if s == 0.0:
        raise ValueError("s must be nonzero")
    return (s * (quad.ln_b - quad.ln_d)
            + _ln_identric_exp(s * quad.r_ab)
            - _ln_identric_exp(s * quad.r_cd))


def log_ratio_value(quad: OrderedQuad, x: float) -> float:
    """ln r(x), evaluated without ever forming a^x."""
    quad.require_strict()
    x = float(x)
    if abs(x) <= TAU_X:
        # removable singularity: r(0) = ln(a/b)/ln(c/d), first-order slope
        # g'(0); ln r(0) through log1p when the ratio is near 1 (nearly
        # proportional pairs), through the plain log difference otherwise
        rr = (quad.r_ab - quad.r_cd) / quad.r_cd
        if abs(rr) <= 0.5:
            ln_r0 = math.log1p(rr)
        else:
            ln_r0 = math.log(quad.r_ab) - math.log(quad.r_cd)
        return ln_r0 + math.log1p(x * quad.log_g_ratio())
    if x > 0.0:
        return (x * (quad.ln_b - quad.ln_d)
                + _log_expm1(x * quad.r_ab) - _log_expm1(x * quad.r_cd))
    return (x * (quad.ln_a - quad.ln_c)
            + _log_expm1(-x * quad.r_ab) - _log_expm1(-x * quad.r_cd))


def ratio_value(quad: OrderedQuad, x: float) -> float:
    """r(x) = (a^x - b^x)/(c^x - d^x); raises OverflowError if it exceeds binary64."""
    quad.require_strict()
    x = float(x)
    if abs(x) <= TAU_X:
        r0 = quad.r_ab / quad.r_cd
        return r0 * (1.0 + x * quad.log_g_ratio())
    return math.exp(log_ratio_value(quad, x))


def log_ratio_derivative(quad: OrderedQuad, x: float) -> float:
    """(ln r)'(x) = (1/x) ln( I(a^x,b^x)/I(c^x,d^x) ), and ln(G(a,b)/G(c,d)) at 0.

    Always positive (r is strictly increasing).  A short odd series in x is
    used while |x|*max(h) is small, where the 1/x cancellation would otherwise
    amplify rounding; h denotes half the log-ratio of a pair.
    """
    quad.require_strict()
    x = float(x)
    g0 = quad.log_g_ratio()
    if x == 0.0:
        return g0
    y = abs(x) * max(quad.h_ab, quad.h_cd)
    if y <= 0.03:
        ha2 = quad.h_ab * quad.h_ab
        hc2 = quad.h_cd * quad.h_cd
        x2 = x * x
        # h*coth(x h) - 1/x = x h^2/3 - x^3 h^4/45 + 2 x^5 h^6/945 - ...
        return g0 + x * ((ha2 - hc2) / 3.0
                         - x2 * (ha2 * ha2 - hc2 * hc2) / 45.0
                         + x2 * x2 * 2.0 * (ha2 ** 3 - hc2 ** 3) / 945.0)
    return (quad.ln_b - quad.ln_d) + (
        _ln_identric_exp(x * quad.r_ab) - _ln_identric_exp(x * quad.r_cd)) / x


def ratio_derivative(quad: OrderedQuad, x: float) -> float:
    """r'(x) = r(x) * (ln r)'(x); strictly positive."""
    return ratio_value(quad, x) * log_ratio_derivative(quad, x)


def convexity_class(quad: OrderedQuad) -> ConvexityClass:
    """Convexity of ln r keyed to the sign of ad - bc."""
    if quad.disc_class is DiscClass.POSITIVE:
        return ConvexityClass.STRICTLY_CONVEX
    if quad.disc_class is DiscClass.NEGATIVE:
        return ConvexityClass.STRICTLY_CONCAVE
    return ConvexityClass.LINEAR


def secant_slope(quad: OrderedQuad, alpha: float, beta: float) -> float:
    """Slope (r(beta) - r(alpha)) / (beta - alpha) of a chord of r."""
    alpha = float(alpha)
    beta = float(beta)
    if alpha == beta:
        raise ValueError("secant slope needs two distinct abscissae")
    return (ratio_value(quad, beta) - ratio_value(quad, alpha)) / (beta - alpha)


def midpoint_convexity_slack(quad: OrderedQuad, x1: float, x2: float,
                             of_log: bool = False) -> float:
    """(phi(x1) + phi(x2))/2 - phi((x1+x2)/2) for phi = r, or phi = ln r.

    For r the slack is positive for every strict quad; for ln r its sign
    follows the convexity class (zero in the linear case).
    """
    x1 = float(x1)
    x2 = float(x2)
    if x1 == x2:
        raise ValueError("midpoint slack needs two distinct abscissae")
    phi = log_ratio_value if of_log else ratio_value
    mid = 0.5 * (x1 + x2)
    return 0.5 * phi(quad, x1) + 0.5 * phi(quad, x2) - phi(quad, mid)


def log_secant_slope_gap(quad: OrderedQuad) -> float:
    """ln(m[c,a]) - ln(m[d,b]) where m[u,v] is the chord slope of r over [u,v].

    The chord abscissae are the quad's own coordinates, so this is evaluated
    fully in the log domain (the raw slopes overflow binary64 for large
    coordinates).  Positive for every strict quad by convexity of r.
    """
    quad.require_strict()

    def ln_slope(u, v):
        # ln( (r(v) - r(u)) / (v - u) ) with v > u
        gu = log_ratio_value(quad, u)
        gv = log_ratio_value(quad, v)
        return gv + math.log1p(-math.exp(gu - gv)) - math.log(v - u)

    return ln_slope(quad.c, quad.a) - ln_slope(quad.d, quad.b)
