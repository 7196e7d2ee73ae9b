"""The power-difference ratio r(x) = (a^x - b^x) / (c^x - d^x) and its log.

For an ordered quadruple a > b >= c > d > 0 the ratio r is positive, strictly
increasing and strictly convex on the whole real line, while ln r is convex,
concave or linear according to the sign of the discriminant a*d - b*c.

With h_ab = ln(a/b)/2, h_cd = ln(c/d)/2 and a^x - b^x =
2x h_ab (ab)^(x/2) sinh(x h_ab)/(x h_ab), ln r is one expression on all of R:

    ln r(x) = x ln(G(a,b)/G(c,d)) + ln(h_ab/h_cd) + lambda(x h_ab) - lambda(x h_cd),

where lambda(w) = ln(sinh w / w) is even and smooth, with lambda(0) = 0.  Its
derivative lambda'(w) = coth w - 1/w gives (ln r)' and the identric ratio of
the powers, since ln I(e^w, e^-w) = w lambda'(w).  Nothing forms a^x, so only
the final exponentiation in ``ratio_value`` can overflow, and x = 0 is no
special case: ln r(0) = ln(h_ab/h_cd) and (ln r)'(0) = ln(G(a,b)/G(c,d)).
"""

from __future__ import annotations

import math
from enum import Enum

# lambda(w) = ln(sinh w / w), lambda'(w), and w lambda'(w) = ln I(e^w, e^-w) as
# ``ln_identric``, the name the benchmark's tracer wraps: the Ipow ratio calls it.
from .means import _dlam, _ln_sinhc as _lam, _w_dlam as ln_identric
from .report import HypothesisViolation, check_finite_positive

__all__ = [
    "DiscClass", "ConvexityClass", "OrderedQuad",
    "ratio_value", "log_ratio_value", "ratio_derivative", "log_ratio_derivative",
    "convexity_class", "secant_slope", "midpoint_convexity_slack",
    "log_secant_slope_gap", "ln_identric_ratio_pow",
]

_INF = math.inf

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
    log-ratios of the pairs are cached because every consumer needs them, and
    so are ``ln_g_ratio`` = ln(G(a,b)/G(c,d)), which every piece of ln r
    reads, and ``is_strict``, which ``require_strict`` reads.  ``degeneracy`` is
    (a - d)/(a + d), the quad's relative spread, which the catalog's
    equality predicates read.
    ``memo`` starts empty: the catalog's rows fill it with the mean ratios
    they share, the first time a row reads them, so rows judged on one quad
    compute each shared ratio once.
    """

    __slots__ = ("a", "b", "c", "d", "relaxed", "is_strict",
                 "ln_a", "ln_b", "ln_c", "ln_d",
                 "r_ab", "r_cd", "h_ab", "h_cd", "ln_g_ratio", "disc_class", "degeneracy",
                 "memo")

    def __init__(self, a, b, c, d, relaxed=False):
        # four floats already in strict order, as the sampler draws them, pass
        # one test; anything else is checked and converted one input at a time
        if (type(a) is float and type(b) is float and type(c) is float
                and type(d) is float and a > b >= c > d > 0.0 and a < _INF):
            self.is_strict = True
        else:
            a, b, c, d = _checked_coordinates(a, b, c, d, relaxed)
            self.is_strict = a > b >= c > d
        self.a, self.b, self.c, self.d = a, b, c, d
        self.relaxed = relaxed
        self.memo = {}
        log = math.log
        self.ln_a = log(a)
        self.ln_b = ln_b = log(b)
        self.ln_c = log(c)
        self.ln_d = ln_d = log(d)
        self.r_ab = r_ab = _ln_ratio(a, b)
        self.r_cd = r_cd = _ln_ratio(c, d)
        self.h_ab = h_ab = 0.5 * r_ab
        self.h_cd = h_cd = 0.5 * r_cd
        # accurate also for nearly proportional pairs
        self.ln_g_ratio = (ln_b - ln_d) + (h_ab - h_cd)
        self.degeneracy = (a - d) / (a + d)
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

    def require_strict(self):
        if not self.is_strict:
            raise HypothesisViolation(
                "ratio functions require the strict ordering a > b >= c > d > 0")

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


def ln_identric_ratio_pow(quad: OrderedQuad, s: float) -> float:
    """ln( I(a^s, b^s) / I(c^s, d^s) ) without forming the powers.

    With w = s*h, I(a^s, b^s) = G(a,b)^s * I(e^w, e^-w) and
    ln I(e^w, e^-w) = w coth w - 1 = w lambda'(w).
    """
    w_ab = s * quad.h_ab
    w_cd = s * quad.h_cd
    return s * quad.ln_g_ratio + ln_identric(w_ab) - ln_identric(w_cd)


def log_ratio_value(quad: OrderedQuad, x: float) -> float:
    """ln r(x), evaluated without ever forming a^x."""
    quad.require_strict()
    return _log_ratio_value(quad, float(x))


def _log_ratio_value(quad, x):
    """ln r(x) at a float x on a strict quad: ``log_ratio_value``'s one formula."""
    # ln r(0) = ln(h_ab/h_cd), through log1p when the pairs are nearly proportional
    rr = (quad.r_ab - quad.r_cd) / quad.r_cd
    ln_r0 = math.log1p(rr) if abs(rr) <= 0.5 else math.log(quad.r_ab / quad.r_cd)
    return x * quad.ln_g_ratio + ln_r0 + _lam(x * quad.h_ab) - _lam(x * quad.h_cd)


def ratio_value(quad: OrderedQuad, x: float) -> float:
    """r(x) = (a^x - b^x)/(c^x - d^x); raises OverflowError if it exceeds binary64."""
    quad.require_strict()
    return math.exp(_log_ratio_value(quad, float(x)))


def log_ratio_derivative(quad: OrderedQuad, x: float) -> float:
    """(ln r)'(x) = ln(G(a,b)/G(c,d)) + h_ab lambda'(x h_ab) - h_cd lambda'(x h_cd).

    Always positive (r is strictly increasing); ln(G(a,b)/G(c,d)) at x = 0.
    """
    quad.require_strict()
    x = float(x)
    h_ab = quad.h_ab
    h_cd = quad.h_cd
    return quad.ln_g_ratio + h_ab * _dlam(x * h_ab) - h_cd * _dlam(x * h_cd)


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
    coordinates).  Positive for every strict quad by convexity of r.  Each
    difference of ln r is taken as differences of lambda, so ln(h_ab/h_cd)
    cancels exactly and no two values near ln r(0) are subtracted.
    """
    quad.require_strict()
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    g, h_ab, h_cd = quad.ln_g_ratio, quad.h_ab, quad.h_cd
    lam_a = _lam(a * h_ab) - _lam(a * h_cd)
    lam_b = _lam(b * h_ab) - _lam(b * h_cd)
    lam_c = _lam(c * h_ab) - _lam(c * h_cd)
    lam_d = _lam(d * h_ab) - _lam(d * h_cd)
    # ln m[u, v] = ln r(v) + ln(1 - e^-(ln r(v) - ln r(u))) - ln(v - u)
    ln_m_ca = math.log(-math.expm1(-((a - c) * g + lam_a - lam_c))) - math.log(a - c)
    ln_m_db = math.log(-math.expm1(-((b - d) * g + lam_b - lam_d))) - math.log(b - d)
    return (a - b) * g + lam_a - lam_b + ln_m_ca - ln_m_db
