"""Numerically careful two-argument special means.

Provides the arithmetic (A), geometric (G), harmonic (H), logarithmic (L),
identric (I) and p-logarithmic (Lp) means of two positive reals, a stable
``ln I`` helper, and the slack decomposition of the classical chain
H <= G <= L <= I <= A.

All functions are pure.  Equal arguments short-circuit to the common value,
matching the limit definitions of L, I and Lp.  Near-equal arguments and
exponents near the removable parameter points p = 0 and p = -1 go through
series / expm1 forms, so the relative error stays at a few ulp instead of
degrading like 1/|a-b| or 1/min(|p|, |p+1|).  L, I and Lp internally rescale
by a power of two so intermediate sums and products cannot overflow and
degree-1 homogeneity survives to a few ulp.
"""

from __future__ import annotations

import math

from .report import check_finite_positive

__all__ = [
    "arithmetic_mean", "geometric_mean", "harmonic_mean",
    "logarithmic_mean", "identric_mean", "p_logarithmic_mean",
    "ln_identric", "ln_logarithmic", "mean_chain_slacks", "evaluate_mean",
    "MEAN_IDS", "P_SNAP", "IDENTRIC_SERIES_T",
]

#: Exponents within this distance of 0 or -1 snap to the limit means I and L.
P_SNAP = 1e-6
#: Half-width |(a-b)/(a+b)| of the identric mean's series branch.
IDENTRIC_SERIES_T = 1e-3

MEAN_IDS = ("A", "G", "H", "L", "I", "Lp")


# L, I, ln I and Lp check their inputs with _pair and hand them to private
# kernels, each the one body of its formula.  A kernel takes two finite
# positive floats; the catalog, whose coordinates are checked once per
# sample, calls the kernels directly.

def _pair(a, b):
    return check_finite_positive("a", a), check_finite_positive("b", b)


def _unit_scaled(hi, lo):
    """Rescale (hi, lo) by a power of two so their geometric mean is near 1.

    Power-of-two scaling is exact, which keeps the means' homogeneity tight
    and removes overflow from intermediate sums and products.
    """
    e = (math.frexp(hi)[1] + math.frexp(lo)[1]) >> 1
    m = math.ldexp(1.0, e)
    return hi / m, lo / m, m


def _sorted_pair(a, b):
    return (a, b) if a >= b else (b, a)


def arithmetic_mean(a, b) -> float:
    """(a + b) / 2."""
    a, b = _pair(a, b)
    return 0.5 * a + 0.5 * b


def geometric_mean(a, b) -> float:
    """sqrt(a * b); sqrt(a) * sqrt(b) when a*b would over/underflow.

    Each form rounds at most three times, so the relative error stays within
    a few ulp across the whole binary64 range (a log-domain form would lose
    about |ln G| ulp).
    """
    a, b = _pair(a, b)
    if a == b:
        return a
    p = a * b
    if 1e-300 < p < 1e300:
        return math.sqrt(p)
    return math.sqrt(a) * math.sqrt(b)


def harmonic_mean(a, b) -> float:
    """2 / (1/a + 1/b), the cancellation-free form of 2ab/(a+b)."""
    a, b = _pair(a, b)
    return 2.0 / (1.0 / a + 1.0 / b)


def logarithmic_mean(a, b) -> float:
    """(a - b) / (ln a - ln b), extended by continuity to a at a = b.

    Uses the relative difference d = (hi - lo)/lo and log1p so the value is
    smooth and fully accurate as a -> b.
    """
    return _logarithmic_mean(*_pair(a, b))


def _logarithmic_mean(a, b):
    if a == b:
        return a
    hi, lo = _sorted_pair(a, b)
    hi_s, lo_s, m = _unit_scaled(hi, lo)
    d = (hi_s - lo_s) / lo_s
    if not math.isfinite(d):
        return (hi - lo) / (math.log(hi) - math.log(lo))
    return m * (lo_s * d / math.log1p(d))


def ln_logarithmic(a, b) -> float:
    """ln L(a, b), stable for all argument separations."""
    a, b = _pair(a, b)
    if a == b:
        return math.log(a)
    hi, lo = _sorted_pair(a, b)
    hi_s, lo_s, m = _unit_scaled(hi, lo)
    d = (hi_s - lo_s) / lo_s
    if not math.isfinite(d):
        return math.log(hi - lo) - math.log(math.log(hi) - math.log(lo))
    return math.log(m) + math.log(lo_s * d / math.log1p(d))


def _identric_exponent(hi, lo, s):
    """ln I - ln((a+b)/2) for the scaled pair, via series or the direct form.

    With t = (hi-lo)/(hi+lo) the gap is 1 - t^2/6 - t^4/20 - t^6/42 - ... - 1;
    the even series runs for |t| < IDENTRIC_SERIES_T where the direct form
    would cancel, and the direct form (v ln v - u ln u)/(v - u) - 1 on the
    normalized arguments v = hi/s, u = lo/s is stable for every larger t.
    """
    t = (0.5 * hi - 0.5 * lo) / s
    if t == 0.0:
        return 0.0
    if t < IDENTRIC_SERIES_T:
        # coefficients 1/(2k(2k+1)); the t^8 term is < 1e-26 inside the window
        tt = t * t
        return -tt * (1.0 / 6.0 + tt * (1.0 / 20.0 + tt * (1.0 / 42.0)))
    v = hi / s
    u = lo / s
    if u == 0.0:
        # the smaller argument vanished at binary64 scale
        return math.log(v) - 1.0
    return (v * math.log(v) - u * math.log(u)) / (v - u) - 1.0


def identric_mean(a, b) -> float:
    """(1/e) (a^a / b^b)^(1/(a-b)), extended by continuity to a at a = b."""
    return _identric_mean(*_pair(a, b))


def _identric_mean(a, b):
    if a == b:
        return a
    hi, lo, m = _unit_scaled(*_sorted_pair(a, b))
    s = 0.5 * hi + 0.5 * lo
    return m * (s * math.exp(_identric_exponent(hi, lo, s)))


def ln_identric(a, b) -> float:
    """ln I(a, b) with full absolute accuracy, also when a is within ulps of b.

    Needed wherever ln I enters a difference whose scale is far below |ln I|
    itself (ratio-function derivatives, tangent-line slacks).
    """
    return _ln_identric(*_pair(a, b))


def _ln_identric(a, b):
    if a == b:
        return math.log(a)
    hi, lo, m = _unit_scaled(*_sorted_pair(a, b))
    s = 0.5 * hi + 0.5 * lo
    return math.log(m) + math.log(s) + _identric_exponent(hi, lo, s)


def _ln_sinhc(y):
    """ln(sinh(y)/y) for any real y (even in y)."""
    y = abs(y)
    if y < 1e-4:
        yy = y * y
        return yy * (1.0 / 6.0 - yy / 180.0)
    if y > 350.0:
        return y - math.log(2.0 * y)
    return math.log(math.sinh(y) / y)


def _log_expm1(y):
    """ln(e^y - 1) for y > 0."""
    if y > 40.0:
        return y + math.log1p(-math.exp(-y))
    return math.log(math.expm1(y))


def p_logarithmic_mean(a, b, p) -> float:
    """The p-logarithmic mean ((a^(p+1) - b^(p+1)) / ((p+1)(a-b)))^(1/p).

    Exponents within P_SNAP of 0 return the identric mean, within P_SNAP of
    -1 the logarithmic mean (their limits).  Elsewhere the closed form is
    evaluated in the log domain through expm1/log1p so accuracy is uniform in
    p; near p = -1 a sinh-based rearrangement removes the remaining
    cancellation.
    """
    a, b = _pair(a, b)
    return _p_logarithmic_mean(a, b, _finite_exponent(p))


def _finite_exponent(p):
    p = float(p)
    if not math.isfinite(p):
        raise ValueError(f"exponent must be finite, got {p!r}")
    return p


def _p_logarithmic_mean(a, b, p):
    """Lp at a finite float exponent p."""
    if a == b:
        return a
    if abs(p) <= P_SNAP:
        return _identric_mean(a, b)
    if abs(p + 1.0) <= P_SNAP:
        return _logarithmic_mean(a, b)              # the p = -1 limit
    hi, lo, m = _unit_scaled(*_sorted_pair(a, b))
    t = (0.5 * hi - 0.5 * lo) / (0.5 * hi + 0.5 * lo)
    if t <= 0.1 and abs(p) <= 8.0:
        # most accurate where it converges: a few ulp at any p in range
        return m * _lp_series_form(hi, lo, p)
    parts = _lp_beta(hi, lo, p)
    if parts is not None:
        beta, damage = parts
        # damage estimates the roundoff amplification of ln Lp in ulps;
        # the expm1 form is exact in the p -> 0 limit whenever it is mild
        if damage <= 300.0:
            return m * math.exp(math.log1p(beta) / p)
    if abs(1.0 + p) <= 0.5 or t <= 0.025:
        # |1/p| <= 2, or a near-equal pair whose sinhc terms are all small:
        # the 1/p amplification cannot act on anything large
        return m * _lp_sinhc_form(hi, lo, p)
    return m * _lp_plain_form(hi, lo, p)


def _lp_series_form(hi, lo, p):
    # ln Lp = ln s + w * log1p(p w)/(p w) where w is the odd binomial tail of
    # ((1+t)^{p+1} - (1-t)^{p+1}) / (2(p+1)t) with the leading p divided out
    # term by term, so nothing is amplified as p -> 0:
    #   w = sum_k c_{2k} t^{2k},  c_2 = (p-1)/6,
    #   c_{2k+2} = c_{2k} (p-2k)(p-2k-1) / ((2k+2)(2k+3))
    s = 0.5 * hi + 0.5 * lo
    t = (0.5 * hi - 0.5 * lo) / s
    tt = t * t
    c = (p - 1.0) / 6.0
    term = c * tt
    w = term
    k = 1
    while abs(term) > 1e-19 * max(abs(w), 1e-30) and k < 60:
        c = c * (p - 2.0 * k) * (p - 2.0 * k - 1.0) / ((2.0 * k + 2.0) * (2.0 * k + 3.0))
        k += 1
        term = c * tt ** k
        w += term
    z = p * w
    if abs(z) < 1e-8:
        factor = 1.0 - 0.5 * z
    else:
        factor = math.log1p(z) / z
    return s * math.exp(w * factor)


def _lp_sinhc_form(hi, lo, p):
    # ln Lp = (q*lnG + ln sinhc(q*r/2) - ln L) / p: an exact rearrangement of
    # the closed form through (hi^q - lo^q)/q = e^{q m} * r * sinhc(q r / 2)
    q = 1.0 + p
    ln_hi = math.log(hi)
    ln_lo = math.log(lo)
    d = (hi - lo) / lo
    if math.isfinite(d):
        r = math.log1p(d)
        ln_l = ln_lo + math.log(d / r)
    else:   # hi/lo past binary64: ln L from the difference, as _logarithmic_mean
        r = ln_hi - ln_lo
        ln_l = math.log(hi - lo) - math.log(r)
    bracket = q * (0.5 * (ln_hi + ln_lo)) + _ln_sinhc(0.5 * q * r) - ln_l
    return math.exp(bracket / p)


def _lp_beta(hi, lo, p):
    """(base - 1, damage) for base = (hi^q - lo^q)/(q (hi-lo)), or None.

    ``damage`` bounds the roundoff amplification of ln Lp through this form:
    eps * pieces / (|q| (hi-lo) |p| (1+beta)).  It blows up exactly where the
    piece difference cancels (q -> 0, or nearly equal arguments).
    """
    ln_hi = math.log(hi)
    ln_lo = math.log(lo)
    if p * ln_hi >= 700.0 or p * ln_lo >= 700.0:
        return None
    e_hi = math.expm1(p * ln_hi)
    e_lo = math.expm1(p * ln_lo)
    num = hi * (e_hi - p) - lo * (e_lo - p)
    q = 1.0 + p
    beta = num / (q * (hi - lo))
    if not math.isfinite(beta) or beta <= -1.0:
        return None
    # pre-cancellation magnitudes: roundoff enters at this scale, not |num|
    pieces = hi * (abs(e_hi) + abs(p)) + lo * (abs(e_lo) + abs(p))
    damage = pieces / (abs(q) * (hi - lo) * max(abs(p), 1e-300) * (1.0 + beta))
    return beta, damage


def _lp_plain_form(hi, lo, p):
    # plain log-domain closed form; reached only with |p| bounded away from
    # zero and well-separated arguments, where 1/p amplification is harmless
    q = 1.0 + p
    ln_hi = math.log(hi)
    ln_lo = math.log(lo)
    r = ln_hi - ln_lo
    if q > 0.0:
        ln_num = q * ln_lo + _log_expm1(q * r)
    else:
        ln_num = q * ln_hi + _log_expm1(-q * r)
    ln_base = ln_num - math.log(abs(q)) - math.log(hi - lo)
    return math.exp(ln_base / p)


def mean_chain_slacks(a, b):
    """The four slacks (G-H, L-G, I-L, A-I) of the chain H <= G <= L <= I <= A.

    All are >= 0, and exactly zero only for a == b (which short-circuits).
    """
    a, b = _pair(a, b)
    if a == b:
        return (0.0, 0.0, 0.0, 0.0)
    g = geometric_mean(a, b)
    h = harmonic_mean(a, b)
    ll = _logarithmic_mean(a, b)
    i = _identric_mean(a, b)
    aa = arithmetic_mean(a, b)
    return (g - h, ll - g, i - ll, aa - i)


def evaluate_mean(mean_id, a, b, p=None) -> float:
    """Dispatch a mean by its stable string id (A, G, H, L, I, Lp)."""
    if mean_id == "A":
        return arithmetic_mean(a, b)
    if mean_id == "G":
        return geometric_mean(a, b)
    if mean_id == "H":
        return harmonic_mean(a, b)
    if mean_id == "L":
        return logarithmic_mean(a, b)
    if mean_id == "I":
        return identric_mean(a, b)
    if mean_id == "Lp":
        if p is None:
            raise ValueError("mean Lp requires the exponent p")
        return p_logarithmic_mean(a, b, p)
    raise ValueError(f"unknown mean id {mean_id!r}; expected one of {MEAN_IDS}")
