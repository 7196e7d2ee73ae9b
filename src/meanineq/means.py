"""Numerically careful two-argument special means.

Provides the arithmetic (A), geometric (G), harmonic (H), logarithmic (L),
identric (I) and p-logarithmic (Lp) means of two positive reals, a stable
``ln I`` helper, and the slack decomposition of the classical chain
H <= G <= L <= I <= A.

All functions are pure.  Equal arguments short-circuit to the common value,
matching the limit definitions of L, I and Lp.  Near-equal arguments go
through series / log1p forms, so the relative error stays at a few ulp
instead of degrading like 1/|a-b|.  L, I and Lp internally rescale by a power
of two so intermediate sums and products cannot overflow and degree-1
homogeneity survives to a few ulp.

Lp runs on one kernel, lambda(w) = ln(sinh w / w) (``_ln_sinhc``): with
h = ln(a/b)/2, ln Lp = ln G + B(h, p)/p, where the bracket B(h, p) =
lambda((1+p) h) - lambda(h) (``_lp_bracket``, which the catalog reads too) does
not cancel near p = 0, so Lp is continuous in p and returns I and L at p = 0, -1.

Each of L, ln L, I, ln I and Lp has one body, a private kernel that reads a
*scaled pair* (``_scaled_pair``): the two arguments with their power-of-two
rescaling and the quantities s and t that I reads.  A caller that reads
several means of one pair builds it once.  The public functions check their
arguments, build the pair and call the same kernels.
"""

from __future__ import annotations

import math

from .report import check_finite_positive

__all__ = [
    "arithmetic_mean", "geometric_mean", "harmonic_mean",
    "logarithmic_mean", "identric_mean", "p_logarithmic_mean",
    "ln_identric", "ln_logarithmic", "mean_chain_slacks", "evaluate_mean",
    "MEAN_IDS", "IDENTRIC_SERIES_T",
]

#: Half-width |(a-b)/(a+b)| of the identric mean's series branch.
IDENTRIC_SERIES_T = 1e-3

_LN2 = math.log(2.0)

MEAN_IDS = ("A", "G", "H", "L", "I", "Lp")


# L, ln L, I, ln I and Lp check their inputs with _pair and hand their scaled
# pair to private kernels, each the one body of its formula.  A kernel takes
# the scaled pair of two finite positive floats; the catalog, Ky Fan and
# ratio, whose arguments are checked or positive by construction, build the
# pairs and call the kernels directly.

def _pair(a, b):
    return check_finite_positive("a", a), check_finite_positive("b", b)


def _scaled_pair(a, b):
    """``(a, b, hi, lo, m, s, t)``: the pair of finite positive floats a, b as
    the kernels read it.

    hi >= lo are a and b sorted and divided by a power of two m, so their
    geometric mean is near 1; power-of-two scaling is exact, which keeps the
    means' homogeneity tight and removes overflow from intermediate sums and
    products.  Where the pair spans nearly all of binary64, m's exponent is
    clamped so that m, hi and lo stay finite and nonzero.  s = (hi + lo)/2
    and t = (hi - lo)/(hi + lo), which I reads, are formed from halves so the
    sum cannot overflow.  Equal arguments are not scaled (m = 1, t = 0):
    every kernel returns their common value before reading the rest.
    """
    if a == b:
        return a, b, a, b, 1.0, a, 0.0
    hi, lo = (a, b) if a > b else (b, a)
    k = (math.frexp(hi)[1] + math.frexp(lo)[1]) >> 1
    if hi > 1e300 or lo < 1e-300:
        # with e = frexp's exponent, hi / 2^k < 2^1024 needs k >= e(hi) - 1024,
        # lo / 2^k >= 2^-1074 needs k <= e(lo) + 1073, and 2^k itself needs
        # k <= 1023; inside [1e-300, 1e300] the midpoint k meets all three
        k = min(max(k, math.frexp(hi)[1] - 1024), math.frexp(lo)[1] + 1073, 1023)
    m = math.ldexp(1.0, k)
    hi /= m
    lo /= m
    s = 0.5 * hi + 0.5 * lo
    return a, b, hi, lo, m, s, (0.5 * hi - 0.5 * lo) / s


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
    return _logarithmic_mean(_scaled_pair(*_pair(a, b)))


def _logarithmic_mean(pair):
    a, b, hi, lo, m, _, _ = pair
    if a == b:
        return a
    d = (hi - lo) / lo
    if not math.isfinite(d):
        # both differences change sign with the order, so the quotient does not
        return (a - b) / (math.log(a) - math.log(b))
    return m * (lo * d / math.log1p(d))


def ln_logarithmic(a, b) -> float:
    """ln L(a, b), stable for all argument separations."""
    return _ln_logarithmic(_scaled_pair(*_pair(a, b)))


def _ln_logarithmic(pair):
    a, b, hi, lo, m, _, _ = pair
    if a == b:
        return math.log(a)
    d = (hi - lo) / lo
    if not math.isfinite(d):
        return math.log(abs(a - b)) - math.log(abs(math.log(a) - math.log(b)))
    return math.log(m) + math.log(lo * d / math.log1p(d))


def _identric_exponent(hi, lo, s, t):
    """ln I - ln((a+b)/2) for the scaled pair, via series or the direct form.

    With t = (hi-lo)/(hi+lo) the gap is 1 - t^2/6 - t^4/20 - t^6/42 - ... - 1;
    the even series runs for |t| < IDENTRIC_SERIES_T where the direct form
    would cancel, and the direct form (v ln v - u ln u)/(v - u) - 1 on the
    normalized arguments v = hi/s, u = lo/s is stable for every larger t.
    """
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
    return _identric_mean(_scaled_pair(*_pair(a, b)))


def _identric_mean(pair):
    a, b, hi, lo, m, s, t = pair
    if a == b:
        return a
    return m * (s * math.exp(_identric_exponent(hi, lo, s, t)))


def ln_identric(a, b) -> float:
    """ln I(a, b) with full absolute accuracy, also when a is within ulps of b.

    Needed wherever ln I enters a difference whose scale is far below |ln I|
    itself (ratio-function derivatives, tangent-line slacks).
    """
    return _ln_identric(_scaled_pair(*_pair(a, b)))


def _ln_identric(pair):
    a, b, hi, lo, m, s, t = pair
    if a == b:
        return math.log(a)
    return math.log(m) + math.log(s) + _identric_exponent(hi, lo, s, t)


def _ln_sinhc(y):
    """lambda(y) = ln(sinh(y)/y) for any real y (even in y), to a few ulp
    relative.

    Below |y| = 1.5, where the direct form would keep only absolute accuracy,
    log1p of the Taylor series sum y^2k / (2k+1)! of sinh(y)/y - 1 through
    y^20: the first term it leaves out is under 1e-18 of the sum.
    """
    y = abs(y)
    if y < 1.5:
        yy = y * y
        return math.log1p(yy * (1.0 / 6.0 + yy * (1.0 / 120.0 + yy * (1.0 / 5040.0 + yy * (
            1.0 / 362880.0 + yy * (1.0 / 39916800.0 + yy * (1.0 / 6227020800.0 + yy * (
                1.0 / 1307674368000.0 + yy * (1.0 / 355687428096000.0 + yy * (
                    1.0 / 121645100408832000.0 + yy * (1.0 / 51090942171709440000.0)))))))))))
    if y > 350.0:
        return y - math.log(y) - _LN2
    return math.log(math.sinh(y) / y)


def p_logarithmic_mean(a, b, p) -> float:
    """The p-logarithmic mean ((a^(p+1) - b^(p+1)) / ((p+1)(a-b)))^(1/p).

    Lp is the Stolarsky mean S_{p+1}, continuous in p: p = 0 returns the
    identric mean and p = -1 the logarithmic mean, their limits, and as
    p -> +-inf it tends to max(a, b) and min(a, b).  ln Lp = ln G + B(h, p)/p
    with h = ln(a/b)/2 and the bracket B of ``_lp_bracket``, which is taken
    through expm1/log1p within 1/2 of p = 0 (and of p = -2, its mirror image
    in lambda), so nothing cancels and accuracy is uniform in p.
    """
    a, b = _pair(a, b)
    p = _finite_exponent(p)
    return _p_logarithmic_mean(_scaled_pair(a, b), p)


def _finite_exponent(p):
    p = float(p)
    if not math.isfinite(p):
        raise ValueError(f"exponent must be finite, got {p!r}")
    return p


def _p_logarithmic_mean(pair, p):
    """Lp of a scaled pair at a finite float exponent p."""
    a, b, hi, lo, m, _, _ = pair
    if a == b:
        return a
    if abs(p) < 2.0 ** -60:
        # |ln Lp - ln I| <= |p|/2: below an ulp of I, and p = 0 is I itself
        return _identric_mean(pair)
    if p == -1.0:
        return _logarithmic_mean(pair)
    ln_hi = math.log(hi)
    ln_lo = math.log(lo)
    d = (hi - lo) / lo
    diff = _lp_bracket(0.5 * (math.log1p(d) if math.isfinite(d) else ln_hi - ln_lo), p)
    if diff == math.inf:
        return max(a, b) if p > 0.0 else min(a, b)
    return m * math.exp(0.5 * (ln_hi + ln_lo) + diff / p)


def _lp_bracket(h, p, lam_h=None):
    """B(h, p) = lambda((1+p) h) - lambda(h), h > 0, p finite, lam_h = lambda(h)
    if the caller has it: ln Lp = ln G + B/p at h = ln(a/b)/2.  +inf where
    (1+p) h overflows, where B/p tends to h for p > 0 and to -h for p < 0."""
    # lambda is even, so lambda((1+p) h) = lambda((1+e) h) with e = |1+p| - 1
    e = p if p > -1.0 else -2.0 - p
    w = (1.0 + e) * h
    if w == math.inf:
        return w
    if abs(e) <= 0.5:
        # lambda((1+e) h) - lambda(h) with lambda(w) = w - ln 2w + ln(1 - e^-2w),
        # the difference of the last terms taken as one log1p
        u = math.exp(-2.0 * min(h, w)) * math.expm1(-2.0 * abs(e) * h) / math.expm1(-2.0 * h)
        return e * h - math.log1p(e) + math.log1p(u if e > 0.0 else -u)
    return _ln_sinhc(w) - (_ln_sinhc(h) if lam_h is None else lam_h)


def mean_chain_slacks(a, b):
    """The four slacks (G-H, L-G, I-L, A-I) of the chain H <= G <= L <= I <= A.

    All are >= 0, and exactly zero only for a == b (which short-circuits).
    """
    a, b = _pair(a, b)
    if a == b:
        return (0.0, 0.0, 0.0, 0.0)
    g = geometric_mean(a, b)
    h = harmonic_mean(a, b)
    pair = _scaled_pair(a, b)
    ll = _logarithmic_mean(pair)
    i = _identric_mean(pair)
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
