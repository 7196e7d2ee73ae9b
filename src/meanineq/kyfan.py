"""Ky Fan statistics and the refinement/inverse inequalities EQ18 .. EQ31.

For a sample x_1..x_n in (0, 1/2] the module computes the unweighted
arithmetic and geometric means A, G of the sample and A', G' of the
complements 1 - x_i, then evaluates:

* EQ18  A'/G' <= A/G                  (classic, log domain)
* EQ19  A' - G' <= A - G              (additive analogue)
* EQ20  A^n - G^n <= A'^n - G'^n      (power analogue; identity for n <= 2)
* EQ21 .. EQ31: refinements and inverses, expanded link by link in the log
  domain with the identric and logarithmic pieces delegated to the means
  module on the pairs (A', G') and (A, G).

Strict chains (EQ23 .. EQ31) require a not-all-equal sample; EQ21/EQ22 are
non-strict and collapse to equality on constant samples.  Everything is a
pure function of the sample.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .means import ln_identric, ln_logarithmic
from .ratio import OrderedQuad, log_ratio_value, ratio_value
from .report import HypothesisViolation, build_report, check_finite_positive
from . import catalog

__all__ = [
    "KyFanSample", "KyFanStats", "KYFAN_IDS",
    "compute_stats", "classic_slacks", "refinement_slacks", "all_slacks",
    "complement_ratio_probe", "bridge_slacks",
]

KYFAN_IDS = tuple(f"EQ{k}" for k in range(18, 32))

#: ln of the largest binary64: math.exp is finite up to here and raises past it.
_LN_MAX = math.log(sys.float_info.max)

#: Samples whose relative spread is below this count as on the equality
#: manifold when a margin lands inside the verdict tolerance.  The bound
#: covers the zone where the quartic-order chain links (e.g. the n = 2
#: inverse tail of EQ27) sit beneath binary64 noise and their computed sign
#: is not meaningful.
SPREAD_EQUALITY = 5e-2


# A NamedTuple body cannot define __new__, so KyFanSample's checks sit in a
# subclass; _make and _replace skip them.
class _KyFanSampleFields(NamedTuple):
    values: tuple


class KyFanSample(_KyFanSampleFields):
    """n reals in (0, 1/2]; values outside the interval are rejected, not clamped."""

    __slots__ = ()

    def __new__(cls, values):
        vals = tuple(float(v) for v in values)
        if len(vals) < 1:
            raise ValueError("sample needs at least one value")
        for v in vals:
            if not (math.isfinite(v) and 0.0 < v <= 0.5):
                raise ValueError(f"sample values must lie in (0, 1/2], got {v!r}")
        return super().__new__(cls, vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def all_equal(self) -> bool:
        return max(self.values) - min(self.values) <= 0.0


class KyFanStats(NamedTuple):
    """Derived means: A, G of the sample, A', G' of the complements, plus logs.

    ``r`` and ``r_prime`` are ln(A/G) and ln(A'/G') computed through log1p on
    the mean values, which keeps full relative accuracy when a sample is
    nearly constant and the two means almost coincide.
    """

    n: int
    a: float
    g: float
    a_prime: float
    g_prime: float
    ln_a: float
    ln_g: float
    ln_a_prime: float
    ln_g_prime: float
    r: float
    r_prime: float
    all_equal: bool
    spread: float

    def as_dict(self) -> dict:
        return {"n": self.n, "A": self.a, "G": self.g,
                "A_prime": self.a_prime, "G_prime": self.g_prime}


def compute_stats(sample: KyFanSample) -> KyFanStats:
    """A, A' by exact summation; G, G' through means of logarithms."""
    if not isinstance(sample, KyFanSample):
        sample = KyFanSample(sample)
    n = sample.n
    xs = sample.values
    if sample.all_equal:
        x = xs[0]
        comp = 1.0 - x
        return KyFanStats(n=n, a=x, g=x, a_prime=comp, g_prime=comp,
                          ln_a=math.log(x), ln_g=math.log(x),
                          ln_a_prime=math.log1p(-x), ln_g_prime=math.log1p(-x),
                          r=0.0, r_prime=0.0, all_equal=True, spread=0.0)
    a = math.fsum(xs) / n
    ln_g = math.fsum(math.log(x) for x in xs) / n
    a_prime = math.fsum(1.0 - x for x in xs) / n
    ln_g_prime = math.fsum(math.log1p(-x) for x in xs) / n
    g = math.exp(ln_g)
    g_prime = math.exp(ln_g_prime)
    spread = (max(xs) - min(xs)) / a
    return KyFanStats(n=n, a=a, g=g,
                      a_prime=a_prime, g_prime=g_prime,
                      ln_a=math.log(a), ln_g=ln_g,
                      ln_a_prime=math.log(a_prime), ln_g_prime=ln_g_prime,
                      r=math.log1p((a - g) / g),
                      r_prime=math.log1p((a_prime - g_prime) / g_prime),
                      all_equal=False, spread=spread)


def _ln_pow_diff(ln_u, r, k):
    """ln(U^k - V^k) from ln U and the accurate gap r = ln(U/V) > 0."""
    return k * ln_u + math.log(-math.expm1(-k * r))


def _pow_diff(ln_u, r, k):
    """U^k - V^k computed as exp(k ln U) * (1 - exp(-k r)), r = ln(U/V)."""
    return math.exp(k * ln_u) * (-math.expm1(-k * r))


def _on_manifold(stats):
    return stats.all_equal or stats.spread <= SPREAD_EQUALITY


def _powers_underflow(stats):
    # A^n, G^n below the binary64 range make EQ20's additive slack vacuous
    return stats.n * stats.ln_a < -700.0


def classic_slacks(stats: KyFanStats) -> dict:
    """Reports for EQ18, EQ19, EQ20, keyed by id."""
    eq = _on_manifold(stats)
    inputs = stats.as_dict()
    s18 = stats.r - stats.r_prime
    rep18 = build_report("EQ18", inputs, ("ratio",), (s18,), "log_ratio",
                         on_equality_manifold=eq)
    d = (stats.a - stats.g)
    dp = (stats.a_prime - stats.g_prime)
    rep19 = build_report("EQ19", inputs, ("difference",), (d - dp,), "additive",
                         scale=max(d, dp, 1e-300), on_equality_manifold=eq)
    if stats.all_equal or _powers_underflow(stats):
        pd = pdp = 0.0
    else:
        pd = _pow_diff(stats.ln_a, stats.r, stats.n)
        pdp = _pow_diff(stats.ln_a_prime, stats.r_prime, stats.n)
    # the A'-G' subtraction injects absolute noise ~ n*eps into the power
    # difference, so the tolerance carries that floor (the n <= 2 identity
    # evaluates to pure roundoff of exactly this size)
    tol20 = max(1e-9 * max(pd, pdp, 1e-300), stats.n * 5e-16)
    rep20 = build_report("EQ20", inputs, ("power_difference",), (pdp - pd,), "additive",
                         tolerance=tol20,
                         on_equality_manifold=eq or stats.n <= 2 or _powers_underflow(stats))
    return {"EQ18": rep18, "EQ19": rep19, "EQ20": rep20}


def _refinement_links(stats: KyFanStats) -> dict:
    """Raw link slacks of EQ21 .. EQ31 in the log domain, keyed by id."""
    n = stats.n
    a, g, ap, gp = stats.a, stats.g, stats.a_prime, stats.g_prime
    r, rp = stats.r, stats.r_prime
    ln_a, ln_g, ln_ap, ln_gp = stats.ln_a, stats.ln_g, stats.ln_a_prime, stats.ln_g_prime

    secant = (ap - gp) / (a - g)                   # (A'-G')/(A-G)
    ln_s = 0.5 * ((ln_ap + ln_gp) - (ln_a + ln_g))  # ln sqrt(A'G'/(AG)) > 0
    ln_ir = ln_identric(ap, gp) - ln_identric(a, g)
    ln_pd = _ln_pow_diff(ln_a, r, n)
    ln_pdp = _ln_pow_diff(ln_ap, rp, n)

    out = {}
    out["EQ21"] = ((a + g) * r - (ap + gp) * rp,)
    out["EQ22"] = ((ap - gp) * r - (a - g) * rp,)

    # EQ23: A'/G' < (A/G)^e1 < (A/G)^e2 < (A/G)^e3 < A/G
    l1 = secant * r - rp * ln_s - rp
    l2 = 0.5 * rp * (r - rp)
    l3 = r * ((a - g) - (ap - gp)) / (a - g)
    l4 = rp * (ln_ap - ln_a)
    out["EQ23"] = (l1, l2, l3, l4)

    # EQ24: A'/G' < max{T1, T2} < T3 < A/G
    ln_t1 = rp * (1.0 + ln_s)
    ln_t2 = rp / secant
    ln_t3 = rp * (1.0 + ln_s) / secant
    mx = max(ln_t1, ln_t2)
    out["EQ24"] = (mx - rp, ln_t3 - mx, r - ln_t3)

    # EQ25: power-difference ratio < (A'^n G'^n R') / (A^n G^n R)
    lhs = ln_pdp - ln_pd
    rhs = n * ((ln_ap + ln_gp) - (ln_a + ln_g)) + math.log(rp) - math.log(r)
    out["EQ25"] = (rhs - lhs,)

    # EQ26: max{M0a, M0b} < R'/R < M2 < min{M3a, M3b} < 1 (logs of members)
    m0a = (ln_pdp - ln_pd) + 0.5 * n * ((ln_a + ln_g) - (ln_ap + ln_gp))
    m0b = math.log(secant) - ln_s
    m1 = math.log(rp) - math.log(r)
    m2 = math.log(secant) + math.log(ln_ir) - math.log(ln_s)
    m3a = math.log(secant)
    m3b = math.log(ln_ir) - math.log(ln_s)
    mn = min(m3a, m3b)
    out["EQ26"] = (m1 - max(m0a, m0b), m2 - m1, mn - m2, -mn)

    # EQ27: A'/G' < (A'/G')^(ln_s/ln_ir) < (A/G)^secant < A/G < (A'/G')^((A'G'/AG)^(n/2))
    ln_d1 = rp * ln_s / ln_ir
    ln_d2 = r * secant
    t = n * ln_s
    if t <= _LN_MAX:
        ln_d4 = rp * math.exp(t)
    else:   # e^t is past binary64 but rp < 1 may bring rp e^t back; +inf if not
        u = t + math.log(rp)
        ln_d4 = math.exp(u) if u <= _LN_MAX else math.inf
    out["EQ27"] = (ln_d1 - rp, ln_d2 - ln_d1, r - ln_d2, ln_d4 - r)

    # EQ28: pd-ratio < ((A'G')^(n/2) R') / ((AG)^(n/2) R) < (A'G'/(AG))^(n/2)
    k1 = 0.5 * n * ((ln_ap + ln_gp) - (ln_a + ln_g)) + math.log(rp) - math.log(r)
    k2 = 0.5 * n * ((ln_ap + ln_gp) - (ln_a + ln_g))
    out["EQ28"] = (k1 - lhs, k2 - k1)

    # EQ29: A'/G' < (A/G)^(sumratio*secant) < min pair < A/G
    sumratio = (a + g) / (ap + gp)
    ln_m1 = r * sumratio * secant
    mn29 = min(r * sumratio, r * secant)
    out["EQ29"] = (ln_m1 - rp, mn29 - ln_m1, r - mn29)

    # EQ30: A'/G' < (A'/G')^(Ir/secant) < A/G with Ir = I(A',G')/I(A,G)
    ln_d1 = rp * math.exp(ln_ir) / secant
    out["EQ30"] = (ln_d1 - rp, r - ln_d1)

    # EQ31: AG/(A'G') < min{ (L(A,G)/L(A',G'))^2, powered analogue } < 1
    v0 = (ln_a + ln_g) - (ln_ap + ln_gp)
    v1a = 2.0 * (ln_logarithmic(a, g) - ln_logarithmic(ap, gp))
    v1b = (2.0 / n) * ((math.log(rp) - math.log(r)) + (ln_pd - ln_pdp))
    mn31 = min(v1a, v1b)
    out["EQ31"] = (mn31 - v0, -mn31)
    return out


_REFINEMENT_LINK_NAMES = {
    "EQ21": ("exponent_sum",),
    "EQ22": ("exponent_cross",),
    "EQ23": ("first", "second", "third", "fourth"),
    "EQ24": ("max_pair", "combined", "upper"),
    "EQ25": ("inverse_power",),
    "EQ26": ("lower_max", "middle", "upper_min", "below_one"),
    "EQ27": ("first", "second", "third", "inverse_tail"),
    "EQ28": ("lower", "upper"),
    "EQ29": ("first", "min_pair", "upper"),
    "EQ30": ("lower", "upper"),
    "EQ31": ("min_pair", "below_one"),
}


def refinement_slacks(stats: KyFanStats) -> dict:
    """Reports for EQ21 .. EQ31, keyed by id.

    EQ21/EQ22 accept constant samples (non-strict); the strict chains
    EQ23 .. EQ31 reject them with HypothesisViolation.
    """
    inputs = stats.as_dict()
    out = {}
    if stats.all_equal:
        for id in ("EQ21", "EQ22"):
            links = _REFINEMENT_LINK_NAMES[id]
            out[id] = build_report(id, inputs, links, (0.0,) * len(links),
                                   "log_ratio", on_equality_manifold=True)
        return out
    eq = _on_manifold(stats)
    for id, slacks in _refinement_links(stats).items():
        out[id] = build_report(id, inputs, _REFINEMENT_LINK_NAMES[id], slacks,
                               "log_ratio", on_equality_manifold=eq)
    return out


def all_slacks(stats: KyFanStats) -> dict:
    """EQ18 .. EQ31 in one dict; strict ids are skipped for constant samples."""
    out = classic_slacks(stats)
    out.update(refinement_slacks(stats))
    return out


def _stats_quad(stats: KyFanStats) -> OrderedQuad:
    if stats.all_equal:
        raise HypothesisViolation("constant samples give a degenerate quadruple")
    return OrderedQuad(stats.a_prime, stats.g_prime, stats.a, stats.g)


def complement_ratio_probe(stats: KyFanStats, x: float) -> float:
    """The ratio (A'^x - G'^x)/(A^x - G^x) via the quadruple (A', G', A, G).

    Well-defined because A' > G' > A > G for any not-all-equal sample.
    """
    return ratio_value(_stats_quad(stats), x)


def bridge_slacks(stats: KyFanStats) -> dict:
    """Shared slacks computed by both paths: this module vs the catalog.

    Returns ``name -> (kyfan_value, catalog_value)`` where both entries are
    the same mathematical quantity reached through independent code paths:
    the Ky Fan formulas on the stats versus the inequality catalog on the
    quadruple (A', G', A, G).  Used to certify the two stay within 1e-12.
    """
    quad = _stats_quad(stats)
    n = stats.n
    links = _refinement_links(stats)
    out = {}

    # mean-ratio chain on the quadruple: catalog EQ14 vs stats-level formulas
    cat14 = catalog.chain_eq14(quad)  # negative discriminant: descending chain
    secant = (stats.a_prime - stats.g_prime) / (stats.a - stats.g)
    ln_lr = math.log(secant) + math.log(stats.r) - math.log(stats.r_prime)
    ln_gr = 0.5 * ((stats.ln_a_prime + stats.ln_g_prime) - (stats.ln_a + stats.ln_g))
    ln_ir = ln_identric(stats.a_prime, stats.g_prime) - ln_identric(stats.a, stats.g)
    ln_ar = (math.log(stats.a_prime + stats.g_prime) - math.log(stats.a + stats.g))
    ln_hr = 2.0 * ln_gr - ln_ar
    ky14 = (ln_hr - ln_gr, ln_gr - ln_lr, ln_lr - ln_ir, ln_ir - ln_ar)
    for name, k, c in zip(("H_to_G", "G_to_L", "L_to_I", "I_to_A"), ky14, cat14.slacks):
        out[f"eq14_{name}"] = (k, c)

    # EQ23 first link equals R' times the first EQ8 slack on the quadruple
    cat8 = catalog.slack_eq8(quad)
    out["eq23_first_vs_eq8"] = (links["EQ23"][0], stats.r_prime * cat8.slacks[0])

    # EQ25 slack equals ln r(0) - ln r(-n) of the ratio on the quadruple
    g0 = log_ratio_value(quad, 0.0)
    gmn = log_ratio_value(quad, float(-n))
    out["eq25_vs_ratio_probe"] = (links["EQ25"][0], g0 - gmn)

    # EQ26 first max-member vs the G-to-L link of EQ14 on the powered quadruple
    qn = OrderedQuad(math.exp(n * stats.ln_a_prime), math.exp(n * stats.ln_g_prime),
                     math.exp(n * stats.ln_a), math.exp(n * stats.ln_g))
    cat14n = catalog.chain_eq14(qn)
    m1 = math.log(stats.r_prime) - math.log(stats.r)
    m0a = (_ln_pow_diff(stats.ln_a_prime, stats.r_prime, n)
           - _ln_pow_diff(stats.ln_a, stats.r, n)
           + 0.5 * n * ((stats.ln_a + stats.ln_g) - (stats.ln_a_prime + stats.ln_g_prime)))
    out["eq26_lower_vs_powered_eq14"] = (m1 - m0a, cat14n.slacks[1])
    return out
