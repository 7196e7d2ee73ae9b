"""Ky Fan statistics and the refinement/inverse inequalities EQ18 .. EQ31.

For a sample x_1..x_n in (0, 1/2] the module computes the unweighted
arithmetic and geometric means A, G of the sample and A', G' of the
complements 1 - x_i, then evaluates:

* EQ18  A'/G' <= A/G                  (classic, log domain)
* EQ19  A' - G' <= A - G              (additive analogue)
* EQ20  A^n - G^n <= A'^n - G'^n      (power analogue; identity for n <= 2)
* EQ21 .. EQ31: refinements and inverses, expanded link by link in the log
  domain with the identric and logarithmic pieces delegated to the means
  module's kernels on the scaled pairs of (A', G') and (A, G), each pair
  built once per sample.

Strict chains (EQ23 .. EQ31) require a not-all-equal sample; EQ21/EQ22 are
non-strict and collapse to equality on constant samples.  Everything is a
pure function of the sample.

A sample whose means binary64 cannot separate (A == G or A' == G' after
rounding, while the values differ) admits no strict chain; ``_rows`` raises
HypothesisViolation for it.

The Ky Fan table has two parts.  ``TABLE`` holds each id's constant
columns, its link names and margin domain, in a ``KyFanEntry`` as
``catalog.InequalityEntry`` holds them for the catalog.  ``_rows`` computes
each id's ``(slacks, tolerance, on_equality_manifold)`` from one sample's
statistics, in ``KYFAN_IDS`` order, each formula written once under its
``# EQnn`` comment.  ``all_slacks`` zips the two into a SlackReport per id,
for callers that show them; a sweep judges ``_rows``' list as it is,
through ``report.judge``, the rule a report's margin and verdict come from,
without a report.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

# The means' unchecked kernels, under the names the benchmark's tracer wraps;
# ``_rows`` says why their arguments need no check.
from .means import _ln_identric as ln_identric, _ln_logarithmic as ln_logarithmic, _scaled_pair
from .ratio import OrderedQuad, log_ratio_value, ratio_value
from .report import TOL_V, HypothesisViolation, build_report

__all__ = [
    "KyFanSample", "KyFanStats", "KyFanEntry", "TABLE", "KYFAN_IDS",
    "compute_stats", "all_slacks",
    "complement_ratio_probe", "bridge_slacks",
]


class KyFanEntry(NamedTuple):
    id: str
    links: tuple             # the link names, one per slack
    domain: str              # the slacks' margin domain: "log_ratio" or "additive"


#: The constant columns of the Ky Fan table, one entry per id in
#: ``KYFAN_IDS`` order; ``_rows`` gives each its slacks.
TABLE = (
    KyFanEntry("EQ18", ("ratio",), "log_ratio"),
    KyFanEntry("EQ19", ("difference",), "additive"),
    KyFanEntry("EQ20", ("power_difference",), "additive"),
    KyFanEntry("EQ21", ("exponent_sum",), "log_ratio"),
    KyFanEntry("EQ22", ("exponent_cross",), "log_ratio"),
    KyFanEntry("EQ23", ("first", "second", "third", "fourth"), "log_ratio"),
    KyFanEntry("EQ24", ("max_pair", "combined", "upper"), "log_ratio"),
    KyFanEntry("EQ25", ("inverse_power",), "log_ratio"),
    KyFanEntry("EQ26", ("lower_max", "middle", "upper_min", "below_one"), "log_ratio"),
    KyFanEntry("EQ27", ("first", "second", "third", "inverse_tail"), "log_ratio"),
    KyFanEntry("EQ28", ("lower", "upper"), "log_ratio"),
    KyFanEntry("EQ29", ("first", "min_pair", "upper"), "log_ratio"),
    KyFanEntry("EQ30", ("lower", "upper"), "log_ratio"),
    KyFanEntry("EQ31", ("min_pair", "below_one"), "log_ratio"),
)

KYFAN_IDS = tuple(entry.id for entry in TABLE)

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
        vals = tuple(map(float, values))
        if not vals:
            raise ValueError("sample needs at least one value")
        for v in vals:
            if not 0.0 < v <= 0.5:          # false for NaN and +-inf too
                raise ValueError(f"sample values must lie in (0, 1/2], got {v!r}")
        return super().__new__(cls, vals)


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
    xs = sample.values
    n = len(xs)
    width = max(xs) - min(xs)
    if width <= 0.0:
        x = xs[0]
        ln_x, ln_comp = math.log(x), math.log1p(-x)
        return KyFanStats(n, x, x, 1.0 - x, 1.0 - x, ln_x, ln_x, ln_comp, ln_comp,
                          0.0, 0.0, True, 0.0)
    a = math.fsum(xs) / n
    ln_g = math.fsum(map(math.log, xs)) / n
    a_prime = math.fsum([1.0 - x for x in xs]) / n
    ln_g_prime = math.fsum([math.log1p(-x) for x in xs]) / n
    g = math.exp(ln_g)
    g_prime = math.exp(ln_g_prime)
    return KyFanStats(n, a, g, a_prime, g_prime,
                      math.log(a), ln_g, math.log(a_prime), ln_g_prime,
                      math.log1p((a - g) / g), math.log1p((a_prime - g_prime) / g_prime),
                      False, width / a)


def _ln_pow_diff(ln_u, r, k):
    """ln(U^k - V^k) from ln U and the accurate gap r = ln(U/V) > 0."""
    return k * ln_u + math.log(-math.expm1(-k * r))


def _pow_diff(ln_u, r, k):
    """U^k - V^k computed as exp(k ln U) * (1 - exp(-k r)), r = ln(U/V)."""
    return math.exp(k * ln_u) * (-math.expm1(-k * r))


def _rows(stats: KyFanStats) -> list:
    """The Ky Fan table's computed columns: one ``(slacks, tolerance,
    on_equality_manifold)`` row per id the sample admits, in KYFAN_IDS order.

    Each shared intermediate is computed once.  A constant sample has
    r = r' = 0, so EQ21/EQ22 (non-strict) read 0 there and the strict chains
    EQ23 .. EQ31 have no row: its rows are EQ18 .. EQ22.  A sample that is
    not constant but whose means coincide in binary64 raises
    HypothesisViolation.
    """
    n, r, rp = stats.n, stats.r, stats.r_prime
    a, g, ap, gp = stats.a, stats.g, stats.a_prime, stats.g_prime
    ln_a, ln_ap = stats.ln_a, stats.ln_a_prime
    eq = stats.all_equal or stats.spread <= SPREAD_EQUALITY
    d, dp = a - g, ap - gp
    # A^n, G^n below the binary64 range make EQ20's additive slack vacuous
    underflow = n * ln_a < -700.0
    if stats.all_equal or underflow:
        pd = pdp = 0.0
    else:
        pd = _pow_diff(ln_a, r, n)
        pdp = _pow_diff(ln_ap, rp, n)
    # the A'-G' subtraction injects absolute noise ~ n*eps into the power
    # difference, so the tolerance carries that floor (the n <= 2 identity
    # evaluates to pure roundoff of exactly this size)
    tol20 = max(1e-9 * max(pd, pdp, 1e-300), n * 5e-16)
    rows = [
        # EQ18: A'/G' <= A/G
        ((r - rp,), TOL_V, eq),
        # EQ19: A' - G' <= A - G
        ((d - dp,), TOL_V * max(d, dp, 1e-300), eq),
        # EQ20: A^n - G^n <= A'^n - G'^n
        ((pdp - pd,), tol20, eq or n <= 2 or underflow),
        # EQ21: (A'/G')^(A'+G') <= (A/G)^(A+G)
        (((a + g) * r - (ap + gp) * rp,), TOL_V, eq),
        # EQ22: (A'/G')^(A-G) <= (A/G)^(A'-G')
        ((dp * r - d * rp,), TOL_V, eq),
    ]
    if stats.all_equal:
        return rows
    if r <= 0.0 or rp <= 0.0:                      # false for NaN, which the rows carry
        raise HypothesisViolation(
            f"EQ21..EQ31 need A > G and A' > G' in binary64, "
            f"got ln(A/G) = {r!r}, ln(A'/G') = {rp!r}")

    # every slack from here on is in the log domain
    secant = dp / d                                # (A'-G')/(A-G)
    dl = (ln_ap + stats.ln_g_prime) - (ln_a + stats.ln_g)   # ln(A'G'/(AG)) > 0
    ln_s = 0.5 * dl                                # ln sqrt(A'G'/(AG))
    # the means' kernels take no check: compute_stats forms A, A' as means of
    # values in (0, 1/2] and [1/2, 1) and G, G' as exp of means of their logs,
    # so all four are finite and positive, and past the guard above A > G and
    # A' > G'.  Each pair is scaled once, for ln I and ln L both.
    pair, pair_p = _scaled_pair(a, g), _scaled_pair(ap, gp)
    ln_ir = ln_identric(pair_p) - ln_identric(pair)
    ln_pd = _ln_pow_diff(ln_a, r, n)
    ln_pdp = _ln_pow_diff(ln_ap, rp, n)
    # each log once; the sums keep the grouping that fixes their rounding
    ln_rp, ln_r = math.log(rp), math.log(r)
    ln_rp_r = ln_rp - ln_r                         # ln(R'/R)
    ln_secant = math.log(secant)
    lln_ir, lln_s = math.log(ln_ir), math.log(ln_s)
    ln_ir_s = lln_ir - lln_s                       # ln(ln_ir / ln_s)

    # EQ23: A'/G' < (A/G)^e1 < (A/G)^e2 < (A/G)^e3 < A/G
    eq23 = (secant * r - rp * ln_s - rp, 0.5 * rp * (r - rp), r * (d - dp) / d,
            rp * (ln_ap - ln_a))

    # EQ24: A'/G' < max{T1, T2} < T3 < A/G
    ln_t1 = rp * (1.0 + ln_s)
    ln_t3 = ln_t1 / secant
    mx = max(ln_t1, rp / secant)
    eq24 = (mx - rp, ln_t3 - mx, r - ln_t3)

    # EQ25: power-difference ratio < (A'^n G'^n R') / (A^n G^n R)
    lhs = ln_pdp - ln_pd
    eq25 = (n * dl + ln_rp - ln_r - lhs,)

    # EQ26: max{M0a, M0b} < R'/R < M2 < min{M3a, M3b} < 1 (logs of members)
    k2 = 0.5 * n * dl
    m2 = ln_secant + lln_ir - lln_s
    mn = min(ln_secant, ln_ir_s)
    eq26 = (ln_rp_r - max(lhs - k2, ln_secant - ln_s), m2 - ln_rp_r, mn - m2, -mn)

    # EQ27: A'/G' < (A'/G')^(ln_s/ln_ir) < (A/G)^secant < A/G < (A'/G')^((A'G'/AG)^(n/2))
    ln_d1 = rp * ln_s / ln_ir
    ln_d2 = r * secant
    t = n * ln_s
    if t <= _LN_MAX:
        ln_d4 = rp * math.exp(t)
    else:   # e^t is past binary64 but rp < 1 may bring rp e^t back; +inf if not
        u = t + math.log(rp)
        ln_d4 = math.exp(u) if u <= _LN_MAX else math.inf
    eq27 = (ln_d1 - rp, ln_d2 - ln_d1, r - ln_d2, ln_d4 - r)

    # EQ28: pd-ratio < ((A'G')^(n/2) R') / ((AG)^(n/2) R) < (A'G'/(AG))^(n/2)
    k1 = k2 + ln_rp - ln_r
    eq28 = (k1 - lhs, k2 - k1)

    # EQ29: A'/G' < (A/G)^(sumratio*secant) < min pair < A/G
    sumratio = (a + g) / (ap + gp)
    ln_m1 = r * sumratio * secant
    mn29 = min(r * sumratio, r * secant)
    eq29 = (ln_m1 - rp, mn29 - ln_m1, r - mn29)

    # EQ30: A'/G' < (A'/G')^(Ir/secant) < A/G with Ir = I(A',G')/I(A,G)
    ln_e1 = rp * math.exp(ln_ir) / secant
    eq30 = (ln_e1 - rp, r - ln_e1)

    # EQ31: AG/(A'G') < min{ (L(A,G)/L(A',G'))^2, powered analogue } < 1
    v1a = 2.0 * (ln_logarithmic(pair) - ln_logarithmic(pair_p))
    v1b = (2.0 / n) * (ln_rp_r + (ln_pd - ln_pdp))
    mn31 = min(v1a, v1b)
    eq31 = (mn31 + dl, -mn31)

    return rows + [(eq23, TOL_V, eq), (eq24, TOL_V, eq), (eq25, TOL_V, eq),
                   (eq26, TOL_V, eq), (eq27, TOL_V, eq), (eq28, TOL_V, eq),
                   (eq29, TOL_V, eq), (eq30, TOL_V, eq), (eq31, TOL_V, eq)]


def all_slacks(stats: KyFanStats) -> dict:
    """EQ18 .. EQ31 keyed by id; strict ids are skipped for constant samples."""
    return {entry.id: build_report(entry.id, stats.as_dict(), entry.links, slacks,
                                   entry.domain, tolerance, eq)
            for entry, (slacks, tolerance, eq) in zip(TABLE, _rows(stats))}


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
    from . import catalog    # only this check reads the catalog
    quad = _stats_quad(stats)
    n = stats.n
    links = {entry.id: slacks for entry, (slacks, _, _) in zip(TABLE, _rows(stats))}
    out = {}

    # mean-ratio chain on the quadruple: catalog EQ14 vs stats-level formulas
    cat14 = catalog.REGISTRY["EQ14"].report(quad)  # negative discriminant: descending chain
    secant = (stats.a_prime - stats.g_prime) / (stats.a - stats.g)
    ln_lr = math.log(secant) + math.log(stats.r) - math.log(stats.r_prime)
    ln_gr = 0.5 * ((stats.ln_a_prime + stats.ln_g_prime) - (stats.ln_a + stats.ln_g))
    ln_ir = (ln_identric(_scaled_pair(stats.a_prime, stats.g_prime))
             - ln_identric(_scaled_pair(stats.a, stats.g)))
    ln_ar = (math.log(stats.a_prime + stats.g_prime) - math.log(stats.a + stats.g))
    ln_hr = 2.0 * ln_gr - ln_ar
    ky14 = (ln_hr - ln_gr, ln_gr - ln_lr, ln_lr - ln_ir, ln_ir - ln_ar)
    for name, k, c in zip(("H_to_G", "G_to_L", "L_to_I", "I_to_A"), ky14, cat14.slacks):
        out[f"eq14_{name}"] = (k, c)

    # EQ23 first link equals R' times the first EQ8 slack on the quadruple
    cat8 = catalog.REGISTRY["EQ8"].report(quad)
    out["eq23_first_vs_eq8"] = (links["EQ23"][0], stats.r_prime * cat8.slacks[0])

    # EQ25 slack equals ln r(0) - ln r(-n) of the ratio on the quadruple
    g0 = log_ratio_value(quad, 0.0)
    gmn = log_ratio_value(quad, float(-n))
    out["eq25_vs_ratio_probe"] = (links["EQ25"][0], g0 - gmn)

    # EQ26 first max-member vs the G-to-L link of EQ14 on the powered quadruple
    qn = OrderedQuad(math.exp(n * stats.ln_a_prime), math.exp(n * stats.ln_g_prime),
                     math.exp(n * stats.ln_a), math.exp(n * stats.ln_g))
    cat14n = catalog.REGISTRY["EQ14"].report(qn)
    m1 = math.log(stats.r_prime) - math.log(stats.r)
    m0a = (_ln_pow_diff(stats.ln_a_prime, stats.r_prime, n)
           - _ln_pow_diff(stats.ln_a, stats.r, n)
           + 0.5 * n * ((stats.ln_a + stats.ln_g) - (stats.ln_a_prime + stats.ln_g_prime)))
    out["eq26_lower_vs_powered_eq14"] = (m1 - m0a, cat14n.slacks[1])
    return out
