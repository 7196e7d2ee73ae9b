"""Registry of the mean-inequality catalog, evaluated as slack reports.

Each entry maps a stable id (EQ4 .. EQ17, SLOPE_3) to a row: a function of
the id's arguments that validates its hypotheses and returns one slack per
chain link, the verdict tolerance and the id's equality predicate.
Direction-keyed entries (EQ13, EQ14) orient their slacks by the
discriminant class so a positive slack always means "the stated inequality
holds".  EQ12 is the paper's two-variable inequality, over (x, y); it also
reads a quad, as x = ab and y = cd.  Sequence entries (EQ15, EQ16, EQ17)
instantiate the quadruple (n+2, n+1, n+1, n) and are evaluated through
cancellation-free forms that stay positive in binary64 up to n = 10**6 and
beyond; they read the seven link values of one n, kept for the last n asked.

Each formula is written once, in its row.  ``InequalityEntry.report`` and
``evaluate`` build a SlackReport from the row, for callers that show one; a
sweep calls ``InequalityEntry.row`` itself and judges its output through
``report.judge``, the rule a report's margin and verdict come from, without
a report.  The inputs a report shows, and a sweep echoes, come from one
function per arity (``ARITY_ECHO``); a keyed entry's report adds the
discriminant class.  A sweep evaluates every quad-arity row on one shared
quad per sample, and every sequence row on one shared n.  The quad rows read
the L, I and Lp ratios in logs, as pieces of ln r, never the means; these and
the exponents EQ4 and EQ13 check are kept in the quad's ``memo``, so each is
computed once per quad.  EQ6 and EQ10 read L/b and I/b the same way, from
h = ln(a/b)/2 alone.
"""

from __future__ import annotations

import math
import numbers
from operator import itemgetter
from typing import Callable, NamedTuple

# The means' kernels on the centred pair (e^w, e^-w), under the public names the
# benchmark's tracer wraps: ``logarithmic_mean`` is lambda(w) = ln L(e^w, e^-w),
# ``ln_identric`` is w lambda'(w) = ln I(e^w, e^-w) and ``p_logarithmic_mean``
# is the Lp bracket B(h, p).
from .means import (_finite_exponent, _ln_sinhc as logarithmic_mean,
                    _lp_bracket as p_logarithmic_mean, _w_dlam as ln_identric)
from .ratio import (DiscClass, OrderedQuad, _ln_ratio, ln_identric_ratio_pow,
                    log_secant_slope_gap)
from .report import TOL_V, HypothesisViolation, build_report, check_finite_positive

__all__ = [
    "INEQUALITY_IDS", "REGISTRY", "ARITY_INPUTS", "ARITY_ECHO", "InequalityEntry",
    "UnknownIdError", "evaluate", "lookup", "sequence_link_values", "SEQUENCE_LINK_NAMES",
]

#: EQ10's hypothesis a/b >= EQ10_MIN_RATIO keeps the pair off the equality
#: manifold, where its last member ln(a/b) / (2 ln(I(a,b)/b)) is 0/0.
EQ10_MIN_RATIO = 1.0 + 1e-6

#: The exponent hypothesis of EQ4 and EQ13: p and q stay at least this far
#: from 0 and -1.
P_SNAP = 1e-6

#: Manifold-closeness used by equality predicates (distance parameters such
#: as |p-q|, |a/b-1|, |ad-bc|/(ad+bc) below this count as "at equality").
EQ_MANIFOLD_DIST = 1e-3

#: Sequence entries approach equality as n -> infinity; margins under the
#: tolerance at n of this size are reported as the equality limit.
SEQ_EQUALITY_N = 10 ** 3


#: Enum members bound once for the hot paths, as ``ratio`` binds them.
_ZERO, _NEGATIVE = DiscClass.ZERO, DiscClass.NEGATIVE

#: ln(DBL_MAX), past which exp and expm1 overflow, and 1 - ln 2, the limit
#: of ln(A/I) of a pair as its ratio grows.
_LN_DBL_MAX, _ONE_MINUS_LN2 = 709.782712893384, 1.0 - math.log(2.0)


def _require(cond, msg):
    if not cond:
        raise HypothesisViolation(msg)


def _generic_exponent(name, p):
    """p as a finite float at least P_SNAP away from 0 and -1."""
    p = _finite_exponent(p)
    if abs(p) <= P_SNAP or abs(p + 1.0) <= P_SNAP:
        raise HypothesisViolation(
            f"{name} must stay at least {P_SNAP} away from 0 and -1, got {p}")
    return p


# --- the quad's mean ratios in logs, pieces of ln r (``ratio``) ---------------

def _expm1_or_inf(x):
    """e^x - 1, +inf past ln(DBL_MAX) where expm1 would raise."""
    return math.inf if x > _LN_DBL_MAX else math.expm1(x)


def _lam_context(quad):
    """(g, lambda(h_ab), lambda(h_cd), ln L-ratio, L-ratio - 1, ln I-ratio), kept
    in ``quad.memo``, with g = ln(G(a,b)/G(c,d)) and lambda(w) = ln(sinh w / w):
    ln L-ratio = g + lambda(h_ab) - lambda(h_cd), the L ratio +inf where it
    leaves binary64, and ln I-ratio = (ln r)'(1)."""
    out = quad.memo.get("lam")
    if out is None:
        g, h_ab, h_cd = quad.ln_g_ratio, quad.h_ab, quad.h_cd
        lam_ab, lam_cd = logarithmic_mean(h_ab), logarithmic_mean(h_cd)
        ln_lr = g + (lam_ab - lam_cd)
        out = quad.memo["lam"] = (g, lam_ab, lam_cd, ln_lr, _expm1_or_inf(ln_lr),
                                  ln_identric_ratio_pow(quad, 1.0))
    return out


def _ln_lp_ratio(quad, p):
    """ln(Lp(a,b)/Lp(c,d)) = g + [B(h_ab, p) - B(h_cd, p)]/p at a checked p, with
    Lp's bracket B(h, p) = lambda((1+p) h) - lambda(h).  Where (1+p) h overflows,
    B/p is at its limit, h for p > 0 and -h for p < 0: Lp is max(a, b), min(a, b)."""
    g, lam_ab, lam_cd = _lam_context(quad)[:3]
    b_ab = p_logarithmic_mean(quad.h_ab, p, lam_ab)
    b_cd = p_logarithmic_mean(quad.h_cd, p, lam_cd)
    if b_ab == math.inf or b_cd == math.inf:
        return g + ((math.copysign(quad.h_ab, p) if b_ab == math.inf else b_ab / p)
                    - (math.copysign(quad.h_cd, p) if b_cd == math.inf else b_cd / p))
    return g + (b_ab - b_cd) / p


def _tangent_logs(quad, p, q):
    """p and q checked, then ln of the Lp ratio, of the Lq ratio and of the
    Ipow ratio at q + 1: the terms of EQ4's and EQ13's tangent bound at
    exponents p, q.  The exponents are checked once per (quad, p, q), where
    the terms are computed; the entry keeps the checked floats, under them."""
    memo = quad.memo
    try:
        out = memo.get((p, q))
    except TypeError:           # an unhashable exponent, such as a 0-d array
        out = None
    if out is None:
        p = _generic_exponent("p", p)
        q = _generic_exponent("q", q)
        out = memo[p, q] = (p, q, _ln_lp_ratio(quad, p), _ln_lp_ratio(quad, q),
                            ln_identric_ratio_pow(quad, q + 1.0))
    return out


# --- rows: each id's slacks, tolerance and equality predicate, written once ---
#
# A row takes its arity's arguments (an OrderedQuad, plus p and q for
# quad_pq; a, b for pair; x, y for xy; n for seq_n), checks the id's hypotheses and
# returns ``(slacks, tolerance, on_equality_manifold)``.  Additive-domain
# tolerances are TOL_V times the scale of the compared quantities;
# log-ratio ones are TOL_V.  A report and a sweep judge the same row, so
# they cannot drift apart.

def _eq4(quad: OrderedQuad, p, q):
    """Tangent-line bound of the p-logarithmic power ratio at exponent q.

    slack = Lp^p(a,b)/Lp^p(c,d)
            - Lq^q(a,b)/Lq^q(c,d) * (1 + (p-q)/(q+1) * ln Ipow-ratio(q+1)),
    nonnegative with equality iff p = q.
    """
    quad.require_strict()
    p, q, ln_lp, ln_lq, ln_ipow = _tangent_logs(quad, p, q)
    lhs = math.exp(p * ln_lp)
    tq = math.exp(q * ln_lq)
    rhs = tq * (1.0 + ((p - q) / (q + 1.0)) * ln_ipow)
    return ((lhs - rhs,), TOL_V * max(abs(lhs), abs(rhs), 1e-300),
            abs(p - q) <= EQ_MANIFOLD_DIST or quad.degeneracy <= EQ_MANIFOLD_DIST)


def _eq5(quad: OrderedQuad):
    """exp(1 - L(c,d)/L(a,b)) < I(a,b)/I(c,d) < exp(L(a,b)/L(c,d) - 1), in logs."""
    quad.require_strict()
    ln_lr, l_ratio_m1, ln_ir = _lam_context(quad)[3:]
    s_lower = ln_ir + math.expm1(-ln_lr)
    s_upper = l_ratio_m1 - ln_ir
    return (s_lower, s_upper), TOL_V, quad.degeneracy <= EQ_MANIFOLD_DIST


def _eq6(a, b):
    """exp(1 - b/L(a,b)) < I(a,b)/b < exp(L(a,b)/b - 1) for a > b > 0, in logs:
    with h = ln(a/b)/2, ln(L/b) = h + lambda(h) and ln(I/b) = h + h lambda'(h)."""
    a = check_finite_positive("a", a)
    b = check_finite_positive("b", b)
    _require(a > b, "EQ6 requires a > b > 0")
    h = 0.5 * _ln_ratio(a, b)
    ln_l = h + logarithmic_mean(h)
    ln_i = h + ln_identric(h)
    return ((ln_i + math.expm1(-ln_l), _expm1_or_inf(ln_l) - ln_i), TOL_V,
            (a - b) / b <= EQ_MANIFOLD_DIST)


def _eq8(quad: OrderedQuad):
    """L(a,b)/L(c,d) > 1 + ln(G(a,b)/G(c,d)) > 2ab/(ab + cd)."""
    quad.require_strict()
    ln_gr, _, _, _, l_ratio_m1, _ = _lam_context(quad)
    # 1 + ln_gr - 2ab/(ab+cd) is t/2 - tanh(t/2) at t = ln(ab/cd) = 2 ln_gr
    return ((l_ratio_m1 - ln_gr, _half_log_minus_tanh(2.0 * ln_gr)),
            TOL_V * max(1.0 + l_ratio_m1, 1.0), quad.degeneracy <= EQ_MANIFOLD_DIST)


def _eq9(quad: OrderedQuad):
    """L(a,b)/L(c,d) > ln(G(a,b)/G(c,d)) / ln(I(a,b)/I(c,d))."""
    quad.require_strict()
    ln_gr, _, _, _, l_ratio_m1, ln_ir = _lam_context(quad)
    l_ratio = 1.0 + l_ratio_m1
    return ((l_ratio - ln_gr / ln_ir,), TOL_V * max(l_ratio, 1.0),
            quad.degeneracy <= EQ_MANIFOLD_DIST)


def _eq10(a, b):
    """L/b > 1 + ln(a/b)/2 > 2a/(a+b) > ln(a/b) / (2 ln(I/b)) for a/b above the floor:
    e^(h + lambda(h)) > 1 + h > 1 + tanh h > 1/(1 + lambda'(h)) at h = ln(a/b)/2."""
    a = check_finite_positive("a", a)
    b = check_finite_positive("b", b)
    if not (a > b and a / b >= EQ10_MIN_RATIO):
        raise HypothesisViolation(
            f"EQ10 requires a/b >= {EQ10_MIN_RATIO} (last member divides by ln(I/b))")
    h = 0.5 * _ln_ratio(a, b)
    m1_minus_1 = _expm1_or_inf(h + logarithmic_mean(h))
    dlam = ln_identric(h) / h
    return ((m1_minus_1 - h, _half_log_minus_tanh(2.0 * h), math.tanh(h) + dlam / (1.0 + dlam)),
            TOL_V * (1.0 + m1_minus_1), (a - b) / b <= EQ_MANIFOLD_DIST)


def _half_log_minus_tanh(delta):
    """h - tanh h at h = delta/2 = ln(x/y)/2, the slack of (1/2) ln(x/y) > (x/y - 1)/(x/y + 1).
    Below h = 0.3 it is h u/(1 + u), u = h lambda'(h), as tanh h = h/(1 + u): no cancellation."""
    h = 0.5 * delta
    if abs(h) >= 0.3:
        return h - math.tanh(h)
    u = ln_identric(h)
    return h * u / (1.0 + u)


def _eq11(quad: OrderedQuad):
    """ln(G(a,b)/G(c,d)) > (ab - cd)/(ab + cd)."""
    quad.require_strict()
    delta = (quad.ln_a + quad.ln_b) - (quad.ln_c + quad.ln_d)
    return (_half_log_minus_tanh(delta),), TOL_V, abs(delta) <= EQ_MANIFOLD_DIST


def _eq12(x, y):
    """(1/2) ln(x/y) > (x/y - 1)/(x/y + 1) for x > y > 0."""
    x = check_finite_positive("x", x)
    y = check_finite_positive("y", y)
    _require(x > y, "EQ12 requires x > y > 0")
    delta = math.log(x) - math.log(y)
    return (_half_log_minus_tanh(delta),), TOL_V, abs(delta) <= EQ_MANIFOLD_DIST


def _eq13(quad: OrderedQuad, p, q):
    """Tangent-line bound of ln of the Lp power ratio; direction keyed to ad - bc.

    slack = p ln(Lp-ratio) - q ln(Lq-ratio) - (p-q)/(q+1) * ln Ipow-ratio(q+1),
    oriented so it is nonnegative for every discriminant class; zero iff
    ad = bc or p = q.
    """
    quad.require_strict()
    p, q, ln_lp, ln_lq, ln_ipow = _tangent_logs(quad, p, q)
    raw = p * ln_lp - q * ln_lq - ((p - q) / (q + 1.0)) * ln_ipow
    disc_class = quad.disc_class
    return ((-raw if disc_class is _NEGATIVE else raw,), TOL_V,
            disc_class is _ZERO or abs(p - q) <= EQ_MANIFOLD_DIST)


def _ln_mean_ratios(quad):
    """ln of the five mean ratios (H, G, L, I, A) across (a,b) vs (c,d)."""
    ln_gr, _, _, ln_lr, _, ln_ir = _lam_context(quad)
    ln_ar = math.log(quad.a + quad.b) - math.log(quad.c + quad.d)
    return 2.0 * ln_gr - ln_ar, ln_gr, ln_lr, ln_ir, ln_ar  # H = G^2 / A


def _ln_a_over_i(h):
    """ln(A/I) of the pair (e^h, e^-h), h >= 0: ln cosh h - (h coth h - 1); past
    h = 1, its limit 1 - ln 2 plus log1p(x) - 2h x/(1 - x), x = e^-2h, in full."""
    if h < 1.0:
        return 0.5 * math.log1p(math.sinh(h) ** 2) - ln_identric(h)
    x = math.exp(-2.0 * h)
    return _ONE_MINUS_LN2 + (math.log1p(x) - 2.0 * h * x / (1.0 - x))


def _eq14(quad: OrderedQuad):
    """Chain of the five mean ratios H/H' <> G/G' <> L/L' <> I/I' <> A/A'.

    Ascending for positive discriminant, descending for negative, all equal
    for zero.  Accepts the relaxed ordering a >= b >= c >= d > 0.  Slacks are
    the oriented log-ratio gaps of consecutive members.
    """
    ln_hr, ln_gr, ln_lr, ln_ir, _ = _ln_mean_ratios(quad)
    # I to A pair by pair: where b/a and d/c are below an ulp, both ratios
    # are a/c in binary64, and their gap, of order e^-2h, is below their ulps
    raw = (ln_gr - ln_hr, ln_lr - ln_gr, ln_ir - ln_lr,
           _ln_a_over_i(quad.h_ab) - _ln_a_over_i(quad.h_cd))
    disc_class = quad.disc_class
    if disc_class is _NEGATIVE:
        # negated, not written as ln_hr - ln_gr ...: y - x is +0.0 where -(x - y) is -0.0
        raw = (-raw[0], -raw[1], -raw[2], -raw[3])
    return raw, TOL_V, disc_class is _ZERO


# --- sequence entries: quadruple (n+2, n+1, n+1, n), ad - bc = -1 ------------

SEQUENCE_LINK_NAMES = (
    "product_vs_halflog",    # (n+2)/(n+1) < 1 + ln sqrt((n+2)/n)          (EQ15)
    "halflog_vs_L",          # 1 + ln sqrt((n+2)/n) < L-ratio              (EQ15)
    "logquotient_vs_L",      # ln G-ratio / ln I-ratio < L-ratio           (EQ16)
    "A_to_I", "I_to_L", "L_to_G", "G_to_H",                              # (EQ17)
)


def sequence_link_values(n):
    """The seven sequence slacks at n, cancellation-free.

    Mean ratios for the quadruple (n+2, n+1, n+1, n) reduce to elementary
    expressions; each slack is rearranged so the leading 1's cancel
    algebraically and the result keeps absolute accuracy ~1e-22 at n = 10**6,
    three orders below the smallest genuine slack there.
    """
    n = float(n)
    if n < 1:
        raise HypothesisViolation("sequence entries require n >= 1")
    np1 = n + 1.0
    l1 = math.log1p(1.0 / np1)                 # ln((n+2)/(n+1))
    m = math.log1p(-1.0 / (np1 * np1))         # ln(n(n+2)/(n+1)^2)
    ln_rg = 0.5 * math.log1p(2.0 / n)          # ln G-ratio
    ln_ri = n * m + 2.0 * l1                   # ln I-ratio
    rl_minus_1 = -m / l1                       # L-ratio - 1
    ln_rl = math.log1p(rl_minus_1)             # ln L-ratio
    ln_ra = math.log1p(2.0 / (2.0 * n + 1.0))  # ln A-ratio
    ln_rh = math.log1p((2.0 * n + 2.0) / (n * (2.0 * n + 3.0)))  # ln H-ratio
    s15a = ln_rg - 1.0 / np1
    s15b = rl_minus_1 - ln_rg
    s16 = rl_minus_1 - (ln_rg - ln_ri) / ln_ri
    return (s15a, s15b, s16,
            ln_ri - ln_ra, ln_rl - ln_ri, ln_rg - ln_rl, ln_rh - ln_rg)


def _check_n(n):
    # int first: it settles a plain int at once, where the ABC check costs ~1 us
    if isinstance(n, bool) or not isinstance(n, (int, numbers.Integral)):
        raise HypothesisViolation(f"n must be a positive integer, got {n!r}")
    if n < 1:
        raise HypothesisViolation(f"n must be >= 1, got {n}")
    return int(n)


# The additive sequence slacks compare terms of size O(1/n), so their
# tolerance scales as 3/n.

#: The last n the sequence rows read, with its seven link values.
_last_links = (None, ())


def _sequence_links(n):
    """``sequence_link_values(n)``, computed once while n repeats: the three
    sequence ids of a sweep sample read one n."""
    global _last_links
    last = _last_links
    if last[0] != n:
        last = _last_links = (n, sequence_link_values(n))
    return last[1]


def _eq15(n):
    """(n+2)/(n+1) < 1 + ln sqrt((n+2)/n) < ln(1+1/n)/ln(1+1/(n+1))."""
    n = _check_n(n)
    return _sequence_links(n)[0:2], TOL_V * (3.0 / n), n >= SEQ_EQUALITY_N


def _eq16(n):
    """ln sqrt((n+2)/n) / ln I-ratio < ln(1+1/n)/ln(1+1/(n+1))."""
    n = _check_n(n)
    return _sequence_links(n)[2:3], TOL_V * (3.0 / n), n >= SEQ_EQUALITY_N


def _eq17(n):
    """A-ratio < I-ratio < L-ratio < G-ratio < H-ratio at (n+2, n+1, n+1, n)."""
    n = _check_n(n)
    return _sequence_links(n)[3:7], TOL_V, n >= SEQ_EQUALITY_N


def _slope3(quad: OrderedQuad):
    """Chord-slope comparison m[d,b] < m[c,a] of r at the quad's own coordinates."""
    # log_secant_slope_gap requires the strict order itself
    return ((log_secant_slope_gap(quad),), TOL_V, quad.degeneracy <= EQ_MANIFOLD_DIST)


# --- echoes: the inputs a report or a sweep shows, from the row's arguments ---
#
# One echo per arity, in ARITY_ECHO.  An echo runs after its row has checked
# the arguments, and builds a dict the report keeps as its own.  A sweep's
# aggregates hold echoes and come back from worker processes by pickle, so
# each is a module-level function.

def _echo_quad_pq(quad, p, q):
    return {**quad.as_dict(), "p": float(p), "q": float(q)}


def _echo_pair(a, b):
    return {"a": float(a), "b": float(b)}


def _echo_xy(x, y):
    return {"x": float(x), "y": float(y)}


def _echo_n(n):
    return {"n": int(n)}


# --- registry ----------------------------------------------------------------

#: Named inputs of each arity, in the order its row takes them; the quad
#: arities first fold a, b, c, d into one OrderedQuad, which the xy arity
#: also reads (``InequalityEntry.evaluate``).
ARITY_INPUTS = {
    "quad": ("a", "b", "c", "d"),
    "quad_pq": ("a", "b", "c", "d", "p", "q"),
    "pair": ("a", "b"),
    "xy": ("x", "y"),
    "seq_n": ("n",),
}
_GET_INPUTS = {arity: itemgetter(*names) for arity, names in ARITY_INPUTS.items()}

#: Each arity's echo: its row's arguments -> the inputs a report or a sweep shows.
ARITY_ECHO = {"quad": OrderedQuad.as_dict, "quad_pq": _echo_quad_pq, "pair": _echo_pair,
              "xy": _echo_xy, "seq_n": _echo_n}


class InequalityEntry(NamedTuple):
    id: str
    row: Callable            # the arity's arguments -> (slacks, tolerance, on_equality_manifold)
    arity: str               # a key of ARITY_INPUTS and ARITY_ECHO
    links: tuple             # the link names, one per slack
    domain: str              # the slacks' margin domain: "log_ratio" or "additive"
    description: str
    scale_invariant: bool    # slack invariant under (a,b,c,d) -> (la,lb,lc,ld)
    relaxed_quad: bool = False
    min_ratio: float = 1.0   # a pair arity's sampled a/b stays at or above this
    keyed: bool = False      # direction keyed: its report names the quad's discriminant class

    def report(self, *args):
        """The SlackReport of the row at the arity's arguments."""
        slacks, tolerance, on_equality_manifold = self.row(*args)
        inputs = ARITY_ECHO[self.arity](*args)
        if self.keyed:
            inputs["disc_class"] = args[0].disc_class.value
        return build_report(self.id, inputs, self.links, slacks, self.domain,
                            tolerance, on_equality_manifold)

    def evaluate(self, **inputs):
        """The slack report at the named inputs; HypothesisViolation on bad ones.
        An xy id not given both x and y reads a quad, as x = ab and y = cd."""
        arity = self.arity
        if arity == "xy" and not ("x" in inputs and "y" in inputs):
            arity = "quad"
        try:
            args = _GET_INPUTS[arity](inputs)
        except KeyError:
            also = " (or a, b, c, d)" if self.arity == "xy" else ""
            raise HypothesisViolation(
                f"{self.id} requires inputs {', '.join(ARITY_INPUTS[self.arity])}{also}"
            ) from None
        if arity == "seq_n":             # a getter of one name returns the value itself
            return self.report(args)
        if arity in ("pair", "xy"):
            return self.report(*args)
        try:
            quad = OrderedQuad(*args[:4], relaxed=self.relaxed_quad)
        except ValueError as exc:
            raise HypothesisViolation(str(exc)) from exc
        if self.arity == "xy":
            return self.report(quad.a * quad.b, quad.c * quad.d)
        return self.report(quad, *args[4:])


REGISTRY = {e.id: e for e in (
    InequalityEntry("EQ4", _eq4, "quad_pq", ("tangent",), "additive",
                    "tangent bound of the Lp^p ratio at exponent q", True),
    InequalityEntry("EQ5", _eq5, "quad", ("lower", "upper"), "log_ratio",
                    "two-sided exp bounds of the identric ratio via L", True),
    InequalityEntry("EQ6", _eq6, "pair", ("lower", "upper"), "log_ratio",
                    "two-sided exp bounds of I(a,b)/b via L(a,b)/b", True),
    InequalityEntry("EQ8", _eq8, "quad", ("L_vs_G", "G_vs_product"),
                    "additive", "L ratio vs 1 + ln G ratio vs 2ab/(ab+cd); the second link"
                    " is t/2 - tanh(t/2) at t = ln(ab/cd), as EQ10's second link, EQ11 and"
                    " EQ12 at x=ab, y=cd", True),
    InequalityEntry("EQ9", _eq9, "quad", ("L_vs_logquotient",), "additive",
                    "L ratio vs ln G ratio / ln I ratio", True),
    InequalityEntry("EQ10", _eq10, "pair",
                    ("L_vs_halflog", "halflog_vs_ratio", "ratio_vs_logquotient"), "additive",
                    "L/b vs 1 + ln(a/b)/2 vs 2a/(a+b) vs log quotient; the second link is"
                    " t/2 - tanh(t/2) at t = ln(a/b), as EQ8's second link, EQ11 and EQ12",
                    True, min_ratio=EQ10_MIN_RATIO),
    InequalityEntry("EQ11", _eq11, "quad", ("G_vs_fraction",), "additive",
                    "ln G ratio vs (ab-cd)/(ab+cd): t/2 - tanh(t/2) at t = ln(ab/cd), as"
                    " EQ8's and EQ10's second links and EQ12 at x=ab, y=cd", True),
    InequalityEntry("EQ12", _eq12, "xy", ("halflog_vs_fraction",), "additive",
                    "half-log of x/y vs (x/y-1)/(x/y+1): t/2 - tanh(t/2) at t = ln(x/y), as"
                    " EQ10's second link, and EQ11 and EQ8's at x=ab, y=cd", True),
    InequalityEntry("EQ13", _eq13, "quad_pq", ("tangent",), "log_ratio",
                    "log tangent bound, direction keyed to sign(ad-bc)", True, keyed=True),
    InequalityEntry("EQ14", _eq14, "quad",
                    ("H_to_G", "G_to_L", "L_to_I", "I_to_A"), "log_ratio",
                    "mean-ratio chain H,G,L,I,A keyed to sign(ad-bc)", True,
                    relaxed_quad=True, keyed=True),
    InequalityEntry("EQ15", _eq15, "seq_n", SEQUENCE_LINK_NAMES[0:2], "additive",
                    "sequence chain at (n+2, n+1, n+1, n): product vs half-log vs L",
                    False),
    InequalityEntry("EQ16", _eq16, "seq_n", SEQUENCE_LINK_NAMES[2:3], "additive",
                    "sequence bound: log quotient vs L ratio", False),
    InequalityEntry("EQ17", _eq17, "seq_n", SEQUENCE_LINK_NAMES[3:7], "log_ratio",
                    "sequence mean-ratio chain (descending case)", False),
    InequalityEntry("SLOPE_3", _slope3, "quad", ("slope_gap",), "log_ratio",
                    "chord slopes of r at the quad's own coordinates", False),
)}

INEQUALITY_IDS = tuple(REGISTRY)

class UnknownIdError(KeyError):
    """An id outside the catalog.  Prints its message as is, where a plain
    KeyError's str() would wrap it in quotes."""

    def __str__(self):
        return str(self.args[0])


def lookup(id) -> InequalityEntry:
    """The entry for an id in any letter case; UnknownIdError names the valid ids."""
    entry = REGISTRY.get(id) or REGISTRY.get(str(id).strip().upper())
    if entry is None:
        raise UnknownIdError(
            f"unknown inequality id {id!r}; valid ids: {', '.join(INEQUALITY_IDS)}")
    return entry


def evaluate(id, **inputs):
    """Dispatch an inequality check by id; HypothesisViolation on bad inputs."""
    return (REGISTRY.get(id) or lookup(id)).evaluate(**inputs)
