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
quad per sample, and every sequence row on one shared n; the means several
of their rows read are kept in the quad's ``memo``, so each is computed
once per quad, and so are the scaled pairs those means read and the
exponents EQ4 and EQ13 check.
"""

from __future__ import annotations

import math
import numbers
from operator import itemgetter
from typing import Callable, NamedTuple

# The means' unchecked kernels, which read scaled pairs: every coordinate
# reaching them is a float already checked, by OrderedQuad or by a pair entry
# itself.  They keep the public names, which the benchmark's tracer wraps.
from .means import (_finite_exponent, _ln_identric as ln_identric,
                    _logarithmic_mean as logarithmic_mean,
                    _p_logarithmic_mean as p_logarithmic_mean, _scaled_pair)
from .ratio import (DiscClass, OrderedQuad, ln_identric_ratio_pow,
                    log_secant_slope_gap)
from .report import TOL_V, HypothesisViolation, build_report, check_finite_positive

__all__ = [
    "INEQUALITY_IDS", "REGISTRY", "ARITY_INPUTS", "ARITY_ECHO", "InequalityEntry",
    "UnknownIdError", "evaluate", "lookup", "sequence_link_values", "SEQUENCE_LINK_NAMES",
]

#: EQ10's last member divides by ln(I(a,b)/b); the hypothesis keeps the ratio
#: a/b off the equality manifold where that denominator vanishes.
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


def _ln_lp_ratio(ab, cd, p):
    return math.log(p_logarithmic_mean(ab, p)) - math.log(p_logarithmic_mean(cd, p))


# --- means shared by several rows, computed once per quad ---------------------
#
# A sweep judges every quad-arity id on one quad per sample, so each of these
# keeps its value in ``quad.memo`` the first time a row reads it, and so do
# the scaled pairs (a, b) and (c, d) that the means read.  Each calls the
# means by this module's names, which the benchmark's tracer wraps.

def _pairs(quad):
    """The scaled pairs of (a, b) and (c, d)."""
    memo = quad.memo
    out = memo.get("pairs")
    if out is None:
        out = memo["pairs"] = (_scaled_pair(quad.a, quad.b), _scaled_pair(quad.c, quad.d))
    return out


def _l_means(quad):
    """(L(a,b), L(c,d))."""
    memo = quad.memo
    out = memo.get("L")
    if out is None:
        ab, cd = _pairs(quad)
        out = memo["L"] = (logarithmic_mean(ab), logarithmic_mean(cd))
    return out


def _ln_i_ratio(quad):
    """ln(I(a,b)/I(c,d))."""
    memo = quad.memo
    out = memo.get("I")
    if out is None:
        ab, cd = _pairs(quad)
        out = memo["I"] = ln_identric(ab) - ln_identric(cd)
    return out


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
        ab, cd = _pairs(quad)
        out = memo[p, q] = (p, q, _ln_lp_ratio(ab, cd, p), _ln_lp_ratio(ab, cd, q),
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
    lab, lcd = _l_means(quad)
    ln_ir = _ln_i_ratio(quad)
    s_lower = ln_ir - (1.0 - lcd / lab)
    s_upper = (lab / lcd - 1.0) - ln_ir
    return (s_lower, s_upper), TOL_V, quad.degeneracy <= EQ_MANIFOLD_DIST


def _eq6(a, b):
    """exp(1 - b/L(a,b)) < I(a,b)/b < exp(L(a,b)/b - 1) for a > b > 0, in logs."""
    a = check_finite_positive("a", a)
    b = check_finite_positive("b", b)
    _require(a > b, "EQ6 requires a > b > 0")
    ab = _scaled_pair(a, b)
    l_over_b = logarithmic_mean(ab) / b
    ln_i_over_b = ln_identric(ab) - math.log(b)
    s_lower = ln_i_over_b - (1.0 - 1.0 / l_over_b)
    s_upper = (l_over_b - 1.0) - ln_i_over_b
    return (s_lower, s_upper), TOL_V, (a - b) / b <= EQ_MANIFOLD_DIST


def _eq8(quad: OrderedQuad):
    """L(a,b)/L(c,d) > 1 + ln(G(a,b)/G(c,d)) > 2ab/(ab + cd)."""
    quad.require_strict()
    lab, lcd = _l_means(quad)
    l_ratio = lab / lcd
    ln_gr = quad.log_g_ratio()
    # 2ab/(ab+cd) = 2/(1 + cd/ab), overflow-safe through logs
    third = 2.0 / (1.0 + math.exp((quad.ln_c + quad.ln_d) - (quad.ln_a + quad.ln_b)))
    return ((l_ratio - 1.0 - ln_gr, 1.0 + ln_gr - third), TOL_V * max(l_ratio, 1.0),
            quad.degeneracy <= EQ_MANIFOLD_DIST)


def _eq9(quad: OrderedQuad):
    """L(a,b)/L(c,d) > ln(G(a,b)/G(c,d)) / ln(I(a,b)/I(c,d))."""
    quad.require_strict()
    lab, lcd = _l_means(quad)
    l_ratio = lab / lcd
    ln_gr = quad.log_g_ratio()
    rhs = ln_gr / _ln_i_ratio(quad)
    return ((l_ratio - rhs,), TOL_V * max(l_ratio, 1.0),
            quad.degeneracy <= EQ_MANIFOLD_DIST)


def _eq10(a, b):
    """L/b > 1 + ln(a/b)/2 > 2a/(a+b) > ln(a/b) / (2 ln(I/b)) for a/b above the floor."""
    a = check_finite_positive("a", a)
    b = check_finite_positive("b", b)
    if not (a > b and a / b >= EQ10_MIN_RATIO):
        raise HypothesisViolation(
            f"EQ10 requires a/b >= {EQ10_MIN_RATIO} (last member divides by ln(I/b))")
    lr = math.log(a) - math.log(b)
    ab = _scaled_pair(a, b)
    m1 = logarithmic_mean(ab) / b
    m2 = 1.0 + 0.5 * lr
    m3 = 2.0 / (1.0 + b / a)
    m4 = lr / (2.0 * (ln_identric(ab) - math.log(b)))
    return ((m1 - m2, m2 - m3, m3 - m4), TOL_V * max(m1, 1.0),
            (a - b) / b <= EQ_MANIFOLD_DIST)


def _half_log_minus_tanh(delta):
    # delta = ln(x/y); slack of (1/2)ln(x/y) > (x/y - 1)/(x/y + 1) = tanh(delta/2)
    return 0.5 * delta - math.tanh(0.5 * delta)


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
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    ln_ar = math.log(a + b) - math.log(c + d)
    ln_gr = quad.log_g_ratio()
    ln_hr = 2.0 * ln_gr - ln_ar  # H = G^2 / A
    ln_lab = math.log(a) if a == b else math.log(a - b) - math.log(quad.r_ab)
    ln_lcd = math.log(c) if c == d else math.log(c - d) - math.log(quad.r_cd)
    ln_lr = ln_lab - ln_lcd
    return ln_hr, ln_gr, ln_lr, _ln_i_ratio(quad), ln_ar


def _eq14(quad: OrderedQuad):
    """Chain of the five mean ratios H/H' <> G/G' <> L/L' <> I/I' <> A/A'.

    Ascending for positive discriminant, descending for negative, all equal
    for zero.  Accepts the relaxed ordering a >= b >= c >= d > 0.  Slacks are
    the oriented log-ratio gaps of consecutive members.
    """
    ln_hr, ln_gr, ln_lr, ln_ir, ln_ar = _ln_mean_ratios(quad)
    raw = (ln_gr - ln_hr, ln_lr - ln_gr, ln_ir - ln_lr, ln_ar - ln_ir)
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
                    " is t/2 - tanh(t/2) at t = ln(ab/cd), as EQ11 and EQ12 at x=ab, y=cd",
                    True),
    InequalityEntry("EQ9", _eq9, "quad", ("L_vs_logquotient",), "additive",
                    "L ratio vs ln G ratio / ln I ratio", True),
    InequalityEntry("EQ10", _eq10, "pair",
                    ("L_vs_halflog", "halflog_vs_ratio", "ratio_vs_logquotient"), "additive",
                    "L/b vs 1 + ln(a/b)/2 vs 2a/(a+b) vs log quotient", True,
                    min_ratio=EQ10_MIN_RATIO),
    InequalityEntry("EQ11", _eq11, "quad", ("G_vs_fraction",), "additive",
                    "ln G ratio vs (ab-cd)/(ab+cd): t/2 - tanh(t/2) at t = ln(ab/cd), as"
                    " EQ8's second link and EQ12 at x=ab, y=cd", True),
    InequalityEntry("EQ12", _eq12, "xy", ("halflog_vs_fraction",), "additive",
                    "half-log of x/y vs (x/y-1)/(x/y+1): t/2 - tanh(t/2) at t = ln(x/y), as"
                    " EQ11 and EQ8's second link at x=ab, y=cd", True),
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
