"""Registry of the mean-inequality catalog, evaluated as slack reports.

Each entry maps a stable id (EQ4 .. EQ17, SLOPE_3) to a slack-valued
predicate: hypotheses are validated, every chain link is reported separately,
and direction-keyed entries (EQ13, EQ14) orient their slacks by the
discriminant class so a positive slack always means "the stated inequality
holds".  Sequence entries (EQ15, EQ16, EQ17) instantiate the quadruple
(n+2, n+1, n+1, n) and are evaluated through cancellation-free forms that
stay positive in binary64 up to n = 10**6 and beyond.
"""

from __future__ import annotations

import math
import numbers
from operator import itemgetter
from typing import Callable, NamedTuple

# The means' unchecked kernels: every coordinate reaching them is a float
# already checked, by OrderedQuad or by a pair entry itself.  They keep the
# public names, which the benchmark's tracer wraps.
from .means import (_ln_identric as ln_identric, _logarithmic_mean as logarithmic_mean,
                    _p_logarithmic_mean as p_logarithmic_mean, P_SNAP, PExponent,
                    ExponentKind)
from .ratio import (DiscClass, OrderedQuad, ln_identric_ratio_pow,
                    log_secant_slope_gap)
from .report import HypothesisViolation, build_report, check_finite_positive

__all__ = [
    "INEQUALITY_IDS", "REGISTRY", "ARITY_INPUTS", "InequalityEntry", "UnknownIdError",
    "evaluate", "lookup",
    "slack_eq4", "slack_eq5", "slack_eq6", "slack_eq8", "slack_eq9",
    "slack_eq10", "slack_eq11", "slack_eq12", "slack_eq12_quad", "slack_eq13", "chain_eq14",
    "sequence_eq15", "sequence_eq16", "sequence_eq17", "slack_slope3",
    "sequence_link_values", "SEQUENCE_LINK_NAMES",
]

#: EQ10's last member divides by ln(I(a,b)/b); the hypothesis keeps the ratio
#: a/b off the equality manifold where that denominator vanishes.
EQ10_MIN_RATIO = 1.0 + 1e-6

#: Manifold-closeness used by equality predicates (distance parameters such
#: as |p-q|, |a/b-1|, |ad-bc|/(ad+bc) below this count as "at equality").
EQ_MANIFOLD_DIST = 1e-3

#: Sequence entries approach equality as n -> infinity; margins under the
#: tolerance at n of this size are reported as the equality limit.
SEQ_EQUALITY_N = 10 ** 3


#: Enum members bound once for the hot paths, as ``means._GENERIC`` is.
_GENERIC, _ZERO, _NEGATIVE = ExponentKind.GENERIC, DiscClass.ZERO, DiscClass.NEGATIVE


def _require(cond, msg):
    if not cond:
        raise HypothesisViolation(msg)


def _generic_exponent(name, p):
    """The tagged exponent, built once and shared by every mean it enters."""
    px = p if isinstance(p, PExponent) else PExponent.from_value(p)
    if px.kind is not _GENERIC:
        raise HypothesisViolation(
            f"{name} must stay at least {P_SNAP} away from 0 and -1, got {px.value}")
    return px


def _quad_degeneracy(quad):
    return (quad.a - quad.d) / (quad.a + quad.d)


def _ln_lp_ratio(quad, px):
    return (math.log(p_logarithmic_mean(quad.a, quad.b, px))
            - math.log(p_logarithmic_mean(quad.c, quad.d, px)))


def slack_eq4(quad: OrderedQuad, p, q):
    """Tangent-line bound of the p-logarithmic power ratio at exponent q.

    slack = Lp^p(a,b)/Lp^p(c,d)
            - Lq^q(a,b)/Lq^q(c,d) * (1 + (p-q)/(q+1) * ln Ipow-ratio(q+1)),
    nonnegative with equality iff p = q.
    """
    quad.require_strict()
    px = _generic_exponent("p", p)
    qx = _generic_exponent("q", q)
    p, q = px.value, qx.value
    lhs = math.exp(p * _ln_lp_ratio(quad, px))
    tq = math.exp(q * _ln_lp_ratio(quad, qx))
    rhs = tq * (1.0 + ((p - q) / (q + 1.0)) * ln_identric_ratio_pow(quad, q + 1.0))
    return build_report(
        "EQ4", {**quad.as_dict(), "p": p, "q": q}, ("tangent",), (lhs - rhs,),
        domain="additive", scale=max(abs(lhs), abs(rhs), 1e-300),
        on_equality_manifold=(abs(p - q) <= EQ_MANIFOLD_DIST
                              or _quad_degeneracy(quad) <= EQ_MANIFOLD_DIST))


def slack_eq5(quad: OrderedQuad):
    """exp(1 - L(c,d)/L(a,b)) < I(a,b)/I(c,d) < exp(L(a,b)/L(c,d) - 1), in logs."""
    quad.require_strict()
    lab = logarithmic_mean(quad.a, quad.b)
    lcd = logarithmic_mean(quad.c, quad.d)
    ln_ir = ln_identric(quad.a, quad.b) - ln_identric(quad.c, quad.d)
    s_lower = ln_ir - (1.0 - lcd / lab)
    s_upper = (lab / lcd - 1.0) - ln_ir
    return build_report(
        "EQ5", quad.as_dict(), ("lower", "upper"), (s_lower, s_upper),
        domain="log_ratio",
        on_equality_manifold=_quad_degeneracy(quad) <= EQ_MANIFOLD_DIST)


def slack_eq6(a, b):
    """exp(1 - b/L(a,b)) < I(a,b)/b < exp(L(a,b)/b - 1) for a > b > 0, in logs."""
    a = check_finite_positive("a", a)
    b = check_finite_positive("b", b)
    _require(a > b, "EQ6 requires a > b > 0")
    l_over_b = logarithmic_mean(a, b) / b
    ln_i_over_b = ln_identric(a, b) - math.log(b)
    s_lower = ln_i_over_b - (1.0 - 1.0 / l_over_b)
    s_upper = (l_over_b - 1.0) - ln_i_over_b
    return build_report(
        "EQ6", {"a": a, "b": b}, ("lower", "upper"), (s_lower, s_upper),
        domain="log_ratio",
        on_equality_manifold=(a - b) / b <= EQ_MANIFOLD_DIST)


def slack_eq8(quad: OrderedQuad):
    """L(a,b)/L(c,d) > 1 + ln(G(a,b)/G(c,d)) > 2ab/(ab + cd)."""
    quad.require_strict()
    l_ratio = logarithmic_mean(quad.a, quad.b) / logarithmic_mean(quad.c, quad.d)
    ln_gr = quad.log_g_ratio()
    # 2ab/(ab+cd) = 2/(1 + cd/ab), overflow-safe through logs
    third = 2.0 / (1.0 + math.exp((quad.ln_c + quad.ln_d) - (quad.ln_a + quad.ln_b)))
    return build_report(
        "EQ8", quad.as_dict(), ("L_vs_G", "G_vs_product"),
        (l_ratio - 1.0 - ln_gr, 1.0 + ln_gr - third),
        domain="additive", scale=max(l_ratio, 1.0),
        on_equality_manifold=_quad_degeneracy(quad) <= EQ_MANIFOLD_DIST)


def slack_eq9(quad: OrderedQuad):
    """L(a,b)/L(c,d) > ln(G(a,b)/G(c,d)) / ln(I(a,b)/I(c,d))."""
    quad.require_strict()
    l_ratio = logarithmic_mean(quad.a, quad.b) / logarithmic_mean(quad.c, quad.d)
    ln_gr = quad.log_g_ratio()
    ln_ir = ln_identric(quad.a, quad.b) - ln_identric(quad.c, quad.d)
    rhs = ln_gr / ln_ir
    return build_report(
        "EQ9", quad.as_dict(), ("L_vs_logquotient",), (l_ratio - rhs,),
        domain="additive", scale=max(l_ratio, 1.0),
        on_equality_manifold=_quad_degeneracy(quad) <= EQ_MANIFOLD_DIST)


def slack_eq10(a, b):
    """L/b > 1 + ln(a/b)/2 > 2a/(a+b) > ln(a/b) / (2 ln(I/b)) for a/b above the floor."""
    a = check_finite_positive("a", a)
    b = check_finite_positive("b", b)
    if not (a > b and a / b >= EQ10_MIN_RATIO):
        raise HypothesisViolation(
            f"EQ10 requires a/b >= {EQ10_MIN_RATIO} (last member divides by ln(I/b))")
    lr = math.log(a) - math.log(b)
    m1 = logarithmic_mean(a, b) / b
    m2 = 1.0 + 0.5 * lr
    m3 = 2.0 / (1.0 + b / a)
    m4 = lr / (2.0 * (ln_identric(a, b) - math.log(b)))
    return build_report(
        "EQ10", {"a": a, "b": b}, ("L_vs_halflog", "halflog_vs_ratio", "ratio_vs_logquotient"),
        (m1 - m2, m2 - m3, m3 - m4),
        domain="additive", scale=max(m1, 1.0),
        on_equality_manifold=(a - b) / b <= EQ_MANIFOLD_DIST)


def _half_log_minus_tanh(delta):
    # delta = ln(x/y); slack of (1/2)ln(x/y) > (x/y - 1)/(x/y + 1) = tanh(delta/2)
    return 0.5 * delta - math.tanh(0.5 * delta)


def slack_eq11(quad: OrderedQuad):
    """ln(G(a,b)/G(c,d)) > (ab - cd)/(ab + cd)."""
    quad.require_strict()
    delta = (quad.ln_a + quad.ln_b) - (quad.ln_c + quad.ln_d)
    return build_report(
        "EQ11", quad.as_dict(), ("G_vs_fraction",), (_half_log_minus_tanh(delta),),
        domain="additive", scale=1.0,
        on_equality_manifold=abs(delta) <= EQ_MANIFOLD_DIST)


def slack_eq12(x, y):
    """(1/2) ln(x/y) > (x/y - 1)/(x/y + 1) for x > y > 0."""
    x = check_finite_positive("x", x)
    y = check_finite_positive("y", y)
    _require(x > y, "EQ12 requires x > y > 0")
    delta = math.log(x) - math.log(y)
    return build_report(
        "EQ12", {"x": x, "y": y}, ("halflog_vs_fraction",), (_half_log_minus_tanh(delta),),
        domain="additive", scale=1.0,
        on_equality_manifold=abs(delta) <= EQ_MANIFOLD_DIST)


def slack_eq12_quad(quad: OrderedQuad):
    """EQ12 at x = ab, y = cd."""
    return slack_eq12(quad.a * quad.b, quad.c * quad.d)


def _orient(disc_class, slacks):
    if disc_class is _NEGATIVE:
        return tuple(-s for s in slacks)
    return tuple(slacks)


def slack_eq13(quad: OrderedQuad, p, q):
    """Tangent-line bound of ln of the Lp power ratio; direction keyed to ad - bc.

    slack = p ln(Lp-ratio) - q ln(Lq-ratio) - (p-q)/(q+1) * ln Ipow-ratio(q+1),
    oriented so it is nonnegative for every discriminant class; zero iff
    ad = bc or p = q.
    """
    quad.require_strict()
    px = _generic_exponent("p", p)
    qx = _generic_exponent("q", q)
    p, q = px.value, qx.value
    raw = (p * _ln_lp_ratio(quad, px) - q * _ln_lp_ratio(quad, qx)
           - ((p - q) / (q + 1.0)) * ln_identric_ratio_pow(quad, q + 1.0))
    (slack,) = _orient(quad.disc_class, (raw,))
    return build_report(
        "EQ13", {**quad.as_dict(), "p": p, "q": q,
                 "disc_class": quad.disc_class.value}, ("tangent",), (slack,),
        domain="log_ratio",
        on_equality_manifold=(quad.disc_class is _ZERO
                              or abs(p - q) <= EQ_MANIFOLD_DIST))


def _ln_mean_ratios(quad):
    """ln of the five mean ratios (H, G, L, I, A) across (a,b) vs (c,d)."""
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    ln_ar = math.log(a + b) - math.log(c + d)
    ln_gr = quad.log_g_ratio()
    ln_hr = 2.0 * ln_gr - ln_ar  # H = G^2 / A
    ln_lab = math.log(a) if a == b else math.log(a - b) - math.log(quad.r_ab)
    ln_lcd = math.log(c) if c == d else math.log(c - d) - math.log(quad.r_cd)
    ln_lr = ln_lab - ln_lcd
    ln_ir = ln_identric(a, b) - ln_identric(c, d)
    return ln_hr, ln_gr, ln_lr, ln_ir, ln_ar


def chain_eq14(quad: OrderedQuad):
    """Chain of the five mean ratios H/H' <> G/G' <> L/L' <> I/I' <> A/A'.

    Ascending for positive discriminant, descending for negative, all equal
    for zero.  Accepts the relaxed ordering a >= b >= c >= d > 0.  Slacks are
    the oriented log-ratio gaps of consecutive members.
    """
    ln_hr, ln_gr, ln_lr, ln_ir, ln_ar = _ln_mean_ratios(quad)
    raw = (ln_gr - ln_hr, ln_lr - ln_gr, ln_ir - ln_lr, ln_ar - ln_ir)
    slacks = _orient(quad.disc_class, raw)
    return build_report(
        "EQ14", {**quad.as_dict(), "disc_class": quad.disc_class.value},
        ("H_to_G", "G_to_L", "L_to_I", "I_to_A"), slacks,
        domain="log_ratio",
        on_equality_manifold=quad.disc_class is _ZERO)


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


def _sequence_report(id, n, picks, links, domain):
    n = _check_n(n)
    row = sequence_link_values(n)
    # comparand scale is O(1/n): the rearranged slacks compare terms that size
    return build_report(
        id, {"n": n}, links, tuple(row[i] for i in picks), domain=domain, scale=3.0 / n,
        on_equality_manifold=n >= SEQ_EQUALITY_N)


def sequence_eq15(n):
    """(n+2)/(n+1) < 1 + ln sqrt((n+2)/n) < ln(1+1/n)/ln(1+1/(n+1))."""
    return _sequence_report("EQ15", n, (0, 1), SEQUENCE_LINK_NAMES[0:2], "additive")


def sequence_eq16(n):
    """ln sqrt((n+2)/n) / ln I-ratio < ln(1+1/n)/ln(1+1/(n+1))."""
    return _sequence_report("EQ16", n, (2,), SEQUENCE_LINK_NAMES[2:3], "additive")


def sequence_eq17(n):
    """A-ratio < I-ratio < L-ratio < G-ratio < H-ratio at (n+2, n+1, n+1, n)."""
    return _sequence_report("EQ17", n, (3, 4, 5, 6), SEQUENCE_LINK_NAMES[3:7], "log_ratio")


def slack_slope3(quad: OrderedQuad):
    """Chord-slope comparison m[d,b] < m[c,a] of r at the quad's own coordinates."""
    quad.require_strict()
    gap = log_secant_slope_gap(quad)
    return build_report(
        "SLOPE_3", quad.as_dict(), ("slope_gap",), (gap,),
        domain="log_ratio",
        on_equality_manifold=_quad_degeneracy(quad) <= EQ_MANIFOLD_DIST)


# --- registry ----------------------------------------------------------------

#: Named inputs of each arity, in the order its slack function takes them; the
#: quad arities first fold a, b, c, d into one OrderedQuad.
ARITY_INPUTS = {
    "quad": ("a", "b", "c", "d"),
    "quad_pq": ("a", "b", "c", "d", "p", "q"),
    "pair": ("a", "b"),
    "seq_n": ("n",),
}
_GET_INPUTS = {arity: itemgetter(*names) for arity, names in ARITY_INPUTS.items()}


class InequalityEntry(NamedTuple):
    id: str
    fn: Callable             # the slack function, taking the arity's inputs
    arity: str               # a key of ARITY_INPUTS
    links: int
    description: str
    scale_invariant: bool    # slack invariant under (a,b,c,d) -> (la,lb,lc,ld)
    relaxed_quad: bool = False
    xy_form: Callable | None = None   # also evaluable from x, y (EQ12)
    min_ratio: float = 1.0   # a pair arity's sampled a/b stays at or above this

    def evaluate(self, quad=None, **inputs):
        """The slack report at the named inputs; HypothesisViolation on bad ones.

        A sweep passes its sampled ``quad`` (plus p, q where the arity takes
        them) straight through; only named inputs are checked here.
        """
        if quad is not None:
            return self.fn(quad, **inputs)
        if self.xy_form is not None and "x" in inputs and "y" in inputs:
            return self.xy_form(inputs["x"], inputs["y"])
        arity = self.arity
        try:
            args = _GET_INPUTS[arity](inputs)
        except KeyError:
            also = " (or x, y)" if self.xy_form is not None else ""
            raise HypothesisViolation(
                f"{self.id} requires inputs {', '.join(ARITY_INPUTS[arity])}{also}"
            ) from None
        if arity == "seq_n":             # a getter of one name returns the value itself
            return self.fn(args)
        if arity == "pair":
            return self.fn(*args)
        try:
            quad = OrderedQuad(*args[:4], relaxed=self.relaxed_quad)
        except ValueError as exc:
            raise HypothesisViolation(str(exc)) from exc
        return self.fn(quad, *args[4:])


REGISTRY = {e.id: e for e in (
    InequalityEntry("EQ4", slack_eq4, "quad_pq", 1,
                    "tangent bound of the Lp^p ratio at exponent q", True),
    InequalityEntry("EQ5", slack_eq5, "quad", 2,
                    "two-sided exp bounds of the identric ratio via L", True),
    InequalityEntry("EQ6", slack_eq6, "pair", 2,
                    "two-sided exp bounds of I(a,b)/b via L(a,b)/b", True),
    InequalityEntry("EQ8", slack_eq8, "quad", 2,
                    "L ratio vs 1 + ln G ratio vs 2ab/(ab+cd)", True),
    InequalityEntry("EQ9", slack_eq9, "quad", 1,
                    "L ratio vs ln G ratio / ln I ratio", True),
    InequalityEntry("EQ10", slack_eq10, "pair", 3,
                    "L/b vs 1 + ln(a/b)/2 vs 2a/(a+b) vs log quotient", True,
                    min_ratio=EQ10_MIN_RATIO),
    InequalityEntry("EQ11", slack_eq11, "quad", 1,
                    "ln G ratio vs (ab-cd)/(ab+cd)", True),
    InequalityEntry("EQ12", slack_eq12_quad, "quad", 1,
                    "half-log of x/y vs (x/y-1)/(x/y+1), x=ab, y=cd", True,
                    xy_form=slack_eq12),
    InequalityEntry("EQ13", slack_eq13, "quad_pq", 1,
                    "log tangent bound, direction keyed to sign(ad-bc)", True),
    InequalityEntry("EQ14", chain_eq14, "quad", 4,
                    "mean-ratio chain H,G,L,I,A keyed to sign(ad-bc)", True,
                    relaxed_quad=True),
    InequalityEntry("EQ15", sequence_eq15, "seq_n", 2,
                    "sequence chain at (n+2, n+1, n+1, n): product vs half-log vs L",
                    False),
    InequalityEntry("EQ16", sequence_eq16, "seq_n", 1,
                    "sequence bound: log quotient vs L ratio", False),
    InequalityEntry("EQ17", sequence_eq17, "seq_n", 4,
                    "sequence mean-ratio chain (descending case)", False),
    InequalityEntry("SLOPE_3", slack_slope3, "quad", 1,
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
