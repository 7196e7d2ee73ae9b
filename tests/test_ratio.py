import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from meanineq.oracle import oracle_eval, oracle_rel_err
from meanineq.ratio import (ConvexityClass, DiscClass, OrderedQuad,
                            convexity_class, log_ratio_derivative,
                            ln_identric_ratio_pow, log_ratio_value, log_secant_slope_gap,
                            midpoint_convexity_slack, ratio_derivative,
                            ratio_value, secant_slope)
from meanineq.report import HypothesisViolation
from meanineq.rng import SampleStream, sample_quad

Q431 = OrderedQuad(4, 3, 2, 1)
Q821 = OrderedQuad(8, 2, 2, 1)
Q421 = OrderedQuad(4, 2, 2, 1)   # ad = bc: the ratio is exactly (b/d)^x

#: An x near 0 where r is checked against the direct ln(e^y - 1) form.
SEAM_X = 1e-7


def rand_quads(n, seed=1, sign="any"):
    stream = SampleStream(seed, "test/ratio")
    return [sample_quad(stream, i, sign=sign) for i in range(n)]


class TestConstruction:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            OrderedQuad(4, 5, 2, 1)
        with pytest.raises(ValueError):
            OrderedQuad(4, 3, 2, 2)
        with pytest.raises(ValueError):
            OrderedQuad(4, 3, 2, -1)
        OrderedQuad(4, 3, 3, 1)            # b = c allowed
        OrderedQuad(4, 4, 2, 2, relaxed=True)
        with pytest.raises(ValueError):
            OrderedQuad(4, 4, 2, 1)        # a = b needs relaxed mode

    ORDER = "require a > b >= c > d > 0, got "
    RELAXED_ORDER = "require a >= b >= c >= d > 0, got "
    NAN, INF = math.nan, math.inf

    # (coordinates, relaxed, the ValueError's message), as the per-coordinate
    # checks have always worded them: a fast test that accepts the common
    # case must leave every one of these to them
    REJECTED = [
        ((NAN, 3.0, 2.0, 1.0), False, "a must be a finite positive real, got nan"),
        ((4.0, NAN, 2.0, 1.0), False, "b must be a finite positive real, got nan"),
        ((4.0, 3.0, 2.0, NAN), False, "d must be a finite positive real, got nan"),
        ((NAN, 3.0, 2.0, 1.0), True, "a must be a finite positive real, got nan"),
        ((INF, 3.0, 2.0, 1.0), False, "a must be a finite positive real, got inf"),
        ((-INF, 3.0, 2.0, 1.0), False, "a must be a finite positive real, got -inf"),
        ((4.0, 3.0, 2.0, -INF), False, "d must be a finite positive real, got -inf"),
        ((4.0, 3.0, 2.0, 0.0), False, "d must be a finite positive real, got 0.0"),
        ((4.0, 3.0, 2.0, 0.0), True, "d must be a finite positive real, got 0.0"),
        ((4.0, 3.0, 2.0, -0.0), False, "d must be a finite positive real, got -0.0"),
        ((4.0, 3.0, -2.0, 1.0), False, "c must be a finite positive real, got -2.0"),
        ((4, 3, 2, 0), False, "d must be a finite positive real, got 0"),
        ((4.0, 3.0, 2.0, False), False, "d must be a finite positive real, got False"),
        ((4.0, 3.0, 2.0, "1"), False, "d must be a finite positive real, got '1'"),
        ((4.0, 3.0, 2.0, None), False, "d must be a finite positive real, got None"),
        ((4.0, 5.0, 2.0, 1.0), False, ORDER + "(4.0, 5.0, 2.0, 1.0)"),
        ((1.0, 2.0, 3.0, 4.0), False, ORDER + "(1.0, 2.0, 3.0, 4.0)"),
        ((4.0, 3.0, 2.0, 3.0), False, ORDER + "(4.0, 3.0, 2.0, 3.0)"),
        ((4, 3, 2, 3), False, ORDER + "(4.0, 3.0, 2.0, 3.0)"),
        ((4.0, 4.0, 2.0, 1.0), False, ORDER + "(4.0, 4.0, 2.0, 1.0)"),
        ((4.0, 3.0, 2.0, 2.0), False, ORDER + "(4.0, 3.0, 2.0, 2.0)"),
        ((4.0, 4.0, 4.0, 4.0), False, ORDER + "(4.0, 4.0, 4.0, 4.0)"),
        ((4.0, 3.0, 5.0, 1.0), True, RELAXED_ORDER + "(4.0, 3.0, 5.0, 1.0)"),
        ((4.0, 3.0, 2.0, 3.0), True, RELAXED_ORDER + "(4.0, 3.0, 2.0, 3.0)"),
    ]

    @pytest.mark.parametrize("coords,relaxed,message", REJECTED)
    def test_rejections_keep_their_messages(self, coords, relaxed, message):
        with pytest.raises(ValueError) as info:
            OrderedQuad(*coords, relaxed=relaxed)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_numpy_rejections_keep_their_messages(self):
        np = pytest.importorskip("numpy")
        for coords, bad in (((np.float64(4.0), 3.0, 2.0, np.float64(math.nan)), "d"),
                            ((4.0, 3.0, 2.0, np.float64(-1.0)), "d"),
                            ((np.float64(math.inf), 3.0, 2.0, 1.0), "a")):
            with pytest.raises(ValueError) as info:
                OrderedQuad(*coords)
            value = coords["abcd".index(bad)]
            assert str(info.value) == f"{bad} must be a finite positive real, got {value!r}"

    @pytest.mark.parametrize("coords,relaxed", [
        ((4.0, 3.0, 3.0, 1.0), False), ((4.0, 3.0, 2.0, 1.0), True),
        ((4.0, 4.0, 2.0, 1.0), True), ((4.0, 3.0, 2.0, 2.0), True),
        ((4.0, 4.0, 4.0, 4.0), True)])
    def test_ties_build_where_allowed(self, coords, relaxed):
        quad = OrderedQuad(*coords, relaxed=relaxed)
        assert (quad.a, quad.b, quad.c, quad.d) == coords

    def test_int_and_numpy_inputs_build_the_float_quad(self):
        floats = OrderedQuad(4.0, 3.0, 2.0, 1.0)
        same = [OrderedQuad(4, 3, 2, 1), OrderedQuad(4.0, 3, 2.0, 1)]
        np = None
        try:
            import numpy as np
        except ImportError:
            pass
        if np is not None:
            same.append(OrderedQuad(*map(np.float64, (4.0, 3.0, 2.0, 1.0))))
        for quad in same:
            assert repr(quad) == repr(floats)
            assert all(type(getattr(quad, k)) is float for k in "abcd")
            assert ([getattr(quad, k) for k in quad.__slots__]
                    == [getattr(floats, k) for k in floats.__slots__])

    def test_disc_class_matches_the_max_scaled_form(self):
        # the discriminant divides by max(a, b, c, d), which is a in every
        # ordered quad; the classes equal those of the explicit form
        for quad in rand_quads(300) + rand_quads(100, sign="zero"):
            a, b, c, d = quad.a, quad.b, quad.c, quad.d
            m = max(a, b, c, d)
            x1, x2 = (a / m) * d, (b / m) * c
            if abs(x1 - x2) <= 1e-12 * (x1 + x2):
                want = DiscClass.ZERO
            else:
                want = DiscClass.POSITIVE if x1 > x2 else DiscClass.NEGATIVE
            assert quad.disc_class is want

    def test_disc_classes(self):
        assert OrderedQuad(8, 2, 2, 1).disc_class is DiscClass.POSITIVE
        assert OrderedQuad(4, 3, 2, 1).disc_class is DiscClass.NEGATIVE
        assert OrderedQuad(4, 2, 2, 1).disc_class is DiscClass.ZERO
        # relative zero tolerance respects quad scaling
        q = OrderedQuad(4e200, 2e200, 2e200, 1e200)
        assert q.disc_class is DiscClass.ZERO

    def test_strictness_for_ratio_ops(self):
        relaxed = OrderedQuad(4, 4, 2, 1, relaxed=True)
        with pytest.raises(HypothesisViolation):
            ratio_value(relaxed, 1.0)


class TestWorkedValues:
    def test_ratio_at_integers(self):
        assert ratio_value(Q431, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert ratio_value(Q431, 2.0) == pytest.approx(7.0 / 3.0, rel=1e-14)
        assert ratio_value(Q431, 0.0) == pytest.approx(
            math.log(4 / 3) / math.log(2), rel=1e-14)

    def test_proportional_quad_is_pure_power(self):
        for x in (-10.0, -1.5, 0.0, 0.3, 3.0, 10.0):
            assert ratio_value(Q421, x) == pytest.approx(2.0 ** x, rel=1e-13)
            assert log_ratio_value(Q421, x) == pytest.approx(x * math.log(2.0),
                                                             abs=1e-13)

    def test_derivative_closed_forms(self):
        # r'(0) = r(0) * ln(G(a,b)/G(c,d))
        expect = (math.log(4 / 3) / math.log(2)) * math.log(math.sqrt(12 / 2))
        assert ratio_derivative(Q431, 0.0) == pytest.approx(expect, rel=1e-13)
        assert ratio_derivative(Q431, 0.0) == pytest.approx(0.3718, abs=2e-4)
        assert ratio_derivative(Q421, 0.0) == pytest.approx(math.log(2.0), rel=1e-13)
        assert log_ratio_derivative(Q821, 0.0) == pytest.approx(
            math.log(4.0 / math.sqrt(2.0)), rel=1e-13)

    def test_classification(self):
        assert convexity_class(Q821) is ConvexityClass.STRICTLY_CONVEX
        assert convexity_class(Q431) is ConvexityClass.STRICTLY_CONCAVE
        assert convexity_class(Q421) is ConvexityClass.LINEAR

    def test_secant_slopes(self):
        assert secant_slope(Q421, 0.0, 1.0) == pytest.approx(1.0, rel=1e-13)
        m_13 = secant_slope(Q431, 1.0, 3.0)
        m_24 = secant_slope(Q431, 2.0, 4.0)
        assert m_13 < m_24
        f1 = ratio_value(Q821, 1.0)
        fm1 = ratio_value(Q821, -1.0)
        assert secant_slope(Q821, -1.0, 1.0) == pytest.approx((f1 - fm1) / 2.0,
                                                              rel=1e-13)
        with pytest.raises(ValueError):
            secant_slope(Q431, 1.0, 1.0)

    def test_log_secant_gap_matches_plain(self):
        gap = log_secant_slope_gap(Q431)
        plain = math.log(secant_slope(Q431, 2.0, 4.0) / secant_slope(Q431, 1.0, 3.0))
        assert gap == pytest.approx(plain, rel=1e-12)
        assert gap > 0

    def test_midpoint_slacks(self):
        assert midpoint_convexity_slack(Q431, -1.0, 1.0) > 0          # r convex
        assert abs(midpoint_convexity_slack(Q421, -3.7, 5.1, of_log=True)) < 1e-13
        assert midpoint_convexity_slack(Q431, 0.0, 2.0, of_log=True) < 0
        assert midpoint_convexity_slack(Q821, 0.0, 2.0, of_log=True) > 0

    def test_overflow_reported_as_range_error(self):
        q = OrderedQuad(1e3, 1.0, 1.0, 1e-3)
        with pytest.raises(OverflowError):
            ratio_value(q, 120.0)
        # the log form stays finite where the plain value overflows
        assert log_ratio_value(q, 120.0) > 709.0


class TestOracleAgreement:
    def test_against_oracle(self):
        cases = [
            ("f", Q431, 0.0), ("f", Q431, 1e-9), ("f", Q431, -4.2), ("f", Q821, 3.3),
            ("g", Q821, 2.5), ("g", Q431, -1.1), ("g", Q431, 0.0),
            ("g_prime", Q431, 0.0), ("g_prime", Q821, 0.02), ("g_prime", Q821, 1.5),
            ("f_prime", Q431, 1.0), ("f_prime", Q821, -2.0), ("f_prime", Q431, 0.0),
        ]
        fns = {"f": ratio_value, "g": log_ratio_value,
               "g_prime": log_ratio_derivative, "f_prime": ratio_derivative}
        for tag, quad, x in cases:
            inp = {**quad.as_dict(), "x": x}
            res = oracle_eval(tag, inp, digits=45)
            assert oracle_rel_err(fns[tag](quad, x), res) < 1e-13, (tag, x)

    def test_seam_stress_vs_oracle(self):
        # the removable-singularity branch against the true value at x = 1e-9
        for quad in (Q431, Q821, OrderedQuad(1.0 + 3e-8, 1.0 + 2e-8, 1.0 + 1e-8, 1.0)):
            inp = {**quad.as_dict(), "x": 1e-9}
            res = oracle_eval("f", inp, digits=50)
            assert oracle_rel_err(ratio_value(quad, 1e-9), res) < 1e-10


class TestProperties:
    def test_monotone_grid(self):
        for quad in rand_quads(60, seed=3):
            prev = None
            for k in range(-40, 41, 2):
                v = log_ratio_value(quad, float(k))
                if prev is not None:
                    assert v > prev
                prev = v

    def test_tail_proxy(self):
        # r(x) -> 0 as x -> -infinity; at x = -40 the proxy needs separated
        # ratios, otherwise the decay has not kicked in yet at finite depth
        stream = SampleStream(11, "test/tails")
        checked = 0
        idx = 0
        while checked < 40:
            quad = sample_quad(stream, idx)
            idx += 1
            if quad.a / quad.b < 1.1 or quad.c / quad.d < 1.1 or quad.b / quad.d < 2.0:
                continue
            scale = 2.0 / quad.d  # d >= 1 after rescaling; r is scale-invariant
            q = quad.scaled(scale)
            assert q.d >= 1.0
            assert log_ratio_value(q, -40.0) < math.log(1e-6) + log_ratio_value(q, 0.0)
            checked += 1

    def test_derivative_vs_central_difference(self):
        for i, quad in enumerate(rand_quads(60, seed=5)):
            x = -5.0 + (i % 21) * 0.5
            h = 1e-5 * max(1.0, abs(x))
            fd = (ratio_value(quad, x + h) - ratio_value(quad, x - h)) / (2 * h)
            an = ratio_derivative(quad, x)
            assert abs(fd - an) <= 1e-6 * abs(an), (quad, x)
            assert an > 0.0

    def test_derivative_across_zero_seam(self):
        for quad in rand_quads(30, seed=7):
            h = 1e-5
            fd = (ratio_value(quad, h) - ratio_value(quad, -h)) / (2 * h)
            an = ratio_derivative(quad, 0.0)
            assert abs(fd - an) <= 1e-6 * abs(an)

    def test_value_seam_continuity(self):
        # r near x = 0 against the direct ln(e^y - 1) form of the power differences
        def _log_expm1(y):
            """ln(e^y - 1) for y > 0."""
            if y > 40.0:
                return y + math.log1p(-math.exp(-y))
            return math.log(math.expm1(y))

        for quad in rand_quads(200, seed=9):
            for x in (SEAM_X, -SEAM_X):
                sing = ratio_value(quad, x)
                direct = math.exp(
                    x * (quad.ln_b - quad.ln_d)
                    + _log_expm1(abs(x) * quad.r_ab) - _log_expm1(abs(x) * quad.r_cd)
                    if x > 0 else
                    x * (quad.ln_a - quad.ln_c)
                    + _log_expm1(abs(x) * quad.r_ab) - _log_expm1(abs(x) * quad.r_cd))
                assert abs(sing - direct) <= 1e-12 * direct

    def test_midpoint_convexity_of_ratio(self):
        stream = SampleStream(13, "test/midpoint")
        for i in range(300):
            quad = sample_quad(stream, i)
            u = stream.floats(i, 2, salt=99)
            x1 = -20.0 + 40.0 * u[0]
            x2 = -20.0 + 40.0 * u[1]
            if abs(x1 - x2) < 0.1:
                continue
            slack = midpoint_convexity_slack(quad, x1, x2)
            fmid = ratio_value(quad, 0.5 * (x1 + x2))
            assert slack >= -1e-12 * abs(fmid)

    def test_log_midpoint_sign_matches_class(self):
        for sign, expect in (("positive", 1), ("negative", -1), ("zero", 0)):
            stream = SampleStream(17, f"test/logmid/{sign}")
            for i in range(200):
                quad = sample_quad(stream, i, sign=sign)
                u = stream.floats(i, 2, salt=5)
                x1 = -10.0 + 20.0 * u[0]
                x2 = x1 + 0.1 + 10.0 * u[1]
                slack = midpoint_convexity_slack(quad, x1, x2, of_log=True)
                # the convexity gap decays like h^2/sinh(xh)^2 in the tails,
                # so sign resolution is only meaningful above rounding noise
                floor = 1e-14 * (1.0 + abs(log_ratio_value(quad, x1))
                                 + abs(log_ratio_value(quad, x2)))
                if expect > 0:
                    assert slack > -floor
                elif expect < 0:
                    assert slack < floor
                else:
                    assert abs(slack) <= floor

    def test_slope_gap_positive_everywhere(self):
        for quad in rand_quads(200, seed=19):
            assert log_secant_slope_gap(quad) > 0

    @given(lam=st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e))
    @settings(max_examples=50, deadline=None)
    def test_ratio_scale_invariance(self, lam):
        # r depends only on the coordinate ratios, so quad scaling is exact
        q2 = Q431.scaled(lam)
        for x in (-3.0, 0.0, 1.7):
            assert log_ratio_value(q2, x) == pytest.approx(
                log_ratio_value(Q431, x), abs=1e-12)

    def test_zero_disc_linearity(self):
        # |g(x) - x ln(b/d)| <= 1e-12 |x ln(b/d)| + 1e-15 for x in -10..10
        stream = SampleStream(23, "test/zerolin")
        for i in range(100):
            quad = sample_quad(stream, i, sign="zero")
            slope = quad.ln_b - quad.ln_d
            for x in range(-10, 11):
                if x == 0:
                    continue
                g = log_ratio_value(quad, float(x))
                assert abs(g - x * slope) <= 1e-12 * abs(x * slope) + 1e-15


def _mp_ratio_logs(quad, x):
    """ln r(x), (ln r)'(x) and the two leading terms' size |ln r(0)| + |x ln(G(a,b)/G(c,d))|,
    in 80-digit mpmath from the power differences themselves."""
    with mpmath.workdps(80):
        a, b, c, d, x = (mpmath.mpf(v) for v in (quad.a, quad.b, quad.c, quad.d, x))
        num, den = a ** x - b ** x, c ** x - d ** x
        g = mpmath.log(num / den)
        gp = ((a ** x * mpmath.log(a) - b ** x * mpmath.log(b)) / num
              - (c ** x * mpmath.log(c) - d ** x * mpmath.log(d)) / den)
        lead = (abs(mpmath.log(mpmath.log(a / b) / mpmath.log(c / d)))
                + abs(x * mpmath.log(a * b / (c * d)) / 2))
        return g, gp, lead


def _mp_ln_ipow_ratio(quad, s):
    """ln I(a^s, b^s) - ln I(c^s, d^s) in 80-digit mpmath, from
    ln I(e^u, e^v) = (u - v e^(v-u)) / (1 - e^(v-u)) - 1 for u > v."""
    def ln_i(u, v):
        if u < v:
            u, v = v, u
        e = mpmath.exp(v - u)
        return (u - v * e) / (1 - e) - 1

    with mpmath.workdps(80):
        ln = [s * mpmath.log(mpmath.mpf(v)) for v in (quad.a, quad.b, quad.c, quad.d)]
        return ln_i(ln[0], ln[1]) - ln_i(ln[2], ln[3])


def _rel(got, want, scale=None):
    return float(abs(mpmath.mpf(got) - want) / abs(scale if scale is not None else want))


class TestLambdaForm:
    """ln r, (ln r)' and the Ipow ratio through lambda(w) = ln(sinh w / w) and
    lambda', against 80-digit mpmath at the x where ln r once changed form:
    +-1e-9, +-1e-7 (a first-order window ended there), both sides of
    |x| max(h) = 0.03 (an odd series of (ln r)' ended there), and s ln(a/b) or
    s ln(c/d) near +-300 (ln I of the powers was clamped there)."""

    @pytest.mark.parametrize("bounds", [(1e-3, 1e3), (1e-12, 1e-6)])
    def test_against_mpmath(self, bounds):
        stream = SampleStream(2028, f"test/lambda/{bounds[0]}")
        for i in range(300):
            quad = sample_quad(stream, i, bounds=bounds)
            edge = 0.03 / max(quad.h_ab, quad.h_cd)
            for x in (1e-9, -1e-9, 1e-7, -1e-7, 0.999 * edge, -0.999 * edge,
                      1.001 * edge, -1.001 * edge):
                g, gp, lead = _mp_ratio_logs(quad, x)
                # ln r has zeros, where no binary64 form of it is relatively
                # accurate: its error is taken against its leading terms' size
                assert _rel(log_ratio_value(quad, x), g, max(abs(g), lead)) <= 1e-12, (i, x)
                assert _rel(log_ratio_derivative(quad, x), gp) <= 1e-12, (i, x)
            for r in (quad.r_ab, quad.r_cd):
                for s in (299.0 / r, 301.0 / r, -299.0 / r, -301.0 / r):
                    want = _mp_ln_ipow_ratio(quad, s)
                    assert _rel(ln_identric_ratio_pow(quad, s), want) <= 1e-12, (i, s)
            assert log_secant_slope_gap(quad) > 0, i
