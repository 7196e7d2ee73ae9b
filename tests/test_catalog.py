import hashlib
import math
import sys

import mpmath
import pytest

from meanineq import catalog, sweep
from meanineq.catalog import REGISTRY, evaluate, sequence_link_values
from meanineq.ratio import OrderedQuad
from meanineq.report import EQUALITY, HOLDS, VIOLATED, HypothesisViolation, dumps, judge
from meanineq.rng import SampleStream, sample_quad
from meanineq.sweep import SweepConfig, run_sweep

Q431 = OrderedQuad(4, 3, 2, 1)
Q821 = OrderedQuad(8, 2, 2, 1)
Q421 = OrderedQuad(4, 2, 2, 1)

# worked chain for (4,3,2,1): exp(1 - L(2,1)/L(4,3)), I(4,3)/I(2,1),
# exp(L(4,3)/L(2,1) - 1); middle is exactly 64/27
EQ5_CHAIN = (1.794923676034446, 2.370370370370370, 4.093583875932733)


def all_positive(report):
    return all(s > 0 for s in report.slacks)


def exact_sequence_links(n):
    """The seven sequence slacks at n from the mean ratios' definitions, at 60 digits."""
    log = mpmath.log
    with mpmath.workdps(60):
        d = mpmath.mpf(n)
        a, b, c = d + 2, d + 1, d + 1
        ln_g = (log(a) + log(b) - log(c) - log(d)) / 2
        ln_i = (a * log(a) - b * log(b)) - (c * log(c) - d * log(d))   # a - b = c - d = 1
        l_ratio = log(c / d) / log(a / b)
        ln_a = log((a + b) / (c + d))
        ln_h = log(a * b / (a + b)) - log(c * d / (c + d))
        ln_l = log(l_ratio)
        return (1 + ln_g - a / b, l_ratio - 1 - ln_g, l_ratio - ln_g / ln_i,
                ln_i - ln_a, ln_l - ln_i, ln_g - ln_l, ln_h - ln_g)


class TestEq4:
    def test_equality_at_equal_exponents(self):
        rep = REGISTRY["EQ4"].report(Q431, 2.0, 2.0)
        assert abs(rep.slacks[0]) <= 1e-12
        assert rep.verdict == EQUALITY

    def test_strict_cases(self):
        assert all_positive(REGISTRY["EQ4"].report(Q431, 2.0, 3.0))
        assert all_positive(REGISTRY["EQ4"].report(Q821, 0.5, -0.5))

    def test_rejects_snapped_exponents(self):
        with pytest.raises(HypothesisViolation):
            REGISTRY["EQ4"].report(Q431, 1e-7, 2.0)
        with pytest.raises(HypothesisViolation):
            REGISTRY["EQ4"].report(Q431, 2.0, -1.0 - 5e-7)


class TestEq5To12:
    def test_eq5_worked_chain(self):
        lab = 1.0 / math.log(4 / 3)
        lcd = 1.0 / math.log(2.0)
        left = math.exp(1.0 - lcd / lab)
        mid = 64.0 / 27.0
        right = math.exp(lab / lcd - 1.0)
        for got, frozen in zip((left, mid, right), EQ5_CHAIN):
            assert got == pytest.approx(frozen, abs=1e-12)
        rep = REGISTRY["EQ5"].report(Q431)
        assert rep.slacks[0] == pytest.approx(math.log(mid) - math.log(left), rel=1e-10)
        assert rep.slacks[1] == pytest.approx(math.log(right) - math.log(mid), rel=1e-10)
        assert all_positive(rep)

    def test_eq5_more_quads(self):
        assert all_positive(REGISTRY["EQ5"].report(Q821))
        assert all_positive(REGISTRY["EQ5"].report(OrderedQuad(2.0, 1.5, 1.5, 1.0)))

    def test_eq6(self):
        rep = REGISTRY["EQ6"].report(4.0, 2.0)
        # I/b = 1.4715, bounds exp(0.3069) and exp(0.4427)
        assert rep.slacks[0] == pytest.approx(math.log(1.4715177646857693)
                                              - 0.30685281944005466, rel=1e-9)
        assert all_positive(rep)
        assert all_positive(REGISTRY["EQ6"].report(100.0, 1.0))
        near = REGISTRY["EQ6"].report(1.0 + 1e-6, 1.0)
        assert near.verdict in (HOLDS, EQUALITY)
        assert min(near.slacks) >= -1e-9

    def test_eq8_worked(self):
        rep = REGISTRY["EQ8"].report(Q431)
        l_ratio = math.log(2.0) / math.log(4.0 / 3.0)
        assert l_ratio == pytest.approx(2.409420839653209, abs=1e-12)
        assert rep.slacks[0] == pytest.approx(l_ratio - 1.0 - math.log(math.sqrt(6.0)),
                                              rel=1e-12)
        assert rep.slacks[1] == pytest.approx(1.0 + math.log(math.sqrt(6.0)) - 24.0 / 14.0,
                                              rel=1e-12)
        assert all_positive(REGISTRY["EQ8"].report(Q821))
        assert all_positive(REGISTRY["EQ8"].report(Q421))

    def test_eq9_worked(self):
        rep = REGISTRY["EQ9"].report(Q431)
        expect = 2.409420839653209 - math.log(math.sqrt(6.0)) / math.log(64.0 / 27.0)
        assert rep.slacks[0] == pytest.approx(expect, rel=1e-12)
        stream = SampleStream(31, "test/eq9")
        for i in range(2):
            assert all_positive(REGISTRY["EQ9"].report(sample_quad(stream, i)))

    def test_eq10_worked(self):
        rep = REGISTRY["EQ10"].report(4.0, 2.0)
        m = (2.8853900817779268 / 2.0, 1.0 + 0.5 * math.log(2.0), 8.0 / 6.0,
             math.log(2.0) / (2.0 * math.log(1.4715177646857693)))
        assert rep.slacks[0] == pytest.approx(m[0] - m[1], rel=1e-10)
        assert rep.slacks[1] == pytest.approx(m[1] - m[2], rel=1e-10)
        assert rep.slacks[2] == pytest.approx(m[2] - m[3], rel=1e-10)
        assert all_positive(REGISTRY["EQ10"].report(math.e, 1.0))
        with pytest.raises(HypothesisViolation):
            REGISTRY["EQ10"].report(1.0 + 1e-9, 1.0)   # below the declared ratio floor

    def test_eq11_eq12(self):
        rep = REGISTRY["EQ11"].report(Q431)
        assert rep.slacks[0] == pytest.approx(math.log(math.sqrt(6.0)) - 10.0 / 14.0,
                                              rel=1e-12)
        rep = REGISTRY["EQ12"].report(2.0, 1.0)
        assert rep.slacks[0] == pytest.approx(0.5 * math.log(2.0) - 1.0 / 3.0, rel=1e-12)
        near = REGISTRY["EQ12"].report(1.0 + 1e-9, 1.0)
        assert near.margin >= -1e-9 and near.verdict in (HOLDS, EQUALITY)
        with pytest.raises(HypothesisViolation):
            REGISTRY["EQ12"].report(1.0, 2.0)


class TestEq13Eq14:
    def test_eq13_zero_equality(self):
        rep = REGISTRY["EQ13"].report(Q421, 3.0, -2.0)
        assert abs(rep.slacks[0]) <= 1e-11
        assert rep.verdict == EQUALITY

    def test_eq13_direction_keyed(self):
        assert all_positive(REGISTRY["EQ13"].report(Q821, 2.0, 0.5))
        assert all_positive(REGISTRY["EQ13"].report(Q431, 2.0, 0.5))  # oriented: raw is negative
        # the raw (unoriented) slack flips sign between the classes
        rep_pos = REGISTRY["EQ13"].report(Q821, 2.0, 0.5)
        rep_neg = REGISTRY["EQ13"].report(Q431, 2.0, 0.5)
        assert rep_pos.inputs["disc_class"] == "positive"
        assert rep_neg.inputs["disc_class"] == "negative"

    def test_eq14_worked_ratios(self):
        rep = REGISTRY["EQ14"].report(Q431)
        ratios = (18.0 / 7.0, math.sqrt(6.0), 2.409420839653209, 64.0 / 27.0, 7.0 / 3.0)
        for got, expect in zip((2.5714, 2.4495, 2.4094, 2.3704, 2.3333),
                               ratios):
            assert got == pytest.approx(expect, abs=1e-4)
        # descending chain: oriented slacks are the consecutive log gaps
        assert rep.slacks[0] == pytest.approx(math.log(ratios[0] / ratios[1]), rel=1e-10)
        assert rep.slacks[3] == pytest.approx(math.log(ratios[3] / ratios[4]), rel=1e-10)
        assert all_positive(rep)

    def test_eq14_zero_and_positive(self):
        rep = REGISTRY["EQ14"].report(Q421)
        assert rep.verdict == EQUALITY
        assert max(abs(s) for s in rep.slacks) <= 1e-12
        assert all_positive(REGISTRY["EQ14"].report(Q821))

    def test_eq14_relaxed_ties(self):
        rep = REGISTRY["EQ14"].report(OrderedQuad(4, 4, 2, 2, relaxed=True))
        assert rep.verdict == EQUALITY
        rep = REGISTRY["EQ14"].report(OrderedQuad(4, 3, 3, 3, relaxed=True))
        assert rep.verdict in (HOLDS, EQUALITY)
        assert min(rep.slacks) > -1e-12


def _ln_l_exact(a, b):
    return mpmath.log((a - b) / (mpmath.log(a) - mpmath.log(b)))


def _ln_i_exact(a, b):
    return (a * mpmath.log(a) - b * mpmath.log(b)) / (a - b) - 1


def _ln_lp_exact(a, b, p):
    p = mpmath.mpf(p)
    return mpmath.log((a ** (p + 1) - b ** (p + 1)) / ((p + 1) * (a - b))) / p


class TestLambdaContext:
    """The quad rows' L, I and Lp log ratios, from h_ab, h_cd, the ln G-ratio
    and lambda, against their definitions at 60 digits."""

    @pytest.mark.parametrize("bounds", [None, (1e-30, 1e30), (1e-300, 1e300)])
    def test_log_ratios_match_mpmath(self, bounds):
        # the sweep's quads and exponents; each ratio is judged within 1e-14
        # of itself, plus two ulps of the largest |ln x| of the quad: the
        # ratios are built from the logs of the coordinates, which carry that
        # much.  At 1e+-30 one Lp draw needs it, at 1.7e-14 relative: ln d is
        # -62 and ln Lp-ratio is 1.1.
        config = SweepConfig(seed=3) if bounds is None else SweepConfig(seed=3, bounds=bounds)
        group = _alone("EQ4", config)
        with mpmath.workdps(60):
            for index in range(300):
                quad, p, q = group.draw(index)
                a, b, c, d = map(mpmath.mpf, (quad.a, quad.b, quad.c, quad.d))
                ulps = 2.0 * math.ulp(max(abs(quad.ln_a), abs(quad.ln_d)))
                ctx = catalog._lam_context(quad)
                pairs = [(ctx[3], _ln_l_exact(a, b) - _ln_l_exact(c, d)),
                         (ctx[5], _ln_i_exact(a, b) - _ln_i_exact(c, d))]
                pairs += [(catalog._ln_lp_ratio(quad, x),
                           _ln_lp_exact(a, b, x) - _ln_lp_exact(c, d, x)) for x in (p, q)]
                for k, (got, exact) in enumerate(pairs):
                    assert abs(got - exact) <= 1e-14 * abs(exact) + ulps, (index, k, got)

    @pytest.mark.parametrize("quad", [(4, 4, 2, 1), (4, 3, 2, 2), (4, 3, 3, 1), (4, 4, 2, 2),
                                      (4, 3, 3, 3), (4, 4, 4, 1), (4, 4, 4, 4),
                                      (1e300, 1e300, 1e-300, 1e-300), (1e300, 1e-300, 1e-300, 1e-300)])
    def test_eq14_relaxed_ties_are_finite(self, quad):
        rep = REGISTRY["EQ14"].report(OrderedQuad(*quad, relaxed=True))
        assert all(math.isfinite(s) for s in rep.slacks), rep
        assert rep.verdict in (HOLDS, EQUALITY)

    @pytest.mark.parametrize("p", [1e300, -1e300, sys.float_info.max, -sys.float_info.max])
    @pytest.mark.parametrize("quad", [Q431, OrderedQuad(1e3, 1.0, 0.5, 0.4),
                                      OrderedQuad(1e300, 1e10, 1e-10, 1e-300)])
    def test_lp_ratio_at_huge_exponents(self, quad, p):
        # Lp tends to max(a, b) as p -> +inf and to min(a, b) as p -> -inf;
        # where (1+p) h overflows, the bracket is at that limit: at |p| =
        # DBL_MAX for (a, b) alone in the second quad, for both in the third
        rep = REGISTRY["EQ13"].report(quad, p, 0.5)
        assert rep.verdict in (HOLDS, VIOLATED, EQUALITY)
        want = quad.ln_a - quad.ln_c if p > 0 else quad.ln_b - quad.ln_d
        got = catalog._ln_lp_ratio(quad, p)
        assert abs(got - want) <= 4.0 * math.ulp(max(abs(quad.ln_a), abs(quad.ln_d))), got

    def test_l_ratio_past_binary64_at_full_range(self):
        # L(a,b)/L(c,d) leaves binary64 at 1e+-300: EQ5, EQ8 and EQ9 read it as
        # inf; so do EQ6's upper slack and EQ10's first link, for L(a,b)/b
        assert REGISTRY["EQ6"].row(1e300, 1e-300)[0][1] == math.inf
        assert REGISTRY["EQ10"].row(1e300, 1e-300)[0][0] == math.inf
        rep = run_sweep(SweepConfig(ids=("EQ5", "EQ6", "EQ8", "EQ9", "EQ10"), samples=2000,
                                    seed=42, bounds=(1e-300, 1e300)))
        assert rep["total_violations"] == 0
        assert all(r["samples_run"] == 2000 for r in rep["results"].values())


def _pair_rows_exact(a, b):
    """EQ6's two slacks and EQ10's three from the means' definitions at 60
    digits, in x = a/b: L/b = (x - 1)/ln x and ln(I/b) = x ln x/(x - 1) - 1."""
    with mpmath.workdps(60):
        x = mpmath.mpf(a) / mpmath.mpf(b)
        lx = mpmath.log(x)
        l_b, ln_i_b = (x - 1) / lx, x * lx / (x - 1) - 1
        m2, m3, m4 = 1 + lx / 2, 2 * x / (x + 1), lx / (2 * ln_i_b)
        return (ln_i_b - (1 - 1 / l_b), l_b - 1 - ln_i_b, l_b - m2, m2 - m3, m3 - m4)


class TestPairRows:
    """EQ6 and EQ10, rows in h = ln(a/b)/2 alone, against their definitions."""

    @pytest.mark.parametrize("bounds", [(1e-3, 1e3), (1e-300, 1e300)])
    def test_slacks_match_mpmath(self, bounds):
        # a/b = 1 + 10^u, u uniform in [-5.9, 3], and b log-uniform so that a
        # stays within the bounds
        stream = SampleStream(1, "test/pair-rows")
        ln_lo, ln_hi = math.log(bounds[0]), math.log(bounds[1])
        for index in range(1000):
            w0, w1 = stream.words(index, 2)
            ratio = 1.0 + 10.0 ** (-5.9 + 8.9 * (w0 >> 11) * 2.0 ** -53)
            b = math.exp(ln_lo + (w1 >> 11) * 2.0 ** -53 * (ln_hi - math.log(ratio) - ln_lo))
            a = b * ratio
            got = REGISTRY["EQ6"].row(a, b)[0] + REGISTRY["EQ10"].row(a, b)[0]
            for k, (value, exact) in enumerate(zip(got, _pair_rows_exact(a, b))):
                bound = 1e-13 if k == 3 else 1e-8
                assert abs(value - exact) <= bound * abs(exact), (index, k, a, b, value)

    def test_half_log_minus_tanh_matches_mpmath(self):
        # t/2 - tanh(t/2), the second link of EQ8 and EQ10 and the slack of
        # EQ11 and EQ12, keeps full relative accuracy where it cancels
        for i in range(4001):
            t = 10.0 ** (-9.0 + 11.0 * i / 4000)
            with mpmath.workdps(60):
                h = mpmath.mpf(t) / 2
                exact = h - mpmath.tanh(h)
                err = abs((mpmath.mpf(catalog._half_log_minus_tanh(t)) - exact) / exact)
            assert err <= 1e-14, (t, float(err))


class TestSequences:
    def test_worked_n1(self):
        rep15 = REGISTRY["EQ15"].report(1)
        m = (1.5, 1.0 + math.log(math.sqrt(3.0)),
             math.log(2.0) / math.log(1.5))
        assert m[1] == pytest.approx(1.549306, abs=1e-6)
        assert m[2] == pytest.approx(1.709511, abs=1e-6)
        assert rep15.slacks[0] == pytest.approx(m[1] - m[0], rel=1e-10)
        assert rep15.slacks[1] == pytest.approx(m[2] - m[1], rel=1e-10)

        rep17 = REGISTRY["EQ17"].report(1)
        members = (5.0 / 3.0, 1.6875, 1.709511, math.sqrt(3.0), 1.8)
        assert members[3] == pytest.approx(1.732051, abs=1e-6)
        for k in range(4):
            assert rep17.slacks[k] == pytest.approx(
                math.log(members[k + 1]) - math.log(members[k]), abs=1e-6)
        assert all_positive(REGISTRY["EQ16"].report(1))

    def test_large_n_positive(self):
        for n in (10, 1000, 10 ** 6):
            for rep in (REGISTRY[id].report(n) for id in ("EQ15", "EQ16", "EQ17")):
                assert all_positive(rep), (n, rep.slacks)
                assert rep.verdict in (HOLDS, EQUALITY)

    @pytest.mark.parametrize("n", [1, 2, 10, 999, 1000, 3162, 31623, 10 ** 6])
    def test_links_match_exact_values(self, n):
        # absolute error within 8 eps of the comparands' O(1/n) size; EQ16's
        # quotient link within 8 eps outright
        eps = sys.float_info.epsilon
        got = sequence_link_values(n)
        for k, exact in enumerate(exact_sequence_links(n)):
            assert (got[k] > 0) == (exact > 0) and exact != 0, (n, k)
            with mpmath.workdps(60):
                err = abs(mpmath.mpf(got[k]) - exact)
                bound = 8 * eps * (1 if k == 2 else abs(exact) + mpmath.mpf(1) / n)
                assert err <= bound, (n, k, float(err), float(bound))

    def test_rejects_bad_n(self):
        for bad in (0, -3, 1.5, "x", True):
            with pytest.raises(HypothesisViolation):
                REGISTRY["EQ15"].report(bad)


class TestSlope3:
    def test_positive_on_samples(self):
        stream = SampleStream(37, "test/slope3")
        for i in range(100):
            assert all_positive(REGISTRY["SLOPE_3"].report(sample_quad(stream, i)))

    def test_tiny_coordinates_hold(self):
        # the gap is second order in coordinates this small, so ln r near
        # x = 0 must keep its second-order terms
        rep = run_sweep(SweepConfig(ids=("SLOPE_3",), samples=2000, seed=42,
                                    bounds=(1e-12, 1e-6)))
        assert rep["results"]["SLOPE_3"]["violation_count"] == 0

    @pytest.mark.parametrize("bounds", [(1e-30, 1e30), (1e-300, 1e300)])
    def test_wide_bounds_raise_nothing(self, bounds):
        # every chord rise ln r(v) - ln r(u) must stay positive, or its log
        # raises a domain error
        rep = run_sweep(SweepConfig(ids=("SLOPE_3",), samples=2000, seed=42, bounds=bounds))
        result = rep["results"]["SLOPE_3"]
        assert result["samples_run"] == 2000 and math.isfinite(result["min_margin"])


class TestRegistry:
    def test_ids_and_dispatch(self):
        assert set(REGISTRY) == {"EQ4", "EQ5", "EQ6", "EQ8", "EQ9", "EQ10", "EQ11",
                                 "EQ12", "EQ13", "EQ14", "EQ15", "EQ16", "EQ17",
                                 "SLOPE_3"}
        rep = evaluate("EQ14", a=4, b=3, c=2, d=1)
        assert rep.id == "EQ14" and rep.verdict == HOLDS
        rep = evaluate("EQ15", n=1)
        assert rep.verdict == HOLDS
        rep = evaluate("EQ12", x=2.0, y=1.0)
        assert rep.verdict == HOLDS

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            evaluate("EQ7", a=4, b=3, c=2, d=1)

    def test_hypothesis_errors_are_typed(self):
        with pytest.raises(HypothesisViolation):
            evaluate("EQ4", a=4, b=3, c=2, d=1, p=1e-8, q=2.0)
        with pytest.raises(HypothesisViolation):
            evaluate("EQ5", a=4, b=3, c=3.5, d=1)   # ordering broken
        with pytest.raises(HypothesisViolation):
            evaluate("EQ4", a=4, b=3, c=2, d=1)     # missing exponents

    def test_report_json_round_trip(self):
        import json
        rep = evaluate("EQ14", a=4, b=3, c=2, d=1)
        loaded = json.loads(rep.to_json())
        assert loaded["slacks"] == list(rep.slacks)
        assert loaded["margin"] == rep.margin

    def test_scale_invariance(self):
        lam = 10.0 ** 2.5
        for id, entry in REGISTRY.items():
            if not entry.scale_invariant or entry.arity not in ("quad", "quad_pq"):
                continue
            base = {"a": 5.1, "b": 2.3, "c": 2.3, "d": 0.9}
            scaled = {k: v * lam for k, v in base.items()}
            kw = {}
            if entry.arity == "quad_pq":
                kw = {"p": 1.7, "q": -2.2}
            r1 = evaluate(id, **base, **kw)
            r2 = evaluate(id, **scaled, **kw)
            for s1, s2 in zip(r1.slacks, r2.slacks):
                if r1.domain == "log_ratio":
                    assert abs(s1 - s2) <= 1e-12
                else:
                    assert abs(s1 - s2) <= 1e-12 * max(1.0, abs(s1))


class TestEqualityApproach:
    """Slack decreases monotonically along contractions toward each manifold."""

    def test_eq4_in_p(self):
        gaps = [1.0, 0.5, 0.25, 0.125, 0.0625]
        slacks = [REGISTRY["EQ4"].report(Q431, 2.0 + g, 2.0).slacks[0] for g in gaps]
        assert all(x > y > 0 for x, y in zip(slacks, slacks[1:]))

    def test_eq6_toward_equal_pair(self):
        ratios = [2.0, 1.5, 1.25, 1.125, 1.0625]
        slacks = [min(REGISTRY["EQ6"].report(r, 1.0).slacks) for r in ratios]
        assert all(x > y > 0 for x, y in zip(slacks, slacks[1:]))

    def test_eq13_toward_zero_disc(self):
        # move d toward bc/a from below, keeping the ordering
        a, b, c = 8.0, 2.0, 2.0
        target = b * c / a
        slacks = []
        for t in (0.5, 0.25, 0.125, 0.0625, 0.03125):
            d = target * (1.0 - t)
            rep = REGISTRY["EQ13"].report(OrderedQuad(a, b, c, d), 2.0, 0.5)
            slacks.append(abs(rep.slacks[0]))
        assert all(x > y > 0 for x, y in zip(slacks, slacks[1:]))


def _outcome(call, *args, **kwargs):
    """``(margin, verdict)`` as a repr, so NaN equals NaN, or the exception raised."""
    try:
        margin, verdict = call(*args, **kwargs)
    except Exception as exc:                     # noqa: BLE001 -- compared, not swallowed
        return type(exc), str(exc)
    return repr((margin, verdict))


def _alone(id, config):
    """The group of one id, as a sweep of that id alone runs it."""
    return sweep._group("catalog_sweep", config._replace(ids=(id,)), 0)


def _reported(entry, **named):
    rep = entry.evaluate(**named)
    return rep.margin, rep.verdict


def _judged(entry, *args):
    """The row at its arguments, judged as a sweep's chunk judges it."""
    return judge(*entry.row(*args))


class TestMarginsMatchReports:
    """A sweep judges the row its report reads: the same margin and verdict,
    or the same error; and a chunk folds what the reports show."""

    def check_draws(self, config, count, ids=catalog.INEQUALITY_IDS):
        verdicts = {id: set() for id in ids}
        for id in ids:
            entry = REGISTRY[id]
            group = _alone(id, config)
            echo, _ = group.echoes[id]
            for index in range(count):
                args = group.draw(index)
                got = _outcome(_judged, entry, *args)
                want = _outcome(_reported, entry, **echo(*args))
                assert got == want, (id, index)
                # the verdict, or the name of the exception raised
                verdicts[id].add(got.rsplit("'", 2)[-2] if isinstance(got, str)
                                 else got[0].__name__)
        return verdicts

    @staticmethod
    def check_fold(config, count, ids=catalog.INEQUALITY_IDS):
        """Each id's chunk, as a sweep of it alone runs it, against the fold
        of its reports at the same draws."""
        for id in ids:
            alone = config._replace(ids=(id,), samples=count)
            agg = sweep._run_chunk(("catalog_sweep", alone, 0, 0, None))[id]
            group = _alone(id, config)
            echo, _ = group.echoes[id]
            reps = [REGISTRY[id].evaluate(**echo(*group.draw(i))) for i in range(count)]
            low = min(range(count), key=lambda i: (reps[i].margin, i))
            violated = [(i, rep) for i, rep in enumerate(reps) if rep.verdict == VIOLATED]
            assert (agg.samples_run, agg.min_margin, agg.argmin_index) == (
                count, reps[low].margin, low), id
            assert agg.equality_cases == sum(rep.verdict == EQUALITY for rep in reps), id
            assert agg.violation_count == len(violated), id
            assert agg.violations == [{"sample_index": i, "margin": rep.margin,
                                       "inputs": echo(*group.draw(i))}
                                      for i, rep in violated[:10]], id

    @pytest.mark.parametrize("sign", ["any", "positive", "negative", "zero"])
    def test_default_bounds(self, sign):
        config = SweepConfig(seed=42, sign=sign)
        self.check_draws(config, 300)
        self.check_fold(config, 300)

    def test_fold_of_violations_and_equalities(self):
        # at 1e+-30 EQ13 reads violated on 33 of the first 1024 samples, more
        # than the ten a chunk echoes; at sign zero both ids read equality
        self.check_fold(SweepConfig(seed=1, bounds=(1e-30, 1e30)), sweep._CHUNK,
                        ids=("EQ13", "EQ14"))
        self.check_fold(SweepConfig(seed=1, sign="zero", bounds=(1e-30, 1e30)), 300,
                        ids=("EQ13", "EQ14"))

    def test_wide_bounds_rounding_violations(self):
        # at 1e+-30 EQ13 loses its smallest slacks to rounding; EQ14 takes its
        # I-to-A gap pair by pair, and keeps its sign
        seen = self.check_draws(SweepConfig(seed=1, bounds=(1e-30, 1e30)), 2000,
                                ids=("EQ13", "EQ14"))
        assert VIOLATED in seen["EQ13"] and VIOLATED not in seen["EQ14"]
        zero = self.check_draws(SweepConfig(seed=1, sign="zero", bounds=(1e-30, 1e30)), 300,
                                ids=("EQ13", "EQ14"))
        assert zero["EQ13"] == zero["EQ14"] == {EQUALITY}

    def test_every_id_at_wide_bounds(self):
        # past the default bounds EQ4 still overflows, and both paths raise
        # alike; SLOPE_3 takes its ln r differences as lambda differences and
        # raises nothing
        seen = self.check_draws(SweepConfig(seed=3, bounds=(1e-300, 1e300)), 100)
        assert "OverflowError" in seen["EQ4"]
        assert seen["SLOPE_3"] <= {HOLDS, EQUALITY, VIOLATED}

    # EQ17's margin falls under its fixed tolerance from n = 1000 on; EQ15's
    # tolerance shrinks as 3/n, so it reads equality only from about 1.5e4
    @pytest.mark.parametrize("id, n, verdict", [
        ("EQ17", 999, HOLDS), ("EQ17", 1000, EQUALITY), ("EQ17", 4321, EQUALITY),
        ("EQ17", 10 ** 6, EQUALITY), ("EQ15", 1000, HOLDS), ("EQ15", 2 * 10 ** 4, EQUALITY),
        ("EQ15", 10 ** 5, EQUALITY), ("EQ15", 10 ** 6, EQUALITY),
    ])
    def test_long_sequences_read_equality(self, id, n, verdict):
        entry = REGISTRY[id]
        assert _judged(entry, n) == _reported(entry, n=n)
        assert _judged(entry, n)[1] == verdict

    @pytest.mark.parametrize("id, args", [
        ("EQ4", (Q431, 1e-8, 2.0)), ("EQ4", (Q431, 2.0, -1.0)), ("EQ4", (Q431, 2.0, math.nan)),
        ("EQ13", (Q431, 2.0, 1e-7)), ("EQ5", (OrderedQuad(4, 4, 2, 1, relaxed=True),)),
        ("EQ9", (OrderedQuad(4, 3, 2, 2, relaxed=True),)),
        ("SLOPE_3", (OrderedQuad(4, 4, 4, 4, relaxed=True),)),
        ("EQ6", (2.0, 4.0)), ("EQ6", (math.inf, 1.0)), ("EQ10", (1.0 + 1e-9, 1.0)),
        ("EQ12", (math.inf, 1.0)),
        ("EQ15", (0,)), ("EQ16", (True,)), ("EQ17", (2.5,)), ("EQ12", (1.0, 2.0)),
    ])
    def test_bad_inputs_raise_alike(self, id, args):
        entry = REGISTRY[id]
        got = _outcome(_judged, entry, *args)
        assert not isinstance(got, str)
        assert got == _outcome(lambda: _reported_args(entry, args))

    @pytest.mark.parametrize("id", catalog.INEQUALITY_IDS)
    def test_one_slack_per_link(self, id):
        entry = REGISTRY[id]
        group = _alone(id, SweepConfig(seed=7))
        for index in range(20):
            slacks, tolerance, _ = entry.row(*group.draw(index))
            assert len(slacks) == len(entry.links) and type(tolerance) is float
            assert all(type(s) is float for s in slacks)


def _reported_args(entry, args):
    rep = entry.report(*args)
    return rep.margin, rep.verdict


#: sha256 of ``sweep``: the report less wall_time_s as ``report.dumps`` writes
#: it, and the CSV, under sampling contract 3 (one shared quad draw per sample
#: for every quad-arity id, one n for the sequence ids, and EQ12's own (x, y)
#: stream), with each pin's violation counts per id.  ``all-any`` and
#: ``all-zero`` re-pinned when EQ8's second link took t/2 - tanh(t/2) and
#: that function took h u/(1 + u), u = h lambda'(h), below h = 0.3.
SWEEP_PINS = {
    "all-any": ({"ids": ("ALL",), "samples": 3000, "seed": 42, "sign": "any"},
                "6a6f6a15cbbe49af3bc59b535fffe3fc6a11367bd18f1940bf011da09fd28b19",
                "d9b18a28452131dab2087e08eb85778ac6c457df7825e579a01f84e2c0054efe", {}),
    "all-zero": ({"ids": ("ALL",), "samples": 3000, "seed": 42, "sign": "zero"},
                 "19345b78a49c342d81838dc0ac2cb75ac01893c31c4bb2e245b020c33402f35e",
                 "f21a2c98e6d4c28e9d82f60d1244bcee50c17587138d56825cc304143642dc40", {}),
    # exits 1: 56 EQ13 violations at rounding level, with their echoes; EQ14 has none
    "eq13-eq14-wide": ({"ids": ("EQ13", "EQ14"), "samples": 2000, "seed": 1,
                        "bounds": (1e-30, 1e30)},
                       "279e35b041d097980c8ef184dbe8fe8e19aa917a037f8727d363a8a19d2dc531",
                       "a5520f2d990e842bd4519e2faa3b475fd6680cb102151f7f5468f6091d97b283",
                       {"EQ13": 56}),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", SWEEP_PINS)
def test_sweep_bytes_pinned(tmp_path, name, workers):
    fields, report_sha, csv_sha, violations = SWEEP_PINS[name]
    rows = tmp_path / "rows.csv"
    rep = run_sweep(SweepConfig(workers=workers, **fields), csv_path=str(rows))
    rep.pop("wall_time_s")
    assert rep["sampling"] == 3
    assert list(rep["results"]) == list(sweep.resolve_ids(fields["ids"]))
    assert {id: r["violation_count"] for id, r in rep["results"].items()
            if r["violation_count"]} == violations
    assert hashlib.sha256(dumps(rep).encode()).hexdigest() == report_sha
    assert hashlib.sha256(rows.read_bytes()).hexdigest() == csv_sha
