import math

import pytest
from hypothesis import given, settings, strategies as st

from meanineq import means
from meanineq.means import (arithmetic_mean, geometric_mean, harmonic_mean,
                            identric_mean, ln_identric, logarithmic_mean,
                            mean_chain_slacks, p_logarithmic_mean,
                            ExponentKind, PExponent)
from meanineq.oracle import PUBLISHED_BOUNDS, oracle_eval, oracle_rel_err
from meanineq.rng import SampleStream

E = math.e

# log-uniform positive reals over the default verification range
pos = st.floats(min_value=-3.0, max_value=3.0).map(lambda x: 10.0 ** x)


class TestWorkedValues:
    def test_arithmetic(self):
        assert arithmetic_mean(1, 1) == 1.0
        assert arithmetic_mean(4, 2) == 3.0
        assert arithmetic_mean(4, 3) == 3.5

    def test_geometric(self):
        assert geometric_mean(4, 1) == 2.0
        assert geometric_mean(4, 2) == pytest.approx(2.8284271247461903, rel=1e-15)
        assert geometric_mean(1e200, 1e200) == 1e200

    def test_harmonic(self):
        assert harmonic_mean(1, 1) == 1.0
        assert harmonic_mean(4, 2) == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert harmonic_mean(4, 3) == pytest.approx(24.0 / 7.0, rel=1e-15)

    def test_logarithmic(self):
        assert logarithmic_mean(E, 1) == pytest.approx(E - 1.0, rel=1e-14)
        assert logarithmic_mean(4, 2) == pytest.approx(2.8853900817779268, rel=1e-14)
        # near-equal arguments stay smooth: L(1+d, 1) = 1 + d/2 + O(d^2)
        val = logarithmic_mean(1.0 + 1e-12, 1.0)
        assert val == pytest.approx(1.0 + 5e-13, rel=1e-13)

    def test_identric(self):
        assert identric_mean(5, 5) == 5.0
        assert identric_mean(4, 2) == pytest.approx(8.0 / E, rel=1e-14)
        assert identric_mean(2, 1) == pytest.approx(4.0 / E, rel=1e-14)

    def test_p_logarithmic_identities(self):
        # closed-form identities of the family: p=1 arithmetic, p=-2 geometric
        assert p_logarithmic_mean(4, 2, 1.0) == pytest.approx(3.0, rel=1e-12)
        assert p_logarithmic_mean(4, 2, -2.0) == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_p_logarithmic_snap_kinds(self):
        assert p_logarithmic_mean(4, 2, 1e-9) == identric_mean(4, 2)
        assert p_logarithmic_mean(4, 2, -1.0 + 1e-9) == logarithmic_mean(4, 2)
        assert p_logarithmic_mean(4, 2, 1e-9) == pytest.approx(2.9430355293715387,
                                                               rel=1e-6)

    def test_exponent_kinds(self):
        assert PExponent.from_value(0.5).kind is ExponentKind.GENERIC
        assert PExponent.from_value(1e-6).kind is ExponentKind.ZERO_LIMIT
        assert PExponent.from_value(-1.0 - 1e-6).kind is ExponentKind.MINUS_ONE_LIMIT
        assert PExponent.from_value(-1.0 - 2e-6).kind is ExponentKind.GENERIC
        for p in (0, 0.0, means.P_SNAP, -means.P_SNAP):
            assert PExponent.from_value(p).kind is ExponentKind.ZERO_LIMIT, p
        for p in (-1, -1.0):
            assert PExponent.from_value(p).kind is ExponentKind.MINUS_ONE_LIMIT, p
        for p in (2 * means.P_SNAP, -2 * means.P_SNAP, 0.5):
            assert PExponent.from_value(p).kind is ExponentKind.GENERIC, p
        px = PExponent.from_value(-1)
        assert px.value == -1.0 and type(px.value) is float

    def test_chain_worked(self):
        assert mean_chain_slacks(1, 1) == (0.0, 0.0, 0.0, 0.0)
        slacks = mean_chain_slacks(4, 2)
        expect = (0.161760458, 0.056962957, 0.057645448, 0.056964471)
        for s, e in zip(slacks, expect):
            assert s == pytest.approx(e, abs=1e-8)
        assert all(s > 0 for s in mean_chain_slacks(2, 1))

    def test_rejects_bad_inputs(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                arithmetic_mean(bad, 1.0)
            with pytest.raises(ValueError):
                p_logarithmic_mean(1.0, bad, 0.5)
        with pytest.raises(ValueError):
            p_logarithmic_mean(2.0, 1.0, math.nan)


class TestOracleAgreement:
    """Frozen 50-digit reference values; the oracle regenerated them."""

    def test_logarithmic_50_digits(self):
        res = oracle_eval("L", {"a": 4.0, "b": 2.0}, digits=50)
        assert str(res.value) == (
            "2.8853900817779268147198493620037842748532919083060")
        assert oracle_rel_err(logarithmic_mean(4, 2), res) < 1e-15

    @pytest.mark.parametrize("op,fn", [
        ("A", arithmetic_mean), ("G", geometric_mean), ("H", harmonic_mean),
        ("L", logarithmic_mean), ("I", identric_mean)])
    def test_means_match_oracle(self, op, fn):
        for (a, b) in [(4.0, 2.0), (123.456, 0.789), (1.5, 1.499), (900.0, 0.002)]:
            res = oracle_eval(op, {"a": a, "b": b}, digits=40)
            assert oracle_rel_err(fn(a, b), res) < 1e-14

    def test_geometric_near_the_top_of_binary64(self):
        # a*b overflows here; the log-domain form read rel_err 1.1e-13
        a, b = 4.590245959685731e+301, 7.379926593465333e+294
        res = oracle_eval("G", {"a": a, "b": b}, digits=40)
        assert oracle_rel_err(geometric_mean(a, b), res) < 1e-15

    def test_geometric_across_binary64(self):
        # 2000 pairs log-uniform over 10^[-307, 308], a quarter of them on
        # the branch where a*b leaves [1e-300, 1e300]: a few ulp everywhere
        stream = SampleStream(5, "test/geometric")
        worst = 0.0
        for i in range(2000):
            u, v = stream.floats(i, 2)
            a, b = 10.0 ** (-307.0 + 615.0 * u), 10.0 ** (-307.0 + 615.0 * v)
            res = oracle_eval("G", {"a": a, "b": b}, digits=30)
            worst = max(worst, oracle_rel_err(geometric_mean(a, b), res))
        assert worst < PUBLISHED_BOUNDS["G"]
        assert worst < 1e-15

    def test_identric_series_window_vs_oracle(self):
        # pairs (1+t)/(1-t) land inside the even-series branch for |t| < 1e-3
        for t in (1e-7, 1e-5, 1e-4, 5e-4, 9.9e-4):
            a, b = 1.0 + t, 1.0 - t
            res = oracle_eval("I", {"a": a, "b": b}, digits=50)
            assert oracle_rel_err(identric_mean(a, b), res) < 1e-15

    def test_lp_all_branches_vs_oracle(self):
        pairs = [(4.0, 2.0), (1000.0, 1.0), (7.3, 7.1), (5.0, 4.999), (1e3, 1e-3)]
        ps = [-3.0, -1.001, -0.999, -0.5, -0.01, -2e-6, 2e-6, 0.01, 0.5, 2.0, 10.0]
        for a, b in pairs:
            for p in ps:
                res = oracle_eval("Lp", {"a": a, "b": b, "p": p}, digits=40)
                rel = oracle_rel_err(p_logarithmic_mean(a, b, p), res)
                assert rel < 1e-13, (a, b, p, rel)


class TestProperties:
    @given(a=pos, b=pos)
    @settings(max_examples=300, deadline=None)
    def test_mean_property(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for fn in (arithmetic_mean, geometric_mean, harmonic_mean,
                   logarithmic_mean, identric_mean):
            v = fn(a, b)
            assert lo * (1 - 1e-12) <= v <= hi * (1 + 1e-12)
        for p in (-3.0, -0.5, 0.7, 2.0):
            v = p_logarithmic_mean(a, b, p)
            assert lo * (1 - 1e-12) <= v <= hi * (1 + 1e-12)

    @given(a=pos, b=pos)
    @settings(max_examples=300, deadline=None)
    def test_symmetry(self, a, b):
        for fn in (arithmetic_mean, geometric_mean, harmonic_mean,
                   logarithmic_mean, identric_mean):
            assert fn(a, b) == fn(b, a)
        for p in (-2.5, -0.5, 0.5, 1.7):
            assert p_logarithmic_mean(a, b, p) == p_logarithmic_mean(b, a, p)

    @given(a=pos, b=pos)
    @settings(max_examples=200, deadline=None)
    def test_homogeneity(self, a, b):
        four_ulp = 4.0 * 2.0 ** -52
        for lam in (1e-8, 1.0, 1e8):
            for fn in (arithmetic_mean, geometric_mean, harmonic_mean,
                       logarithmic_mean, identric_mean):
                ref = lam * fn(a, b)
                assert abs(fn(lam * a, lam * b) - ref) <= four_ulp * ref
            # Lp's closed form amplifies the two unavoidable input roundings
            # by |p|-dependent factors; hold it to a looser cross-scale bound
            for p in (-2.0, 0.5):
                ref = lam * p_logarithmic_mean(a, b, p)
                got = p_logarithmic_mean(lam * a, lam * b, p)
                assert abs(got - ref) <= 64.0 * 2.0 ** -52 * ref

    @given(a=pos, b=pos)
    @settings(max_examples=300, deadline=None)
    def test_chain_nonnegative(self, a, b):
        scale = arithmetic_mean(a, b)
        tol = 50 * 2.0 ** -52 * scale
        slacks = mean_chain_slacks(a, b)
        assert all(s >= -tol for s in slacks)
        if a != b and abs(a / b - 1.0) > 1e-6:
            assert all(s > tol for s in slacks), (a, b, slacks)

    @given(a=pos, b=pos)
    @settings(max_examples=100, deadline=None)
    def test_lp_monotone_in_p(self, a, b):
        if a == b:
            return
        grid = [-3.0 + 0.25 * k for k in range(25)]
        vals = [p_logarithmic_mean(a, b, p) for p in grid]
        # nondecreasing up to rounding: near-equal pairs move less than an ulp
        # per grid step, so allow a few ulp of backslide
        slop = 4.0 * 2.0 ** -52
        assert all(y >= x * (1.0 - slop) for x, y in zip(vals, vals[1:]))
        if abs(a / b - 1.0) > 1e-3:
            assert all(y > x for x, y in zip(vals, vals[1:]))

    def test_limit_identities(self):
        # |Lp - I| and |Lp - L| near the removable exponents, ratio in [1.01, 100]
        import random
        rng = random.Random(20240817)
        for _ in range(200):
            b = 10.0 ** rng.uniform(-2, 2)
            a = b * rng.uniform(1.01, 100.0)
            i_val = identric_mean(a, b)
            l_val = logarithmic_mean(a, b)
            for p in (1e-6, -1e-6):
                assert p_logarithmic_mean(a, b, p) == i_val  # snapped exactly
                assert abs(p_logarithmic_mean(a, b, p) - i_val) / i_val <= 1e-5
            for p in (-1.0 + 1e-6, -1.0 - 1e-6):
                # -1 + 1e-6 parses a hair outside the snap window; either way
                # the value must sit within 1e-5 of the logarithmic mean
                assert abs(p_logarithmic_mean(a, b, p) - l_val) / l_val <= 1e-5
            if PExponent.from_value(-1.0 - 1e-6).kind is ExponentKind.MINUS_ONE_LIMIT:
                assert p_logarithmic_mean(a, b, -1.0 - 1e-6) == l_val
            for p in (2e-6, -2e-6):
                assert abs(p_logarithmic_mean(a, b, p) - i_val) / i_val <= 1e-5
            for p in (-1.0 + 2e-6, -1.0 - 2e-6):
                assert abs(p_logarithmic_mean(a, b, p) - l_val) / l_val <= 1e-5

    def test_ln_identric_consistency(self):
        for (a, b) in [(4.0, 2.0), (1.0 + 1e-9, 1.0), (321.0, 0.05), (2.0, 2.0)]:
            assert ln_identric(a, b) == pytest.approx(math.log(identric_mean(a, b)),
                                                      abs=1e-12)


class TestBranchSeams:
    """The stabilized and direct evaluations agree at the switch boundaries."""

    def test_identric_series_seam(self):
        # an absolute gap of the exponent is a relative gap of the mean itself
        t = means.IDENTRIC_SERIES_T
        for tt in (t * (1.0 - 1e-13), t):
            series = -tt * tt * (1 / 6 + tt * tt * (1 / 20 + tt * tt * (1 / 42)))
            v, u = 1.0 + tt, 1.0 - tt
            direct = (v * math.log(v) - u * math.log(u)) / (v - u) - 1.0
            assert abs(series - direct) <= 1e-12

    @pytest.mark.parametrize("p", [1e-3, -1e-3, -1.0 + 1e-3, -1.0 - 1e-3])
    def test_lp_stabilized_vs_plain_at_boundary(self, p):
        for (a, b) in [(4.0, 2.0), (9.0, 5.5), (1.9, 1.1)]:
            hi, lo, m = means._unit_scaled(max(a, b), min(a, b))
            stabilized = p_logarithmic_mean(a, b, p)
            plain = m * means._lp_plain_form(hi, lo, p)
            assert abs(stabilized - plain) <= 1e-12 * plain, (a, b, p)

    def test_lp_sinhc_vs_expm1_at_window_edge(self):
        for (a, b) in [(4.0, 2.0), (1.9, 1.1)]:
            hi, lo, m = means._unit_scaled(a, b)
            for p in (-1.0 + 1e-3, -1.0 - 1e-3):
                v1 = m * means._lp_sinhc_form(hi, lo, p)
                beta, _ = means._lp_beta(hi, lo, p)
                v2 = m * math.exp(math.log1p(beta) / p)
                assert abs(v1 - v2) <= 1e-12 * v1
