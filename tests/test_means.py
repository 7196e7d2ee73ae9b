import hashlib
import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from meanineq import means
from meanineq.means import (arithmetic_mean, geometric_mean, harmonic_mean,
                            identric_mean, ln_identric, logarithmic_mean,
                            mean_chain_slacks, p_logarithmic_mean)
from meanineq.oracle import PUBLISHED_BOUNDS, oracle_eval, oracle_rel_err
from meanineq.rng import SampleStream

E = math.e

# log-uniform positive reals over the default verification range
pos = st.floats(min_value=-3.0, max_value=3.0).map(lambda x: 10.0 ** x)

#: Exponents next to Lp's removable points p = 0 and p = -1, below the cutoff
#: where Lp returns I, and next to p = -2, where Lp is G
NEAR_LIMIT_PS = (1e-6, -1e-6, -1.0 + 1e-6, -1.0 - 1e-6, 1e-9, -1e-9, 5e-324,
                 -2.0 + 1e-7, -2.0 - 1e-7)


def lp_oracle_err(a, b, p):
    """Lp's relative error against the 40-digit oracle."""
    res = oracle_eval("Lp", {"a": a, "b": b, "p": p}, digits=40)
    return oracle_rel_err(p_logarithmic_mean(a, b, p), res)


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
        assert p_logarithmic_mean(4, 2, 0.0) == identric_mean(4, 2)
        assert p_logarithmic_mean(4, 2, -1.0) == logarithmic_mean(4, 2)
        assert p_logarithmic_mean(4, 2, 1e-9) == pytest.approx(2.9430355293715387,
                                                               rel=1e-6)
        for p in NEAR_LIMIT_PS:
            assert lp_oracle_err(4.0, 2.0, p) <= 1e-13, p

    def test_exponent_kinds(self):
        def snapped(p):
            """The limit mean Lp(4, 2) snaps p to: "I", "L", or None for the closed form."""
            value = p_logarithmic_mean(4, 2, p)
            return {identric_mean(4, 2): "I", logarithmic_mean(4, 2): "L"}.get(value)

        assert snapped(0.5) is None
        assert snapped(-1.0 - 2e-6) is None
        # below |p| = 2^-60, |ln Lp - ln I| <= |p|/2 is under an ulp of I
        for p in (0, 0.0, -0.0, 1e-300, -5e-324):
            assert snapped(p) == "I", p
        for p in (-1, -1.0):
            assert snapped(p) == "L", p
        for p in (1e-6, -1e-6, -1.0 + 1e-6, -1.0 - 1e-6, 2e-6, -2e-6, 1e-9):
            assert snapped(p) is None, p
        for p in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"exponent must be finite, got {p!r}"):
                p_logarithmic_mean(4, 2, p)

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

    @pytest.mark.parametrize("a,b", [(1e200, 1e-200), (1.7e308, 1e-300), (1e155, 1e-160)])
    def test_lp_past_a_binary64_ratio(self, a, b):
        # a/b overflows here, so h = ln(a/b)/2 must come from ln a - ln b
        for p in (-1.5, -1.2, -0.9, -0.6674939363144201, -0.5, -0.3):
            value = p_logarithmic_mean(a, b, p)
            assert b <= value <= a, (p, value)
            res = oracle_eval("Lp", {"a": a, "b": b, "p": p}, digits=40)
            assert oracle_rel_err(value, res) < PUBLISHED_BOUNDS["Lp"], p

    @pytest.mark.parametrize("a,b", [(1.7e308, 1.6e308), (1e308, 5e-324)])
    def test_pairs_spanning_binary64(self, a, b):
        # the scaled pair's power of two m, hi/m and lo/m must stay finite
        # and nonzero here
        cases = [("L", logarithmic_mean, {}), ("I", identric_mean, {})]
        cases += [("Lp", lambda a, b, p=p: p_logarithmic_mean(a, b, p), {"p": p})
                  for p in (-3.0, -1.5, -0.5, 0.5, 2.5)]
        for op, fn, extra in cases:
            value = fn(a, b)
            assert b <= value <= a, (op, extra, value)
            res = oracle_eval(op, {"a": a, "b": b, **extra}, digits=40)
            assert oracle_rel_err(value, res) < PUBLISHED_BOUNDS[op], (op, extra)


class TestLnSinhc:
    def test_relative_accuracy(self):
        # lambda(y) = ln(sinh y / y) on log-spaced y in [1e-10, 1e3]: relative
        # accuracy also where lambda is small and its direct form cancels
        worst = 0.0
        with mpmath.workdps(60):
            for k in range(2601):
                y = 10.0 ** (-10.0 + 13.0 * k / 2600)
                yy = mpmath.mpf(y)
                exact = mpmath.log(mpmath.sinh(yy) / yy)
                worst = max(worst, float(abs((means._ln_sinhc(y) - exact) / exact)))
        assert worst <= 1e-15, worst


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

    @pytest.mark.parametrize("p", [1e20, -1e20, 1e300, -1e300, 1e308, -1e308,
                                   1.7976931348623157e308, -1.7976931348623157e308])
    def test_lp_at_huge_exponents(self, p):
        # (1+p) h overflows for the wide pairs at the largest |p|: Lp is then
        # its limit, max(a, b) as p -> inf and min(a, b) as p -> -inf
        for a, b in [(1000.0, 0.001), (4.0, 2.0), (1.0 + 2.0 ** -52, 1.0), (1.7e308, 5e-324)]:
            value = p_logarithmic_mean(a, b, p)
            assert b <= value <= a, (a, b, value)
            if abs(p) >= 1e308 and a / b > 10.0:
                assert value == (a if p > 0.0 else b), (a, b, value)

    def test_limit_identities(self):
        # |Lp - I| and |Lp - L| near the removable exponents, ratio in [1.01, 100]
        import random
        rng = random.Random(20240817)
        for _ in range(200):
            b = 10.0 ** rng.uniform(-2, 2)
            a = b * rng.uniform(1.01, 100.0)
            i_val = identric_mean(a, b)
            l_val = logarithmic_mean(a, b)
            assert p_logarithmic_mean(a, b, 0.0) == i_val
            assert p_logarithmic_mean(a, b, -1.0) == l_val
            for p in (1e-6, -1e-6):
                assert abs(p_logarithmic_mean(a, b, p) - i_val) / i_val <= 1e-5
            for p in (-1.0 + 1e-6, -1.0 - 1e-6):
                assert abs(p_logarithmic_mean(a, b, p) - l_val) / l_val <= 1e-5
            for p in NEAR_LIMIT_PS:
                assert lp_oracle_err(a, b, p) <= 1e-13, (a, b, p)
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

    def test_lp_seam_at_half(self):
        # within |e| <= 1/2 of p = 0 (e = p) or of p = -2 (e = -2 - p) Lp takes
        # its expm1/log1p form, past it the difference of two lambda values:
        # one ulp of p apart, the two forms agree and both meet the oracle
        for (a, b) in [(4.0, 2.0), (9.0, 5.5), (1.9, 1.1), (1.0 + 1e-9, 1.0), (1e3, 1e-3)]:
            for p, outward in ((0.5, math.inf), (-0.5, -math.inf), (-1.5, math.inf),
                               (-2.5, -math.inf)):
                inner = p_logarithmic_mean(a, b, p)
                outer = p_logarithmic_mean(a, b, math.nextafter(p, outward))
                assert abs(inner - outer) <= 1e-14 * inner, (a, b, p)
                assert lp_oracle_err(a, b, p) <= 1e-13, (a, b, p)
                assert lp_oracle_err(a, b, math.nextafter(p, outward)) <= 1e-13, (a, b, p)

    @pytest.mark.parametrize("p", [1e-3, -1e-3, -1.0 + 1e-3, -1.0 - 1e-3])
    def test_lp_stabilized_vs_plain_at_boundary(self, p):
        # the plain log-domain closed form ((hi^q - lo^q)/(q (hi-lo)))^(1/p),
        # q = 1+p, loses only a few digits this far from p = 0 and p = -1
        for (a, b) in [(4.0, 2.0), (9.0, 5.5), (1.9, 1.1)]:
            hi, lo, m = means._scaled_pair(a, b)[2:5]
            q = 1.0 + p
            r = math.log(hi) - math.log(lo)
            if q > 0.0:
                ln_num = q * math.log(lo) + math.log(math.expm1(q * r))
            else:
                ln_num = q * math.log(hi) + math.log(math.expm1(-q * r))
            ln_base = ln_num - math.log(abs(q)) - math.log(hi - lo)
            plain = m * math.exp(ln_base / p)
            stabilized = p_logarithmic_mean(a, b, p)
            assert abs(stabilized - plain) <= 1e-12 * plain, (a, b, p)

    def test_lp_sinhc_vs_expm1_at_window_edge(self):
        # at p = -1 -+ 1e-3 (|e| > 1/2) Lp takes the lambda-difference form; the
        # expm1 form of its base, beta = (hi^q - lo^q)/(q (hi-lo)) - 1, agrees
        for (a, b) in [(4.0, 2.0), (1.9, 1.1)]:
            hi, lo, m = means._scaled_pair(a, b)[2:5]
            for p in (-1.0 + 1e-3, -1.0 - 1e-3):
                v1 = p_logarithmic_mean(a, b, p)
                e_hi = math.expm1(p * math.log(hi))
                e_lo = math.expm1(p * math.log(lo))
                beta = (hi * (e_hi - p) - lo * (e_lo - p)) / ((1.0 + p) * (hi - lo))
                v2 = m * math.exp(math.log1p(beta) / p)
                assert abs(v1 - v2) <= 1e-12 * v1, (a, b, p)


def _kernel_grid():
    """Seeded pairs and exponents that reach every branch of the L, I and Lp
    kernels: pairs near a/b = 1, past a/b = 2^1023 and near both ends of the
    binary64 range, and exponents in both Lp forms, at p = 0 and -1 and
    near them."""
    rng = random.Random(27)
    pairs = [(2.0, 2.0), (1.7e308, 1.7e308), (5e-324, 5e-324),
             (1.7e308, 1e-300), (1e308, 5e-324), (2.0 ** 1000, 2.0 ** -100),
             (5e-324, 1e-323), (2.2250738585072014e-308, 1e-310), (1.7e308, 1.6e308),
             (1.7976931348623157e308, 8.98846567431158e307), (1.0, 1.0000000000000002),
             (4.0, 2.0), (1e10, 1.0), (1.0, 1e-10)]
    for _ in range(60):
        x = 10.0 ** rng.uniform(-300.0, 300.0)
        rel = rng.choice([2.2e-16, 1e-12, 1e-8, 1e-4, 1e-3, 0.02, 0.1, 0.3, 1.0, 30.0, 1e6])
        y = x * (1.0 + rel * rng.random())
        pairs.append((y, x) if rng.random() < 0.5 else (x, y))
    ps = [1e-7, -1e-7, 1e-6, -1e-6, 1.1e-6, 1e-5, -1e-5, -1.0 + 1e-7, -1.0 - 1e-7,
          -1.0 + 1.1e-6, -1.0 - 1e-5, -0.6, -1.4, 0.5, -0.5, 2.0, -3.0, 8.0, 9.0, -9.0,
          100.0, -100.0, 700.0, 1e5, -1e5, 0.0, -1.0, 1e-300]
    ps += [rng.uniform(-12.0, 12.0) for _ in range(15)]
    return pairs, ps


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


class TestScaledPairKernels:
    """Each mean's kernel, read from one scaled pair per argument pair, gives
    its public function's value bit for bit, and the public functions' values
    are pinned (``PUBLIC_SHA``)."""

    #: sha256 of the public functions' outcomes over ``_kernel_grid``.  Each
    #: outcome that moved when it was last pinned was checked against the
    #: oracle (``CHANGES.md``).
    PUBLIC_SHA = "c7bb9fa48661d076f8a9fa8ee587acfc369b649a90338e9da61cc0d4e12a382a"

    @staticmethod
    def public_outcomes(a, b, ps):
        return ([_outcome(f, a, b) for f in (logarithmic_mean, means.ln_logarithmic,
                                             identric_mean, ln_identric)]
                + [_outcome(p_logarithmic_mean, a, b, p) for p in ps])

    def test_kernels_match_public_functions(self):
        reached = set()
        pairs, ps = _kernel_grid()
        digest = hashlib.sha256()
        for a, b in pairs:
            public = self.public_outcomes(a, b, ps)
            digest.update(repr(public).encode())
            pair = means._scaled_pair(a, b)
            kernels = ([_outcome(f, pair) for f in (means._logarithmic_mean,
                                                    means._ln_logarithmic,
                                                    means._identric_mean, means._ln_identric)]
                       + [_outcome(means._p_logarithmic_mean, pair, p) for p in ps])
            assert kernels == public, (a, b)
            _, _, hi, lo, _, s, t = pair
            if a == b:
                reached.add("equal")
                continue
            reached.add("L_finite" if math.isfinite((hi - lo) / lo) else "L_nonfinite")
            if t < means.IDENTRIC_SERIES_T:
                reached.add("I_series")
            elif lo / s == 0.0:
                reached.add("I_u_zero")
            else:
                reached.add("I_direct")
        for p in ps:
            e = p if p > -1.0 else -2.0 - p      # Lp's distance |1+p| - 1 from p = 0
            reached.add("Lp_I" if abs(p) < 2.0 ** -60 else "Lp_L" if p == -1.0
                        else "Lp_expm1" if abs(e) <= 0.5 else "Lp_lambda")
        assert digest.hexdigest() == self.PUBLIC_SHA
        assert reached == {"equal", "L_finite", "L_nonfinite", "I_series", "I_u_zero",
                           "I_direct", "Lp_I", "Lp_L", "Lp_expm1", "Lp_lambda"}
