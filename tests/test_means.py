import hashlib
import math
import random

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
        def snapped(p):
            """The limit mean Lp(4, 2) snaps p to: "I", "L", or None for the closed form."""
            value = p_logarithmic_mean(4, 2, p)
            return {identric_mean(4, 2): "I", logarithmic_mean(4, 2): "L"}.get(value)

        assert snapped(0.5) is None
        assert snapped(1e-6) == "I"
        assert snapped(-1.0 - 1e-6) == "L"
        assert snapped(-1.0 - 2e-6) is None
        for p in (0, 0.0, means.P_SNAP, -means.P_SNAP):
            assert snapped(p) == "I", p
        for p in (-1, -1.0):
            assert snapped(p) == "L", p
        for p in (2 * means.P_SNAP, -2 * means.P_SNAP, 0.5):
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
        # a/b overflows here, so the sinhc form cannot take ln L through
        # log1p(a/b - 1); it read NaN at every p below -0.3
        for p in (-1.5, -1.2, -0.9, -0.6674939363144201, -0.5, -0.3):
            value = p_logarithmic_mean(a, b, p)
            assert b <= value <= a, (p, value)
            res = oracle_eval("Lp", {"a": a, "b": b, "p": p}, digits=40)
            assert oracle_rel_err(value, res) < PUBLISHED_BOUNDS["Lp"], p


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
            assert p_logarithmic_mean(a, b, -1.0 - 1e-6) == l_val   # snapped exactly
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
            hi, lo, m = means._scaled_pair(a, b)[2:5]
            stabilized = p_logarithmic_mean(a, b, p)
            plain = m * means._lp_plain_form(hi, lo, p)
            assert abs(stabilized - plain) <= 1e-12 * plain, (a, b, p)

    def test_lp_sinhc_vs_expm1_at_window_edge(self):
        for (a, b) in [(4.0, 2.0), (1.9, 1.1)]:
            hi, lo, m = means._scaled_pair(a, b)[2:5]
            for p in (-1.0 + 1e-3, -1.0 - 1e-3):
                v1 = m * means._lp_sinhc_form(hi, lo, p)
                beta, _ = means._lp_beta(hi, lo, p)
                v2 = m * math.exp(math.log1p(beta) / p)
                assert abs(v1 - v2) <= 1e-12 * v1


def _kernel_grid():
    """Seeded pairs and exponents that reach every branch of the L, I and Lp
    kernels: pairs near a/b = 1, past a/b = 2^1023 and near both ends of the
    binary64 range, and exponents in every Lp form and near p = 0 and -1."""
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
          100.0, -100.0, 700.0, 1e5, -1e5]
    ps += [rng.uniform(-12.0, 12.0) for _ in range(15)]
    return pairs, ps


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


class TestScaledPairKernels:
    """Each mean's kernel, read from one scaled pair per argument pair, gives
    its public function's value bit for bit, and so did the public functions
    before the kernels took scaled pairs (``PUBLIC_SHA``)."""

    #: sha256 of the public functions' outcomes over ``_kernel_grid``, from
    #: before the kernels read scaled pairs.
    PUBLIC_SHA = "a2bd476a8c99ee2b905d6dcc2a9eb80ebb7a34934fe4f5ccf6bad509ad26f4c0"

    @staticmethod
    def public_outcomes(a, b, ps):
        return ([_outcome(f, a, b) for f in (logarithmic_mean, means.ln_logarithmic,
                                             identric_mean, ln_identric)]
                + [_outcome(p_logarithmic_mean, a, b, p) for p in ps])

    def test_kernels_match_public_functions(self, monkeypatch):
        reached = set()

        def seen(name, fn):
            def wrapper(*args):
                reached.add(name)
                return fn(*args)
            monkeypatch.setattr(means, f"_lp_{name}_form", wrapper)

        for name in ("series", "sinhc", "plain"):
            seen(name, getattr(means, f"_lp_{name}_form"))
        real_beta = means._lp_beta

        def beta(hi, lo, p):
            parts = real_beta(hi, lo, p)
            if parts is None and p * math.log(hi) >= 700.0:
                reached.add("beta_700")
            elif parts is not None and parts[1] <= 300.0:
                reached.add("beta")
            return parts
        monkeypatch.setattr(means, "_lp_beta", beta)

        pairs, ps = _kernel_grid()
        digest = hashlib.sha256()
        for a, b in pairs:
            public = self.public_outcomes(a, b, ps)
            digest.update(repr(public).encode())
            try:
                pair = means._scaled_pair(a, b)
            except OverflowError:   # both past 2^1023: the public functions raise alike
                assert set(public) == {"OverflowError"}, (a, b)
                reached.add("overflow")
                continue
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
        assert digest.hexdigest() == self.PUBLIC_SHA
        assert reached == {"series", "beta", "beta_700", "sinhc", "plain", "overflow", "equal",
                           "L_finite", "L_nonfinite", "I_series", "I_u_zero", "I_direct"}
        assert any(abs(p) <= means.P_SNAP for p in ps)
        assert any(abs(p + 1.0) <= means.P_SNAP for p in ps)
