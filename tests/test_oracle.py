import hashlib
import math
import random
from decimal import ROUND_FLOOR, Decimal, Inexact, Overflow, Underflow, localcontext

import mpmath
import pytest

from meanineq.oracle import (_CONTEXT, ORACLE_OP_TAGS, PUBLISHED_BOUNDS, OracleResult, _exp,
                             _ln, _pair_ratio_core, _tables, oracle_eval, oracle_rel_err)
from meanineq.rng import SampleStream, sample_exponent, sample_pair, sample_quad


def test_op_tags_and_bounds_cover_each_other():
    assert set(PUBLISHED_BOUNDS) == set(ORACLE_OP_TAGS)


def test_rejects_bad_requests():
    with pytest.raises(ValueError):
        oracle_eval("BOGUS", {"a": 1.0, "b": 2.0})
    with pytest.raises(ValueError):
        oracle_eval("L", {"a": 1.0, "b": 2.0}, digits=10)


def test_requested_digits_and_bound():
    res = oracle_eval("A", {"a": 4.0, "b": 2.0}, digits=35)
    assert isinstance(res, OracleResult)
    assert res.rel_bound == 10.0 ** -34
    assert res.value == Decimal(3)


def test_limit_branches():
    # Lp at exactly 0 and -1 produce the identric / logarithmic closed forms
    i_ref = oracle_eval("I", {"a": 4.0, "b": 2.0}, digits=40).value
    l_ref = oracle_eval("L", {"a": 4.0, "b": 2.0}, digits=40).value
    assert oracle_eval("Lp", {"a": 4.0, "b": 2.0, "p": 0.0}, digits=40).value == i_ref
    assert oracle_eval("Lp", {"a": 4.0, "b": 2.0, "p": -1.0}, digits=40).value == l_ref
    assert oracle_eval("I", {"a": 7.0, "b": 7.0}, digits=40).value == Decimal(7)


def test_precision_scales_with_digits():
    lo = oracle_eval("L", {"a": 4.0, "b": 2.0}, digits=30).value
    hi = oracle_eval("L", {"a": 4.0, "b": 2.0}, digits=60).value
    assert abs(Decimal(str(lo)) - hi) / hi < Decimal(10) ** -28


def test_ratio_ops_consistent():
    # f'/f == g' and g == ln f at a generic point, all within the oracle
    from decimal import localcontext
    inp = {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": 1.7}
    f = oracle_eval("f", inp, digits=45).value
    g = oracle_eval("g", inp, digits=45).value
    fp = oracle_eval("f_prime", inp, digits=45).value
    gp = oracle_eval("g_prime", inp, digits=45).value
    with localcontext() as ctx:
        ctx.prec = 60
        assert abs(f.ln() - g) < Decimal(10) ** -40
        assert abs(fp / f - gp) < Decimal(10) ** -40


def test_cancellation_guard_near_equal_pair():
    # 15 base guard digits alone would not survive a/b - 1 = 1e-12
    from decimal import localcontext
    a = 1.0 + 1e-12
    res = oracle_eval("L", {"a": a, "b": 1.0}, digits=40)
    # L(1+d, 1) = 1 + d/2 - d^2/12 + O(d^3) with d the stored spacing
    with localcontext() as ctx:
        ctx.prec = 45
        d = Decimal(a) - 1
        expect = 1 + d / 2 - d * d / 12
        assert abs(res.value - expect) < Decimal(10) ** -33


def _ln_test_values():
    rnd = random.Random(1)
    floats = [
        5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 0.5, math.e, 2.0, 123.456, 1e100,
        1.7976931348623157e308,
        # near 1 and near a power of ten, on both sides of the 1e-3 switch
        1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 0.999, 0.9989, 1.0009,
        1.0011, 9.99, 9.991, 9.995, 10.0, 10.01,
    ]
    floats += [math.exp(rnd.uniform(-744.0, 709.0)) for _ in range(100)]
    floats += [math.exp(rnd.uniform(-3.0, 3.0)) for _ in range(100)]
    past_binary64 = ["1e5000", "3.7e-5000", "9.99e4999", "1.0005e-4000"]
    return [Decimal(v) for v in floats] + [Decimal(v) for v in past_binary64]


class TestLn:
    """The reduced ln against Decimal's correctly rounded ln at 30 more digits."""

    VALUES = _ln_test_values()

    @pytest.mark.parametrize("prec", [30, 45, 67, 90, 120])
    def test_within_half_an_ulp_and_a_hundredth(self, prec):
        worst = 0
        for v in self.VALUES:
            with localcontext() as ctx:
                ctx.prec = prec + 30
                exact = v.ln()
                ctx.prec = prec
                got = _ln(v)
                if exact == 0:
                    assert got == 0
                    continue
                ctx.prec = prec + 30
                ulps = abs(got - exact).scaleb(prec - 1 - exact.adjusted())
            worst = max(worst, ulps)
        assert worst < Decimal("0.51"), worst

    @pytest.mark.parametrize("bad", ["0", "-0", "-1", "-1e-300", "Infinity", "NaN"])
    def test_rejects_arguments_outside_its_domain(self, bad):
        with pytest.raises(ValueError):
            _ln(Decimal(bad))


def _ulps(got, exact, prec):
    """|got - exact| in units of the last place of exact at prec digits."""
    with localcontext() as ctx:
        ctx.prec = prec + 30
        return abs(got - exact).scaleb(prec - 1 - exact.adjusted())


def _exp_test_values():
    rnd = random.Random(2)
    threshold = Decimal(2) ** -10
    magnitudes = [
        Decimal(2) ** -60, threshold, threshold * (1 - Decimal("1e-12")),
        threshold * (1 + Decimal("1e-12")), Decimal(2) ** -9, Decimal("0.35"), Decimal(1),
        Decimal(70), Decimal(4.5 * math.log(1e200)), Decimal("1e4"),
    ]
    magnitudes += [Decimal(math.exp(rnd.uniform(-8.0, 9.0))) for _ in range(40)]
    return [Decimal(0)] + [v for m in magnitudes for v in (m, -m)]


class TestExp:
    """The halving-and-squaring exp against Decimal's correctly rounded exp at
    30 more digits; 2072.3... is x ln(a/b) at a = 1e300, b = 1e100, x = 4.5."""

    VALUES = _exp_test_values()

    @pytest.mark.parametrize("prec", [30, 45, 67, 90, 120])
    def test_within_half_an_ulp_and_a_hundredth(self, prec):
        worst = 0
        for v in self.VALUES:
            with localcontext() as ctx:
                ctx.prec = prec + 30
                exact = v.exp()
                ctx.prec = prec
                got = _exp(v)
            worst = max(worst, _ulps(got, exact, prec))
        assert worst < Decimal("0.51"), worst

    def test_zero_is_exactly_one(self):
        assert _exp(Decimal(0)) == 1 and _exp(Decimal("-0")) == 1

    def test_at_the_precision_of_f_prime_near_the_smallest_x(self):
        # x = 5e-324 gives f' 50 + 15 + 2 * 324 = 713 digits; _ln's reduction
        # then takes exp of a binary64 logarithm such as -ln(4/3)
        for v in (Decimal(-math.log(4 / 3)), Decimal(math.log(7.5 / 0.3)), Decimal(70)):
            with localcontext() as ctx:
                ctx.prec = 743
                exact = v.exp()
                ctx.prec = 713
                got = _exp(v)
            assert _ulps(got, exact, 713) < Decimal("0.51"), v


class TestWholeRange:
    """Both kernels out to the ends of the oracle's exponent range (``_CONTEXT``),
    where e^z reaches 10^(+-9.3e8), against Decimal's correctly rounded exp and
    ln at 30 more digits.  These take the power-of-ten split and its exponent
    bookkeeping."""

    EXP_VALUES = [s * (Decimal(2) ** k + Decimal("0.3")) for k in (12, 16, 20, 30)
                  for s in (1, -1)]
    EXP_VALUES += [s * (Decimal(2) ** 31 - Decimal("0.5") + Decimal("0.3")) for s in (1, -1)]
    LN_VALUES = [Decimal(v) for v in
                 ("1e100000000", "3.7e-100000000", "2.5e999999999", "1e-999999998", "7.3e4000")]

    @pytest.mark.parametrize("prec", [30, 67, 120])
    def test_exp_within_half_an_ulp_and_a_hundredth(self, prec):
        for v in self.EXP_VALUES:
            with localcontext(_CONTEXT) as ctx:
                ctx.prec = prec + 30
                exact = v.exp()
                ctx.prec = prec
                got = _exp(v)
                assert _ulps(got, exact, prec) < Decimal("0.51"), v

    @pytest.mark.parametrize("prec", [30, 67, 120])
    def test_ln_within_half_an_ulp_and_a_hundredth(self, prec):
        for v in self.LN_VALUES:
            with localcontext(_CONTEXT) as ctx:
                ctx.prec = prec + 30
                exact = v.ln()
                ctx.prec = prec
                got = _ln(v)
                assert _ulps(got, exact, prec) < Decimal("0.51"), v

    def test_past_the_range(self):
        with localcontext(_CONTEXT) as ctx:
            ctx.prec = 67
            with pytest.raises(Overflow):
                _exp(Decimal("2.4e9"))
            assert not ctx.flags[Underflow]
            assert _exp(Decimal("-2.4e9")) == 0
            assert ctx.flags[Underflow]


class TestTables:
    """Every constant ``_exp`` and ``_ln`` reduce against is a floor: below 2^B c,
    or 2^(B + 64) c for ln 2 and ln 10, by under 1.02, against Decimal's
    correctly rounded ln and exp at 30 more digits."""

    @staticmethod
    def _check(const, exact, scale):
        with localcontext() as ctx:
            ctx.prec = math.ceil(scale * math.log10(2)) + 30
            below = exact * (1 << scale) - const
        assert 0 <= below < Decimal("1.02"), below

    @pytest.mark.parametrize("bits", [200, 450], ids=["B=256", "B=512"])
    def test_each_constant_is_a_floor_within_its_count(self, bits):
        t = _tables(bits)
        b = t.bits
        with localcontext() as ctx:
            ctx.prec = math.ceil((b + 64) * math.log10(2)) + 30
            self._check(t.ln2, Decimal(2).ln(), b + 64)
            self._check(t.ln10, Decimal(10).ln(), b + 64)
            for i in range(256):
                hi, lo = 1 + Decimal(i) / 256, 1 + Decimal(i) / 65536
                self._check(t.ln_hi[i], hi.ln(), b)
                self._check(t.ln_lo[i], lo.ln(), b)
                self._check(t.exp_hi[i], (hi - 1).exp(), b)
                self._check(t.exp_lo[i], (lo - 1).exp(), b)

    def test_one_bucket_per_multiple_of_64_bits(self):
        assert [_tables(bits).bits for bits in (1, 50, 57, 58, 120, 121, 2377)] == \
            [64, 64, 64, 128, 128, 192, 2432]
        assert _tables(100) is _tables(110)


def _ln_edge_values():
    """y = 2^E (1 + j/2^8) (1 + k/2^16) (1 + t) at the ends of each factor's range,
    and near 1."""
    two = Decimal(2)
    corners = [two ** k for k in (1, -1, 3, 30, -30, 1000, -1074)]
    corners += [1 + Decimal(j) / 256 for j in (1, 2, 127, 128, 255)]
    # j = 255 with its largest k, 128; k = 255 with j = 0; m just below 2
    tops = [(1 + Decimal(255) / 256) * (1 + Decimal(128) / 65536), 1 + Decimal(255) / 65536,
            2 - two ** -60, 1 + two ** -8 - two ** -70]
    corners += [v * two ** k for v in tops for k in (0, 40, -40)]
    corners += [two ** k * (1 + s * two ** -60) for k in (1, 5, -5, 700) for s in (1, -1)]
    # near 1, where |ln y| is small: from either side, down to 1e-40 away
    corners += [1 + s * d for d in (two ** -17, Decimal("1e-3"), Decimal("1e-40")) for s in (1, -1)]
    corners += [Decimal(v) for v in ("2e500", "1.99609375e-600", "5.12e4000")]
    return corners


def _exp_edge_values():
    """x just below, at and above E ln 2, and at j/2^8 + k/2^16 past it, E stepping
    through the reduction; past 2^10, at D ln 10; and with E = j = 0."""
    with localcontext() as ctx:
        ctx.prec = 200
        ln2, ln10 = Decimal(2).ln(), Decimal(10).ln()
        out = []
        for e in (1, 2, 3, 100, 1000, 1476, 1477):
            for delta in (0, Decimal("1e-60"), Decimal("-1e-60"), Decimal("1e-20"),
                          Decimal(255) / 65536, Decimal(177) / 256 + Decimal(255) / 65536):
                out.append(e * ln2 + delta)
        out += [d * ln10 + delta for d in (445, 1000, 10 ** 6)
                for delta in (0, Decimal("1e-60"), Decimal("-1e-60"))]
        out += [Decimal(2) ** -10 * (1 + Decimal("1e-12")), Decimal(255) / 65536]  # E = j = 0
    return [Decimal(v) for z in out for v in (z, -z)]


def _bucket_edge_precs(extra):
    """The precisions just below and above each edge of ``_tables``' buckets up to
    130 digits, where the kernels ask for ceil(prec log2 10) + extra bits."""
    bucket = [_tables(math.ceil(p * math.log2(10)) + extra).bits for p in range(30, 132)]
    return [p for i, p in enumerate(range(30, 131)) if bucket[i] != bucket[i + 1]
            for p in (p, p + 1)]


class TestReductionEdges:
    """``_ln`` and ``_exp`` where the table reduction changes its indices: an exact
    power of two, y = 1 + j/2^8 exactly, j = 255 and k = 255 (k is at most
    128 at j = 255), y near 1, x just either side of a multiple of ln 2; at
    several precisions, and on both sides of each bucket edge.  Each within
    0.51 ulp of Decimal's correctly rounded value at 30 more digits."""

    @pytest.mark.parametrize("prec", [30, 67, 300])
    def test_ln_at_the_reduction_edges(self, prec):
        self._ln_within(_ln_edge_values(), [prec])

    @pytest.mark.parametrize("prec", [30, 67, 300])
    def test_exp_at_the_reduction_edges(self, prec):
        self._exp_within(_exp_edge_values(), [prec])

    def test_both_sides_of_each_bucket_edge(self):
        ln_precs, exp_precs = _bucket_edge_precs(9), _bucket_edge_precs(8)
        assert len(ln_precs) >= 6 and len(exp_precs) >= 6
        ys = [v for v in _ln_edge_values() if abs(v.ln()) >= 1]       # ln asks for no more bits
        self._ln_within(ys, ln_precs)
        self._exp_within(_exp_edge_values()[::3], exp_precs)

    @staticmethod
    def _ln_within(values, precs):
        for prec in precs:
            for v in values:
                with localcontext(_CONTEXT) as ctx:
                    ctx.prec = prec + 30
                    exact = v.ln()
                    ctx.prec = prec
                    got = _ln(v)
                assert _ulps(got, exact, prec) < Decimal("0.51"), (v, prec)

    @staticmethod
    def _exp_within(values, precs):
        for prec in precs:
            for v in values:
                with localcontext(_CONTEXT) as ctx:
                    ctx.prec = prec + 30
                    exact = v.exp()
                    ctx.prec = prec
                    got = _exp(v)
                assert _ulps(got, exact, prec) < Decimal("0.51"), (v, prec)


class TestDomain:
    @pytest.mark.parametrize("op,inputs,condition", [
        ("L", {"a": -1.0, "b": 2.0}, "a > 0"),
        ("I", {"a": 0.0, "b": 2.0}, "a > 0"),
        ("Lp", {"a": 2.0, "b": -3.0, "p": 0.5}, "b > 0"),
        ("G", {"a": -1.0, "b": 2.0}, "a*b >= 0"),
        ("H", {"a": 2.0, "b": -2.0}, "a + b != 0"),
        ("f", {"a": 4.0, "b": 3.0, "c": 2.0, "d": 2.0, "x": 1.0}, "c != d"),
        ("f_prime", {"a": 4.0, "b": 3.0, "c": 2.0, "d": 2.0, "x": 0.0}, "c != d"),
        ("g", {"a": 1.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": 1.0}, "f > 0"),
        ("g", {"a": 1.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": 0.0}, "f > 0"),
        ("g_prime", {"a": 4.0, "b": -3.0, "c": 2.0, "d": 1.0, "x": 1.0}, "b > 0"),
        ("L", {"a": math.inf, "b": 2.0}, "finite a"),
        # limits at a zero coordinate, and g = ln 0, are outside the one form's domain
        ("L", {"a": 0.0, "b": 2.0}, "a > 0"),
        ("Lp", {"a": 0.0, "b": 2.0, "p": 0.5}, "a > 0"),
        ("f", {"a": 0.0, "b": 2.0, "c": 3.0, "d": 2.0, "x": 1.0}, "a > 0"),
        ("g", {"a": 3.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": 1.5}, "f > 0"),
        ("f", {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": math.nan}, "finite x"),
    ])
    def test_value_error_names_op_and_condition(self, op, inputs, condition):
        with pytest.raises(ValueError) as err:
            oracle_eval(op, inputs)
        assert str(err.value) == f"oracle {op} has no value at {inputs}: it needs {condition}"

    @pytest.mark.parametrize("op,inputs,value", [
        # limits the closed forms reach inside the positive domain
        ("g_prime", {"a": 3.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": 1.5},
         "0.69303699370382537823"),
        ("g_prime", {"a": 4.0, "b": 3.0, "c": 2.0, "d": 2.0, "x": 1.5},
         "0.55961930140989418832"),
        ("f_prime", {"a": 3.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": 1.5}, "0"),
        ("f", {"a": 3.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": 0.0}, "0"),
        # g'(0) = (ln a + ln b - 2 ln c)/2 at c == d, taken without f
        ("g_prime", {"a": 4.0, "b": 3.0, "c": 2.0, "d": 2.0, "x": 0.0},
         "0.549306144334054845697622618461"),
    ])
    def test_limits_kept(self, op, inputs, value):
        got = oracle_eval(op, inputs, digits=50).value
        assert got == Decimal(value) or abs(got - Decimal(value)) < Decimal("1e-20"), got

    @pytest.mark.parametrize("op,a,b,c,d", [
        ("g_prime", 3, 3, 2, 1), ("g_prime", 4, 3, 2, 2), ("g_prime", 2, 2, 5, 5),
        ("f_prime", 3, 3, 2, 1),
    ])
    def test_pair_ratio_forms_take_the_equal_pair_limits(self, op, a, b, c, d):
        # r E/(E - 1) -> 1/x as r -> 0
        inputs = {"a": a, "b": b, "c": c, "d": d, "x": 1.5}
        with localcontext() as ctx:
            ctx.prec = 65
            got = _pair_ratio_core(op, **{k: Decimal(v) for k, v in inputs.items()})
        assert abs(got - oracle_eval(op, inputs, digits=50).value) < Decimal("1e-49")


#: 50-digit values once computed from per-coordinate closed forms, one ln per
#: coordinate: the pair-ratio forms must round to the same digits.
GOLDEN = [
    ("L", {"a": 7.25, "b": 0.3},
     "2.1821212367387619576553073214180972281119277632989"),
    ("I", {"a": 1e-200, "b": 3.5},
     "1.2875780441000481255843331955651130360603389586112"),
    ("Lp", {"a": 100000.0, "b": 2.0, "p": -2.75},
     "125.34894282558213213642444154110579591883363119824"),
    ("Lp", {"a": 1.000000000001, "b": 1.0, "p": 0.3},
     "1.0000000000005000444502911413339540392346909217590"),
    ("f", {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": 1.7},
     "1.8154904597651576094487436396669367088146791943008"),
    ("f", {"a": 1e+200, "b": 1e-200, "c": 5.0, "d": 0.25, "x": -0.3},
     "1.1127397865590145450685468603731062997327779229750E+60"),
    ("g", {"a": 9.5, "b": 0.5, "c": 3.0, "d": 2.0, "x": 0.0},
     "1.9826387552399622124549295531115958626243039715037"),
    ("g", {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": -3.7},
     "-4.4078053299215471842397177525726943585889213988489"),
    ("f_prime", {"a": 6.0, "b": 1.5, "c": 2.5, "d": 2.25, "x": 1e-09},
     "3.0920662140639145219489056486940597490008411279713"),
    ("g_prime", {"a": 0.125, "b": 0.0625, "c": 40.0, "d": 3.0, "x": 2.5},
     "-5.6234728719603283482398367259380684305700741109245"),
    ("g_prime", {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": 0.0},
     "0.89587973461402750040623867919035113636149534609150"),
]


@pytest.mark.parametrize("op,inputs,value", GOLDEN,
                         ids=[f"{op}-{i}" for i, (op, _, _) in enumerate(GOLDEN)])
def test_golden_values(op, inputs, value):
    assert str(oracle_eval(op, inputs, digits=50).value) == value


def _pinned_inputs(rounds):
    """Seeded inputs for every op, in the domain of the benchmark's oracle rounds:
    pairs at a/b >= 1.05, p at least 0.05 from 0 and -1, quads whose pair
    ratios' logarithms are both >= 0.05, and x in [-5, 5]."""
    streams = {k: SampleStream(20261019, f"test/oracle/pin/{k}")
               for k in ("pair", "p", "quad", "x")}
    for k in range(rounds):
        a, b = sample_pair(streams["pair"], k, min_ratio=1.05)
        p = sample_exponent(streams["p"], k, min_dist=0.05)
        quad = next(q for q in (sample_quad(streams["quad"], 64 * k + j) for j in range(64))
                    if math.log(q.a / q.b) >= 0.05 and math.log(q.c / q.d) >= 0.05)
        x = sample_exponent(streams["x"], k, lo=-5.0, hi=5.0)
        for op in ORACLE_OP_TAGS:
            if op in ("A", "G", "H", "L", "I"):
                yield op, {"a": a, "b": b}
            elif op == "Lp":
                yield op, {"a": a, "b": b, "p": p}
            else:
                yield op, {**quad.as_dict(), "x": x}


#: sha256 of the 50-digit values of every op over ``_pinned_inputs(100)``, one
#: ``op value`` line each: a faster evaluation must round to the same digits.
PINNED_SHA = "b2e0493bcfadc1c9eade63225ff32bd4c37ae93c3bf2163a5bf7d73080a80cf3"


def test_pinned_values():
    lines = "".join(f"{op} {oracle_eval(op, inputs, 50).value}\n"
                    for op, inputs in _pinned_inputs(100))
    assert hashlib.sha256(lines.encode()).hexdigest() == PINNED_SHA


@pytest.mark.parametrize("callers", ["rounding floor", "inexact trapped"])
def test_ignores_the_callers_context(callers):
    # f's value at 50 digits ends in ...943007 when rounded toward -inf
    op, inputs, value = GOLDEN[4]
    rel = oracle_rel_err(1.8154904597651575, oracle_eval(op, inputs, digits=50))
    with localcontext() as ctx:
        if callers == "rounding floor":
            ctx.rounding = ROUND_FLOOR
        else:
            ctx.traps[Inexact] = True
        res = oracle_eval(op, inputs, digits=50)
        assert str(res.value) == value
        assert oracle_rel_err(1.8154904597651575, res) == rel


def test_rel_err_helper():
    res = oracle_eval("A", {"a": 4.0, "b": 2.0}, digits=40)
    assert oracle_rel_err(3.0, res) == 0.0
    assert oracle_rel_err(3.0 + 3e-13, res) == pytest.approx(1e-13, rel=1e-2)


class TestAgainstMpmath:
    """Each op at 50 digits against its textbook closed form in mpmath.

    Binary64 inputs convert exactly to both Decimal and mpf, so the two sides
    evaluate the same point and the oracle must meet its own 10**-49 bound.
    The references take 400 digits: at 1e-200, a^a/b^b in I's textbook form
    differs from 1 only in its 197th digit.  An x or p within 10**-k of 0
    takes 2k more, since g''s textbook form cancels about 2k digits there.
    """

    PAIRS = {
        "separated": (7.5, 0.3),
        "a/b-1=1e-12": (1.0 + 1e-12, 1.0),
        "near 1e200": (3e200, 1e200),
        "near 1e-200": (3e-200, 1e-200),
    }
    PS = (2.5, 1e-5, -1e-5, -1.0 + 1e-5, -1.0 - 1e-5, 1e-200, -1e-200)
    QUADS = {
        "separated": (4.0, 3.0, 2.0, 1.0),
        "a/b-1=1e-12": (3.0 * (1.0 + 1e-12), 3.0, 2.0, 1.0),
        "near 1e200": (4e200, 3e200, 2e200, 1e200),
        "near 1e-200": (4e-200, 3e-200, 2e-200, 1e-200),
        "1e200 over 1e-200": (4e200, 3e200, 2e-200, 1e-200),
    }
    XS = (1e-9, 0.0, -3.7, 2.5, 1e-30, -1e-30, 1e-70, -1e-150, 1e-300, 5e-324)

    @staticmethod
    def _exact(op, inputs):
        v = {k: mpmath.mpf(val) for k, val in inputs.items()}
        log = mpmath.log
        a, b = v["a"], v["b"]
        if op == "A":
            return (a + b) / 2
        if op == "G":
            return mpmath.sqrt(a * b)
        if op == "H":
            return 2 * a * b / (a + b)
        if op == "L":
            return (a - b) / (log(a) - log(b))
        if op == "I":
            return (a ** a / b ** b) ** (1 / (a - b)) / mpmath.e
        if op == "Lp":
            q = v["p"] + 1
            return ((a ** q - b ** q) / (q * (a - b))) ** (1 / v["p"])
        c, d, x = v["c"], v["d"], v["x"]
        if x == 0:                      # the limits at x = 0
            gp = (log(a) + log(b) - log(c) - log(d)) / 2
            if op == "g_prime":         # defined at c == d too
                return gp
            f = log(a / b) / log(c / d)
        else:
            ax, bx, cx, dx = a ** x, b ** x, c ** x, d ** x
            f = (ax - bx) / (cx - dx)
            gp = ((ax * log(a) - bx * log(b)) / (ax - bx)
                  - (cx * log(c) - dx * log(d)) / (cx - dx))
        return {"f": f, "g": log(f), "f_prime": f * gp, "g_prime": gp}[op]

    def _check(self, op, inputs, absolute=False):
        got = oracle_eval(op, inputs, digits=50).value
        small = min(abs(inputs.get(k) or 1.0) for k in "xp")
        with mpmath.workdps(400 + 2 * max(0, math.ceil(-math.log10(small)))):
            exact = self._exact(op, inputs)
            err = abs(mpmath.mpf(str(got)) - exact)
            bound = mpmath.mpf(10) ** -49 * (1 if absolute else abs(exact))
            assert err < bound, (op, inputs, mpmath.nstr(err, 5), mpmath.nstr(exact, 10))

    @pytest.mark.parametrize("op", ["A", "G", "H", "L", "I"])
    def test_means(self, op):
        for a, b in self.PAIRS.values():
            self._check(op, {"a": a, "b": b})

    def test_lp_near_its_removable_exponents(self):
        for a, b in self.PAIRS.values():
            for p in self.PS:
                self._check("Lp", {"a": a, "b": b, "p": p})

    @pytest.mark.parametrize("op", ["f", "g", "f_prime", "g_prime"])
    def test_ratio_ops(self, op):
        for a, b, c, d in self.QUADS.values():
            for x in self.XS:
                self._check(op, {"a": a, "b": b, "c": c, "d": d, "x": x})

    @pytest.mark.parametrize("op", ["f", "g", "f_prime", "g_prime"])
    def test_c_one_ulp_above_d(self, op):
        for d in (1.0, 2.0, 7.0):
            for x in self.XS:
                self._check(op, {"a": 4.0, "b": 3.0, "c": math.nextafter(d, math.inf), "d": d,
                                 "x": x})

    def test_g_prime_at_zero_with_equal_lower_pair(self):
        for a, b, c in ((4.0, 3.0, 2.0), (3e200, 1e200, 2e-200), (7.5, 0.3, 7.5)):
            self._check("g_prime", {"a": a, "b": b, "c": c, "d": c, "x": 0.0})

    def test_intermediates_past_binary64(self):
        # 500**120 and 1000**-150 lie outside binary64; Decimal's exponents hold them
        self._check("g", {"a": 1e3, "b": 2.0, "c": 1.5, "d": 1.0, "x": 120.0})
        self._check("f_prime", {"a": 1e3, "b": 2.0, "c": 1.5, "d": 1.0, "x": -150.0})

    def test_g_at_its_zero_crossing(self):
        # f(1) = (4 - 3)/(2 - 1) = 1: g crosses zero there, so the bound is absolute
        for x in (1.0, 1.0 + 1e-9, 1.0 - 1e-9):
            self._check("g", {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": x}, absolute=True)
