import math
from decimal import Decimal

import mpmath
import pytest

from meanineq.oracle import (ORACLE_OP_TAGS, PUBLISHED_BOUNDS, OracleResult,
                             oracle_eval, oracle_rel_err)


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


def test_rel_err_helper():
    res = oracle_eval("A", {"a": 4.0, "b": 2.0}, digits=40)
    assert oracle_rel_err(3.0, res) == 0.0
    assert oracle_rel_err(3.0 + 3e-13, res) == pytest.approx(1e-13, rel=1e-2)


class TestAgainstMpmath:
    """Each op at 50 digits against its textbook closed form in mpmath.

    Binary64 inputs convert exactly to both Decimal and mpf, so the two sides
    evaluate the same point and the oracle must meet its own 10**-49 bound.
    The references take 400 digits: at 1e-200, a^a/b^b in I's textbook form
    differs from 1 only in its 197th digit.
    """

    PAIRS = {
        "separated": (7.5, 0.3),
        "a/b-1=1e-12": (1.0 + 1e-12, 1.0),
        "near 1e200": (3e200, 1e200),
        "near 1e-200": (3e-200, 1e-200),
    }
    PS = (2.5, 1e-5, -1e-5, -1.0 + 1e-5, -1.0 - 1e-5)
    QUADS = {
        "separated": (4.0, 3.0, 2.0, 1.0),
        "a/b-1=1e-12": (3.0 * (1.0 + 1e-12), 3.0, 2.0, 1.0),
        "near 1e200": (4e200, 3e200, 2e200, 1e200),
        "near 1e-200": (4e-200, 3e-200, 2e-200, 1e-200),
        "1e200 over 1e-200": (4e200, 3e200, 2e-200, 1e-200),
    }
    XS = (1e-9, 0.0, -3.7, 2.5)

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
            f = log(a / b) / log(c / d)
            gp = (log(a) + log(b) - log(c) - log(d)) / 2
        else:
            ax, bx, cx, dx = a ** x, b ** x, c ** x, d ** x
            f = (ax - bx) / (cx - dx)
            gp = ((ax * log(a) - bx * log(b)) / (ax - bx)
                  - (cx * log(c) - dx * log(d)) / (cx - dx))
        return {"f": f, "g": log(f), "f_prime": f * gp, "g_prime": gp}[op]

    def _check(self, op, inputs, absolute=False):
        got = oracle_eval(op, inputs, digits=50).value
        with mpmath.workdps(400):
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

    def test_g_at_its_zero_crossing(self):
        # f(1) = (4 - 3)/(2 - 1) = 1: g crosses zero there, so the bound is absolute
        for x in (1.0, 1.0 + 1e-9, 1.0 - 1e-9):
            self._check("g", {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0, "x": x}, absolute=True)
