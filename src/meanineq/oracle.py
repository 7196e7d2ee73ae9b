"""Arbitrary-precision reference evaluation of every fast-path operation.

The oracle recomputes the closed forms with the stdlib ``decimal`` module,
whose ln/exp/sqrt are correctly rounded in the working context.  Guard digits
cover both the requested precision and any cancellation the inputs cause
(nearly equal pair members, exponents near removable points, x near 0), so
the returned value is trusted to a relative error below 10**(1 - digits).

Supported operation tags: A, G, H, L, I, Lp, f, g, f_prime, g_prime, where f
is the power-difference ratio (a^x - b^x)/(c^x - d^x) and g = ln f.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from typing import NamedTuple

__all__ = ["OracleResult", "oracle_eval", "oracle_rel_err", "ORACLE_OP_TAGS",
           "PUBLISHED_BOUNDS"]

ORACLE_OP_TAGS = ("A", "G", "H", "L", "I", "Lp", "f", "g", "f_prime", "g_prime")

#: Published worst-case relative error of the binary64 fast path vs the
#: oracle, over each operation's supported domain (including the
#: near-degenerate corners; well-separated inputs do much better).
PUBLISHED_BOUNDS = {
    "A": 1e-13, "G": 1e-13, "H": 1e-13,
    "L": 1e-13, "I": 1e-13, "Lp": 1e-10,
    "f": 1e-10, "g": 1e-10, "f_prime": 1e-10, "g_prime": 1e-10,
}

_BASE_GUARD = 15


class OracleResult(NamedTuple):
    op: str
    value: Decimal
    digits: int
    rel_bound: float

    def __float__(self):
        return float(self.value)


def _cancel_guard(*magnitudes):
    """Extra digits to absorb a cancellation of the given relative size."""
    extra = 0
    for m in magnitudes:
        if m > 0.0 and m < 1.0:
            extra = max(extra, int(math.ceil(-math.log10(m))))
    return min(extra, 60)


def _ln(x):
    return x.ln()


def _exp(x):
    return x.exp()


def _mean_decimal(op, a, b, p=None):
    two = Decimal(2)
    if op == "A":
        return (a + b) / two
    if op == "G":
        return (a * b).sqrt()
    if op == "H":
        return two / (1 / a + 1 / b)
    if a == b:
        return a
    if op == "L":
        return (a - b) / (_ln(a) - _ln(b))
    if op == "I":
        return _exp(-1 + (a * _ln(a) - b * _ln(b)) / (a - b))
    if op == "Lp":
        if p == 0:
            return _mean_decimal("I", a, b)
        if p == -1:
            return _mean_decimal("L", a, b)
        q = p + 1
        num = _exp(q * _ln(a)) - _exp(q * _ln(b))
        base = num / (q * (a - b))
        return _exp(_ln(base) / p)
    raise ValueError(f"unsupported mean op {op!r}")


def _identric_of_powers(u, v, u_ln, v_ln):
    """ln I(u, v) in decimal, given u = e^u_ln and v = e^v_ln."""
    if u == v:
        return u_ln
    return -1 + (u * u_ln - v * v_ln) / (u - v)


def oracle_eval(op, inputs, digits=50) -> OracleResult:
    """Evaluate the named closed form at the given binary64 inputs.

    ``inputs`` is a mapping with keys among {a, b, c, d, x, p} as the op
    requires.  Binary64 inputs convert exactly to Decimal, so fast path and
    oracle see identical arguments.
    """
    if op not in ORACLE_OP_TAGS:
        raise ValueError(f"unsupported op tag {op!r}; expected one of {ORACLE_OP_TAGS}")
    if digits < 30:
        raise ValueError("oracle needs digits >= 30")
    a = inputs.get("a")
    b = inputs.get("b")

    guard = _BASE_GUARD
    if a is not None and b is not None and a != b:
        rel = abs(a - b) / max(abs(a), abs(b))
        guard += _cancel_guard(rel)
    x = inputs.get("x")
    p = inputs.get("p")
    if op in ("f", "g", "f_prime", "g_prime") and x is not None and x != 0.0:
        guard += _cancel_guard(abs(x))
    if op == "Lp" and p is not None:
        guard += _cancel_guard(abs(p), abs(p + 1.0))

    with localcontext() as ctx:
        ctx.prec = digits + guard
        ctx.Emax = 10 ** 9
        ctx.Emin = -(10 ** 9)
        val = _oracle_core(op, inputs)
        # round to the requested significance in a clean context
        ctx.prec = digits
        val = +val
    return OracleResult(op=op, value=val, digits=digits,
                        rel_bound=10.0 ** (1 - digits))


def _oracle_core(op, inputs):
    da = Decimal(inputs["a"])
    db = Decimal(inputs["b"])
    if op in ("A", "G", "H", "L", "I"):
        return _mean_decimal(op, da, db)
    if op == "Lp":
        return _mean_decimal("Lp", da, db, Decimal(inputs["p"]))

    dc = Decimal(inputs["c"])
    dd = Decimal(inputs["d"])
    dx = Decimal(inputs["x"])
    ln_a, ln_b, ln_c, ln_d = _ln(da), _ln(db), _ln(dc), _ln(dd)

    if dx == 0:
        f0 = (ln_a - ln_b) / (ln_c - ln_d)
        if op == "f":
            return f0
        if op == "g":
            return _ln(f0)
        gp0 = (ln_a + ln_b - ln_c - ln_d) / 2
        if op == "g_prime":
            return gp0
        return f0 * gp0  # f_prime

    xa, xb, xc, xd = dx * ln_a, dx * ln_b, dx * ln_c, dx * ln_d
    pa, pb, pc, pd = _exp(xa), _exp(xb), _exp(xc), _exp(xd)
    if op != "g_prime":
        f = (pa - pb) / (pc - pd)
        if op == "f":
            return f
        if op == "g":
            return _ln(f)
    gp = (_identric_of_powers(pa, pb, xa, xb) - _identric_of_powers(pc, pd, xc, xd)) / dx
    if op == "g_prime":
        return gp
    return f * gp  # f_prime


def oracle_rel_err(fast_value, result: OracleResult) -> float:
    """|fast - oracle| / |oracle| computed in the oracle's precision."""
    with localcontext() as ctx:
        ctx.prec = result.digits + 10
        ctx.Emax = 10 ** 9
        ctx.Emin = -(10 ** 9)
        ref = result.value
        if ref == 0:
            return abs(float(fast_value))
        err = abs((Decimal(float(fast_value)) - ref) / ref)
    return float(err)
