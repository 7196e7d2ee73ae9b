"""Arbitrary-precision reference evaluation of every fast-path operation.

The oracle recomputes the closed forms with the stdlib ``decimal`` module.
Guard digits cover both the requested precision and any cancellation the
inputs cause, so the returned value is trusted to a relative error below
10**(1 - digits).  A pair whose members agree to k digits adds k guard
digits, and an exponent p within 10**-k of 0 or -1 adds k.  An exponent x
within 10**-k of 0 adds k to f and g, where E - 1 below cancels k digits,
and 2k to f' and g', where h(r1, E1) - h(r2, E2) cancels them again.  No
binary64 x adds more than 648 digits, so the precision stays bounded.

Logarithms and exponentials are the cost, so each op takes one logarithm per
pair ratio.  The means and f are homogeneous of degree 1 in each pair, so with
r1 = ln(a/b), r2 = ln(c/d), r0 = ln(b/d), E1 = (a/b)^x and E2 = (c/d)^x:

    L = (a - b)/r1                 I = b exp(a r1/(a - b) - 1)
    Lp(a, b) = b Lp(a/b, 1)        f = (b/d)^x (E1 - 1)/(E2 - 1)
    g = x r0 + ln((E1 - 1)/(E2 - 1))
    g' = r0 + h(r1, E1) - h(r2, E2),   h(r, E) = r E/(E - 1) -> 1/x as r -> 0

Each logarithm is reduced to one of an argument near 1 (``_ln``):
ln y = y0 + ln(y e^-y0), with y0 a binary64 estimate of ln y.  libmpdec's
correctly rounded ln of a typical argument costs about twice its exp, and
its ln of an argument within 1e-16 of 1 costs a fifth of its exp.  ``_ln``
carries 3 + ceil(-log10|y0|) extra digits, so its error stays under one unit
in the last place of the working precision: 0.5 from the final rounding and
a few thousandths from the reduction.  Arguments within 1e-3 of 1 or of a
power of ten, where libmpdec's ln is already fast, skip the reduction.

Every exponential, the e^-y0 above included, is ``_exp``: e^z = (e^u)^(2^s)
with u = z/2^s and |u| < 2^-10, where libmpdec's exp costs a fraction of what
it costs at |z| >= 0.1.  It carries 3 + ceil(s log10 2) extra digits, which
absorb the doubling of the error at each squaring, so its error too stays
under 0.51 ulp: 0.5 from the final rounding and a few thousandths from the
reduction.  sqrt is libmpdec's, correctly rounded.

The oracle computes in its own context (``_CONTEXT``): round half even,
exponents to +-10^9, and traps on invalid operations, division by zero and
overflow.  The caller's decimal context, its rounding and traps included,
does not change a value.  A value that underflowed, to zero or to a
subnormal below 10^-(10^9), is refused as a domain error: its digits are
gone.  An intermediate that underflowed is not, if the value is normal.

Each op has this one form.  For L, I, Lp and the ratio ops its domain is
every coordinate positive and finite, x and p finite, c != d for f, g and
f', and (a - b)(c - d) > 0, that is f > 0, for g.  The form keeps the
limits inside it: the means at a == b, f and f' at a == b, g' at a == b or
c == d, and each ratio op at x == 0, where g' is taken before f.  An input
outside the domain raises ``ValueError`` naming the op and the condition it
breaks.

Supported operation tags: A, G, H, L, I, Lp, f, g, f_prime, g_prime, where f
is the power-difference ratio (a^x - b^x)/(c^x - d^x) and g = ln f.
"""

from __future__ import annotations

import math
from decimal import (ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation,
                     Overflow, Underflow, localcontext)
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
_LN10 = math.log(10.0)
_LOG10_2 = math.log10(2.0)
#: ``_exp`` calls libmpdec's exp at once at |z| <= 2^-10, where it is fast,
#: and at |z| >= 2^64, where e^z overflows or underflows every decimal context
_EXP_SMALL = Decimal("0.0009765625")
_EXP_HUGE = 2 ** 64
#: The oracle's working context, whatever the caller's: every field given, so
#: neither the caller's context nor ``decimal.DefaultContext`` reaches it.
#: ``localcontext`` works on a copy, so this one never changes.
_CONTEXT = Context(prec=28, rounding=ROUND_HALF_EVEN, Emax=10 ** 9, Emin=-(10 ** 9),
                   capitals=1, clamp=0, traps=[InvalidOperation, DivisionByZero, Overflow])
_RATIO_OPS = ("f", "g", "f_prime", "g_prime")
_INPUT_KEYS = {"L": "ab", "I": "ab", "Lp": "abp", **dict.fromkeys(_RATIO_OPS, "abcdx")}


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
    return extra


def _exp(z):
    """e^z for a finite Decimal, under 0.51 ulp of the context precision.

    libmpdec's correctly rounded exp is fast only for a small argument, so
    e^z = (e^u)^(2^s) with u = z/2^s, |u| < 2^-10.  In relative error, with
    eps = 10^(1 - P) at the working precision P = prec + 3 + ceil(s log10 2):
    rounding u costs |z| eps/2 < 2^(s - 11) eps, and the s squarings double
    the error of e^u while each adds eps/2 of its own, about 2^s eps in all.
    The extra digits make 2^s eps at most 10^(1 - prec)/1000, a hundredth of
    an ulp or less, so the error stays 0.5 ulp from the final rounding and a
    few thousandths from the reduction.
    """
    if not _EXP_SMALL < abs(z) < _EXP_HUGE:    # e^0 is exactly 1 here
        return z.exp()
    s = math.frexp(float(abs(z)))[1] + 10    # |z| < 2^(s - 10)
    with localcontext() as ctx:
        ctx.prec += 3 + math.ceil(s * _LOG10_2)
        e = (z / 2 ** s).exp()
        for _ in range(s):
            e *= e
    # the squarings' context is a copy: an e^z below the context's range
    # underflows again in the caller's, whose flags ``oracle_eval`` reads
    return z.exp() if ctx.flags[Underflow] else +e


def _ln(y):
    """ln y for a finite positive Decimal, under one ulp of the context precision."""
    if not y.is_finite() or y <= 0:
        raise ValueError(f"ln needs a finite positive argument, got {y}")
    e = y.adjusted()
    m = float(y.scaleb(-e))                  # y = m 10^e, 1 <= m < 10
    if m < 1.001 or m > 9.99:                # near 1 or a power of ten: ln is fast
        return y.ln()
    y0 = e * _LN10 + math.log(m)             # |y0| > 9e-4: y is not near 1
    with localcontext() as ctx:
        ctx.prec += 3 + max(0, math.ceil(-math.log10(abs(y0))))
        d0 = Decimal(y0)                     # exact; exp reads every digit
        out = d0 + (y * _exp(d0.copy_negate())).ln()
    return +out


def _h(r, e, x):
    """r E/(E - 1) with E = e^(x r); its limit 1/x where E is 1."""
    return 1 / x if e == 1 else r * e / (e - 1)


def _pair_ratio_core(op, a, b, c=None, d=None, x=None, p=None):
    """The op at positive finite coordinates, one ln per pair ratio."""
    if op in ("L", "I", "Lp"):
        if a == b:
            return a
        if op == "Lp" and p != 0 and p != -1:
            q = p + 1
            base = (_exp(q * _ln(a / b)) - 1) * b / (q * (a - b))
            return b * _exp(_ln(base) / p)
        r = _ln(a / b)
        if op == "L" or p == -1:
            return (a - b) / r
        return b * _exp(a * r / (a - b) - 1)    # I, and Lp at p = 0
    r0, r1, r2 = _ln(b / d), _ln(a / b), _ln(c / d)
    if x == 0:
        gp = r0 + (r1 - r2) / 2
        if op == "g_prime":
            return gp
        f = r1 / r2
        if op == "g":
            return _ln(f)
    else:
        e1, e2 = _exp(x * r1), _exp(x * r2)
        if op == "g":
            return x * r0 + _ln((e1 - 1) / (e2 - 1))
        gp = r0 + _h(r1, e1, x) - _h(r2, e2, x)
        if op == "g_prime":
            return gp
        f = _exp(x * r0) * (e1 - 1) / (e2 - 1)
    if op == "f":
        return f
    return gp if op == "g_prime" else f * gp


def _broken_condition(op, inputs):
    """The first condition of the op's domain that the inputs break."""
    a, b = inputs["a"], inputs["b"]
    if op == "G":
        checks = [("a*b >= 0", a * b >= 0)]
    elif op == "H":
        checks = [("a != 0", a != 0), ("b != 0", b != 0), ("a + b != 0", a + b != 0)]
    else:
        keys = "abcd" if op in _RATIO_OPS else "ab"
        checks = [(f"{k} > 0", inputs[k] > 0) for k in keys]
        if op in ("f", "g", "f_prime"):
            checks.append(("c != d", inputs["c"] != inputs["d"]))
        if op == "g":
            checks.append(("f > 0", (a - b) * (inputs["c"] - inputs["d"]) > 0))
    checks += [(f"finite {k}", math.isfinite(v)) for k, v in inputs.items()]
    return next((name for name, ok in checks if not ok),
                "inputs its closed form can evaluate at this precision")


def oracle_eval(op, inputs, digits=50) -> OracleResult:
    """Evaluate the named closed form at the given binary64 inputs.

    ``inputs`` is a mapping with keys among {a, b, c, d, x, p} as the op
    requires.  Binary64 inputs convert exactly to Decimal, so fast path and
    oracle see identical arguments.  Inputs at which the op has no value
    raise ``ValueError`` naming the condition they break.
    """
    if op not in ORACLE_OP_TAGS:
        raise ValueError(f"unsupported op tag {op!r}; expected one of {ORACLE_OP_TAGS}")
    if digits < 30:
        raise ValueError("oracle needs digits >= 30")
    a = inputs.get("a")
    b = inputs.get("b")
    c = inputs.get("c")
    d = inputs.get("d")

    guard = _BASE_GUARD
    rels = [abs(u - v) / max(abs(u), abs(v)) for u, v in ((a, b), (c, d))
            if u is not None and v is not None and u != v and max(abs(u), abs(v)) > 0]
    guard += _cancel_guard(*rels)
    x = inputs.get("x")
    p = inputs.get("p")
    if op in _RATIO_OPS and x is not None and x != 0.0:
        # E - 1 cancels -log10|x| digits; h(r1, E1) - h(r2, E2) cancels them again
        guard += _cancel_guard(abs(x)) * (2 if op in ("f_prime", "g_prime") else 1)
    if op == "Lp" and p is not None:
        guard += _cancel_guard(abs(p), abs(p + 1.0))

    with localcontext(_CONTEXT) as ctx:
        ctx.prec = digits + guard
        try:
            val = _oracle_core(op, inputs)
            # a value that underflowed to zero or a subnormal has lost its digits;
            # an intermediate that underflowed on the way to a normal value has not
            if ctx.flags[Underflow] and (not val or val.is_subnormal()):
                raise Underflow
        except (ArithmeticError, ValueError) as exc:   # decimal's signals are ArithmeticErrors
            cond = _broken_condition(op, inputs)
            raise ValueError(f"oracle {op} has no value at {dict(inputs)}: "
                             f"it needs {cond}") from exc
        # round to the requested significance in a clean context
        ctx.prec = digits
        val = +val
    return OracleResult(op=op, value=val, digits=digits,
                        rel_bound=10.0 ** (1 - digits))


def _oracle_core(op, inputs):
    a = Decimal(inputs["a"])
    b = Decimal(inputs["b"])
    if op == "A":
        return (a + b) / 2
    if op == "G":
        return (a * b).sqrt()
    if op == "H":
        return 2 / (1 / a + 1 / b)
    keys = _INPUT_KEYS[op]
    if not all(math.isfinite(inputs[k]) and (k in "xp" or inputs[k] > 0) for k in keys):
        raise ValueError(f"{op} needs positive finite coordinates and finite x, p")
    return _pair_ratio_core(op, **{k: Decimal(inputs[k]) for k in keys})


def oracle_rel_err(fast_value, result: OracleResult) -> float:
    """|fast - oracle| / |oracle| computed in the oracle's precision."""
    with localcontext(_CONTEXT) as ctx:
        ctx.prec = result.digits + 10
        ref = result.value
        if ref == 0:
            return abs(float(fast_value))
        err = abs((Decimal(float(fast_value)) - ref) / ref)
    return float(err)
