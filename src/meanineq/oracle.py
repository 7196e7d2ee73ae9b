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

Every logarithm and exponential is summed on Python ints in binary fixed
point, with no Decimal arithmetic until one division of exact ints rounds
the result once in the working context (Brent and Zimmermann, Modern
Computer Arithmetic, 4.3-4.4).  ``_exp_fixed`` halves x to u = x/2^s <
2^-10, sums sinh u, takes e^u = sinh u + sqrt(1 + sinh^2 u) and squares s
times.  ``_ln_fixed`` takes y0, the binary64 estimate of ln y, forms t = y
e^-y0 - 1 exactly from e^|y0|, sums ln(1 + t) = 2 atanh(t/(2 + t)), three
or four terms at |t| < 2^-30, and adds the exact y0.  Past e^(+-2^10) both
split off a power of ten exactly, so no int passes about 1700 bits, and
the exponent takes it.  On the benchmark's inputs an op costs about 60% of
what libmpdec's exp and ln made it cost.  libmpdec's exp is kept where it
is fast or nothing is left to compute, at |z| <= 2^-10 and |z| >= 2^64,
and its ln for arguments within 1e-3 of 1 or of a power of ten, ln 10 for
the split included.  sqrt is libmpdec's, correctly rounded.

Every truncation in the two kernels is a floor, and their docstrings count
them: ``_exp_fixed`` returns a lower bound within a relative 2^-bits, and
``_ln_fixed`` a value within 2 units of 2^-bits; the split's ln 10 is
correctly rounded, then floored once.  ``_exp`` and ``_ln`` ask for 8 or 9
bits past the working precision, so the kernel's error is under a 250th of
an ulp and each result is within 0.505 ulp, almost all of it the one
rounding.

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
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, DivisionByZero,
                     InvalidOperation, Overflow, Underflow, getcontext, localcontext)
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
_LOG2_10 = math.log2(10.0)
_LOG10_2 = math.log10(2.0)
#: ``_exp`` calls libmpdec's exp at once at |z| <= 2^-10, where it is fast,
#: and at |z| >= 2^64, where e^z overflows or underflows every decimal context
_EXP_SMALL = Decimal("0.0009765625")
_EXP_HUGE = 2 ** 64
#: Past e^(+-2^10), ``_exp`` and ``_ln`` split off a power of ten, so their
#: ints stay under about 1700 bits
_SPLIT_BITS = 10
#: ``_ln`` calls libmpdec's ln where y = m 10^e has m within 1e-3 of 1 or 10
_LN_NEAR_1 = math.log(1.001)
_LN_NEAR_10 = math.log(9.99)
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


def _exp_fixed(n, d, bits):
    """e^x at x = n/d >= 0 in binary fixed point: (F, wp) with
    2^wp e^x (1 - 2^-bits) < F <= 2^wp e^x.

    Every step is a floor on nonnegative ints, so F is a lower bound.  With s
    the least count that makes u = x/2^s < 2^-10, and g the bit length of
    bits + s, wp = bits + s + g.  In units of 2^-wp: the terms of sinh u,
    T_1 = U = floor(u 2^wp) and T_(k+2) = floor(T_k U2/((k + 1)(k + 2) 2^wp))
    with U2 = floor(U^2/2^wp), each lose under 1.01, and each is 20 bits or
    more below the one before, so K <= wp/20 + 1 of them are nonzero.  With
    U's own floor and the tail after the last term, sinh u loses under
    1.01 K + 2.  e^u = sinh u + sqrt(1 + sinh^2 u) loses twice that, the
    square root's slope being below 1, and its isqrt floors once more: under
    2.02 K + 5, on an e^u of at least 1.  Each of the s squarings doubles the
    relative error and floors once as it shifts the square back by wp bits,
    which costs under 2^-wp on a value of at least 1.  In all, under 2^s
    (2.02 K + 6) 2^-wp = (2.02 K + 6) 2^-(bits + g) < 2^-bits.  The callers
    keep x under 2^10, so F stays under 2^wp e^1024 < 2^(wp + 1478).
    """
    s = max(0, n.bit_length() - d.bit_length() + 11)     # x < 2^(s - 10)
    wp = bits + s + (bits + s).bit_length()
    u = (n << (wp - s)) // d
    u2 = u * u >> wp
    f = term = u
    k = 1
    while term:
        k += 2
        term = (term * u2 >> wp) // (k * k - k)
        f += term
    f += math.isqrt(f * f + (1 << 2 * wp))
    for _ in range(s):
        f = f * f >> wp
    return f, wp


def _ln_fixed(n, d, y0, bits):
    """ln y at y = n/d > 0 in binary fixed point: an int S with |S - 2^bits ln
    y| < 2, given a binary64 y0 with |y0 - ln y| < 2^-30 and |y0| >= 2^-11.

    Works at W = bits + g bits, g the bit length of bits.  F/2^wp = e^|y0| (1 -
    theta), theta < 2^-W, from ``_exp_fixed``, gives t = y e^-y0 - 1 on ints,
    exactly up to the floor T = floor(t 2^W), and ln y = y0 + ln(1 + t) -+ ln(1
    - theta).  y0 2^W is exact.  ln(1 + t) = 2 atanh v with v = t/(2 + t), and
    2 (v + v^3/3 + v^5/5 + ...) is summed on |v|, one floor per power and per
    quotient; |v| < 2^-30, so each term gains 60 bits and K <= W/60 + 1 terms
    are nonzero.  In units of 2^-W, theta costs 1.01, T's floor 1.01, the
    floors of |v| and v^2 2.02 once doubled, each later term 2.68 doubled and
    the tail 2: under 4K + 6 < 2^g in all.  The final shift by g bits floors
    once more, so |S - 2^bits ln y| < 2.
    """
    g = bits.bit_length()
    w = bits + g
    a, b = abs(y0).as_integer_ratio()
    f, wp = _exp_fixed(a, b, w)
    if y0 > 0:                           # y e^-y0 = num/den
        num, den = n << wp, d * f
    else:
        num, den = n * f, d << wp
    t = ((num - den) << w) // den        # floor(t 2^W)
    v = (abs(t) << w) // ((2 << w) + t)  # floor(|v| 2^W)
    v2 = v * v >> w
    total, k = 0, 1
    while v:
        total += v // k
        v = v * v2 >> w
        k += 2
    y0_w = (a << w) // b
    return ((y0_w if y0 > 0 else -y0_w) + (2 * total if t >= 0 else -2 * total)) >> g


def _split_ln10(bits, top):
    """ln 10 in binary fixed point, as (L, b) with |L - 2^b ln 10| < 2 at b =
    bits + 2 + the bit length of ``top``: D ln 10 for any D <= top is then
    within 2^-(bits + 1).

    10 is a power of ten, so its ln is libmpdec's, as in ``_ln``: correctly
    rounded at digits = ceil(b log10 2) + 2, within 10^(1 - digits) <=
    2^-b/10, and floored once onto b bits.
    """
    b = bits + 2 + top.bit_length()
    digits = math.ceil(b * _LOG10_2) + 2
    ctx = Context(prec=digits)
    return (int(ctx.scaleb(ctx.ln(10), digits - 1)) << b) // 10 ** (digits - 1), b


def _exp(z):
    """e^z for a finite Decimal, under 0.51 ulp of the context precision.

    ``_exp_fixed`` computes e^|z| on ints to a relative 2^-bits, bits =
    ceil(prec log2 10) + 8, and one Decimal division of exact ints in the
    caller's context rounds e^|z|, or its reciprocal for negative z, once.
    2^-bits <= 10^-prec/256 is a 256th of an ulp at most, so the result is
    within 0.505 ulp.  At |z| >= 2^10 a power of ten is split off first:
    e^|z| = 10^D e^(|z| - D ln 10), with ln 10 from ``_split_ln10``, whose
    error D carries is 2^-(bits + 1) at most, D = floor(|z|/ln 10) for that
    ln 10, so |z| - D ln 10 is in [0, ln 10), and its exponential at bits +
    1.  The quotient then takes D onto its exponent exactly, and a unary plus
    applies the context's range.  Overflow and underflow are the context's
    own, signalled by the division or by that plus, in the caller's flags,
    which ``oracle_eval`` reads.
    """
    mag = z.copy_abs()
    if not _EXP_SMALL < mag < _EXP_HUGE:     # e^0 is exactly 1 here
        return z.exp()
    bits = math.ceil(getcontext().prec * _LOG2_10) + 8
    n, d = mag.as_integer_ratio()
    tens = 0
    if n >= d << _SPLIT_BITS:
        ln10, b = _split_ln10(bits, n // d)
        tens = (n << b) // (d * ln10)
        n, d, bits = (n << b) - d * tens * ln10, d << b, bits + 1
    num, wp = _exp_fixed(n, d, bits)
    den = 1 << wp
    if z < 0:
        num, den, tens = den, num, -tens
    out = Decimal(num) / den
    if not tens:
        return out
    # shifted where every exponent is allowed, then ranged by the unary plus in
    # the caller's context; past that range the shift only decides overflow or
    # underflow, so it is clipped there
    ctx = getcontext()
    wide = Context(prec=ctx.prec, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return +wide.scaleb(out, max(ctx.Etiny() - 3, min(tens, ctx.Emax + 2)))


def _ln(y):
    """ln y for a finite positive Decimal, under 0.51 ulp of the context precision.

    With y = n/d exactly, y0 = ln n - ln d is a binary64 estimate within
    2^-30 of ln y.  ``_ln_fixed`` carries ln y to bits = ceil(prec log2 10) +
    9 + max(0, ceil(-log2 |y0|)), so its error of 2 units is under a 250th
    of an ulp, and one Decimal division of exact ints rounds it once: the
    result is within 0.505 ulp.  Where |ln y| may reach 2^10, the power of
    ten is split off exactly first, y = m 10^e and ln y = ln m + e ln 10,
    each at bits + 2 + the bit length of e (``_split_ln10``).  Arguments
    within 1e-3 of 1 or of a power of ten, where libmpdec's ln is fast, are
    libmpdec's.
    """
    if not y.is_finite() or y <= 0:
        raise ValueError(f"ln needs a finite positive argument, got {y}")
    e = y.adjusted()
    split = (abs(e) + 1) * _LN10 >= 2 ** _SPLIT_BITS
    if split:                                # m = y/10^e, exactly
        _, digits, exp = y.as_tuple()
        n, d = Decimal((0, digits, exp - e)).as_integer_ratio()
    else:
        n, d = y.as_integer_ratio()
    y0 = math.log(n) - math.log(d)
    ln_m = y0 if split else y0 - e * _LN10
    if not _LN_NEAR_1 < ln_m < _LN_NEAR_10:   # near 1 or a power of ten: ln is fast
        return y.ln()
    bits = math.ceil(getcontext().prec * _LOG2_10) + 9 + max(0, 1 - math.frexp(y0)[1])
    if not split:
        return Decimal(_ln_fixed(n, d, y0, bits)) / (1 << bits)
    ln10, b = _split_ln10(bits, abs(e))
    return Decimal(_ln_fixed(n, d, y0, b) + e * ln10) / (1 << b)


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
