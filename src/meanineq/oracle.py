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
Computer Arithmetic, 4.3-4.4).  Both reduce their argument against tables
of constants (Tang, ACM TOMS 15(2), 1989 and 16(4), 1990).  ``_exp`` writes
|z| = E ln 2 + j/2^8 + k/2^16 + r with r < 2^-16 and multiplies the tables'
e^(j/2^8) and e^(k/2^16) by e^r = sinh r + sqrt(1 + sinh^2 r); 2^E goes
onto the quotient exactly.  ``_ln`` divides y exactly on ints into 2^E (1 +
j/2^8) (1 + k/2^16) (1 + t) with t < 2^-16, sums ln(1 + t) = 2 atanh(t/(2 +
t)), seven terms at 50 digits, and adds E ln 2 and the tables' two
logarithms.  The tables hold ln 2, ln 10, ln(1 + j/2^8), ln(1 + k/2^16),
e^(j/2^8) and e^(k/2^16) for j, k < 256, one set per precision bucket of 64
bits (``_tables``).  ``_ln_fixed`` and ``_exp_fixed``, which take ln y from
e^|y0| and e^x by halving and squaring, build each entry on first use, and
the entries are kept for the life of the process: a full set is 100 KiB at
50 digits.  Past e^(+-2^10) both split off a power of ten exactly, with the
tables' ln 10, so no int passes about 1700 bits, and the exponent takes it.
On the benchmark's inputs an op costs about a fifth of what libmpdec's exp
and ln would make it cost, and three quarters of what the halving and
squaring cost on every call.  Each kernel takes this one path at every
precision, ln at every argument; libmpdec's exp is kept at |z| <= 2^-10,
where it is as fast and a tiny z's exact ratio could be huge, and at |z| >=
2^64, where e^z overflows or underflows every context.  sqrt is libmpdec's,
correctly rounded.

Every truncation in the kernels is a floor, and their docstrings count
them.  Each table entry is a floor, below the true constant by under 1.02
units of its last bit.  ``_exp`` and ``_ln`` work at the bucket's B bits,
at least 9 past the 8 or 9 bits they ask for beyond the working precision,
so their counts, under 2.02 K + 10 and 2.68 K + 6 units of 2^-B with K
about B/32 series terms, stay under a 256th of an ulp, and each result is
within 0.505 ulp, almost all of it the one rounding.

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
#: ``_exp`` calls libmpdec's exp at once at |z| <= 2^-10, where it is as
#: fast and the exact ratio of a tiny z could be huge, and at |z| >= 2^64,
#: where e^z overflows or underflows every decimal context
_EXP_SMALL = Decimal("0.0009765625")
_EXP_HUGE = 2 ** 64
#: Past e^(+-2^10), ``_exp`` and ``_ln`` split off a power of ten, so their
#: ints stay under about 1700 bits
_SPLIT_BITS = 10
#: The oracle's working context, whatever the caller's: every field given, so
#: neither the caller's context nor ``decimal.DefaultContext`` reaches it.
#: ``localcontext`` works on a copy, so this one never changes.
_CONTEXT = Context(prec=28, rounding=ROUND_HALF_EVEN, Emax=10 ** 9, Emin=-(10 ** 9),
                   capitals=1, clamp=0, traps=[InvalidOperation, DivisionByZero, Overflow])
#: Precision bucket B -> ``_Tables``, the constants ``_exp`` and ``_ln``
#: reduce against, kept for the life of the process
_TABLES = {}
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


def _exp_small(u, wp):
    """e^(u/2^wp) at 0 <= u < 2^(wp - 10), as an int at most 2^wp e^(u/2^wp).

    Sums the terms of sinh, T_1 = u and T_(k+2) = floor(T_k U2/((k + 1)(k +
    2) 2^wp)) with U2 = floor(u^2/2^wp), then takes sinh + sqrt(1 + sinh^2)
    with one ``isqrt``.  In units of 2^-wp each term loses under 1.01 and is
    at least 20 bits below the one before, so K <= wp/20 + 1 of them are
    nonzero; with the tail, sinh loses under 1.01 K + 1.  The square root's
    slope is below 1, so the result loses twice that and one floor more:
    under 2.02 K + 3, on a value of at least 2^wp.
    """
    u2 = u * u >> wp
    f = term = u
    k = 1
    while term:
        k += 2
        term = (term * u2 >> wp) // (k * k - k)
        f += term
    return f + math.isqrt(f * f + (1 << 2 * wp))


def _atanh(v, w):
    """2^w atanh(v/2^w) at 0 <= v < 2^(w - 17), as v + v^3/3 + v^5/5 + ...

    One floor per power and per quotient.  In units of 2^-w each term after
    the first loses under 1.34 and the tail under 1, so the sum of K nonzero
    terms is at most 2^w atanh(v/2^w) and within 1.34 K of it.  Each power
    is at least 34 bits below the one before: K <= w/34 + 1.
    """
    v2 = v * v >> w
    total, k = 0, 1
    while v:
        total += v // k
        v = v * v2 >> w
        k += 2
    return total


def _exp_fixed(n, d, bits):
    """e^x at x = n/d >= 0 in binary fixed point: (F, wp) with
    2^wp e^x (1 - 2^-bits) < F <= 2^wp e^x.  It builds the tables' e^(j/2^8)
    and e^(k/2^16) (``_exp_floor``), and nothing else.

    Every step is a floor on nonnegative ints, so F is a lower bound.  With s
    the least count that makes u = x/2^s < 2^-10, and g the bit length of
    bits + s, wp = bits + s + g.  ``_exp_small`` takes e^u from U =
    floor(u 2^wp): with U's own floor, under 2.02 K + 5 units of 2^-wp on an
    e^u of at least 1, K <= wp/20 + 1.  Each of the s squarings doubles the
    relative error and floors once as it shifts the square back by wp bits,
    which costs under 2^-wp on a value of at least 1.  In all, under 2^s
    (2.02 K + 6) 2^-wp = (2.02 K + 6) 2^-(bits + g) < 2^-bits.
    """
    s = max(0, n.bit_length() - d.bit_length() + 11)     # x < 2^(s - 10)
    wp = bits + s + (bits + s).bit_length()
    f = _exp_small((n << (wp - s)) // d, wp)
    for _ in range(s):
        f = f * f >> wp
    return f, wp


def _ln_fixed(n, d, y0, bits):
    """ln y at y = n/d > 0 in binary fixed point: an int S with |S - 2^bits ln
    y| < 2, given a binary64 y0, a multiple of 2^-bits, with |y0 - ln y| <
    2^-30.  It builds the tables' ln 2, ln 10, ln(1 + j/2^8) and ln(1 +
    k/2^16) (``_ln_floor``), and nothing else.

    Works at W = bits + g bits, g the bit length of bits.  F/2^wp = e^|y0| (1 -
    theta), theta < 2^-W, from ``_exp_fixed``, gives t = y e^-y0 - 1 on ints,
    exactly up to the floor T = floor(t 2^W), and ln y = y0 + ln(1 + t) -+ ln(1
    - theta).  y0 2^W is exact.  ln(1 + t) = 2 atanh v with v = t/(2 + t), and
    ``_atanh`` sums it on |v|; |v| < 2^-30, so each term gains 60 bits and K
    <= W/60 + 1 terms are nonzero.  In units of 2^-W, theta costs 1.01, T's
    floor 1.01, the floors of |v| and v^2 2.02 once doubled, each later term
    2.68 doubled and the tail 2: under 4K + 6 < 2^g in all.  The final shift
    by g bits floors once more, so |S - 2^bits ln y| < 2.
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
    total = _atanh((abs(t) << w) // ((2 << w) + t), w)
    y0_w = (a << w) // b
    return ((y0_w if y0 > 0 else -y0_w) + (2 * total if t >= 0 else -2 * total)) >> g


def _ln_floor(n, d, bits):
    """An int L with 0 <= 2^bits ln(n/d) - L < 1.02, for n >= d > 0 and n/d
    <= 10: ``_ln_fixed`` at bits + 8 is within 2 units, so 2 less is below
    2^(bits + 8) ln(n/d) by under 4, and the shift by 8 bits floors once.
    ln(n/d) >= 0, so 0 is a floor too, and ln 1 is exactly 0."""
    return max(0, (_ln_fixed(n, d, math.log(n / d), bits + 8) - 2) >> 8)


def _exp_floor(n, d, bits):
    """An int E with 0 <= 2^bits e^x - E < 1.02 at x = n/d in [0, 1):
    ``_exp_fixed`` at bits + 8 is a lower bound within e^x 2^-8 < 0.011
    units, and the shift floors once."""
    f, wp = _exp_fixed(n, d, bits + 8)
    return f >> (wp - bits)


class _Table(dict):
    """index -> constant, each built by ``build(index)`` on first use and kept."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, i):
        value = self[i] = self.build(i)
        return value


class _Tables:
    """The constants of one precision bucket B, every one a floor (``_ln_floor``,
    ``_exp_floor``): below 2^B c, or 2^(B + 64) c for ln 2 and ln 10, by
    under 1.02.  ln 2 and ln 10 are built with the bucket, the four tables
    entry by entry as the kernels read them."""

    __slots__ = ("bits", "ln2", "ln10", "ln_hi", "ln_lo", "exp_hi", "exp_lo")

    def __init__(self, b):
        self.bits = b
        self.ln2 = _ln_floor(2, 1, b + 64)
        self.ln10 = _ln_floor(10, 1, b + 64)
        self.ln_hi = _Table(lambda j: _ln_floor(256 + j, 256, b))
        self.ln_lo = _Table(lambda k: _ln_floor(65536 + k, 65536, b))
        self.exp_hi = _Table(lambda j: _exp_floor(j, 256, b))
        self.exp_lo = _Table(lambda k: _exp_floor(k, 65536, b))


def _tables(bits):
    """The constants at B, bits + g rounded up to a multiple of 64, g = 1 + the
    bit length of bits: a count of C units of 2^-B is then under 2^-bits for
    every C < 2 bits.  Built once per bucket and kept."""
    b = -(-(bits + bits.bit_length() + 1) // 64) * 64
    t = _TABLES.get(b)
    if t is None:
        t = _TABLES[b] = _Tables(b)
    return t


def _exp(z):
    """e^z for a finite Decimal, under 0.51 ulp of the context precision.

    e^|z| is taken on ints to a relative 2^-bits, bits = ceil(prec log2 10) +
    8, against the constants of ``_tables(bits)`` at B bits, and one Decimal
    division of exact ints in the caller's context rounds e^|z|, or its
    reciprocal for negative z, once.  2^-bits <= 10^-prec/256 is a 256th of
    an ulp at most, so the result is within 0.505 ulp.

    X = floor(|z| 2^(B + 64)) is reduced on ints: past e^(2^10) by D ln 10,
    D = floor(X/ln10) for the table's ln 10, then by E ln 2 the same way,
    so x = |z| - D ln 10 - E ln 2 is in [0, ln 2).  With X shifted back to B
    bits, x = j/2^8 + k/2^16 + r, r < 2^-16, and e^|z| = 10^D 2^E e^(j/2^8)
    e^(k/2^16) e^r, e^r from ``_exp_small`` at B.  In units of 2^-B, as
    relative errors: x loses under 1.01 to the floors and D ln 10 + E ln 2
    under 1.02 (D + E) 2^-64 < 0.52 (D < 2^63 as |z| < 2^64, E < 2^11),
    which e^x turns into under 1.55; e^r loses under 2.02 K + 3, K <= B/32
    + 1; each table entry 1.02 and each product's floor 1.  Under 2.02 K +
    10 in all, below 2 bits, so under 2^-bits.  The quotient then takes D
    onto its exponent exactly, and a unary plus applies the context's range.
    Overflow and underflow are the context's own, signalled by the division
    or by that plus, in the caller's flags, which ``oracle_eval`` reads.
    """
    mag = z.copy_abs()
    if not _EXP_SMALL < mag < _EXP_HUGE:     # e^0 is exactly 1 here
        return z.exp()
    t = _tables(math.ceil(getcontext().prec * _LOG2_10) + 8)
    b = t.bits
    n, d = mag.as_integer_ratio()
    x = (n << (b + 64)) // d
    tens = 0
    if n >= d << _SPLIT_BITS:
        tens, x = divmod(x, t.ln10)
    twos, x = divmod(x, t.ln2)
    x >>= 64
    f = _exp_small(x & ((1 << (b - 16)) - 1), b) * t.exp_hi[x >> (b - 8)] >> b
    f = f * t.exp_lo[(x >> (b - 16)) & 255] >> b
    shift = b - twos                         # e^|z| = f 2^-shift 10^tens
    num, den = (f, 1 << shift) if shift >= 0 else (f << -shift, 1)
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

    ln y is taken on ints against the constants of ``_tables(bits)`` at B
    bits, to within 2^-bits, and one Decimal division of exact ints rounds
    it once.  With y = n/d exactly, bits = ceil(prec log2 10) + 9 + near,
    near = max(0, bitlen(d) - bitlen(|n - d|) + 2) >= -log2 |ln y|, since
    |ln y| >= |y - 1|/2 within a factor 2 of 1: 2^-bits is a 512th of an
    ulp at most, and the result is within 0.505 ulp.  Where |ln y| may
    reach 2^10, the power of ten is split off exactly first, y = m 10^e and
    ln y = ln m + e ln 10, with near = 0; otherwise e = 0 below.

    The reduction divides exactly on ints: y = 10^e 2^E (1 + j/2^8) (1 +
    k/2^16) (1 + t) with t < 2^-16, so ln y = e ln 10 + E ln 2 + ln(1 +
    j/2^8) + ln(1 + k/2^16) + 2 atanh(t/(2 + t)).  In units of 2^-B: the
    floor of t/(2 + t) and ``_atanh`` lose under 1.34 K + 1, K <= B/34 + 1,
    and 2.68 K + 2 once doubled; each table entry 1.02; e ln 10 + E ln 2,
    at B + 64 bits, under 1.02 (|e| + |E|) 2^-64 < 0.52 (|e| < 2^63, |E| <
    2^11), and its shift to B bits 1.  Under 2.68 K + 6 in all, below 2
    bits, so under 2^-bits.  ln 1 is exactly 0: the tables' ln 1 is 0.
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
    # the count is absolute: y near 1, where |ln y| is small, takes more bits
    near = 0 if split else max(0, d.bit_length() - abs(n - d).bit_length() + 2)
    t = _tables(math.ceil(getcontext().prec * _LOG2_10) + 9 + near)
    b = t.bits
    twos = n.bit_length() - d.bit_length()    # n/d = 2^twos num/den
    num, den = (n, d << twos) if twos >= 0 else (n << -twos, d)
    if num < den:                             # num/den in [1, 2)
        num, twos = num << 1, twos - 1
    j = ((num - den) << 8) // den
    num, den = num << 8, den * (256 + j)
    k = ((num - den) << 16) // den
    num, den = num << 16, den * (65536 + k)   # num/den = 1 + t
    s = 2 * _atanh(((num - den) << b) // (num + den), b) + t.ln_hi[j] + t.ln_lo[k]
    s += (twos * t.ln2 + (e * t.ln10 if split else 0)) >> 64
    return Decimal(s) / (1 << b)


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
