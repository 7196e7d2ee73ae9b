"""Counter-based deterministic sampling for verification sweeps.

Every draw is a pure function of (seed, stream label, sample index): the i-th
sample of a stream never depends on how many samples were drawn before it, so
sweeps can be sharded across any number of workers and still reproduce
bit-identical results.  Randomness comes from BLAKE2b over the packed
(seed, stream, index, salt, block) tuple, which is stable across platforms
and Python versions.
"""

from __future__ import annotations

import hashlib
import math
import struct
from functools import lru_cache

from .ratio import DiscClass, OrderedQuad

__all__ = ["SampleStream", "SamplingError", "sample_quad", "sample_pair",
           "sample_exponent", "sample_kyfan_values", "sample_int", "accepted_classes",
           "DEFAULT_RANGE", "B_EQ_C_PROB", "KYFAN_EPS"]

_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53
_PACK_KEY = struct.Struct("<QQQQQ").pack
_UNPACK_BLOCK = struct.Struct("<QQQQ").unpack
_blake2b = hashlib.blake2b

#: Default log-uniform bounds for quadruple and pair coordinates.
DEFAULT_RANGE = (1e-3, 1e3)
#: Probability that a sampled quadruple carries the allowed tie b = c.
B_EQ_C_PROB = 0.2
#: Ky Fan values are drawn uniformly from (KYFAN_EPS, 1/2].
KYFAN_EPS = 1e-6
_KYFAN_SPAN = 0.5 - KYFAN_EPS

#: Redraw cap for constrained rejection sampling.
MAX_REDRAWS = 10_000


class SamplingError(RuntimeError):
    """Constrained sampling failed to produce a valid draw within the cap."""


def _stream_id(label: str) -> int:
    return int.from_bytes(hashlib.blake2b(label.encode(), digest_size=8).digest(),
                          "little")


class SampleStream:
    """A named, seeded stream of deterministic uniform draws."""

    def __init__(self, seed: int, label: str):
        self.seed = int(seed) & _MASK
        self.stream = _stream_id(label)

    def words(self, index: int, count: int, salt: int = 0):
        index = int(index) & _MASK
        salt = int(salt) & _MASK
        if 0 < count <= 4:                  # one digest, the common case
            msg = _PACK_KEY(self.seed, self.stream, index, salt, 0)
            return list(_UNPACK_BLOCK(_blake2b(msg, digest_size=32).digest())[:count])
        out = []
        for blk in range((count + 3) // 4):
            msg = _PACK_KEY(self.seed, self.stream, index, salt, blk)
            out += _UNPACK_BLOCK(_blake2b(msg, digest_size=32).digest())
        return out[:count]

    def floats(self, index: int, count: int, salt: int = 0):
        """count floats in [0, 1)."""
        return [(w >> 11) * _INV_2_53 for w in self.words(index, count, salt)]

    def floats_open(self, index: int, count: int, salt: int = 0):
        """count floats in (0, 1]."""
        return [((w >> 11) + 1) * _INV_2_53 for w in self.words(index, count, salt)]


@lru_cache(maxsize=64)
def _log_bounds(lo, hi):
    """(ln lo, ln hi - ln lo): the loop-invariant part of a log-uniform draw
    exp(ln lo + u * (ln hi - ln lo))."""
    ln_lo = math.log(lo)
    return ln_lo, math.log(hi) - ln_lo


#: The discriminant classes each sign constraint accepts.
_ACCEPTED = {
    "any": (DiscClass.POSITIVE, DiscClass.NEGATIVE),
    "positive": (DiscClass.POSITIVE,),
    "negative": (DiscClass.NEGATIVE,),
    "zero": (DiscClass.ZERO,),
}


def accepted_classes(sign: str) -> tuple:
    """The discriminant classes a sign constraint accepts, in any letter case."""
    accepted = _ACCEPTED.get(sign.lower())
    if accepted is None:
        raise ValueError(f"unknown sign constraint {sign!r}")
    return accepted


@lru_cache(maxsize=64)
def _quad_setup(sign, bounds):
    """(accepted classes, whether d is solved from three draws, ln lo, ln span)
    for one sign and bounds; raises on bad ones, which are not cached."""
    lo, hi = bounds
    if not (0.0 < lo < hi):
        raise ValueError("bounds must satisfy 0 < lo < hi")
    accepted = accepted_classes(sign)
    return (accepted, DiscClass.ZERO in accepted, *_log_bounds(lo, hi))


def sample_quad(stream: SampleStream, index: int, sign: str = "any",
                bounds=DEFAULT_RANGE) -> OrderedQuad:
    """Draw an ordered quadruple a > b >= c > d > 0, log-uniform over bounds.

    ``sign`` constrains the discriminant class of ad - bc: "any", "positive",
    "negative", or "zero" (the latter solves d = bc/a from three draws).
    Ties b = c appear with probability ``B_EQ_C_PROB``.  Deterministic in
    (stream, index); rejection redraws are salted, never sequential.
    """
    accepted, zero, ln_lo, ln_span = _quad_setup(sign, tuple(bounds))
    exp = math.exp
    for attempt in range(MAX_REDRAWS):
        # each coordinate is exp(ln lo + u * ln span) with u = (w >> 11) * 2**-53;
        # the last word decides the tie b = c
        if zero:
            w0, w1, w2, tie = stream.words(index, 4, attempt)
            vals = [exp(ln_lo + (w0 >> 11) * _INV_2_53 * ln_span),
                    exp(ln_lo + (w1 >> 11) * _INV_2_53 * ln_span),
                    exp(ln_lo + (w2 >> 11) * _INV_2_53 * ln_span)]
        else:
            w0, w1, w2, w3, tie = stream.words(index, 5, attempt)
            vals = [exp(ln_lo + (w0 >> 11) * _INV_2_53 * ln_span),
                    exp(ln_lo + (w1 >> 11) * _INV_2_53 * ln_span),
                    exp(ln_lo + (w2 >> 11) * _INV_2_53 * ln_span),
                    exp(ln_lo + (w3 >> 11) * _INV_2_53 * ln_span)]
        vals.sort(reverse=True)
        a, b, c = vals[0], vals[1], vals[2]
        if (tie >> 11) * _INV_2_53 < B_EQ_C_PROB:
            c = b
        d = b * c / a if zero else vals[3]
        if not (a > b >= c > d > 0.0):
            continue
        quad = OrderedQuad(a, b, c, d)
        if quad.disc_class in accepted:
            return quad
    raise SamplingError(f"no valid quad for sign={sign!r} within {MAX_REDRAWS} redraws")


def sample_pair(stream: SampleStream, index: int, bounds=DEFAULT_RANGE,
                min_ratio: float = 1.0):
    """Draw a > b > 0 log-uniform over bounds with a/b >= min_ratio."""
    ln_lo, ln_span = _log_bounds(*bounds)
    for attempt in range(MAX_REDRAWS):
        w0, w1 = stream.words(index, 2, attempt)
        x = math.exp(ln_lo + (w0 >> 11) * _INV_2_53 * ln_span)
        y = math.exp(ln_lo + (w1 >> 11) * _INV_2_53 * ln_span)
        a, b = (x, y) if x > y else (y, x)
        if a > b and a / b >= min_ratio:
            return a, b
    raise SamplingError(f"no pair with ratio >= {min_ratio} within {MAX_REDRAWS} redraws")


def sample_exponent(stream: SampleStream, index: int, lo: float = -3.0,
                    hi: float = 3.0, min_dist: float = 1e-4, salt0: int = 0):
    """Uniform exponent in [lo, hi] staying min_dist away from 0 and -1."""
    for attempt in range(MAX_REDRAWS):
        (w,) = stream.words(index, 1, salt0 + 7919 * attempt)
        p = lo + (w >> 11) * _INV_2_53 * (hi - lo)
        if abs(p) >= min_dist and abs(p + 1.0) >= min_dist:
            return p
    raise SamplingError("no valid exponent within the redraw cap")


def sample_int(stream: SampleStream, index: int, lo: int, hi: int) -> int:
    """Integer uniform on [lo, hi], inclusive."""
    if hi < lo:
        raise ValueError("empty integer range")
    (w,) = stream.words(index, 1)
    return lo + w % (hi - lo + 1)


def sample_kyfan_values(stream: SampleStream, index: int, n: int):
    """n values uniform in (KYFAN_EPS, 1/2], deterministic in (stream, index)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # each word as floats_open turns it into u in (0, 1], then scaled, in one pass
    return [KYFAN_EPS + _KYFAN_SPAN * (((w >> 11) + 1) * _INV_2_53)
            for w in stream.words(index, n)]
