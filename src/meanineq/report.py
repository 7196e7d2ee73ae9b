"""Slack reports: the common result shape for every inequality check.

An inequality (or chain of inequalities) is evaluated as one slack value per
link.  Positive slack means the link holds with that margin; the report's
verdict collapses the margin against a tolerance:

* ``holds``     -- every link is nonnegative, clearing the tolerance or not
                   (strict inequalities have arbitrarily small positive
                   slacks near their equality manifolds, and those hold),
* ``equality``  -- the margin sits inside the tolerance band and the inputs
                   lie on (or near) the inequality's declared equality
                   manifold,
* ``violated``  -- a link is negative beyond tolerance, or negative within
                   tolerance without the equality manifold to explain it,
                   or a slack is NaN (the margin is then NaN too).

Each inequality's row supplies its slacks, its tolerance and its equality
predicate; ``build_report`` turns a row into a report and ``judge`` is the
one verdict rule, which a sweep also calls without building the report.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

#: Base verdict tolerance, from which each row derives its own: absolute for
#: log-ratio slacks, times the compared quantities' magnitude for additive ones.
TOL_V = 1e-9

HOLDS = "holds"
EQUALITY = "equality"
VIOLATED = "violated"


class HypothesisViolation(ValueError):
    """Inputs fail an inequality's hypothesis (distinct from a violated slack)."""


class SlackReport(NamedTuple):
    id: str
    inputs: dict
    links: tuple
    slacks: tuple
    domain: str            # "log_ratio" or "additive"
    tolerance: float
    verdict: str
    margin: float          # the smallest slack; NaN if any slack is NaN

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "inputs": dict(self.inputs),
            "links": list(self.links),
            "slacks": list(self.slacks),
            "margin": self.margin,
            "domain": self.domain,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())


def build_report(id, inputs, links, slacks, domain, tolerance, on_equality_manifold):
    """The SlackReport of a row: its float slacks, one per link name, its float
    tolerance and its equality predicate, with margin and verdict from ``judge``.

    The report keeps ``inputs`` itself, so each report needs a dict of its own.
    """
    if len(links) != len(slacks):
        raise ValueError("links and slacks length mismatch")
    margin, verdict = judge(slacks, tolerance, on_equality_manifold)
    # tuple.__new__ as _make calls it, without _make's Python frame
    return tuple.__new__(SlackReport, (id, inputs, links, slacks, domain, tolerance, verdict,
                                       margin))


def judge(slacks, tolerance, on_equality_manifold) -> tuple:
    """``(margin, verdict)`` of float slacks against a tolerance: the verdict rule.
    The margin is the smallest slack, NaN if any slack is NaN.

    A report's margin and verdict come from here, and so do a sweep's, which
    folds them without building the report.
    """
    # a finite sum has no NaN term, the common case; min() alone skips a NaN by order
    if 0.0 * sum(slacks) != 0.0 and any(map(math.isnan, slacks)):
        return math.nan, VIOLATED
    margin = min(slacks)
    if margin > tolerance:
        return margin, HOLDS
    if margin < -tolerance:
        return margin, VIOLATED
    if on_equality_manifold:
        return margin, EQUALITY
    return margin, HOLDS if margin >= 0.0 else VIOLATED


def _make_encode():
    """``json.dumps(obj, sort_keys=True, allow_nan=False)`` with the C encoder
    built once, where ``JSONEncoder.encode`` builds one per call; without the
    circular check, whose markers a non-finite float would leave set."""
    enc, make = json.JSONEncoder(sort_keys=True, allow_nan=False), json.encoder.c_make_encoder
    c_encode = make and make(None, enc.default, json.encoder.encode_basestring_ascii, None,
                             ": ", ", ", True, False, False)
    return enc.encode if c_encode is None else lambda obj: "".join(c_encode(obj, 0))


_encode = _make_encode()


def dumps(obj) -> str:
    """Serialize as strict JSON with sorted keys; floats use shortest round-trip
    form.  A non-finite float becomes the string ``"inf"``, ``"-inf"`` or
    ``"nan"``, its repr, as the CSV margin column writes it."""
    try:
        return _encode(obj)
    except ValueError:                  # a non-finite float somewhere: the rare case
        return _encode(_finite(obj))


def _finite(obj):
    """A copy of ``obj`` with each non-finite float replaced by its repr."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def check_finite_positive(name, x):
    if type(x) is float and 0.0 < x < math.inf:   # the common case, checked cheaply
        return x
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be a finite positive real, got {x!r}")
    return float(x)
