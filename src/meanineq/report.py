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

Tolerances follow the margin domain: ``log_ratio`` slacks are differences of
logarithms and get an absolute tolerance, ``additive`` slacks get a tolerance
scaled by the magnitude of the compared quantities.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

#: Base verdict tolerance: absolute in the log-ratio domain, multiplied by the
#: scale of the compared quantities in the additive domain.
TOL_V = 1e-9

HOLDS = "holds"
EQUALITY = "equality"
VIOLATED = "violated"


class HypothesisViolation(ValueError):
    """Inputs fail an inequality's hypothesis (distinct from a violated slack)."""


# A NamedTuple body cannot define __new__, so the seven-field SlackReport call
# that derives the margin sits in a subclass.  build_report, which has the
# margin at hand, skips it and calls tuple.__new__ as _make does, without
# _make's Python frame; _replace skips it too.
class _SlackReportFields(NamedTuple):
    id: str
    inputs: dict
    links: tuple
    slacks: tuple
    domain: str            # "log_ratio" or "additive"
    tolerance: float
    verdict: str
    margin: float          # the smallest slack; NaN if any slack is NaN


class SlackReport(_SlackReportFields):
    __slots__ = ()

    def __new__(cls, id, inputs, links, slacks, domain, tolerance, verdict):
        return super().__new__(cls, id, inputs, links, slacks, domain, tolerance, verdict,
                               _margin(slacks))

    def __getnewargs__(self):
        return self[:7]                  # pickle and copy rebuild through __new__

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


def _margin(slacks) -> float:
    """The smallest slack; NaN if any slack is NaN (plain min() skips them by order)."""
    if 0.0 * sum(slacks) == 0.0:        # a finite sum: no slack is NaN, the common case
        return min(slacks)
    if any(map(math.isnan, slacks)):
        return math.nan
    return min(slacks)


def build_report(id, inputs, links, slacks, domain, scale=1.0, on_equality_manifold=False,
                 tolerance=None):
    """Assemble a SlackReport, deriving the verdict from margin and tolerance.

    ``scale`` feeds the additive-domain tolerance; ``on_equality_manifold``
    is the inequality's own equality predicate evaluated on the inputs.
    The report keeps a copy of ``inputs``, so the caller may reuse its dict.
    """
    slacks = tuple(map(float, slacks))
    if type(links) is not tuple:
        links = tuple(links)
    if tolerance is None:
        tolerance = TOL_V if domain == "log_ratio" else TOL_V * max(scale, 0.0)
    return _owned_report(str(id), dict(inputs), links, slacks, domain, float(tolerance),
                         on_equality_manifold)


def _owned_report(id, inputs, links, slacks, domain, tolerance, on_equality_manifold):
    """A SlackReport that keeps ``inputs`` itself, for a caller that built the
    dict for this report alone.  The id is a str, links and slacks are tuples,
    and the slacks and tolerance are floats."""
    if len(links) != len(slacks):
        raise ValueError("links and slacks length mismatch")
    margin, verdict = judge(slacks, tolerance, on_equality_manifold)
    return tuple.__new__(SlackReport, (id, inputs, links, slacks, domain, tolerance, verdict,
                                       margin))


def judge(slacks, tolerance, on_equality_manifold) -> tuple:
    """``(margin, verdict)`` of float slacks against a tolerance: the verdict rule.

    A report's margin and verdict come from here, and so do a sweep's, which
    folds them without building the report.
    """
    margin = _margin(slacks)
    if margin != margin:
        return margin, VIOLATED
    if margin > tolerance:
        return margin, HOLDS
    if margin < -tolerance:
        return margin, VIOLATED
    if on_equality_manifold:
        return margin, EQUALITY
    return margin, HOLDS if margin >= 0.0 else VIOLATED


def dumps(obj) -> str:
    """Serialize as strict JSON with sorted keys; floats use shortest round-trip
    form.  A non-finite float becomes the string ``"inf"``, ``"-inf"`` or
    ``"nan"``, its repr, as the CSV margin column writes it."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError:                  # a non-finite float somewhere: the rare case
        return json.dumps(_finite(obj), sort_keys=True, allow_nan=False)


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
