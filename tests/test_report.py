import math

import pytest

from meanineq.report import EQUALITY, HOLDS, VIOLATED, SlackReport, build_report, dumps
from meanineq.sweep import _Agg


class TestNanVerdicts:
    def test_nan_slack_is_violated_in_any_position(self):
        for slacks in ((1.0, math.nan), (math.nan, 1.0), (math.nan,)):
            rep = build_report("X", {}, ("s",) * len(slacks), slacks, "log_ratio")
            assert math.isnan(rep.margin), slacks
            assert rep.verdict == VIOLATED, slacks

    def test_nan_slack_on_equality_manifold_is_violated(self):
        for slacks in ((0.0, math.nan), (math.nan, 0.0)):
            rep = build_report("X", {}, ("lo", "hi"), slacks, "additive", scale=1.0,
                               on_equality_manifold=True)
            assert math.isnan(rep.margin)
            assert rep.verdict == VIOLATED

    def test_margin_property_is_nan_safe(self):
        rep = SlackReport("X", {}, ("lo", "hi"), (2.0, math.nan), "log_ratio", 1e-9, HOLDS)
        assert math.isnan(rep.margin)
        assert math.isnan(rep.to_dict()["margin"])

    def test_finite_verdicts_unchanged(self):
        assert build_report("X", {}, ("s", "t"), (1.0, 0.5), "log_ratio").verdict == HOLDS
        assert build_report("X", {}, ("s",), (-1.0,), "log_ratio").verdict == VIOLATED
        rep = build_report("X", {}, ("s",), (-1e-12,), "log_ratio",
                           on_equality_manifold=True)
        assert rep.verdict == EQUALITY
        assert rep.margin == -1e-12

    def test_nan_violated_sample_counts_and_echoes(self):
        agg = _Agg()
        agg.update(0, math.nan, VIOLATED, {"a": 1.0})
        agg.update(1, 0.5, HOLDS, {"a": 2.0})
        assert agg.violation_count == 1
        assert agg.samples_run == 2
        assert agg.violations[0]["sample_index"] == 0
        assert math.isnan(agg.violations[0]["margin"])
        assert agg.violations[0]["inputs"] == {"a": 1.0}

    def test_report_is_immutable(self):
        rep = build_report("X", {"a": 1.0}, ("s",), (1.0,), "log_ratio")
        with pytest.raises(AttributeError):
            rep.verdict = VIOLATED


class TestStrictJson:
    def test_non_finite_floats_become_their_repr(self):
        assert dumps([math.inf, -math.inf, math.nan]) == '["inf", "-inf", "nan"]'
        assert (dumps({"b": (1.5, math.inf), "a": {"x": -math.inf}})
                == '{"a": {"x": "-inf"}, "b": [1.5, "inf"]}')
