import json
import math
import pickle

import pytest

from meanineq import catalog, report, sweep
from meanineq.report import (EQUALITY, HOLDS, VIOLATED, SlackReport, build_report, dumps,
                             judge)


class TestNanVerdicts:
    def test_nan_slack_is_violated_in_any_position(self):
        for slacks in ((1.0, math.nan), (math.nan, 1.0), (math.nan,)):
            rep = build_report("X", {}, ("s",) * len(slacks), slacks, "log_ratio", 1e-9, False)
            assert math.isnan(rep.margin), slacks
            assert rep.verdict == VIOLATED, slacks

    def test_nan_slack_on_equality_manifold_is_violated(self):
        for slacks in ((0.0, math.nan), (math.nan, 0.0)):
            rep = build_report("X", {}, ("lo", "hi"), slacks, "additive", 1e-9, True)
            assert math.isnan(rep.margin)
            assert rep.verdict == VIOLATED

    def test_finite_verdicts_unchanged(self):
        assert build_report("X", {}, ("s", "t"), (1.0, 0.5), "log_ratio", 1e-9,
                            False).verdict == HOLDS
        assert build_report("X", {}, ("s",), (-1.0,), "log_ratio", 1e-9, False).verdict == VIOLATED
        rep = build_report("X", {}, ("s",), (-1e-12,), "log_ratio", 1e-9, True)
        assert rep.verdict == EQUALITY
        assert rep.margin == -1e-12

    def test_nan_violated_sample_counts_and_echoes(self, monkeypatch):
        # a row that reads NaN at sample 0 and holds at sample 1, judged and
        # folded by a sweep's chunk
        config = sweep.SweepConfig(ids=("EQ6",), samples=2, seed=0)
        first = sweep._group("catalog_sweep", config, 0).draw(0)

        def row(a, b):
            return (math.nan if (a, b) == first else 0.5,), 1e-9, False

        margin, verdict = judge(*row(*first))
        assert math.isnan(margin) and verdict == VIOLATED
        entry = catalog.REGISTRY["EQ6"]
        monkeypatch.setitem(catalog.REGISTRY, "EQ6", entry._replace(row=row))
        agg = sweep._run_chunk(("catalog_sweep", config, 0, 0, None))["EQ6"]
        assert agg.violation_count == 1
        assert agg.samples_run == 2
        assert agg.violations[0]["sample_index"] == 0
        assert math.isnan(agg.violations[0]["margin"])
        assert agg.violations[0]["inputs"] == {"a": first[0], "b": first[1]}
        assert (agg.min_margin, agg.argmin_index) == (0.5, 1)

    def test_report_is_immutable(self):
        rep = build_report("X", {"a": 1.0}, ("s",), (1.0,), "log_ratio", 1e-9, False)
        with pytest.raises(AttributeError):
            rep.verdict = VIOLATED


@pytest.mark.parametrize("slacks,tolerance,manifold,verdict", [
    ((2.0, 1.5), 1.0, False, HOLDS),               # clear of the tolerance
    ((-2.0, 1.5), 1.0, True, VIOLATED),            # below it, manifold or not
    ((0.5,), 1.0, False, HOLDS),                   # inside it, nonnegative
    ((-0.5,), 1.0, False, VIOLATED),               # inside it, negative, no manifold
    ((-0.5, 3.0), 1.0, True, EQUALITY),            # inside it, on the manifold
    ((0.0,), 0.0, True, EQUALITY),
    ((1.0, math.nan), 1.0, False, VIOLATED),
    ((math.nan,), 1.0, True, VIOLATED),
])
def test_judge_is_the_verdict_rule(slacks, tolerance, manifold, verdict):
    margin, got = judge(slacks, tolerance, manifold)
    assert got == verdict
    assert repr(margin) == repr(math.nan if any(map(math.isnan, slacks)) else min(slacks))
    rep = build_report("X", {}, ("s",) * len(slacks), slacks, "log_ratio", tolerance, manifold)
    assert (repr(rep.margin), rep.verdict) == (repr(margin), got)


class TestStoredMargin:
    """build_report stores judge's margin: the minimum slack, NaN if any is NaN."""

    CASES = {
        "inf,-inf": (math.inf, -math.inf),
        "nan first": (math.nan, 1.0, -2.0),
        "nan middle": (1.0, math.nan, -2.0),
        "nan last": (1.0, -2.0, math.nan),
        "single": (0.25,),
        "equal": (-3.5, -3.5, -3.5),
        "finite": (0.5, -1e-300, 2.0),
    }

    @staticmethod
    def _build(slacks):
        links = tuple(f"s{k}" for k in range(len(slacks)))
        return build_report("X", {"a": 1.0}, links, slacks, "log_ratio", 1e-9, False)

    @pytest.mark.parametrize("name", CASES)
    def test_margin_is_the_nan_propagating_minimum(self, name):
        slacks = self.CASES[name]
        built = self._build(slacks)
        margin, verdict = judge(slacks, 1e-9, False)
        assert (repr(built.margin), built.verdict) == (repr(margin), verdict)
        if any(map(math.isnan, slacks)):
            assert math.isnan(built.margin)
            assert math.isnan(built.to_dict()["margin"])
            assert built.verdict == VIOLATED
        else:
            assert repr(built.margin) == repr(min(slacks))

    def test_to_dict_keeps_its_keys(self):
        built = self._build((1.0, 0.5))
        assert list(built.to_dict()) == ["id", "inputs", "links", "slacks", "margin",
                                         "domain", "tolerance", "verdict"]
        assert built.to_dict()["margin"] == 0.5

    def test_links_and_slacks_must_pair(self):
        with pytest.raises(ValueError, match="length mismatch"):
            build_report("X", {}, ("s", "t"), (1.0,), "log_ratio", 1e-9, False)

    def test_survives_pickle(self):
        for slacks in ((1.0, 0.5), (1.0, math.nan)):
            built = self._build(slacks)
            copy = pickle.loads(pickle.dumps(built))
            assert type(copy) is SlackReport
            assert copy.to_json() == built.to_json()


class TestStrictJson:
    def test_non_finite_floats_become_their_repr(self):
        assert dumps([math.inf, -math.inf, math.nan]) == '["inf", "-inf", "nan"]'
        assert (dumps({"b": (1.5, math.inf), "a": {"x": -math.inf}})
                == '{"a": {"x": "-inf"}, "b": [1.5, "inf"]}')

    #: Objects whose bytes ``dumps`` must keep: nested, unsorted, escaped,
    #: extreme floats, and non-finite ones.
    SAMPLES = ({"d": 1e-17, "a": 4.123456789, "c": 2.5, "b": 3e-300},
               {"x": [1.5, 'q"\\é\n', None, True, {"z": 1, "a": [2, 1.7976931348623157e308]}]},
               "plain", -0.0, 10 ** 30, [], (1, 2.0), {1: 2, 3: {}},
               {"id": "EQ4", "slacks": [math.inf], "inputs": {"a": 5e-324}})

    @staticmethod
    def _reference(obj):
        try:
            return json.dumps(obj, sort_keys=True, allow_nan=False)
        except ValueError:
            return json.dumps(report._finite(obj), sort_keys=True, allow_nan=False)

    def test_same_bytes_as_json_dumps(self):
        for obj in self.SAMPLES:
            assert dumps(obj) == self._reference(obj), obj
        # the encoder built once keeps no state from a non-finite float that raised
        assert dumps({"a": [1.0, {"b": math.nan}]}) == '{"a": [1.0, {"b": "nan"}]}'
        assert dumps({"a": [1.0, {"b": 2.0}]}) == '{"a": [1.0, {"b": 2.0}]}'
        with pytest.raises(TypeError):
            dumps({"a": object()})

    def test_without_the_c_encoder(self, monkeypatch):
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        encode = report._make_encode()
        for obj in self.SAMPLES:
            try:
                got = encode(obj)
            except ValueError:
                got = encode(report._finite(obj))
            assert got == self._reference(obj), obj
