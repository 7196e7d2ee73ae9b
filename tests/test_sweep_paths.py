"""The streamed sweep path agrees with the public one-call-per-sample API.

The sweep passes sampled quads straight to the evaluators; every sample it
reports must match what ``catalog.evaluate(id, **inputs)`` gives for the
echoed inputs.
"""

import csv
import json

import pytest

from meanineq import catalog, rng, sweep
from meanineq.report import EQUALITY, VIOLATED, dumps
from meanineq.rng import SampleStream
from meanineq.sweep import SweepConfig, run_sweep

#: Just over one chunk, so the second chunk is a short tail.
SAMPLES = 1030
QUAD_IDS = tuple(id for id, e in catalog.REGISTRY.items() if e.arity in ("quad", "quad_pq"))
SEQ_IDS = ("EQ15", "EQ16", "EQ17")


def _sweep_with_rows(tmp_path, seed, workers):
    path = tmp_path / f"rows-{seed}-{workers}.csv"
    rep = run_sweep(SweepConfig(ids=("ALL",), samples=SAMPLES, seed=seed, workers=workers),
                    csv_path=str(path))
    rep.pop("wall_time_s")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rep, rows


@pytest.mark.parametrize("seed", [4, 77])
def test_sweep_matches_public_evaluate(tmp_path, seed):
    rep, rows = _sweep_with_rows(tmp_path, seed, 1)
    rep2, rows2 = _sweep_with_rows(tmp_path, seed, 2)
    assert dumps(rep2) == dumps(rep)
    assert rows2 == rows
    assert len(rows) == SAMPLES * len(catalog.INEQUALITY_IDS)

    by_id = {}
    for row in rows:
        by_id.setdefault(row["id"], []).append(row)
    for id, result in rep["results"].items():
        id_rows = by_id[id]
        assert [int(r["sample_index"]) for r in id_rows] == list(range(SAMPLES))
        margins, equality, violations = [], 0, 0
        for r in id_rows:
            inputs = json.loads(r["inputs"])
            again = catalog.evaluate(id, **inputs)
            assert repr(again.margin) == r["margin"], (id, r)
            assert again.verdict == r["verdict"], (id, r)
            margins.append(again.margin)
            equality += again.verdict == EQUALITY
            violations += again.verdict == VIOLATED
        lowest = min(margins)
        assert result["min_margin"] == lowest, id
        assert result["argmin_index"] == margins.index(lowest), id
        assert result["equality_cases"] == equality, id
        assert result["violation_count"] == violations, id
        assert dumps(result["argmin_inputs"]) == id_rows[result["argmin_index"]]["inputs"]
        assert result["argmin_margin_replay"] == result["min_margin"], id


def test_sequence_rows_match_scalar(monkeypatch, tmp_path):
    ns = (1, 2, 999, 1000, 10 ** 6)
    # place each n at many chunk positions, the short tail included
    monkeypatch.setattr(sweep, "_draw_n", lambda stream, index: ns[index % len(ns)])
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)
    outputs = []
    for workers in (1, 2):
        path = tmp_path / f"rows-{workers}.csv"
        rep = run_sweep(SweepConfig(ids=SEQ_IDS, samples=SAMPLES, workers=workers),
                        csv_path=str(path))
        rep.pop("wall_time_s")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == SAMPLES * len(SEQ_IDS)
        for row in rows:
            n = ns[int(row["sample_index"]) % len(ns)]
            assert json.loads(row["inputs"]) == {"n": n}
            again = catalog.evaluate(row["id"], n=n)
            assert row["margin"] == repr(again.margin), row
            assert row["verdict"] == again.verdict, row
        outputs.append((dumps(rep), rows))
    assert outputs[0] == outputs[1]


def test_one_quad_per_sample(monkeypatch):
    built = []
    real = rng.OrderedQuad

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rng, "OrderedQuad", counting)
    monkeypatch.setattr(catalog, "OrderedQuad", counting)
    samples = 300
    for id in QUAD_IDS:
        built.clear()
        rep = run_sweep(SweepConfig(ids=(id,), samples=samples, seed=11))
        assert rep["results"][id]["samples_run"] == samples
        # one per sample, plus the argmin replay
        assert len(built) == samples + 1, id


def test_public_inputs_echo_quad_coordinates():
    stream = SampleStream(3, "echo")
    quad = rng.sample_quad(stream, 0)
    inputs = {"quad": quad, "p": 0.5, "q": 2.0}
    assert sweep._public_inputs(inputs) == {**quad.as_dict(), "p": 0.5, "q": 2.0}
    assert list(sweep._public_inputs(inputs)) == ["a", "b", "c", "d", "p", "q"]
