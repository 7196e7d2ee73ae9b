"""The streamed sweep path agrees with the public one-call-per-sample API.

The sweep passes sampled quads straight to the evaluators; every sample it
reports must match what ``catalog.evaluate(id, **inputs)`` gives for the
echoed inputs.  Every quad-arity id reads one shared draw per sample, yet
each id's result is the same whichever other ids its sweep holds.
"""

import csv
import hashlib
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
    # every quad-arity id reads the same quad: one per sample in all, plus one
    # per distinct argmin of those ids, not one per (id, sample)
    built.clear()
    rep = run_sweep(SweepConfig(ids=("ALL",), samples=samples, seed=11))
    replays = {rep["results"][id]["argmin_index"] for id in QUAD_IDS}
    assert len(built) == samples + len(replays)
    assert len(set(built)) == samples


def test_public_inputs_echo_quad_coordinates():
    stream = SampleStream(3, "echo")
    quad = rng.sample_quad(stream, 0)
    inputs = {"quad": quad, "p": 0.5, "q": 2.0}
    assert sweep._public_inputs(inputs) == {**quad.as_dict(), "p": 0.5, "q": 2.0}
    assert list(sweep._public_inputs(inputs)) == ["a", "b", "c", "d", "p", "q"]


# --- sampling contract 2: an id's result does not depend on the id set -------

#: Three chunks; one id alone clears the pool floor at 2 workers.
CONTRACT_SAMPLES = 2100

#: sha256 of ``report.dumps`` of each pair and sequence id's result in
#: ``sweep --ids all --samples 2100``, as sampling contract 1 gave them: those
#: ids keep their own streams, so contract 2 leaves them byte for byte.
OWN_STREAM_PINS = {
    1: {"EQ6": "5f697e45dfc2ffdee0e070f1b784142e1cb3adac6be38bbd4dcb582457c1fee5",
        "EQ10": "2fce1f177e3b0f64b1f396ad09504b37ff973e5c239ddec71e5117ddc42dfe4b",
        "EQ15": "a294ef255a5a86694d6a0dc7203b9ea7219362d906f07033834883d05b9bca1e",
        "EQ16": "75cf6b0e41b86f1b3de2d0495d351eff0a5cdff0b63738f38eef4ea9963ed82a",
        "EQ17": "24c2f50ca759304e262cf05d0028665fee450c96a7307b4dde24817eb0123853"},
    42: {"EQ6": "7e5593f98d3085fecf25959a368a22a29bc5949390457b0447514bf70e4a443e",
         "EQ10": "4121b1647c879d060a2941e9a37117c82bca0c031d99a3f12cd244f0498b4cdc",
         "EQ15": "f7aebfa39b5a29273a54920aa47ef7e67b1527ad86a34bbb435dfc98c7a6fbae",
         "EQ16": "c2c3cb082620ef359e5b3ac422cebf6ddad947f07be50f8bbf1c6647e4bb2147",
         "EQ17": "cda343ae1aa15cefa65939e816ae89cb9f594e39e1837459a9cd08d14e08cd63"},
}


@pytest.mark.parametrize("seed", [1, 42])
def test_result_independent_of_the_id_set(monkeypatch, seed):
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)   # the pool on a 1-CPU machine too
    config = SweepConfig(ids=("ALL",), samples=CONTRACT_SAMPLES, seed=seed)
    full = {workers: run_sweep(config._replace(workers=workers))["results"]
            for workers in (1, 2)}
    assert dumps(full[1]) == dumps(full[2])
    assert list(full[1]) == list(catalog.INEQUALITY_IDS)
    for id, entry in catalog.REGISTRY.items():
        for workers in (1, 2):
            alone = run_sweep(config._replace(ids=(id,), workers=workers))["results"]
            assert list(alone) == [id]
            assert dumps(alone[id]) == dumps(full[workers][id]), (id, workers)
        # each id echoes its own arity's inputs only: no p, q beside a quad id
        assert list(full[1][id]["argmin_inputs"]) == list(catalog.ARITY_INPUTS[entry.arity])
    for id, sha in OWN_STREAM_PINS[seed].items():
        assert hashlib.sha256(dumps(full[1][id]).encode()).hexdigest() == sha, id


def test_quad_ids_share_one_quad_and_echo_their_own_inputs(monkeypatch, tmp_path):
    # EQ5 made to fail on every sample, so that its violations are echoed
    entry = catalog.REGISTRY["EQ5"]
    monkeypatch.setitem(catalog.REGISTRY, "EQ5",
                        entry._replace(row=lambda quad: ((-1.0, -1.0), 1e-9, False)))
    path = tmp_path / "rows.csv"
    samples = 40
    rep = run_sweep(SweepConfig(ids=("EQ13", "EQ6", "EQ5"), samples=samples, seed=1),
                    csv_path=str(path))
    assert list(rep["results"]) == ["EQ13", "EQ6", "EQ5"]
    eq5 = rep["results"]["EQ5"]
    assert eq5["violation_count"] == samples and len(eq5["violations"]) == 10
    for echo in [eq5["argmin_inputs"]] + [v["inputs"] for v in eq5["violations"]]:
        assert list(echo) == ["a", "b", "c", "d"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # the quad group's rows come sample-major, before the pair id's own group
    assert [r["id"] for r in rows] == ["EQ13", "EQ5"] * samples + ["EQ6"] * samples
    for eq13, eq5_row in zip(rows[0:2 * samples:2], rows[1:2 * samples:2]):
        inputs13, inputs5 = json.loads(eq13["inputs"]), json.loads(eq5_row["inputs"])
        assert list(inputs13) == ["a", "b", "c", "d", "p", "q"]
        assert inputs5 == {k: inputs13[k] for k in "abcd"}
