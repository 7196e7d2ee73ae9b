"""The streamed sweep path agrees with the public one-call-per-sample API.

The sweep passes sampled quads straight to the evaluators; every sample it
reports must match what ``catalog.evaluate(id, **inputs)`` gives for the
echoed inputs.  Every quad-arity id reads one shared quad per sample, and
every sequence id one shared n, yet each id's result is the same whichever
other ids its sweep holds.
"""

import csv
import hashlib
import json
import math

import pytest

from meanineq import catalog, kyfan, rng, sweep
from meanineq.report import EQUALITY, VIOLATED, dumps
from meanineq.rng import SampleStream
from meanineq.sweep import SweepConfig, run_kyfan_sweep, run_sweep

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


def test_quad_pq_echo_shows_quad_coordinates():
    stream = SampleStream(3, "echo")
    quad = rng.sample_quad(stream, 0)
    echo = catalog.ARITY_ECHO["quad_pq"](quad, 0.5, 2.0)
    assert echo == {**quad.as_dict(), "p": 0.5, "q": 2.0}
    assert list(echo) == ["a", "b", "c", "d", "p", "q"]


# --- sampling contract 3: an id's result does not depend on the id set -------

#: Three chunks; one id alone clears the pool floor at 2 workers.
CONTRACT_SAMPLES = 2100

#: sha256 of ``report.dumps`` of each id's result that draws apart from the
#: quad group in ``sweep --ids all --samples 2100``.  EQ6 and EQ10 keep the
#: draws sampling contract 1 gave them on their own streams, with the slacks
#: of their rows in h = ln(a/b)/2; EQ12 (its own (x, y) stream) and EQ15..EQ17
#: (one n per sample) carry contract 3's.  EQ10 and EQ12 re-pinned when
#: t/2 - tanh(t/2) took h u/(1 + u), u = h lambda'(h), below h = 0.3.
OWN_STREAM_PINS = {
    1: {"EQ6": "3d7c9a579a04898d6dcb71c35bbd5dafd064cac2ac3021646044b0ea5202fb08",
        "EQ10": "95bff4919cd791301a2b534839ad2a6338421502db3b734cc8924b45cf17476d",
        "EQ12": "667d9909bbe7279ef9b94952fbd6d359c1d6c085ae9993f4ad200b347ea125df",
        "EQ15": "ce08e6a126e6207aaa332c5ad6ff9b0e5f24e651c0bf259b887443eca3f317c0",
        "EQ16": "f18abebfd3cae589cfa36323f69a690e625b8ef3204df259526a081a06cbf7fa",
        "EQ17": "f4a6f3b3269f25603cff27abd0cf114eb30eb963c7998a2a82d7fda7af5ac1ff"},
    42: {"EQ6": "690c75738b34adf6644712d89e809cacd4d233ac415771cd9fc1a43bfc73a76b",
         "EQ10": "ade3f0b73903ef14260b660897288e96f0b27b9d7f7cbeaf66c73e30e33e6a02",
         "EQ12": "8fa265ea67badce3b7875d3fc7b8387b15ed7c72f07e2cc71857681cda92d019",
         "EQ15": "7e12bc70a754737ee8f426b2132bc84c1d79db8b18fd23367ccf54e984dfbef5",
         "EQ16": "1242be512624133038b2d8b2cf745a6e1d20901a8bb4e5f7a24c240b3888037c",
         "EQ17": "41b19a8bc4a81e4d237eb40f9f58ef16fc585f77f3cf2ffd65bfef2d0cdb1b3d"},
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


def test_eq12_over_the_whole_binary64_range():
    """EQ12 draws (x, y) within the sweep's bounds, so at bounds 1e+-300 no
    sample raises and none reads NaN.  EQ4 and SLOPE_3 still raise there, so
    EQ12's group is run chunk by chunk as the all-ids sweep lays it out."""
    config = SweepConfig(ids=("ALL",), samples=2000, seed=42, bounds=(1e-300, 1e300))
    pos = list(sweep._layout("catalog_sweep", config)).index("EQ12")
    total = sweep._Agg()
    for start in range(0, config.samples, sweep._CHUNK):
        total.merge(sweep._run_chunk(("catalog_sweep", config, pos, start, None))["EQ12"])
    # a NaN margin would read violated
    assert (total.samples_run, total.violation_count) == (config.samples, 0)
    assert 0.0 < total.min_margin < math.inf
    rep = run_sweep(config._replace(ids=("EQ12",)))
    assert (rep["results"]["EQ12"]["min_margin"], rep["total_violations"]) == (
        total.min_margin, 0)


# --- every echo is a valid input that reproduces its margin ------------------

@pytest.mark.parametrize("sign", ["any", "positive", "negative", "zero"])
@pytest.mark.parametrize("seed", [1, 42])
def test_argmin_inputs_reproduce_min_margin(seed, sign):
    rep = run_sweep(SweepConfig(ids=("ALL",), samples=500, seed=seed, sign=sign))
    for id, result in rep["results"].items():
        again = catalog.evaluate(id, **result["argmin_inputs"])
        assert repr(again.margin) == repr(result["min_margin"]), (id, result)


@pytest.mark.parametrize("seed", [1, 42])
def test_violation_echoes_reproduce_their_margins(seed):
    # at 1e+-30 EQ13 loses its smallest slacks to rounding
    rep = run_sweep(SweepConfig(ids=("EQ13", "EQ14"), samples=2000, seed=seed,
                                bounds=(1e-30, 1e30)))
    assert rep["total_violations"] > 0
    for id, result in rep["results"].items():
        echoes = [(v["inputs"], v["margin"]) for v in result["violations"]]
        for inputs, margin in echoes + [(result["argmin_inputs"], result["min_margin"])]:
            again = catalog.evaluate(id, **inputs)
            assert repr(again.margin) == repr(margin), (id, inputs)


@pytest.mark.parametrize("seed", [1, 42])
def test_kyfan_argmin_values_reproduce_min_margin(seed):
    rep = run_kyfan_sweep(SweepConfig(ids=(), samples=500, seed=seed))
    for id, result in rep["results"].items():
        inputs = result["argmin_inputs"]
        assert len(inputs["values"]) == inputs["n"]
        reports = kyfan.all_slacks(kyfan.compute_stats(kyfan.KyFanSample(inputs["values"])))
        assert repr(reports[id].margin) == repr(result["min_margin"]), id


# --- the chunk fold's edge cases ---------------------------------------------

#: Three chunks, the last of one sample; enough evaluations of one id for the
#: pool at two workers.
FOLD_SAMPLES = 2 * sweep._CHUNK + 1


def _plant(monkeypatch, id, row):
    """Sweep ``id`` through ``row`` in place of its own, here and in forked
    worker processes, which run at two workers on a 1-CPU machine too."""
    monkeypatch.setitem(catalog.REGISTRY, id, catalog.REGISTRY[id]._replace(row=row))
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)
    assert FOLD_SAMPLES >= 2 * sweep._POOL_FLOOR


@pytest.mark.parametrize("workers", [1, 2])
def test_a_constant_margin_keeps_the_first_index(monkeypatch, workers):
    _plant(monkeypatch, "EQ6", lambda a, b: ((0.5, 0.25), 1e-9, False))
    rep = run_sweep(SweepConfig(ids=("EQ6",), samples=FOLD_SAMPLES, seed=3, workers=workers))
    result = rep["results"]["EQ6"]
    assert (result["samples_run"], result["min_margin"], result["argmin_index"],
            result["argmin_margin_replay"]) == (FOLD_SAMPLES, 0.25, 0, 0.25)
    assert result["equality_cases"] == result["violation_count"] == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_a_nan_counts_violated_and_is_never_the_minimum(monkeypatch, workers):
    # NaN at the first and the last sample of the first chunk, equality at
    # every other sample
    config = SweepConfig(ids=("EQ6",), samples=FOLD_SAMPLES, seed=3, workers=workers)
    draw = sweep._group("catalog_sweep", config, 0).draw
    nans = {0: draw(0), sweep._CHUNK - 1: draw(sweep._CHUNK - 1)}
    _plant(monkeypatch, "EQ6", lambda a, b: (
        (1.0, math.nan if (a, b) in nans.values() else -1e-12), 1e-9, True))
    result = run_sweep(config)["results"]["EQ6"]
    assert result["samples_run"] == FOLD_SAMPLES
    assert (result["violation_count"], result["equality_cases"]) == (2, FOLD_SAMPLES - 2)
    assert [v["sample_index"] for v in result["violations"]] == list(nans)
    for violation in result["violations"]:
        assert math.isnan(violation["margin"])
        assert violation["inputs"] == dict(zip("ab", nans[violation["sample_index"]]))
    assert (result["min_margin"], result["argmin_index"], result["argmin_margin_replay"]) == (
        -1e-12, 1, -1e-12)


@pytest.mark.parametrize("workers", [1, 2])
def test_kyfan_ids_count_their_own_samples(monkeypatch, workers):
    # n = 1 draws a constant sample, which has rows for EQ18..EQ22 only
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)
    config = SweepConfig(samples=1100, seed=3, kyfan_n_range=(1, 3), workers=workers)
    assert config.samples * len(kyfan.KYFAN_IDS) >= 2 * sweep._POOL_FLOOR
    group = sweep._group("kyfan_sweep", config, 0)
    varied = sum(group.draw(i)[0] > 1 for i in range(config.samples))
    assert 0 < varied < config.samples
    rep = run_kyfan_sweep(config)
    assert {id: r["samples_run"] for id, r in rep["results"].items()} == {
        id: config.samples if id in kyfan.KYFAN_IDS[:5] else varied for id in kyfan.KYFAN_IDS}
    for id, result in rep["results"].items():
        assert result["argmin_margin_replay"] == result["min_margin"], id
