"""One inequality table and one sweep driver.

Every catalog id resolves, validates its named inputs and reports missing
ones through its ``REGISTRY`` row; catalog and Ky Fan sweeps run through the
same driver, which draws once per (group, sample) plus once per distinct
argmin replay of the group: every quad-arity id of a catalog sweep reads one
shared quad, every sequence id one shared n whose link values are computed
once, and every pair or xy id draws from its own stream; a catalog sweep
calls each id's ``InequalityEntry.row`` and a Ky Fan sweep ``kyfan._rows``
once per sample and per replay, and neither builds a report.
"""

import json
import os
from collections import Counter

import pytest

from meanineq import catalog, kyfan, sweep
from meanineq.cli import main
from meanineq.report import HypothesisViolation
from meanineq.rng import SampleStream
from meanineq.sweep import SweepConfig, run_kyfan_sweep, run_sweep

VALID = {
    "quad": {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0},
    "quad_pq": {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0, "p": 2.0, "q": 3.0},
    "pair": {"a": 4.0, "b": 2.0},
    "xy": {"x": 3.0, "y": 2.0},
    "seq_n": {"n": 3},
}
NAMES = {"quad": "a, b, c, d", "quad_pq": "a, b, c, d, p, q", "pair": "a, b",
         "xy": "x, y (or a, b, c, d)", "seq_n": "n"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _flags(inputs):
    return [tok for k, v in inputs.items() for tok in (f"--{k}", str(v))]


# --- the kyfan-sweep crash on ids that get no sample -------------------------

def test_kyfan_ids_without_samples_report_null(capsys, tmp_path):
    out = tmp_path / "kf.json"
    code, _, err = run_cli(capsys, "kyfan-sweep", "--samples", "5", "--n-min", "1",
                           "--n-max", "1", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "Infinity" not in text
    rep = json.loads(text)
    assert list(rep["results"]) == list(kyfan.KYFAN_IDS)
    empty = [id for id, r in rep["results"].items() if r["samples_run"] == 0]
    assert empty == [f"EQ{k}" for k in range(23, 32)]   # strict: skip constant samples
    for id, r in rep["results"].items():
        if id in empty:
            assert (r["min_margin"], r["argmin_index"], r["argmin_inputs"],
                    r["argmin_margin_replay"]) == (None, -1, None, None)
            assert f"{id}: samples=0 min_margin=none " in err
        else:
            assert r["samples_run"] == 5
            assert r["argmin_margin_replay"] == r["min_margin"]


def test_kyfan_ids_with_fewer_samples_replay():
    rep = run_kyfan_sweep(SweepConfig(samples=300, seed=2, kyfan_n_range=(1, 2)))
    runs = {r["samples_run"] for r in rep["results"].values()}
    assert 300 in runs and min(runs) < 300
    for r in rep["results"].values():
        assert r["argmin_margin_replay"] == r["min_margin"]
        assert r["argmin_inputs"]["n"] == 2 or r["samples_run"] == 300


# --- one id-resolution rule --------------------------------------------------

def test_ineq_check_id_in_any_case(capsys):
    quad = _flags(VALID["quad"])
    code, upper, _ = run_cli(capsys, "ineq-check", "--id", "EQ5", *quad)
    assert code == 0
    code, lower, _ = run_cli(capsys, "ineq-check", "--id", "eq5", *quad)
    assert code == 0 and lower == upper
    code, out, _ = run_cli(capsys, "ineq-check", "--id", "slope_3", *quad)
    assert code == 0 and json.loads(out)["id"] == "SLOPE_3"


def test_unknown_id_message_is_shared(capsys):
    messages = []
    for call in (lambda: catalog.evaluate("EQ7"), lambda: sweep.resolve_ids(["EQ7"]),
                 lambda: catalog.lookup("EQ7")):
        with pytest.raises(KeyError) as info:
            call()
        messages.append(str(info.value))
    assert len(set(messages)) == 1 and "valid ids: EQ4, EQ5" in messages[0]
    for argv in (("ineq-check", "--id", "EQ7"), ("sweep", "--ids", "EQ7")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and messages[0] in err


# --- consistent missing-input errors ----------------------------------------

@pytest.mark.parametrize("id", catalog.INEQUALITY_IDS)
def test_missing_input_is_a_hypothesis_violation(capsys, id):
    entry = catalog.REGISTRY[id]
    valid = VALID[entry.arity]
    assert catalog.evaluate(id, **valid).id == id
    names = NAMES[entry.arity]
    for drop in [None, *valid]:
        inputs = {} if drop is None else {k: v for k, v in valid.items() if k != drop}
        with pytest.raises(HypothesisViolation) as info:
            catalog.evaluate(id, **inputs)
        assert str(info.value) == f"{id} requires inputs {names}"
        code, out, err = run_cli(capsys, "ineq-check", "--id", id, *_flags(inputs))
        assert code == 2 and out == "" and str(info.value) in err


def test_eq12_xy_form(capsys):
    code, out, _ = run_cli(capsys, "ineq-check", "--id", "EQ12", "--x", "3", "--y", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["inputs"] == {"x": 3.0, "y": 2.0} and rep["verdict"] == "holds"
    # a quad reads as x = ab, y = cd
    quad = catalog.evaluate("EQ12", **VALID["quad"])
    assert quad.inputs == {"x": 12.0, "y": 2.0}
    assert quad.to_dict() == catalog.evaluate("EQ12", x=12.0, y=2.0).to_dict()
    with pytest.raises(HypothesisViolation) as info:
        catalog.evaluate("EQ12", a=4.0, b=3.0, c=2.0, x=3.0)
    assert str(info.value) == "EQ12 requires inputs x, y (or a, b, c, d)"


# --- the seams a sweep calls per sample -------------------------------------

SAMPLERS = ("sample_quad", "sample_pair", "sample_exponent", "sample_int",
            "sample_kyfan_values")


@pytest.fixture
def seams(monkeypatch):
    """Call counters on every wrapped name: (sampler, stream, index), ("row",
    id), ("evaluate", id), ("report", id) and (kyfan function,)."""
    calls = Counter()

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key(*args)] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in SAMPLERS:
        monkeypatch.setattr(sweep, name, counted(getattr(sweep, name),
                                                 lambda s, i, *_, n=name: (n, s.stream, i)))
    for id, entry in catalog.REGISTRY.items():
        monkeypatch.setitem(catalog.REGISTRY, id, entry._replace(
            row=counted(entry.row, lambda *_, id=id: ("row", id))))
    for name in ("evaluate", "report"):
        monkeypatch.setattr(catalog.InequalityEntry, name,
                            counted(getattr(catalog.InequalityEntry, name),
                                    lambda entry, *_, n=name: (n, entry.id)))
    for name in ("compute_stats", "_rows", "all_slacks"):
        monkeypatch.setattr(kyfan, name, counted(getattr(kyfan, name), lambda _, n=name: (n,)))
    return calls


def _expected(label, seed, samples, replays, per_sample=1):
    stream = SampleStream(seed, label).stream
    out = Counter({(stream, i): per_sample for i in range(samples)})
    out.update({(stream, i): per_sample for i in replays})
    return out


def _by_stream(calls, name):
    return Counter({key[1:]: n for key, n in calls.items() if key[0] == name})


QUAD_IDS = tuple(id for id, e in catalog.REGISTRY.items() if e.arity in ("quad", "quad_pq"))
SEQ_IDS = tuple(id for id, e in catalog.REGISTRY.items() if e.arity == "seq_n")


def _argmins(rep, ids):
    """The distinct argmin indices of a group's ids: each is replayed once."""
    return sorted({rep["results"][id]["argmin_index"] for id in ids})


def _catalog_draws(rep, seed, samples):
    """sampler -> Counter of (stream, index) that an all-ids sweep draws: one
    quad and one (p, q) on the shared quad streams per sample and per distinct
    quad argmin, and each pair or xy id's own stream per sample and its
    argmin.  The sequence ids' n comes from ``SampleStream.floats``, which is
    not a sampler."""
    want = {name: Counter() for name in SAMPLERS}
    replays = _argmins(rep, QUAD_IDS)
    want["sample_quad"] = _expected("catalog/quad", seed, samples, replays)
    want["sample_exponent"] = _expected("catalog/quad/exponents", seed, samples, replays,
                                        per_sample=2)
    for id, entry in catalog.REGISTRY.items():
        if entry.arity in ("pair", "xy"):
            want["sample_pair"] += _expected(f"catalog/{id}", seed, samples,
                                             [rep["results"][id]["argmin_index"]])
    return want


@pytest.mark.parametrize("workers", [1, 2])
def test_catalog_sweep_seams(seams, monkeypatch, workers):
    samples, seed = 40, 5
    links, real_links = [], catalog.sequence_link_values
    monkeypatch.setattr(catalog, "sequence_link_values",
                        lambda n: links.append(n) or real_links(n))
    monkeypatch.setattr(catalog, "_last_links", (None, ()))   # no n kept from another test
    rep = run_sweep(SweepConfig(ids=("ALL",), samples=samples, seed=seed, workers=workers))
    replays = {id: len(_argmins(rep, QUAD_IDS)) for id in QUAD_IDS}
    replays.update(dict.fromkeys(SEQ_IDS, len(_argmins(rep, SEQ_IDS))))
    for id in catalog.REGISTRY:
        # its row runs once per sample and per replay of its group; no report is built
        assert seams["row", id] == samples + replays.get(id, 1), id
        assert seams["evaluate", id] == seams["report", id] == 0, id
    want = _catalog_draws(rep, seed, samples)
    for name in SAMPLERS:
        assert _by_stream(seams, name) == want[name], name
    assert seams["compute_stats",] == seams["_rows",] == seams["all_slacks",] == 0
    # one n per sample and per replay of the sequence group, its link values
    # computed once for the three ids, and again only where n changes
    stream = SampleStream(seed, "catalog/seq_n")
    ns = [sweep._draw_n(stream, i) for i in [*range(samples), *_argmins(rep, SEQ_IDS)]]
    assert links == [n for k, n in enumerate(ns) if k == 0 or n != ns[k - 1]]
    # without a quad_pq id the quad group draws no p and q
    seams.clear()
    run_sweep(SweepConfig(ids=("EQ5", "EQ14"), samples=samples, seed=seed, workers=workers))
    assert sum(_by_stream(seams, "sample_quad").values()) > samples
    assert not _by_stream(seams, "sample_exponent")


@pytest.mark.parametrize("workers", [1, 2])
def test_kyfan_sweep_seams(seams, workers):
    samples, seed = 40, 6
    rep = run_kyfan_sweep(SweepConfig(samples=samples, seed=seed, workers=workers))
    argmins = sorted({r["argmin_index"] for r in rep["results"].values()})
    assert _by_stream(seams, "sample_int") == _expected("kyfan/n", seed, samples, argmins)
    assert (_by_stream(seams, "sample_kyfan_values")
            == _expected("kyfan/values", seed, samples, argmins))
    # the sweep judges the table's rows and builds no SlackReport
    assert seams["compute_stats",] == seams["_rows",] == samples + len(argmins)
    assert seams["all_slacks",] == 0
    assert not any(key[0] in ("row", "evaluate", "report") for key in seams)
    for name in ("sample_quad", "sample_pair", "sample_exponent"):
        assert not _by_stream(seams, name)


def test_catalog_sweep_draws_in_worker_processes(monkeypatch, tmp_path):
    """Above the pool floor the chunks draw in worker processes, which a
    counter in this process cannot see, so each draw is logged to a file."""
    samples, seed = 2100, 5
    assert samples * len(catalog.INEQUALITY_IDS) >= 2 * sweep._POOL_FLOOR
    log = tmp_path / "draws.log"

    def logged(fn, name):
        def wrapper(stream, index, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()} {stream.stream} {index}\n")
            return fn(stream, index, *args, **kwargs)
        return wrapper

    for name in SAMPLERS:
        monkeypatch.setattr(sweep, name, logged(getattr(sweep, name), name))
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)   # the same on a 1-CPU machine
    rep = run_sweep(SweepConfig(ids=("ALL",), samples=samples, seed=seed, workers=2))

    seen = {name: Counter() for name in SAMPLERS}
    pids = set()
    for line in log.read_text().splitlines():
        name, pid, stream, index = line.split()
        seen[name][int(stream), int(index)] += 1
        pids.add(int(pid))
    for id in catalog.REGISTRY:
        assert rep["results"][id]["argmin_margin_replay"] == rep["results"][id]["min_margin"]
    want = _catalog_draws(rep, seed, samples)
    for name in SAMPLERS:
        assert seen[name] == want[name], name
    assert len(pids - {os.getpid()}) >= 2
