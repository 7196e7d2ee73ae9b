"""Sweep CSV rows are what ``csv.writer`` writes, and a chunk never holds its rows.

A sweep formats its CSV rows as text.  Read back with ``csv.reader`` and
written again with ``csv.writer`` (minimal quoting, CRLF line ends), every
CSV must come out byte for byte the same, and each row's ``inputs`` must be
the echo of what its id read at that sample.  The checks read the bytes
themselves, so a quoting slip cannot hide behind a re-pinned hash.
"""

import csv
import io
import json
import math
import tracemalloc

import pytest

from meanineq import catalog, sweep
from meanineq.sweep import SweepConfig, run_kyfan_sweep, run_sweep

HEADER = ["id", "sample_index", "inputs", "margin", "verdict"]


def _checked_rows(path, kind, config):
    """The CSV's rows, after checking that csv.writer writes the file's exact
    bytes and that each row echoes its id's inputs at its sample."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    again = io.StringIO(newline="")
    csv.writer(again).writerows(rows)
    assert again.getvalue().encode() == path.read_bytes()

    header, *rows = rows
    assert header == HEADER
    groups = [sweep._group(kind, config, pos) for pos in range(len(sweep._layout(kind, config)))]
    owner = {id: group for group in groups for id in group.ids}
    drawn = {}
    for id, index, inputs, margin, verdict in rows:
        group = owner[id]
        key = (group.ids, int(index))
        if key not in drawn:
            drawn[key] = group.draw(int(index))
        echo, count = group.echoes[id]
        assert json.loads(inputs) == echo(*drawn[key][:count]), (id, index)
        assert repr(float(margin)) == margin
    return rows


@pytest.mark.parametrize("fields,verdicts", [
    (dict(ids=("ALL",), samples=300, seed=11), {"holds", "equality"}),
    # EQ13 reads violated on some samples at these bounds
    (dict(ids=("EQ13", "EQ14"), samples=500, seed=1, bounds=(1e-30, 1e30)),
     {"holds", "violated"}),
])
def test_catalog_csv_is_what_csv_writer_writes(tmp_path, fields, verdicts):
    config = SweepConfig(**fields)
    path = tmp_path / "rows.csv"
    run_sweep(config, csv_path=str(path))
    rows = _checked_rows(path, "catalog_sweep", config)
    assert len(rows) == config.samples * len(sweep.resolve_ids(config.ids))
    assert {row[4] for row in rows} == verdicts


def test_kyfan_csv_is_what_csv_writer_writes(tmp_path):
    config = SweepConfig(ids=(), samples=200, seed=7, kyfan_n_range=(2, 40))
    path = tmp_path / "rows.csv"
    run_kyfan_sweep(config, csv_path=str(path))
    rows = _checked_rows(path, "kyfan_sweep", config)
    assert len(rows) == 200 * 14


def test_non_finite_margins_are_written_as_their_repr(monkeypatch, tmp_path):
    slacks = {"EQ5": math.nan, "EQ8": math.inf, "EQ6": -math.inf}
    for id, slack in slacks.items():
        entry = catalog.REGISTRY[id]
        monkeypatch.setitem(catalog.REGISTRY, id, entry._replace(
            row=lambda *args, slack=slack: ((slack, slack), 1e-9, False)))
    config = SweepConfig(ids=tuple(slacks), samples=3, seed=2)
    path = tmp_path / "rows.csv"
    run_sweep(config, csv_path=str(path))
    rows = _checked_rows(path, "catalog_sweep", config)
    assert {(id, margin, verdict) for id, _, _, margin, verdict in rows} == {
        ("EQ5", "nan", "violated"), ("EQ8", "inf", "holds"), ("EQ6", "-inf", "violated")}


def test_chunk_rows_are_written_as_they_are_made(tmp_path):
    # 64 Ky Fan samples at n = 2000 make a part file of about 37 MB: a chunk
    # that buffered its rows before writing them would hold as much
    config = SweepConfig(ids=(), samples=64, seed=3, kyfan_n_range=(2000, 2000))
    part = tmp_path / "part.csv"
    tracemalloc.start()
    try:
        sweep._run_chunk(("kyfan_sweep", config, 0, 0, str(part)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = part.stat().st_size
    assert size > 30e6
    assert peak < size / 10, (peak, size)
