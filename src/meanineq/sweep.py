"""Sweep execution: run catalog or Ky Fan checks over deterministic samples.

A sweep evaluates a set of inequality ids over counter-based random inputs
and aggregates, per id: the number of samples, the minimum margin with the
inputs that attained it, equality cases, and any violations.  Aggregation is
an order-independent reduction (minimum with lowest-sample-index tie-break),
so reports are byte-identical for any worker count; re-evaluating the
reported argmin inputs reproduces the minimum margin bit-for-bit.

Samples are streamed: each is drawn, evaluated, folded into the aggregate and
dropped before the next.  The sampled quad goes to the evaluator as is; the
echoed input dict is built only where a report or CSV row shows it.  Sequence
ids draw a chunk's n values first and evaluate all their links in one
vectorised ``sequence_link_values`` call, then build each sample's report
from its row; the argmin replay takes the scalar path.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import catalog, kyfan
from .report import EQUALITY, VIOLATED, dumps
from .rng import (DEFAULT_RANGE, SampleStream, _log_bounds, sample_exponent, sample_int,
                  sample_kyfan_values, sample_pair, sample_quad)

__all__ = ["SweepConfig", "run_sweep", "run_kyfan_sweep", "resolve_ids",
           "WORKERS_ENV"]

#: Environment variable supplying the default worker count.
WORKERS_ENV = "MEANINEQ_WORKERS"

_CHUNK = 1024
_MAX_VIOLATION_ECHOES = 10

#: Sequence entries draw n log-uniform over this range.
SEQ_N_RANGE = (1, 10 ** 6)
_SEQ_LN_LO, _SEQ_LN_SPAN = _log_bounds(*SEQ_N_RANGE)


def default_workers() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class SweepConfig:
    ids: tuple = ("ALL",)
    samples: int = 1000
    seed: int = 0
    sign: str = "any"                    # quad discriminant constraint
    bounds: tuple = DEFAULT_RANGE        # log-uniform coordinate bounds
    kyfan_n_range: tuple = (2, 20)
    tolerance: float | None = None       # when set, a sample counts as a
                                         # violation iff margin < -tolerance
    workers: int | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not (0.0 < self.bounds[0] < self.bounds[1]):
            raise ValueError("bounds lower bound must be positive and below the upper")

    def to_dict(self) -> dict:
        return {
            "ids": list(self.ids), "samples": self.samples, "seed": self.seed,
            "sign": self.sign, "bounds": list(self.bounds),
            "kyfan_n_range": list(self.kyfan_n_range),
            "tolerance": self.tolerance,
        }


def resolve_ids(ids) -> tuple:
    if isinstance(ids, str):
        ids = [ids]
    out = []
    for id in ids:
        token = id.strip().upper()
        if token == "ALL":
            out.extend(catalog.INEQUALITY_IDS)
        elif token in catalog.REGISTRY:
            out.append(token)
        else:
            raise KeyError(f"unknown inequality id {id!r}; valid ids: "
                           f"{', '.join(catalog.INEQUALITY_IDS)} (or ALL)")
    seen = {}
    for id in out:
        seen.setdefault(id, None)
    return tuple(seen)


def _draw_n(stream, index):
    # log-uniform integer so every decade of n is exercised
    lo, hi = SEQ_N_RANGE
    u = stream.floats(index, 1)[0]
    n = int(round(math.exp(_SEQ_LN_LO + u * _SEQ_LN_SPAN)))
    return max(lo, min(hi, n))


def _draw_inputs(entry, stream, pstream, index, config):
    """Evaluator keyword arguments for one sample; a sampled quad goes as ``quad``."""
    if entry.arity == "quad":
        return {"quad": sample_quad(stream, index, sign=config.sign, bounds=config.bounds)}
    if entry.arity == "quad_pq":
        quad = sample_quad(stream, index, sign=config.sign, bounds=config.bounds)
        p = sample_exponent(pstream, index, salt0=1)
        q = sample_exponent(pstream, index, salt0=2)
        return {"quad": quad, "p": p, "q": q}
    if entry.arity == "pair":
        min_ratio = catalog.EQ10_MIN_RATIO if entry.id == "EQ10" else 1.0
        a, b = sample_pair(stream, index, bounds=config.bounds, min_ratio=min_ratio)
        return {"a": a, "b": b}
    if entry.arity == "seq_n":
        return {"n": _draw_n(stream, index)}
    raise AssertionError(f"unhandled arity {entry.arity}")


def _sequence_draws(stream, indices):
    """Evaluator keyword arguments for a chunk of sequence samples.

    The chunk's n values go through sequence_link_values in one call; each
    sample then carries its own row of the seven link values (a view into
    one array, which holds less memory than a Python float per value).
    """
    ns = [_draw_n(stream, index) for index in indices]
    rows = np.stack(catalog.sequence_link_values(np.array(ns, dtype=float)), axis=1)
    for n, row in zip(ns, rows):
        yield {"n": n, "row": row}


def _public_inputs(inputs):
    """The inputs as reports and CSV rows echo them: the quad's coordinates in
    place of the quad, and no precomputed sequence row."""
    out = inputs["quad"].as_dict() if "quad" in inputs else {}
    out.update((k, v) for k, v in inputs.items() if k not in ("quad", "row"))
    return out


@dataclass
class _Agg:
    tolerance: float | None = None
    samples_run: int = 0
    equality_cases: int = 0
    min_margin: float = float("inf")
    argmin_index: int = -1
    violations: list = field(default_factory=list)
    violation_count: int = 0

    def update(self, index, margin, verdict, inputs):
        self.samples_run += 1
        if self.tolerance is not None:
            violated = not margin >= -self.tolerance     # a NaN margin is violated
        else:
            violated = verdict == VIOLATED
        if violated:
            self.violation_count += 1
            if len(self.violations) < _MAX_VIOLATION_ECHOES:
                self.violations.append({"sample_index": index, "margin": margin,
                                        "inputs": _public_inputs(inputs)})
        elif verdict == EQUALITY:
            self.equality_cases += 1
        if margin < self.min_margin or (margin == self.min_margin
                                        and index < self.argmin_index):
            self.min_margin = margin
            self.argmin_index = index

    def merge(self, other: "_Agg"):
        # chunks arrive in index order, so lowest-index tie-break is preserved
        self.samples_run += other.samples_run
        self.equality_cases += other.equality_cases
        self.violation_count += other.violation_count
        for v in other.violations:
            if len(self.violations) < _MAX_VIOLATION_ECHOES:
                self.violations.append(v)
        if other.min_margin < self.min_margin:
            self.min_margin = other.min_margin
            self.argmin_index = other.argmin_index


def _run_id_sweep(entry, config, csv_rows):
    stream = SampleStream(config.seed, f"catalog/{entry.id}")
    pstream = SampleStream(config.seed, f"catalog/{entry.id}/exponents")

    def run_chunk(start):
        agg = _Agg(tolerance=config.tolerance)
        rows = [] if csv_rows is not None else None
        indices = range(start, min(start + _CHUNK, config.samples))
        if entry.arity == "seq_n":
            draws = _sequence_draws(stream, indices)
        else:
            draws = (_draw_inputs(entry, stream, pstream, index, config) for index in indices)
        for index, inputs in zip(indices, draws):
            rep = entry.evaluate(**inputs)
            margin = rep.margin
            agg.update(index, margin, rep.verdict, inputs)
            if rows is not None:
                rows.append((entry.id, index, dumps(_public_inputs(inputs)), repr(margin),
                             rep.verdict))
        return agg, rows

    starts = range(0, config.samples, _CHUNK)
    workers = config.workers or default_workers()
    agg = _Agg(tolerance=config.tolerance)
    if workers <= 1:
        chunk_results = map(run_chunk, starts)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(run_chunk, starts))
    for part, rows in chunk_results:
        agg.merge(part)
        if csv_rows is not None and rows:
            csv_rows.extend(rows)

    argmin_inputs = _draw_inputs(entry, stream, pstream, agg.argmin_index, config)
    replay = entry.evaluate(**argmin_inputs)
    return {
        "samples_run": agg.samples_run,
        "min_margin": agg.min_margin,
        "argmin_index": agg.argmin_index,
        "argmin_inputs": _public_inputs(argmin_inputs),
        "argmin_margin_replay": replay.margin,
        "equality_cases": agg.equality_cases,
        "violation_count": agg.violation_count,
        "violations": agg.violations,
    }


def run_sweep(config: SweepConfig, csv_path: str | None = None) -> dict:
    """Evaluate the configured catalog ids over deterministic sample streams.

    Returns the verification report as a JSON-ready dict; content (minus
    ``wall_time_s``) depends only on the config.  ``csv_path`` optionally
    dumps one row per sample.
    """
    ids = resolve_ids(config.ids)
    t0 = time.monotonic()
    csv_rows = [] if csv_path else None
    results = {}
    for id in ids:
        results[id] = _run_id_sweep(catalog.REGISTRY[id], config, csv_rows)
    report = {
        "kind": "catalog_sweep",
        "seed": config.seed,
        "config": config.to_dict(),
        "results": results,
        "total_violations": sum(r["violation_count"] for r in results.values()),
        "wall_time_s": time.monotonic() - t0,
    }
    if csv_path:
        _write_csv(csv_path, csv_rows)
    return report


def run_kyfan_sweep(config: SweepConfig, csv_path: str | None = None) -> dict:
    """Evaluate EQ18 .. EQ31 over random Ky Fan samples with random n."""
    nlo, nhi = config.kyfan_n_range
    if nlo < 1 or nhi < nlo:
        raise ValueError("kyfan_n_range must satisfy 1 <= lo <= hi")
    stream = SampleStream(config.seed, "kyfan/values")
    nstream = SampleStream(config.seed, "kyfan/n")

    def run_chunk(start):
        aggs = {id: _Agg(tolerance=config.tolerance) for id in kyfan.KYFAN_IDS}
        rows = [] if csv_path else None
        for index in range(start, min(start + _CHUNK, config.samples)):
            n = sample_int(nstream, index, nlo, nhi)
            values = sample_kyfan_values(stream, index, n)
            inputs = {"n": n, "values": values}
            text = dumps(inputs) if rows is not None else None
            stats = kyfan.compute_stats(kyfan.KyFanSample(values))
            for id, rep in kyfan.all_slacks(stats).items():
                margin = rep.margin
                aggs[id].update(index, margin, rep.verdict, inputs)
                if rows is not None:
                    rows.append((id, index, text, repr(margin), rep.verdict))
        return aggs, rows

    t0 = time.monotonic()
    starts = range(0, config.samples, _CHUNK)
    workers = config.workers or default_workers()
    if workers <= 1:
        chunk_results = map(run_chunk, starts)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(run_chunk, starts))
    totals = {id: _Agg(tolerance=config.tolerance) for id in kyfan.KYFAN_IDS}
    csv_rows = [] if csv_path else None
    for aggs, rows in chunk_results:
        for id in totals:
            totals[id].merge(aggs[id])
        if csv_rows is not None and rows:
            csv_rows.extend(rows)

    # one replay per distinct argmin index serves every id that shares it
    replays = {}
    results = {}
    for id, agg in totals.items():
        if agg.argmin_index not in replays:
            n = sample_int(nstream, agg.argmin_index, nlo, nhi)
            values = sample_kyfan_values(stream, agg.argmin_index, n)
            stats = kyfan.compute_stats(kyfan.KyFanSample(values))
            replays[agg.argmin_index] = n, values, kyfan.all_slacks(stats)
        n, values, reps = replays[agg.argmin_index]
        results[id] = {
            "samples_run": agg.samples_run,
            "min_margin": agg.min_margin,
            "argmin_index": agg.argmin_index,
            "argmin_inputs": {"n": n, "values": values},
            "argmin_margin_replay": reps[id].margin,
            "equality_cases": agg.equality_cases,
            "violation_count": agg.violation_count,
            "violations": agg.violations,
        }
    report = {
        "kind": "kyfan_sweep",
        "seed": config.seed,
        "config": config.to_dict(),
        "results": results,
        "total_violations": sum(r["violation_count"] for r in results.values()),
        "wall_time_s": time.monotonic() - t0,
    }
    if csv_path:
        _write_csv(csv_path, csv_rows)
    return report


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "sample_index", "inputs", "margin", "verdict"])
        writer.writerows(rows)
