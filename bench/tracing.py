"""Layer tracing for the traced benchmark run.

Each meanineq layer's functions are wrapped where the calling module binds
them (``sweep.sample_quad``, ``catalog.p_logarithmic_mean``,
``catalog.InequalityEntry.evaluate``, ``kyfan.build_report`` ...), so nothing
under ``src/`` changes.  A wrapper records a span: kind, tag, start, end, the
span that caused it and the thread.  Spans are kept in memory; after every
operation (one ``cli.main`` call, or one point round) they are folded into
per-layer totals, and the spans of the first operation are written out when
the run ends.  A span's self time is its duration minus the part of its
interval that its child spans cover (their union, since pool threads run
children concurrently).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from meanineq import catalog, cli, kyfan, oracle, ratio, rng, sweep

#: Fields of a finished span.  Spans are flat tuples of numbers and strings,
#: which the garbage collector stops tracking, so a long trace does not slow
#: the collections the traced program makes.
SID, KIND, TAG, T0, T1, PARENT, THREAD, EXTRA = range(8)

_DRAW = ("rng.sample", "rng.words")
_EVALUATION = ("catalog.eval", "kyfan.slacks")

#: (name, unit, the end-to-end metric and workloads it should move).
PER_LAYER = [
    ("rng.draw_us", "us", "evals_per_s on catalog-all and kyfan"),
    ("rng.words_per_eval", "count", "evals_per_s on catalog-all and kyfan"),
    ("rng.accept_ratio", "share", "evals_per_s on catalog-all"),
    ("ratio.quads_per_quad_eval", "count", "evals_per_s on catalog-all; none on kyfan"),
    ("ratio.quad_us", "us", "evals_per_s on catalog-all; none on kyfan"),
    ("ratio.call_us", "us", "evals_per_s on catalog-all; none on kyfan"),
    ("means.Lp_us", "us", "evals_per_s on catalog-all; check_p95_us on point"),
    ("means.I_us", "us", "evals_per_s on catalog-all; check_p95_us on point"),
    ("means.L_us", "us", "evals_per_s on catalog-all; check_p95_us on point"),
    ("means.calls_per_eval", "count", "evals_per_s on catalog-all"),
    *[(f"catalog.eval_us.{id}", "us", "evals_per_s on catalog-all; check_p50_us on point")
      for id in catalog.INEQUALITY_IDS],
    ("catalog.self_share", "share", "evals_per_s on catalog-all; check_p50_us on point"),
    ("report.build_us", "us", "evals_per_s on kyfan and catalog-csv-w2"),
    ("report.builds_per_sample", "count", "evals_per_s on kyfan and catalog-csv-w2"),
    ("report.dumps_us", "us", "evals_per_s on kyfan and catalog-csv-w2"),
    ("report.bytes", "B", "evals_per_s on kyfan and catalog-csv-w2"),
    ("kyfan.stats_us", "us", "evals_per_s on kyfan"),
    ("kyfan.slacks_us", "us", "evals_per_s on kyfan"),
    ("sweep.self_us_per_eval", "us", "evals_per_s on catalog-csv-w2"),
    ("sweep.replay_us", "us", "evals_per_s on catalog-csv-w2"),
    ("sweep.csv_write_s", "s", "evals_per_s and peak_rss_mb on catalog-csv-w2"),
    ("sweep.thread_busy_share", "share", "evals_per_s on catalog-csv-w2"),
    *[(f"oracle.eval_us.{op}", "us", "oracle_p50_us and oracle_p95_us on point")
      for op in oracle.ORACLE_OP_TAGS],
    ("cli.write_s", "s", "evals_per_s on the sweep workloads"),
    ("trace.overhead", "share", "none: run.py measures it against the untraced run"),
]


class Tracer:
    """In-memory span recorder; records only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.first_op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = []          # the main thread's open spans
        self._op = None
        self.acc = defaultdict(float)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main if main else []
        return stack

    def open(self, kind, tag=None):
        stack = self._stack()
        # a pool thread's outermost span belongs to the main thread's open span
        top = stack[-1] if stack else (self._main[-1] if self._main else None)
        rec = (next(self._ids), kind, tag, time.perf_counter(), -1 if top is None else top[0])
        stack.append(rec)
        return rec

    def close(self, rec, extra=None):
        t1 = time.perf_counter()
        self._stack().pop()
        sid, kind, tag, t0, parent = rec
        self.spans.append((sid, kind, tag, t0, t1, parent, threading.get_ident(), extra))

    def wrap(self, kind, fn, tag=None, size=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer.open(kind, tag(*args, **kwargs) if tag else None)
            out = None
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec, len(out) if size and out is not None else None)
            return out
        return traced

    def begin_op(self):
        self.active = True
        self._op = self.open("op")

    def end_op(self, evals, samples):
        """Close the operation and fold its spans into the per-layer totals."""
        self.close(self._op)
        self.active = False
        spans, self.spans = self.spans, []
        if self.first_op is None:
            self.first_op = spans
        _fold(self.acc, spans, evals, samples)

    def write_first_op(self, path):
        with open(path, "w") as fh:
            for rec in sorted(self.first_op or (), key=lambda r: r[SID]):
                fh.write(json.dumps({
                    "id": rec[SID], "kind": rec[KIND], "tag": rec[TAG], "start_s": rec[T0],
                    "end_s": rec[T1], "parent": rec[PARENT], "thread": rec[THREAD]}) + "\n")


def install(tracer: Tracer):
    """Wrap each layer's functions where the calling module binds them."""
    w = tracer.wrap
    for name in ("sample_quad", "sample_pair", "sample_exponent", "sample_int",
                 "sample_kyfan_values"):
        setattr(sweep, name, w("rng.sample", getattr(sweep, name)))
    rng.SampleStream.words = w("rng.words", rng.SampleStream.words, tag=_words_key)
    for mod in (rng, catalog):
        mod.OrderedQuad = w("ratio.quad", mod.OrderedQuad)
    for name in ("ln_identric_ratio_pow", "log_secant_slope_gap"):
        setattr(catalog, name, w("ratio.call", getattr(catalog, name)))
    catalog.p_logarithmic_mean = w("means.Lp", catalog.p_logarithmic_mean)
    catalog.logarithmic_mean = w("means.L", catalog.logarithmic_mean)
    kyfan.ln_logarithmic = w("means.L", kyfan.ln_logarithmic)
    for mod in (catalog, kyfan, ratio):
        mod.ln_identric = w("means.I", mod.ln_identric)
    catalog.InequalityEntry.evaluate = w("catalog.eval", catalog.InequalityEntry.evaluate,
                                         tag=lambda entry, **_: entry.id)
    for mod in (catalog, kyfan):
        mod.build_report = w("report.build", mod.build_report)
    for mod in (sweep, cli):
        mod.dumps = w("report.dumps", mod.dumps, size=True)
    kyfan.compute_stats = w("kyfan.stats", kyfan.compute_stats)
    kyfan.all_slacks = w("kyfan.slacks", kyfan.all_slacks)
    cli.run_sweep = w("sweep.run", cli.run_sweep)
    cli.run_kyfan_sweep = w("sweep.run", cli.run_kyfan_sweep)
    sweep._write_csv = w("sweep.csv", sweep._write_csv)
    cli._finish_sweep = w("cli.write", cli._finish_sweep)
    oracle.oracle_eval = w("oracle.eval", oracle.oracle_eval, tag=lambda op, *_, **__: op)

    class TracedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._span = tracer.open("sweep.pool") if tracer.active else None

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(w("sweep.chunk", fn), *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if self._span is not None:
                tracer.close(self._span, self._max_workers)
                self._span = None

    sweep.ThreadPoolExecutor = TracedPool


def _words_key(stream, index, count, salt=0):
    return (stream.stream, index, salt)


def _covered(children, lo, hi):
    """Length of the union of the children's intervals inside [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted((max(c[T0], lo), min(c[T1], hi)) for c in children):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _fold(acc, spans, evals, samples):
    acc["ops"] += 1
    acc["evals"] += evals
    acc["samples"] += samples
    by_id = {rec[SID]: rec for rec in spans}
    kids = defaultdict(list)
    for rec in spans:
        kids[rec[PARENT]].append(rec)
    for rec in spans:
        kind, tag = rec[KIND], rec[TAG]
        dur = rec[T1] - rec[T0]
        own = dur - _covered(kids[rec[SID]], rec[T0], rec[T1]) if rec[SID] in kids else dur
        acc[f"n:{kind}"] += 1
        acc[f"t:{kind}"] += dur
        acc[f"self:{kind}"] += own
        if kind in ("catalog.eval", "oracle.eval"):
            acc[f"n:{kind}:{tag}"] += 1
            acc[f"t:{kind}:{tag}"] += dur
        if kind == "catalog.eval" and catalog.REGISTRY[tag].arity in ("quad", "quad_pq"):
            acc["quad_evals"] += 1
        elif kind == "rng.words" and by_id[rec[PARENT]][KIND] == "rng.sample":
            acc["sampler_attempts"] += 1
        elif kind == "report.dumps":
            acc["bytes"] += rec[EXTRA]
        elif kind == "sweep.pool":
            acc["pool_capacity_s"] += dur * rec[EXTRA]
    _fold_replays(acc, spans, by_id, kids)


def _fold_replays(acc, spans, by_id, kids):
    """Time the argmin replays: a draw that repeats an earlier stream word."""
    seen, repeated = set(), set()
    for rec in sorted((r for r in spans if r[KIND] == "rng.words"), key=lambda r: r[T0]):
        if rec[TAG] not in seen:
            seen.add(rec[TAG])
            continue
        root = rec
        while by_id[root[PARENT]][KIND] in _DRAW:
            root = by_id[root[PARENT]]
        repeated.add(root[SID])
    for run in (r for r in spans if r[KIND] == "sweep.run"):
        start, repeat = None, False
        for rec in sorted(kids[run[SID]], key=lambda r: r[T0]):
            if rec[KIND] in _DRAW:
                start = rec[T0] if start is None else start
                repeat = repeat or rec[SID] in repeated
            elif rec[KIND] in _EVALUATION:
                if repeat:
                    acc["replays"] += 1
                    acc["replay_s"] += rec[T1] - start
                start, repeat = None, False


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(acc):
    """Per-layer metrics from folded totals; a layer the run never reached reads 0.

    ``trace.overhead`` needs the untraced run, so run.py adds it.
    """
    ev, ops = acc["evals"], acc["ops"]

    def mean_us(kind):
        return 1e6 * _div(acc[f"t:{kind}"], acc[f"n:{kind}"])

    m = {
        "rng.draw_us": 1e6 * _div(acc["self:rng.sample"] + acc["self:rng.words"], ev),
        "rng.words_per_eval": _div(acc["n:rng.words"], ev),
        "rng.accept_ratio": _div(acc["n:rng.sample"], acc["sampler_attempts"]),
        "ratio.quads_per_quad_eval": _div(acc["n:ratio.quad"], acc["quad_evals"]),
        "ratio.quad_us": mean_us("ratio.quad"),
        "ratio.call_us": 1e6 * _div(acc["self:ratio.call"], acc["n:ratio.call"]),
        "means.Lp_us": mean_us("means.Lp"),
        "means.I_us": mean_us("means.I"),
        "means.L_us": mean_us("means.L"),
        "means.calls_per_eval": _div(sum(acc[f"n:means.{k}"] for k in ("Lp", "I", "L")), ev),
    }
    for id in catalog.INEQUALITY_IDS:
        m[f"catalog.eval_us.{id}"] = mean_us(f"catalog.eval:{id}")
    m.update({
        "catalog.self_share": _div(acc["self:catalog.eval"], acc["t:catalog.eval"]),
        "report.build_us": mean_us("report.build"),
        "report.builds_per_sample": _div(acc["n:report.build"], acc["samples"]),
        "report.dumps_us": mean_us("report.dumps"),
        "report.bytes": _div(acc["bytes"], ops),
        "kyfan.stats_us": mean_us("kyfan.stats"),
        "kyfan.slacks_us": mean_us("kyfan.slacks"),
        "sweep.self_us_per_eval": 1e6 * _div(
            sum(acc[f"self:sweep.{k}"] for k in ("run", "pool", "chunk")), ev),
        "sweep.replay_us": 1e6 * _div(acc["replay_s"], acc["replays"]),
        "sweep.csv_write_s": _div(acc["t:sweep.csv"], ops),
        "sweep.thread_busy_share": _div(acc["t:sweep.chunk"], acc["pool_capacity_s"]),
    })
    for op in oracle.ORACLE_OP_TAGS:
        m[f"oracle.eval_us.{op}"] = mean_us(f"oracle.eval:{op}")
    m["cli.write_s"] = _div(acc["t:cli.write"], ops)
    return m
