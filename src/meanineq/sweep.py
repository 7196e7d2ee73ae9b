"""Sweep execution: run catalog or Ky Fan checks over deterministic samples.

A sweep evaluates a set of inequality ids over counter-based random inputs
and aggregates, per id: the number of samples, the minimum margin with the
inputs that attained it, equality cases, and any violations.  Aggregation is
an order-independent reduction (minimum with lowest-sample-index tie-break),
so reports are byte-identical for any worker count; re-evaluating the
reported argmin inputs reproduces the minimum margin bit-for-bit.

Both sweeps run through one driver over a list of groups: a group is one
draw per sample and the ids that read it.  A draw is a tuple of the rows'
arguments, ``(quad, p, q)`` or ``(quad,)``, ``(a, b)``, ``(x, y)``,
``(n,)`` or Ky Fan's ``(n, values)``, and each row takes a prefix of it.
Under the catalog's sampling
contract 3 (``SAMPLING``, which its report names), every quad-arity id of a
sweep reads one quad per sample from the stream ``catalog/quad``, plus one
p and one q from ``catalog/quad/exponents`` when a quad_pq id is in the
sweep, and the rows share that quad's means through ``OrderedQuad.memo``.
EQ15..EQ17 read one n per sample from ``catalog/seq_n`` and compute its
link values once.  Each pair or xy id (EQ6, EQ10, EQ12) is a group of its
own, drawing one pair per sample from ``catalog/{id}``; EQ18..EQ31 are one
group for Ky Fan.  A group is placed where the first of its ids is listed,
and results keep the order of the ids asked for.  Samples are streamed:
each is drawn, evaluated to ``(id, margin, verdict)`` triples, folded into
the aggregate and dropped before the next.  Both halves judge rows through
``report.judge`` and build no SlackReport: a catalog sample through its
entry's ``InequalityEntry.margin``, a Ky Fan sample through
``kyfan.margins``.  A report is built only where a caller shows one.  The
sampled quad goes to the row as is; an id's echoed input dict, which its
arity's echo (``catalog.ARITY_ECHO``, the one a report reads) builds from
the arguments its own row takes, is built only for violation echoes, CSV
rows and ``argmin_inputs``.

A chunk of up to ``_CHUNK`` samples of one group is the unit of work.  Its
task is plain data (sweep kind, config, group position, first index, and the
path of its CSV part file or None): ``_run_chunk`` rebuilds the group from
the config, formats each CSV row as text in ``csv.writer``'s default
dialect, writes it to its part file as it is made, and returns only the
chunk's aggregates.  The parts sit in a temporary directory beside the CSV
until ``_write_csv`` joins them, so no process holds a sweep's rows in
memory.  With more than one worker the chunks run in worker processes:
forked where the platform allows and no other thread runs, so children
start without re-importing anything, spawned otherwise.  A sweep too small
to repay the pool's start-up runs its chunks in the calling process
instead.  A worker process that dies ends the sweep with ``SweepFailed``.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
import time
from typing import Callable, NamedTuple

from .report import EQUALITY, VIOLATED, dumps
from .rng import (DEFAULT_RANGE, SampleStream, _log_bounds, accepted_classes, sample_exponent,
                  sample_int, sample_kyfan_values, sample_pair, sample_quad)

__all__ = ["SweepConfig", "SweepFailed", "run_sweep", "run_kyfan_sweep", "resolve_ids"]

_CHUNK = 1024
_MAX_VIOLATION_ECHOES = 10

#: The catalog sweep's sampling contract, which its report names.  Contract 3
#: draws one quad (and one p, q) per sample for every quad-arity id, one n
#: for the sequence ids and one (x, y) for EQ12 from its own stream.
#: Contract 2 drew EQ12 at x = ab, y = cd of the shared quad and one n per
#: sequence id; under contract 1 each id drew from a stream of its own.
SAMPLING = 3

#: Evaluations (samples x ids) per worker process below which a sweep runs in
#: the calling process.  On a 2-core Xeon, ``sweep --ids all --workers 2``
#: took 21 ms in-process and 44 ms with the pool at 600 evaluations, and
#: 64 ms against 51 ms at 2055: the pool's start-up repays itself from about
#: 1k evaluations per process.
_POOL_FLOOR = 1024

#: Sequence entries draw n log-uniform over this range.
SEQ_N_RANGE = (1, 10 ** 6)
_SEQ_LN_LO, _SEQ_LN_SPAN = _log_bounds(*SEQ_N_RANGE)


#: The config fields each sweep kind reads.  Its report echoes these only:
#: a catalog sweep never reads kyfan_n_range, a Ky Fan sweep never reads
#: bounds, ids or sign.
_ECHOED_FIELDS = {
    "catalog_sweep": ("ids", "samples", "seed", "sign", "bounds"),
    "kyfan_sweep": ("samples", "seed", "kyfan_n_range"),
}


class SweepFailed(RuntimeError):
    """The sweep could not finish, for a reason other than its inputs."""


# A NamedTuple body cannot define __new__, so SweepConfig's checks sit in a
# subclass; _make and _replace skip them.
class _SweepFields(NamedTuple):
    ids: tuple = ("ALL",)
    samples: int = 1000
    seed: int = 0
    sign: str = "any"                    # quad discriminant constraint
    bounds: tuple = DEFAULT_RANGE        # log-uniform coordinate bounds
    kyfan_n_range: tuple = (2, 20)
    workers: int = 1


class SweepConfig(_SweepFields):
    """A sweep's settings, checked when built; chunk tasks carry it to workers."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if isinstance(self.ids, str):        # one id, not a sequence of its letters
            self = self._replace(ids=(self.ids,))
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not (0.0 < self.bounds[0] < self.bounds[1]):
            raise ValueError("bounds lower bound must be positive and below the upper")
        if self.bounds[1] == math.inf:       # every draw would be inf
            raise ValueError("bounds upper bound must be finite")
        nlo, nhi = self.kyfan_n_range
        if nlo < 1 or nhi < nlo:
            raise ValueError("kyfan_n_range must satisfy 1 <= lo <= hi")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        accepted_classes(self.sign)          # each raises on an unknown value
        # only a named id needs the catalog to check it; ALL is valid without it
        resolve_ids([id for id in self.ids if id.strip().upper() != "ALL"])
        return self

    def to_dict(self, kind="catalog_sweep") -> dict:
        """The fields a sweep of this kind reads, as its report echoes them."""
        fields = {name: getattr(self, name) for name in _ECHOED_FIELDS[kind]}
        return {name: list(v) if isinstance(v, tuple) else v for name, v in fields.items()}


def resolve_ids(ids) -> tuple:
    if isinstance(ids, str):
        ids = [ids]
    if not ids:                     # no id to expand or look up: no catalog to compile
        return ()
    from . import catalog
    out = []
    for id in ids:
        if id.strip().upper() == "ALL":
            out.extend(catalog.INEQUALITY_IDS)
        else:
            out.append(catalog.lookup(id).id)
    return tuple(dict.fromkeys(out))


def _draw_n(stream, index):
    # log-uniform integer so every decade of n is exercised
    lo, hi = SEQ_N_RANGE
    u = stream.floats(index, 1)[0]
    n = int(round(math.exp(_SEQ_LN_LO + u * _SEQ_LN_SPAN)))
    return max(lo, min(hi, n))


def _echo_kyfan(n, values):
    return {"n": n, "values": values}


class _Agg:
    """One id's counts, minimum margin and echoed violations over its samples."""

    __slots__ = ("echo", "count", "samples_run", "equality_cases", "min_margin",
                 "argmin_index", "violations", "violation_count")

    def __init__(self, echo=None, count=0):
        self.echo = echo                # its first ``count`` arguments -> the inputs it shows
        self.count = count
        self.samples_run = 0
        self.equality_cases = 0
        self.min_margin = float("inf")
        self.argmin_index = -1
        self.violations = []
        self.violation_count = 0

    def update(self, index, margin, verdict, args):
        self.samples_run += 1
        if verdict == VIOLATED:
            self.violation_count += 1
            if len(self.violations) < _MAX_VIOLATION_ECHOES:
                self.violations.append({"sample_index": index, "margin": margin,
                                        "inputs": self.echo(*args[:self.count])})
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


class _Group(NamedTuple):
    """Ids evaluated together from one draw per sample."""
    ids: tuple
    draw: Callable                    # index -> the rows' arguments; the argmin replay uses it too
    evaluate: Callable                # arguments -> iterable of (id, margin, verdict)
    echoes: dict                      # id -> (echo, count): echo shows its first count arguments


def _layout(kind, config):
    """Each group's ids by draw key, in group order: a catalog group is
    placed where the first of its ids is listed; Ky Fan is one group."""
    if kind == "kyfan_sweep":
        from . import kyfan     # a catalog sweep never compiles the Ky Fan module
        return {"kyfan": kyfan.KYFAN_IDS}
    from . import catalog
    layout = {}
    for id in resolve_ids(config.ids):
        arity = catalog.REGISTRY[id].arity
        # quad and quad_pq ids share a quad, seq_n ids an n; pair and xy ids draw alone
        layout.setdefault(id if arity in ("pair", "xy") else arity.removesuffix("_pq"),
                          []).append(id)
    return layout


def _group(kind, config, pos):
    """Group ``pos`` of a sweep; the driver and every chunk build groups here.

    A draw returns the rows' arguments, and each row takes a prefix of them.
    The quad group draws one quad, plus one p and one q from
    ``catalog/quad/exponents`` only when a quad_pq id is among its ids, so
    an id's draws do not depend on which other ids its sweep holds.  Its
    rows share the quad's means through ``OrderedQuad.memo``, as the
    sequence rows share the link values of their n.  A Ky Fan draw is
    ``(n, values)``, and one sample's statistics feed every id.
    """
    key, ids = list(_layout(kind, config).items())[pos]
    # each draw calls its samplers by their module names on every sample, so
    # wrapping those names sees every draw
    if key == "kyfan":
        from . import kyfan
        nlo, nhi = config.kyfan_n_range
        stream = SampleStream(config.seed, "kyfan/values")
        nstream = SampleStream(config.seed, "kyfan/n")

        def draw(index):
            n = sample_int(nstream, index, nlo, nhi)
            return n, sample_kyfan_values(stream, index, n)

        def evaluate(args):
            return kyfan.margins(kyfan.compute_stats(kyfan.KyFanSample(args[1])))

        return _Group(ids, draw, evaluate, dict.fromkeys(ids, (_echo_kyfan, 2)))
    from . import catalog
    entries = [catalog.REGISTRY[id] for id in ids]
    stream = SampleStream(config.seed, f"catalog/{key}")
    sign, bounds = config.sign, config.bounds
    if key == "seq_n":
        def draw(index):
            return (_draw_n(stream, index),)
    elif key != "quad":                     # a pair or xy id, alone
        min_ratio = entries[0].min_ratio

        def draw(index):
            return sample_pair(stream, index, bounds=bounds, min_ratio=min_ratio)
    elif any(entry.arity == "quad_pq" for entry in entries):
        pstream = SampleStream(config.seed, "catalog/quad/exponents")

        def draw(index):
            return (sample_quad(stream, index, sign=sign, bounds=bounds),
                    sample_exponent(pstream, index, salt0=1),
                    sample_exponent(pstream, index, salt0=2))
    else:
        def draw(index):
            return (sample_quad(stream, index, sign=sign, bounds=bounds),)
    # a row's arguments are its arity's inputs, a quad in place of a, b, c, d
    echoes = {entry.id: (catalog.ARITY_ECHO[entry.arity],
                         len(catalog.ARITY_INPUTS[entry.arity]) - (3 if key == "quad" else 0))
              for entry in entries}
    rows = [(entry.id, entry.margin, echoes[entry.id][1]) for entry in entries]

    def evaluate(args):
        return [(id, *margin(*args[:count])) for id, margin, count in rows]

    return _Group(tuple(ids), draw, evaluate, echoes)


def _run_chunk(task):
    """One chunk of one group: ``{id: _Agg}``; its CSV rows go to its part file.

    A task is ``(kind, config, group position, first index, part path or
    None)``, plain data that pickles, so the chunk runs the same here or in a
    worker process.  Each row is formatted as text, byte for byte what
    ``csv.writer`` writes (minimal quoting, CRLF): ids, indices, float reprs
    and verdicts never need quoting, and a JSON echo always does.  A row is
    written as it is made, so the chunk never holds its rows.
    """
    kind, config, pos, start, part = task
    group = _group(kind, config, pos)
    aggs = {id: _Agg(*group.echoes[id]) for id in group.ids}
    with open(part, "w", newline="") if part else contextlib.nullcontext() as fh:
        for index in range(start, min(start + _CHUNK, config.samples)):
            args = group.draw(index)
            texts = {}                  # one quoted echo per echo function
            for id, margin, verdict in group.evaluate(args):
                agg = aggs[id]
                agg.update(index, margin, verdict, args)
                if part:
                    text = texts.get(agg.echo)
                    if text is None:
                        text = dumps(agg.echo(*args[:agg.count]))
                        text = texts[agg.echo] = '"' + text.replace('"', '""') + '"'
                    fh.write(f"{id},{index},{text},{margin!r},{verdict}\r\n")
    return aggs


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity mask on this platform
        return os.cpu_count() or 1


def _chunk_results(tasks, evals, workers):
    """``_run_chunk`` over the tasks, results in task order.

    Runs in up to ``min(workers, tasks, CPUs)`` worker processes, or in this
    process when that is one or the sweep's ``evals`` fall below the pool
    floor.  A chunk's exception reaches the caller as raised, and the chunks
    still queued are cancelled; a worker process that dies raises
    ``SweepFailed``.
    """
    procs = min(workers, len(tasks), _cpu_count())
    if procs <= 1 or evals < procs * _POOL_FLOOR:
        return map(_run_chunk, tasks)
    import multiprocessing
    import threading
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    # fork starts the children without re-importing anything, but a lock that
    # another thread holds at the fork stays held in the child for good
    fork = (threading.active_count() == 1
            and "fork" in multiprocessing.get_all_start_methods())
    context = multiprocessing.get_context("fork" if fork else "spawn")
    with ProcessPoolExecutor(max_workers=procs, mp_context=context) as pool:
        try:
            futures = [pool.submit(_run_chunk, task) for task in tasks]
            return [future.result() for future in futures]
        except BrokenExecutor as exc:
            raise SweepFailed("a worker process died before its chunk finished") from exc
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _run_groups(kind, config, ids, csv_path):
    """Run every group over the configured samples and assemble the report,
    its results in the order of ``ids``.

    The chunks of all groups go through one pool; their aggregates merge and
    their CSV parts join in (group, chunk) order, so CSV rows come
    group-major, and sample-major within a group.  Each group replays every
    distinct argmin index once, in this process.
    """
    t0 = time.monotonic()
    groups = [_group(kind, config, pos) for pos in range(len(_layout(kind, config)))]
    evals = config.samples * sum(len(group.ids) for group in groups)
    totals = {id: _Agg() for group in groups for id in group.ids}
    with (tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(csv_path)))
          if csv_path else contextlib.nullcontext()) as parts:
        tasks = [(kind, config, pos, start, parts and os.path.join(parts, f"{pos}-{start}.csv"))
                 for pos in range(len(groups)) for start in range(0, config.samples, _CHUNK)]
        for aggs in _chunk_results(tasks, evals, config.workers):
            for id, agg in aggs.items():
                totals[id].merge(agg)
        if csv_path:
            _write_csv(csv_path, [task[4] for task in tasks])

    results = dict.fromkeys(ids)
    for group in groups:
        replays = {}
        for id in group.ids:
            agg = totals[id]
            index = agg.argmin_index
            if index < 0:               # no sample set a minimum: nothing to replay
                echo = replay = None
            else:
                if index not in replays:
                    args = group.draw(index)
                    replays[index] = args, {
                        k: margin for k, margin, _ in group.evaluate(args)}
                args, margins = replays[index]
                show, count = group.echoes[id]
                echo = show(*args[:count])
                replay = margins[id]
            results[id] = {
                "samples_run": agg.samples_run,
                "min_margin": agg.min_margin if index >= 0 else None,
                "argmin_index": index,
                "argmin_inputs": echo,
                "argmin_margin_replay": replay,
                "equality_cases": agg.equality_cases,
                "violation_count": agg.violation_count,
                "violations": agg.violations,
            }
    report = {
        "kind": kind,
        "seed": config.seed,
        "config": config.to_dict(kind),
        "results": results,
        "total_violations": sum(r["violation_count"] for r in results.values()),
        "wall_time_s": time.monotonic() - t0,
    }
    return report


def run_sweep(config: SweepConfig, csv_path: str | None = None) -> dict:
    """Evaluate the configured catalog ids over deterministic sample streams.

    Returns the verification report as a JSON-ready dict; content (minus
    ``wall_time_s``) depends only on the config.  ``csv_path`` optionally
    dumps one row per id and sample.  The report names its ``sampling``
    contract.
    """
    report = _run_groups("catalog_sweep", config, resolve_ids(config.ids), csv_path)
    report["sampling"] = SAMPLING
    return report


def run_kyfan_sweep(config: SweepConfig, csv_path: str | None = None) -> dict:
    """Evaluate EQ18 .. EQ31 over random Ky Fan samples with random n."""
    from . import kyfan
    return _run_groups("kyfan_sweep", config, kyfan.KYFAN_IDS, csv_path)


def _write_csv(path, parts):
    """The header, then the chunks' part files in order, copied as bytes."""
    with open(path, "wb") as fh:
        fh.write(b"id,sample_index,inputs,margin,verdict\r\n")    # as csv.writer ends a row
        for part in parts:
            with open(part, "rb") as src:
                shutil.copyfileobj(src, fh)
