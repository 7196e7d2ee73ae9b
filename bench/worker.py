"""One measured run of a benchmark workload, in a fresh interpreter.

run.py starts this file with ``src`` on PYTHONPATH.  It times the workload
through meanineq's public entry points only (``cli.main``,
``catalog.evaluate``, ``oracle.oracle_eval`` and the ``rng`` samplers),
checks every output, and prints one JSON object as its last stdout line.

Sweep workloads alternate ``cli.main`` calls with identical arguments and
point iterations; the ``point`` workload is point iterations alone.  Each
point iteration makes four check rounds (one ``catalog.evaluate`` call per
inequality id) and one oracle round (one ``oracle.oracle_eval`` call per op
tag), all on freshly drawn inputs; inputs are drawn between the timed calls.
Every timing is scaled to the nominal machine speed (calibrate.py).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

from calibrate import Speed, decimal_pass, reference_pass, threaded_pass
from meanineq import catalog, cli, means, oracle, ratio, rng
from meanineq.kyfan import KYFAN_IDS

SWEEP_ALL = ["sweep", "--ids", "all", "--sign", "any", "--workers", "1"]


class Sweep(NamedTuple):
    argv: list              # sweep arguments, without samples, seed and outputs
    reference: list | None  # arguments of the untimed reference call, if not argv
    ids: tuple
    csv: bool               # write --csv and check one row per (id, sample)
    samples: int            # default samples per call
    draws: int              # input draws per sample: one per id, or one shared
    kernel: object          # the reference pass its calls are scaled by


#: The reference call runs once, untimed, before timing starts; every timed
#: call must reproduce its report byte for byte.
SWEEPS = {
    "catalog-all": Sweep(SWEEP_ALL, None, catalog.INEQUALITY_IDS, False, 512,
                         len(catalog.INEQUALITY_IDS), reference_pass),
    "kyfan": Sweep(["kyfan-sweep", "--n-min", "2", "--n-max", "20", "--workers", "1"], None,
                   KYFAN_IDS, False, 1024, 1, reference_pass),
    "catalog-csv-w2": Sweep(["sweep", "--ids", "all", "--sign", "any", "--workers", "2"],
                            SWEEP_ALL, catalog.INEQUALITY_IDS, True, 2048,
                            len(catalog.INEQUALITY_IDS), threaded_pass),
}
WORKLOADS = (*SWEEPS, "point")

#: Share of a sweep workload's run spent in the point phase.
POINT_SHARE = 0.4
#: Check rounds per oracle round: a check round is ten times cheaper.
CHECK_ROUNDS = 4
#: Each round runs this often on its inputs; its latency is the fastest run,
#: which leaves the machine's own noise spikes out of the percentiles.
REPEATS = 3
#: Point iterations run at least this often; the digest covers exactly these.
MIN_ROUNDS = 20
MIN_CALLS = 3
MAX_ERRORS = 10

MEAN_OPS = ("A", "G", "H", "L", "I")
RATIO_FNS = {"f": ratio.ratio_value, "g": ratio.log_ratio_value,
             "f_prime": ratio.ratio_derivative, "g_prime": ratio.log_ratio_derivative}


class Run:
    """Counts, check failures and timings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.metrics = {}

    def error(self, msg):
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(msg)

    def latencies(self, name, values):
        self.metrics[f"{name}_p50_us"] = (statistics.median(values), len(values))
        p95 = statistics.quantiles(values, n=20)[18] if len(values) > 1 else values[0]
        self.metrics[f"{name}_p95_us"] = (p95, len(values))


def report_digest(path):
    """Check one sweep report; return its digest without wall_time_s, its ids
    and the checks it failed."""
    rep = json.loads(Path(path).read_text())
    errors = []
    if rep["total_violations"] != 0:
        errors.append(f"total_violations = {rep['total_violations']}")
    for id, r in rep["results"].items():
        if r["argmin_margin_replay"] != r["min_margin"]:
            errors.append(f"{id}: argmin_margin_replay {r['argmin_margin_replay']!r} "
                          f"!= min_margin {r['min_margin']!r}")
    rep.pop("wall_time_s")
    text = json.dumps(rep, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest(), list(rep["results"]), errors


def csv_rows(path):
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


class SweepPhase:
    """Repeated, checked ``cli.main`` sweep calls with identical arguments."""

    def __init__(self, run, spec, seed, samples, work, tracer):
        self.run, self.spec, self.tracer = run, spec, tracer
        self.report = work / "report.json"
        self.rows = work / "rows.csv"
        common = ["--samples", str(samples), "--seed", str(seed), "--out", str(self.report)]
        self.argv = spec.argv + common + (["--csv", str(self.rows)] if spec.csv else [])
        self.evals = len(spec.ids) * samples
        self.draws = spec.draws * samples
        self.calls = 0
        _, self.reference = self._call((spec.reference or spec.argv) + common, None)
        self.speed = Speed(passes=5, kernel=spec.kernel)

    def _call(self, args, tracer):
        """One checked cli.main call; returns its wall seconds and digest."""
        run = self.run
        run.attempted += self.evals
        if tracer:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            code = cli.main(args)
        except Exception as exc:   # a crash part-way fails every sample of the call
            code = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_op(self.evals, self.draws)
        if code != 0:
            run.failed += self.evals
            run.error(f"cli.main {args[0]} returned {code}")
            return None, None
        digest, ids, errors = report_digest(self.report)
        for e in errors:
            run.error(e)
        if sorted(ids) != sorted(self.spec.ids):
            run.error(f"report ids {sorted(ids)} != {sorted(self.spec.ids)}")
        return dt, digest

    def step(self):
        self.calls += 1
        self.speed.checkpoint()
        dt, digest = self._call(self.argv, self.tracer)
        if dt is None:
            return
        self.speed.record(dt)
        if digest != self.reference:
            self.run.error(f"report digest {digest[:16]} != reference {str(self.reference)[:16]}")
        if self.spec.csv and csv_rows(self.rows) != self.evals:
            self.run.error(f"CSV holds {csv_rows(self.rows)} rows, expected {self.evals}")

    def finish(self):
        """Returns (median evals_per_s, calls) or None if every call failed."""
        for path in (self.report, self.rows):
            path.unlink(missing_ok=True)
        rates = [self.evals / dt for (dt,) in self.speed.scaled()]
        return (statistics.median(rates), len(rates)) if rates else None


def check_inputs(streams, id, k):
    stream, pstream = streams[id]
    arity = catalog.REGISTRY[id].arity
    if arity == "pair":
        min_ratio = catalog.EQ10_MIN_RATIO if id == "EQ10" else 1.0
        a, b = rng.sample_pair(stream, k, min_ratio=min_ratio)
        return {"a": a, "b": b}
    if arity == "seq_n":
        # log-uniform n in [1, 10**6], as the sweep draws it
        (u,) = stream.floats(k, 1)
        return {"n": max(1, min(10 ** 6, round(math.exp(u * math.log(10 ** 6)))))}
    inputs = rng.sample_quad(stream, k).as_dict()
    if arity == "quad_pq":
        inputs["p"] = rng.sample_exponent(pstream, k, salt0=1)
        inputs["q"] = rng.sample_exponent(pstream, k, salt0=2)
    return inputs


def oracle_inputs(streams, k):
    """Inputs in the domain where the published relative bounds apply."""
    a, b = rng.sample_pair(streams["pair"], k, min_ratio=1.05)
    p = rng.sample_exponent(streams["p"], k, min_dist=0.05)
    for j in range(64):
        quad = rng.sample_quad(streams["quad"], 64 * k + j)
        if math.log(quad.a / quad.b) >= 0.05 and math.log(quad.c / quad.d) >= 0.05:
            break
    else:
        raise RuntimeError(f"no separated quad for oracle round {k}")
    x = rng.sample_exponent(streams["x"], k, lo=-5.0, hi=5.0)
    out = {op: {"a": a, "b": b} for op in MEAN_OPS}
    out["Lp"] = {"a": a, "b": b, "p": p}
    for op in RATIO_FNS:
        out[op] = {**quad.as_dict(), "x": x}
    return out


def fast_path(op, inp):
    if op in MEAN_OPS or op == "Lp":
        return means.evaluate_mean(op, inp["a"], inp["b"], p=inp.get("p"))
    quad = ratio.OrderedQuad(inp["a"], inp["b"], inp["c"], inp["d"])
    return RATIO_FNS[op](quad, inp["x"])


def oracle_ok(op, inp, res):
    fast = fast_path(op, inp)
    bound = oracle.PUBLISHED_BOUNDS[op]
    if oracle.oracle_rel_err(fast, res) <= bound:
        return True
    # g has a zero crossing, near which only absolute accuracy is meaningful
    return op == "g" and abs(fast - float(res.value)) <= bound


class PointPhase:
    """Iterations of CHECK_ROUNDS check rounds and one oracle round."""

    def __init__(self, run, seed, tracer):
        self.run, self.tracer = run, tracer
        self.streams = {id: (rng.SampleStream(seed, f"bench/point/{id}"),
                             rng.SampleStream(seed, f"bench/point/{id}/exponents"))
                        for id in catalog.INEQUALITY_IDS}
        self.ostreams = {key: rng.SampleStream(seed, f"bench/oracle/{key}")
                         for key in ("pair", "p", "quad", "x")}
        self.digest = hashlib.sha256()
        self.check_speed = Speed(passes=2)
        self.oracle_speed = Speed(passes=2, kernel=decimal_pass)
        self.k = 0

    def resume(self):
        """Take fresh reference passes after other work ran."""
        self.check_speed.checkpoint()
        self.oracle_speed.checkpoint()

    def step(self):
        ids, k, run, tracer = catalog.INEQUALITY_IDS, self.k, self.run, self.tracer
        cin = [{id: check_inputs(self.streams, id, CHECK_ROUNDS * k + j) for id in ids}
               for j in range(CHECK_ROUNDS)]
        oin = oracle_inputs(self.ostreams, k)
        reps, results, check_best = [], {}, []
        check_s, oracle_best = 0.0, math.inf
        if tracer:
            tracer.begin_op()
        for inputs in cin:
            best = math.inf
            for _ in range(REPEATS):
                total = 0.0
                for id in ids:
                    t0 = time.perf_counter()
                    reps.append((id, inputs[id], catalog.evaluate(id, **inputs[id])))
                    total += time.perf_counter() - t0
                check_s += total
                best = min(best, total)
            check_best.append(best)
        for _ in range(REPEATS):
            total = 0.0
            for op in oracle.ORACLE_OP_TAGS:
                t0 = time.perf_counter()
                res = oracle.oracle_eval(op, oin[op], 50)
                total += time.perf_counter() - t0
                if results.setdefault(op, res).value != res.value:
                    run.error(f"oracle {op} at {oin[op]}: {res.value} after {results[op].value}")
            oracle_best = min(oracle_best, total)
        if tracer:
            tracer.end_op(len(reps), len(reps))
        self.check_speed.record(check_s, *check_best)
        self.oracle_speed.record(oracle_best)
        run.attempted += len(reps) + REPEATS * len(results)
        for id, inputs, rep in reps:
            if rep.verdict not in ("holds", "equality"):
                run.failed += 1
                run.error(f"{id} {rep.verdict} at {inputs} (margin {rep.margin!r})")
            if k < MIN_ROUNDS:
                self.digest.update(f"{id}:{rep.margin!r}:{rep.verdict};".encode())
        for op, res in results.items():
            if not oracle_ok(op, oin[op], res):
                run.failed += 1
                run.error(f"oracle {op} at {oin[op]}: fast path outside the published bound")
            if k < MIN_ROUNDS:
                self.digest.update(f"{op}:{res.value};".encode())
        self.k += 1

    def finish(self):
        """Records the latency metrics; returns (evals_per_s, evals) and the digest."""
        scaled = self.check_speed.scaled()
        n = len(catalog.INEQUALITY_IDS)
        self.run.latencies("check", [1e6 * t / n for _, *best in scaled for t in best])
        self.run.latencies("oracle", [1e6 * t / len(oracle.ORACLE_OP_TAGS)
                                      for (t,) in self.oracle_speed.scaled()])
        evals = n * CHECK_ROUNDS * REPEATS * len(scaled)
        return (evals / sum(total for total, *_ in scaled), evals), self.digest.hexdigest()


def machine():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    import numpy
    simd = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                   cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "simd": simd[-1] if simd else "none"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--samples", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    run = Run()
    out = {"workload": args.workload, "seed": args.seed, "machine": machine()}
    if args.workload == "point":
        point = PointPhase(run, args.seed, tracer)
        deadline = time.perf_counter() + args.seconds
        while point.k < MIN_ROUNDS or time.perf_counter() < deadline:
            point.step()
        rate, out["digest"] = point.finish()
        speed = point.check_speed
    else:
        spec = SWEEPS[args.workload]
        out["samples"] = samples = args.samples or spec.samples
        sweep = SweepPhase(run, spec, args.seed, samples, args.work, tracer)
        # untraced, so that the layer metrics describe the sweep alone
        point = PointPhase(run, args.seed, None)
        # alternate, so that both see the same stretches of machine load
        deadline = time.perf_counter() + args.seconds
        sweep_s = point_s = 0.0
        while (sweep.calls < MIN_CALLS or point.k < MIN_ROUNDS
               or time.perf_counter() < deadline):
            t0 = time.perf_counter()
            sweep.step()
            t1 = time.perf_counter()
            sweep_s += t1 - t0
            point.resume()
            target = sweep_s * POINT_SHARE / (1 - POINT_SHARE)
            while point.k < MIN_ROUNDS or point_s + time.perf_counter() - t1 < target:
                point.step()
            point_s += time.perf_counter() - t1
        rate = sweep.finish()
        _, out["point_digest"] = point.finish()
        out["digest"] = sweep.reference
        speed = sweep.speed
    if rate:
        run.metrics["evals_per_s"] = rate
    run.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    if tracer:
        values = tracing.layer_metrics(tracer.acc)
        # layer times scale by the run's speed; counts and shares do not
        factor = speed.run_factor()
        out["layers"] = []
        for name, unit, moves in tracing.PER_LAYER:
            value = values.get(name)
            if unit in ("us", "s"):
                value *= factor
            out["layers"].append([name, value, unit, moves])
        tracer.write_first_op(args.work / f"trace-{args.workload}-{args.seed}.jsonl")
    out.update(attempted=run.attempted, failed=run.failed, errors=run.errors,
               metrics=run.metrics)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
