"""meanineq benchmark: one run of one workload, from the root of a checkout.

    python3 bench/run.py --workload catalog-all --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run times meanineq's set-up (a fresh interpreter
importing ``meanineq.cli``, several times), then runs the workload in one
more fresh interpreter (bench/worker.py) and prints every end-to-end metric.
With ``--trace 1`` it runs the workload twice, half the time each: untraced,
then with every layer wrapped (bench/tracing.py), and prints the per-layer
metrics and the tracing overhead.  Either way the outputs are checked, a
table goes to stdout, and the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

See bench/README.md for the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "meanineq"
WORKLOADS = ("catalog-all", "kyfan", "catalog-csv-w2", "point")

#: name -> unit.  Every run reports all of them (see README.md).
END_TO_END = {
    "setup_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB",
    "check_p50_us": "us", "check_p95_us": "us",
    "oracle_p50_us": "us", "oracle_p95_us": "us",
}
#: Fresh interpreters timed for setup_s, after one that fills the bytecode cache.
SETUP_RUNS = 7
#: A worker ends within this many seconds past --seconds, or is killed.
GRACE_S = 100


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # numpy's BLAS pools would add threads; the sweeps never call BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_setup(env):
    """Median over fresh interpreters of the scaled time of ``import meanineq.cli``."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py")]
    subprocess.run(cmd, env=env, check=True, timeout=20, stdout=subprocess.DEVNULL)
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, env=env, check=True, timeout=20, stdout=subprocess.PIPE,
                              text=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_worker(args, env, seconds, trace):
    log = WORK / f"worker-{args.workload}.log"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(WORK)]
    if args.samples:
        cmd += ["--samples", str(args.samples)]
    with open(log, "w") as err:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
                              timeout=seconds + GRACE_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = log.read_text().strip().splitlines()[-15:]
        sys.exit(f"worker exited with {proc.returncode}:\n" + "\n".join(tail))
    res = json.loads(lines[-1])
    if "evals_per_s" not in res["metrics"]:
        sys.exit("every timed call failed:\n" + "\n".join(res["errors"]))
    return res


def print_header(res):
    m = res["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} simd={m['simd']}")
    detail = f", {res['samples']} samples per sweep call" if "samples" in res else ""
    print(f"workload {res['workload']} seed {res['seed']}{detail}")
    print(f"  digest {res['digest']}" + (f", point {res['point_digest']}"
                                         if "point_digest" in res else ""))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--samples", type=int, default=None,
                    help="samples per sweep call (default: the workload's own)")
    args = ap.parse_args()
    if not (ROOT / "src" / "meanineq" / "__init__.py").is_file():
        sys.exit(f"no meanineq sources under {ROOT / 'src'}; run from a full checkout")
    WORK.mkdir(parents=True, exist_ok=True)
    env = child_env()

    if args.trace:
        base = run_worker(args, env, args.seconds / 2, 0)
        res = run_worker(args, env, args.seconds / 2, 1)
        runs = (base, res)
        overhead = base["metrics"]["evals_per_s"][0] / res["metrics"]["evals_per_s"][0] - 1.0
        metrics = {name: (value, unit, moves) for name, value, unit, moves in res["layers"]}
        metrics["trace.overhead"] = (overhead, *metrics["trace.overhead"][1:])
    else:
        setup_s = time_setup(env)
        res = run_worker(args, env, args.seconds, 0)
        runs = (res,)
        metrics = {"setup_s": (setup_s, SETUP_RUNS), **res["metrics"]}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    print_header(res)
    if args.trace:
        for name, (value, unit, moves) in metrics.items():
            print(f"  {name:28s} {value:14.6g} {unit:5s} moves {moves}")
        print(f"  tracing overhead {overhead:+.1%} on evals_per_s "
              f"({base['metrics']['evals_per_s'][0]:.6g} untraced, "
              f"{res['metrics']['evals_per_s'][0]:.6g} traced)")
        out = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    else:
        for name, unit in END_TO_END.items():
            value, n = metrics[name]
            print(f"  {name:16s} {value:14.6g} {unit:4s} (n={n})")
        out = {name: {"value": metrics[name][0], "unit": unit}
               for name, unit in END_TO_END.items()}
    print(f"  fail_ratio       {failed / attempted:14.6g}      ({failed}/{attempted})")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    print(json.dumps({"correct": not errors and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
