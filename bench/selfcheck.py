"""Quick self-check of the benchmark at tiny sizes; about two minutes.

    python3 bench/selfcheck.py

For every workload it confirms that:

* an untraced run prints every end-to-end metric of BENCHMARK.json, with its
  unit, and finds the outputs correct;
* two traced runs print every per-layer metric with its unit, the same
  report digests, and exactly the same counts ``ratio.quads_per_quad_eval``,
  ``rng.words_per_eval`` and ``report.builds_per_sample``.

It also confirms that the benchmark fails, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("ratio.quads_per_quad_eval", "rng.words_per_eval", "report.builds_per_sample")
TINY = ["--seconds", "2", "--samples", "64"]


def fail(msg):
    sys.exit(f"selfcheck FAILED: {msg}")


def run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--trace", str(trace), *TINY]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        fail(f"{workload} --trace {trace}: outputs not correct\n" + proc.stdout[-1500:])
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    if units != {m["name"]: m["unit"] for m in wanted}:
        fail(f"{workload} --trace {trace}: metrics and units {units} differ from BENCHMARK.json")
    digests = [ln.strip() for ln in lines if ln.strip().startswith("digest ")]
    return res["metrics"], digests


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        result(workload, 0)
        (first, d1), (second, d2) = result(workload, 1), result(workload, 1)
        if d1 != d2:
            fail(f"{workload}: digests differ between runs: {d1} vs {d2}")
        for name in EXACT_COUNTS:
            if first[name]["value"] != second[name]["value"]:
                fail(f"{workload}: {name} reads {first[name]['value']!r} "
                     f"then {second[name]['value']!r}")
        counts = ", ".join(f"{n} = {first[n]['value']!r}" for n in EXACT_COUNTS)
        print(f"ok {workload}: all metrics and units; counts repeat ({counts})")

    bare = ROOT / ".bench_build" / "meanineq" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the benchmark ran without the meanineq sources")
    print("ok: without the sources the benchmark exits "
          f"{proc.returncode} and prints no result")


if __name__ == "__main__":
    main()
