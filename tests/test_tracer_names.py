"""The benchmark's tracer still sees the means a sweep calls.

``bench/tracing.py`` wraps each layer's functions where the calling module
binds them (``catalog.logarithmic_mean``, ``kyfan.ln_logarithmic``,
``ln_identric`` in ``catalog``, ``kyfan`` and ``ratio`` ...).  A sweep that
called a mean by another name would leave that layer's per-layer metrics at
0, and a name that went unbound would make ``install`` fail.  The traced
sweeps run in a fresh interpreter, because ``install`` rebinds module names
for good.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Installs the tracer, runs each sweep traced, and prints each one's exit
# code and span counts by kind as the last stdout line.
PROBE = """
import io, json, os, sys, tempfile
from collections import Counter
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
import tracing
from meanineq import cli
tracer = tracing.Tracer()
tracing.install(tracer)
out = {}
with tempfile.TemporaryDirectory() as tmp:
    common = ["--samples", "64", "--seed", "1", "--out", os.path.join(tmp, "r.json")]
    for name, argv in (("sweep", ["sweep", "--ids", "all"]), ("kyfan", ["kyfan-sweep"])):
        tracer.begin_op()
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv + common)
        kinds = Counter(rec[tracing.KIND] for rec in tracer.spans)
        tracer.end_op(64, 64)
        out[name] = {"code": code, "kinds": kinds}
print(json.dumps(out))
"""


def test_traced_sweeps_record_the_means():
    proc = subprocess.run([sys.executable, "-c", PROBE, str(BENCH)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in ("sweep", "kyfan"):
        assert out[name]["code"] == 0, name
        kinds = out[name]["kinds"]
        assert kinds.get("means.I", 0) > 0 and kinds.get("means.L", 0) > 0, (name, kinds)
    assert out["sweep"]["kinds"].get("means.Lp", 0) > 0
