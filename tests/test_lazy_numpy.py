"""No command imports numpy, the sequence entries EQ15..EQ17 included, nor
``dataclasses`` and the ``inspect`` module it pulls in; and each command
loads only the meanineq modules it runs, and ``decimal`` and ``hashlib`` only
where it runs the oracle or the sampler.

Each command runs in a fresh interpreter, because this test process has
imported numpy already.  numpy integers are still valid inputs.
"""

import subprocess
import sys

import numpy as np
import pytest

from meanineq import catalog
from meanineq.report import HypothesisViolation

#: The modules a command loads only if it runs them.
LAZY = ("meanineq.catalog", "meanineq.kyfan", "meanineq.oracle", "meanineq.rng",
        "meanineq.sweep", "decimal", "hashlib")

# Runs the CLI on its arguments (or only imports it, given none), then reports
# on stderr which of numpy, dataclasses, inspect and LAZY were loaded.
PROBE = f"""
import sys
from meanineq.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
loaded = [m for m in ("numpy", "dataclasses", "inspect", *{LAZY!r}) if m in sys.modules]
sys.stderr.write(f"loaded: {{' '.join(loaded)}}\\n")
sys.exit(code)
"""


def _probe(argv):
    """The modules PROBE reports loaded after running the CLI on ``argv``."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1].removeprefix("loaded:").split()


@pytest.mark.parametrize("argv,loads_numpy", [
    ((), False),
    (("ineq-check", "--id", "EQ5", "--a", "4", "--b", "3", "--c", "2", "--d", "1"), False),
    (("kyfan-sweep", "--samples", "20"), False),
    (("sweep", "--ids", "EQ5,EQ6", "--samples", "20"), False),
    (("ineq-check", "--id", "EQ15", "--n", "7"), False),
    (("sweep", "--ids", "EQ15,EQ16,EQ17", "--samples", "1100", "--workers", "2"), False),
])
def test_numpy_loads_only_for_sequence_entries(argv, loads_numpy):
    assert ("numpy" in _probe(argv)) == loads_numpy


@pytest.mark.parametrize("argv", [
    (),
    ("ineq-check", "--id", "EQ5", "--a", "4", "--b", "3", "--c", "2", "--d", "1"),
    ("kyfan-sweep", "--samples", "50"),
    ("sweep", "--ids", "all", "--samples", "20"),
], ids=["import", "ineq-check", "kyfan-sweep", "sweep"])
def test_no_command_loads_dataclasses_or_inspect(argv):
    loaded = _probe(argv)
    assert "dataclasses" not in loaded and "inspect" not in loaded, loaded


EQ5_CHECK = ("ineq-check", "--id", "EQ5", "--a", "4", "--b", "3", "--c", "2", "--d", "1")


@pytest.mark.parametrize("argv,loads,skips", [
    ((), (), LAZY),
    (EQ5_CHECK, ("meanineq.catalog",), LAZY[1:]),
    (("means-eval", "--mean", "L", "--a", "4", "--b", "2"), (), LAZY),
    (("oracle-compare", "--op", "f", "--a", "4", "--b", "3", "--c", "2", "--d", "1",
      "--x", "1.7"), ("meanineq.oracle", "decimal"),
     ("meanineq.catalog", "meanineq.kyfan", "meanineq.rng", "meanineq.sweep")),
    (("kyfan-check", "--x", "0.1,0.2,0.3"), ("meanineq.catalog", "meanineq.kyfan"),
     ("meanineq.oracle", "meanineq.rng", "meanineq.sweep")),
    (("sweep", "--ids", "EQ5", "--samples", "20"),
     ("meanineq.catalog", "meanineq.rng", "meanineq.sweep", "hashlib"), ("meanineq.oracle",)),
], ids=["import", "ineq-check", "means-eval", "oracle-compare", "kyfan-check", "sweep"])
def test_each_command_loads_only_what_it_runs(argv, loads, skips):
    loaded = _probe(argv)
    assert set(loads) <= set(loaded) and not set(skips) & set(loaded), loaded


@pytest.mark.parametrize("n", [np.int64(7), np.uint8(7)])
def test_numpy_integers_are_valid_n(n):
    assert catalog.evaluate("EQ15", n=n).to_json() == catalog.evaluate("EQ15", n=7).to_json()


@pytest.mark.parametrize("n", [True, np.bool_(True), 7.0, np.float64(7.0)])
def test_non_integer_n_is_rejected(n):
    with pytest.raises(HypothesisViolation, match="n must be a positive integer"):
        catalog.evaluate("EQ15", n=n)


# Runs the CLI as PROBE does, then reports whether the process-pool modules
# were loaded.  Two CPUs are assumed, so the pool's branch is the same on a
# 1-CPU machine.
POOL_PROBE = """
import sys
from meanineq import sweep
from meanineq.cli import main
sweep._cpu_count = lambda: 2
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
loaded = [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]
sys.stderr.write(f"pool modules loaded: {loaded}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("argv,loads_pool", [
    ((), False),
    (("sweep", "--ids", "EQ5,EQ6", "--samples", "1100", "--workers", "1"), False),
    (("sweep", "--ids", "EQ5,EQ6", "--samples", "20", "--workers", "2"), False),
    (("kyfan-sweep", "--samples", "20", "--workers", "2"), False),
    (("sweep", "--ids", "EQ5,EQ6", "--samples", "1100", "--workers", "2"), True),
])
def test_pool_modules_load_only_for_a_pool(argv, loads_pool):
    proc = subprocess.run([sys.executable, "-c", POOL_PROBE, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = "['concurrent.futures', 'multiprocessing']" if loads_pool else "[]"
    assert proc.stderr.endswith(f"pool modules loaded: {loaded}\n")
