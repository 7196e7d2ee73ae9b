"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by up to 2x over
seconds to minutes (other tenants on the same cores).  A fixed pure-Python
reference pass, which uses nothing from meanineq, is timed between the timed
operations; each timing is then scaled by ``NOMINAL_S`` over the median
reference pass measured around it.  A reported time is thus the time the
operation would take on a machine where one reference pass takes
``NOMINAL_S``: the drift cancels, a change to meanineq does not.

Only ``math`` and ``time`` are imported at the top, so that timing the
import of meanineq in a fresh interpreter loads nothing ahead of it.
"""

import math
import time

#: Seconds one reference pass takes at the speed timings are scaled to
#: (0.55 to 0.75 ms on a lightly loaded 2-core Xeon with Python 3.11), for
#: each kernel.
NOMINAL_S = {"reference_pass": 0.6e-3, "decimal_pass": 0.5e-3, "threaded_pass": 1.3e-3}


def reference_pass():
    """Float math through ``math``, calls and small containers, as meanineq does."""
    acc = 0.0
    slots = {}
    for i in range(1, 1500):
        x = i * 0.001 + 1.0
        y = math.log(x) - math.log1p(x * 0.5)
        t = (x, y, x * y)
        slots[i & 63] = t
        acc += math.exp(-y) / (1.0 + abs(t[2]))
    return acc


def decimal_pass():
    """Decimal ln and exp at the oracle's working precision."""
    from decimal import Decimal, localcontext   # not at the top: see the module docstring
    acc = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 65
        for i in range(1, 4):
            x = Decimal(i) / 7 + 1
            acc += x.ln() + (x / 3).exp()
    return acc


def threaded_pass():
    """The reference pass in two threads at once, as a two-worker sweep runs."""
    import threading   # not at the top: see the module docstring
    threads = [threading.Thread(target=reference_pass) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


class Speed:
    """Reference passes at checkpoints between timed operations.

    ``record`` stores timings made since the last checkpoint and takes the
    next one; call ``checkpoint`` first when other work ran since then.
    ``scaled`` scales each stored timing by the passes of the checkpoints
    just before and just after it.  ``kernel`` is the reference pass;
    ``decimal_pass`` suits timings of decimal arithmetic and
    ``threaded_pass`` those of two threads.
    """

    def __init__(self, passes, kernel=reference_pass):
        self.kernel = kernel
        self.nominal = NOMINAL_S[kernel.__name__]
        self.passes = passes
        self.checkpoints = []
        self.timings = []
        self.checkpoint()

    def checkpoint(self):
        times = []
        for _ in range(self.passes):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        self.checkpoints.append(times)

    def record(self, *seconds):
        self.timings.append((len(self.checkpoints), seconds))
        self.checkpoint()

    def scaled(self):
        out = []
        for after, seconds in self.timings:
            # the timing was made between checkpoints after - 1 and after
            near = self.checkpoints[after - 1] + self.checkpoints[after]
            factor = self.nominal / _median(near)
            out.append(tuple(s * factor for s in seconds))
        return out

    def run_factor(self):
        """The scale factor over the whole run."""
        return self.nominal / _median([t for times in self.checkpoints for t in times])
