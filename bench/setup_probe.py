"""Prints how long this fresh interpreter takes to import meanineq.cli.

The time is scaled to the nominal machine speed (see calibrate.py) by
reference passes taken just before and after the import.
"""

import time

from calibrate import Speed

speed = Speed(passes=5)
t0 = time.perf_counter()
import meanineq.cli  # noqa: E402,F401  (the import is what is timed)
speed.record(time.perf_counter() - t0)
print(speed.scaled()[0][0])
