"""Set-up probe of the ``sweep`` workload, run in a fresh process.

Prints the seconds from constructing the two sweep engines to the end of
each one's first 64-trial batch; the program's tables are built inside
that window, as they are in a fresh sweep process.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.engine.sweep import ParallelSweepEngine  # noqa: E402

start = time.perf_counter()
for d, n, f in ((2, 16, 2), (4, 8, 1)):
    ParallelSweepEngine(d, n, workers=1, batch=64).run(fault_counts=(f,), trials=64, seed=0)
print(time.perf_counter() - start)
