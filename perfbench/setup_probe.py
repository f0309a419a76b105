"""Time one fresh set-up of a workload: import numpy and qldp, then one
warm-up call per op kind. Prints the seconds on stdout.

Usage: python3 perfbench/setup_probe.py <workload> <workdir>
"""

import sys
import time

import env

env.pin_threads()
t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.warm_up(sys.argv[1], sys.argv[2])
print(time.perf_counter() - t0)
