"""Time one set-up in a fresh interpreter: import mucnf, then prepare the inputs.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
Prints the seconds taken as its only output line.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports mucnf; its cost is part of set-up)

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.WORKLOADS[name](seed, workdir)
print(time.perf_counter() - t0)
