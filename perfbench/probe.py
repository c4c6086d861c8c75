"""One cold set-up: import `corridor` and load the given grid files.

Usage: python3 perfbench/probe.py SRC_DIR GRID_FILE...
Prints the elapsed seconds.  `run.py` starts this several times per run and
reports the median as `setup_s`.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import corridor  # noqa: E402

for path in sys.argv[2:]:
    corridor.load_grid(path)
print(repr(time.perf_counter() - t0))
