"""Set-up probe: in a fresh interpreter, import projdyn and build one
workload's inputs, then print "ready".  ``run.py`` times it from launch.

    python3 bench/probe.py WORKLOAD SEED [--tiny]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.build(sys.argv[1], int(sys.argv[2]), "--tiny" in sys.argv[3:])
print("ready", flush=True)
