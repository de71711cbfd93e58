"""Set-up probe: one fresh interpreter from start to ready.

Imports the library, generates the dataset for the seed, runs the first
``build_system`` and profiles every query the workload uses, then exits.
``run.py`` times whole launches of this script for ``setup_s``::

    python3 benchmarks/harness/setup_probe.py q6-concurrency 42
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from workloads import WORKLOADS, prepare  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1:]
    prepare(WORKLOADS[name], int(seed))
