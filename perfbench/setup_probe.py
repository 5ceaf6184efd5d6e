"""Set-up probe: a fresh interpreter imports repro and builds one workload's inputs.

``run.py`` times this script end to end for ``setup_s``::

    python3 perfbench/setup_probe.py <workload> <seed> <seconds>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS, build_inputs  # noqa: E402

if __name__ == "__main__":
    name, seed, seconds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    build_inputs(WORKLOADS[name], seed, seconds)
