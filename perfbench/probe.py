"""Set-up probe: a fresh process that imports sdcodes and builds one
workload's inputs, then exits.  ``run.py`` times it for ``setup_s``.

    PYTHONPATH=src python3 perfbench/probe.py <workload> <seed>
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
