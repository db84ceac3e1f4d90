"""One complete set-up of a sim workload, in a fresh interpreter.

``python -m perfbench.setup_child WORKLOAD SCALE_JSON`` pays what a run
pays before its measured window opens — the imports behind
``perfbench.cli``, then building the workload's cluster — and prints the
seconds that took.  Imports happen once per interpreter, so this is how
:func:`perfbench.sim._timed_setups` gets more than one sample of them.
"""

import json
import sys
import time

from perfbench import cli
from perfbench.sim import SETUPS, Scale

if __name__ == "__main__":
    t0 = time.perf_counter()
    SETUPS[sys.argv[1]](Scale(**json.loads(sys.argv[2])))
    print(cli.IMPORTS_S + time.perf_counter() - t0)
