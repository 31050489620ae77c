"""Time one workload's set-up in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON object: ``import_s``, the time to ``import credalchoice``,
and ``setup_s``, the time from before that import until the batch is
generated, parsed and validated, that is, up to the first op.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

t0 = perf_counter()
import credalchoice  # noqa: E402,F401

t1 = perf_counter()
from perfbench.workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
