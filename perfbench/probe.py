"""Time one fresh interpreter's set-up of sixpoints.

    python3 perfbench/probe.py WORKLOAD

Times the first import (plus ``sixpoints.cli`` for the CLI workloads), the
first ``enumerate_types()``, and the lazy caches the workload's first op
fills.  Only ``sys`` and ``time`` are loaded before the clock starts, so the
standard modules sixpoints needs count too.  Prints one JSON line.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
workload = sys.argv[1]
t0 = time.perf_counter()
import sixpoints  # noqa: E402
if workload != "verify-sweep":
    import sixpoints.cli  # noqa: E402,F401
t1 = time.perf_counter()
sixpoints.enumerate_types()
t2 = time.perf_counter()
sixpoints.full_neg(())
if workload == "queries-small":
    sixpoints.classify([])
t3 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_ms": (t1 - t0) * 1e3, "enumerate_ms": (t2 - t1) * 1e3,
                  "setup_s": t3 - t0}))
