"""Set-up probe: import fpaccel in a fresh interpreter and build one workload's inputs.

Usage: python3 perfbench/probe.py WORKLOAD SEED SMOKE(0|1)

Prints one JSON line with the set-up time, as CPU seconds of this process
(wall time would also count waiting for a core on a shared machine), and
the peak resident memory of this process in MiB.  ``run.py`` starts it one
at a time, with ``-X importtime`` in traced runs to split the import time
by package.
"""

import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.process_time()
import workloads  # noqa: E402  (imports fpaccel)

pool = workloads.WORKLOADS[sys.argv[1]].inputs(random.Random(int(sys.argv[2])), sys.argv[3] == "1")
setup_s = time.process_time() - t0
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(f'{{"setup_s": {setup_s!r}, "peak_rss_mb": {peak_kib / 1024.0!r}}}')
