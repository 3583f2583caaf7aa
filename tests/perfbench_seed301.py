"""Print the seed-301 pins: the benchmark's gate, fingerprints and call counts.

Check the pinned file, from the repository root::

    python tests/perfbench_seed301.py > out && diff tests/perfbench_seed301.txt out

After a change that moves a pin on purpose, regenerate it with the same
command redirected into ``tests/perfbench_seed301.txt``, and say which
lines moved and why.

For each workload named in ``BENCHMARK.json`` this runs
``perfbench/run.py --seed 301 --seconds 1`` twice, with ``--trace 0`` and
``--trace 1``.  It exits 1, naming the workload, unless both runs print
``"correct": true``.  Otherwise it prints, per workload, the untraced run's
``gate:``, ``workload`` and ``fingerprint:`` lines as ``run.py`` prints them,
then a ``calls:`` line with the traced run's ``*.calls`` metrics.

What the pins show:

- ``"correct"`` needs the golden gate, no op failing outside the recorded
  stop reasons, and the traced fingerprint equal to the untraced one.  It
  does not catch an op moving between two recorded outcomes; the pinned
  fingerprint does.
- By the traced pass every ``neutral_solve`` body runs compiled code
  (``fpaccel.tape``), yet each jet evaluation still enters through
  ``IterationMap.at``, which the tracer wraps, so ``maps.at.calls`` counts
  every one.
- The quadrature evaluates through ``IterationMap.value``: on
  ``integral_chain``, ``maps.value.calls`` counts the panel's evaluations in
  ``integral_step.calls`` steps.  A change to the panel keeps that count; a
  new error budget moves it on purpose.
- ``kernel_family``'s ops build fresh closures, which bind one traced code
  per key and still enter through ``at``: 10 calls in each op, and
  ``kernel_family_fit``'s 6 probes per op go through ``value``.
- ``first_newton_step.calls`` reads 0 there: ``affinity_test`` runs the bare
  first pass, ``accelerators._first_newton``, which the tracer does not wrap.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ("gate:", "workload ", "fingerprint:")


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    """The run's standard output lines and its metrics; exits unless it is correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "301", "--seconds", "1", "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if result.get("correct") is not True:
        sys.exit(f"error: {workload} --trace {trace} is not correct")
    return lines, result["metrics"]


def main() -> None:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    pins = []
    for workload in workloads:
        lines, _ = run(workload, 0)
        _, metrics = run(workload, 1)
        calls = {name: m["value"] for name, m in metrics.items() if name.endswith(".calls")}
        pins += [line for line in lines if line.startswith(PINNED)]
        pins.append("calls: " + json.dumps(calls, sort_keys=True))
    print("\n".join(pins))


if __name__ == "__main__":
    main()
