"""fpaccel benchmark: one workload, one process, a closed loop with one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload neutral_solve --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``neutral_solve``, ``plain_crawl``,
``integral_chain`` and ``kernel_family``.  A run

1. runs the output gate: the three golden suites must pass 43/43 and three
   maps outside the kernel family must be reported as non-members;
2. starts fresh interpreters one at a time that import fpaccel and build
   the workload's inputs (set-up time and peak memory);
3. runs every op of the seeded input pool once, checking each result.  This
   warms every cache and yields the behaviour fingerprint, exact counts of
   engine stop reasons and check outcomes that repeat for a given seed;
4. cycles through the pool for ``--seconds``, timing each op and checking
   that its outcome repeats the one its input had in step 3.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
spends half the time untraced and half with every layer wrapped by
``tracer.Tracer``, and reports the per-layer metrics: call counts from a
traced pass over the pool (exact), self time per op from the traced loop,
and the tracing overhead against the untraced half.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count the distinct inputs of the pool and those
that failed their check in step 3, so they are exact for a given seed however
many ops the timed loop gets through.  A run whose gate fails, whose ops fail
in a way the baseline does not already record, or whose repeated op changes
its outcome, prints ``correct: false`` with no metrics and exits 1.
``--smoke`` shrinks every input pool for a quick functional run.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time_ns

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("neutral_solve", "plain_crawl", "integral_chain", "kernel_family")
SUITES = ["table1", "table2", "table3"]
GATE_LINE = "43/43 checks passed"
SETUP_PROBES = 11
STOP_REASONS = ("converged", "max_iter", "diverged", "singular", "nonfinite")
SELF_TIMED = (
    "maps.at",
    "maps.value",
    "accelerators.standard_step",
    "accelerators.first_newton_step",
    "accelerators.integral_step",
    "accelerators.adaptive_simpson",
    "engine.iterate",
    "engine.step",
    "transforms.aitken_delta2",
    "transforms.iterated_aitken",
    "transforms.theta2",
    "cli.run_experiment",
    "cli.render",
    "kernel.affinity_test",
    "kernel.kernel_family_fit",
)
COUNTED = (
    "maps.at",
    "maps.value",
    "accelerators.standard_step",
    "accelerators.first_newton_step",
    "accelerators.integral_step",
    "accelerators.adaptive_simpson",
    "engine.iterate",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="fpaccel benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny input pools, one set-up probe")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------- gate and set-up ----------


def run_gate(workloads, cli) -> tuple[bool, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.run_suite(list(SUITES))
    summary = buf.getvalue().strip().splitlines()[-1]
    members = workloads.outsider_verdicts()
    outsiders_ok = not any(members.values())
    ok = rc == 0 and summary == GATE_LINE and outsiders_ok
    rejected = sum(not m for m in members.values())
    return ok, f"golden suites {summary}; outsiders rejected {rejected}/{len(members)}"


def _import_cumulative_s(stderr: str, package: str) -> float:
    # `-X importtime` lines: "import time: self [us] | cumulative | name"
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == package:
            return int(parts[1]) / 1e6
    return 0.0


def run_probes(args, importtime: bool) -> list:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "probe.py"), args.workload, str(args.seed), "1" if args.smoke else "0"]
    out = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if importtime:
            doc["numpy_s"] = _import_cumulative_s(proc.stderr, "numpy")
            doc["fpaccel_s"] = _import_cumulative_s(proc.stderr, "fpaccel")
        out.append(doc)
    return out


# ---------- running ops ----------


def run_op(wl, item):
    try:
        return wl.op(item)
    except Exception as err:  # an op that raises is a failed op, not a crash
        return err


def pool_pass(wl, pool, expected) -> list:
    return [wl.check(item, exp, run_op(wl, item)) for item, exp in zip(pool, expected)]


@dataclass
class LoopResult:
    latencies_ns: list = field(default_factory=list)
    changed: int = 0  # ops whose outcome differs from their input's first one

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    @property
    def ops_per_s(self) -> float:
        """Ops per second of op time, as run."""
        return self.ops / (sum(self.latencies_ns) / 1e9)


def timed_loop(wl, pool, expected, outcomes, seconds: float) -> LoopResult:
    """Closed loop over the pool for ``seconds`` of wall time.

    Each op is timed by this thread's CPU time, which unlike wall time does
    not count the time the process waits for a core on a shared machine.
    The check after each op is not timed; its outcome must equal the one in
    ``outcomes``, from the first pass over the pool.
    """
    res = LoopResult()
    n = len(pool)
    i = 0
    gc.collect()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        t0 = thread_time_ns()
        out = run_op(wl, pool[i % n])
        res.latencies_ns.append(thread_time_ns() - t0)
        res.changed += wl.check(pool[i % n], expected[i % n], out) != outcomes[i % n]
        i += 1
    return res


# ---------- statistics ----------


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def latency_summary(loop: LoopResult, n_pool: int, tail_p: float) -> dict:
    """Throughput, median and tail latency, each robust to interference.

    ``tail_p`` is fixed per workload: the highest of p90, p99 and p99.9
    that has at least ten ops beyond it in a baseline run, kept fixed so
    that a faster or slower program is compared at the same percentile.

    The loop visits the pool in order, so op k ran input k % n_pool.  Each
    op is timed as the best (least) latency its input had over the run:
    other processes on the machine only ever add time, so the best of many
    repetitions is what the program itself costs.  Percentiles are taken
    over these per-op times, and throughput is ops per second of their sum.
    """
    lat = loop.latencies_ns
    n = len(lat)
    best = [min(lat[j::n_pool]) / 1000.0 for j in range(min(n, n_pool))]
    per_op = [best[k % n_pool] for k in range(n)]
    ranked = sorted(per_op)
    return {
        "ops_per_s": n / (sum(per_op) / 1e6),
        "p50": percentile(ranked, 50.0),
        "tail": percentile(ranked, tail_p),
        "beyond": n - math.ceil(tail_p / 100.0 * n),
        "reps": n / n_pool,
    }


def fingerprint(outcomes: list, known_misses) -> dict:
    labels = Counter(o.label for o in outcomes)
    stops = Counter(o.stop for o in outcomes)
    return {
        "labels": dict(sorted(labels.items())),
        "engine.steps": sum(o.steps for o in outcomes),
        **{f"engine.stop.{r}": stops[r] for r in STOP_REASONS},
        "engine.false_converged": sum(o.stop == "converged" and not o.ok for o in outcomes),
        "kvb.converged_to_2": labels["kvb:converged:hit"],
        "kvb.converged_elsewhere": labels["kvb:converged:miss"],
        "kvb.singular": labels["kvb:singular:hit"] + labels["kvb:singular:miss"],
        "kvb.nonfinite": labels["kvb:nonfinite:hit"] + labels["kvb:nonfinite:miss"],
        "check.passed": sum(o.ok for o in outcomes),
        "check.failed": sum(not o.ok for o in outcomes),
        "check.unexplained": sum(not o.ok and o.stop not in known_misses for o in outcomes),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------- the two kinds of run ----------


def end_to_end(args, wl, pool, expected, outcomes):
    probes = run_probes(args, importtime=False)
    loop = timed_loop(wl, pool, expected, outcomes, args.seconds)
    st = latency_summary(loop, len(pool), wl.tail_percentile)
    setup_s = statistics.median(p["setup_s"] for p in probes)
    rss = statistics.median(p["peak_rss_mb"] for p in probes)
    print(f"setup_s      {setup_s:.4f} s   (median of {len(probes)} fresh interpreters)")
    print(f"peak_rss_mb  {rss:.1f} MiB (median of {len(probes)})")
    print(f"ops_per_s    {st['ops_per_s']:.2f} 1/s (at best times; {loop.ops_per_s:.2f} 1/s as run, {loop.ops} ops)")
    print(f"op_us_p50    {st['p50']:.2f} us  (n={loop.ops}, {st['reps']:.1f} repetitions per input)")
    print(f"op_us_tail   {st['tail']:.2f} us  (p{wl.tail_percentile:g}, n={loop.ops}, {st['beyond']} beyond)")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MiB"),
        "ops_per_s": metric(st["ops_per_s"], "1/s"),
        "op_us_p50": metric(st["p50"], "us"),
        "op_us_tail": metric(st["tail"], "us"),
    }
    return loop.changed, True, metrics


def per_layer(args, wl, pool, expected, outcomes, fp_plain):
    probes = run_probes(args, importtime=True)
    base = timed_loop(wl, pool, expected, outcomes, args.seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        fp_traced = fingerprint(pool_pass(wl, pool, expected), wl.known_misses)
        calls = Counter(tracer.calls)
        tracer.reset()
        traced = timed_loop(wl, pool, expected, outcomes, args.seconds / 2.0)
    finally:
        tracer.remove()
    same = fp_traced == fp_plain
    n_pool = len(pool)
    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = metric(calls[name], "count")
    metrics["maps.evals_per_op"] = metric((calls["maps.at"] + calls["maps.value"]) / n_pool, "count/op")
    for name in SELF_TIMED:
        metrics[f"{name}.self_us"] = metric(tracer.self_ns[name] / 1000.0 / traced.ops, "us/op")
    metrics["engine.steps_per_op"] = metric(fp_plain["engine.steps"] / n_pool, "count/op")
    for key in (
        *(f"engine.stop.{r}" for r in STOP_REASONS),
        "engine.false_converged",
        "kvb.converged_to_2",
        "kvb.converged_elsewhere",
        "kvb.singular",
        "kvb.nonfinite",
        "check.passed",
        "check.failed",
    ):
        metrics[key] = metric(fp_plain[key], "count")
    metrics["setup.import_numpy_s"] = metric(statistics.median(p["numpy_s"] for p in probes), "s")
    metrics["setup.import_fpaccel_s"] = metric(statistics.median(p["fpaccel_s"] for p in probes), "s")
    traced_rate = latency_summary(traced, n_pool, wl.tail_percentile)["ops_per_s"]
    base_rate = latency_summary(base, n_pool, wl.tail_percentile)["ops_per_s"]
    overhead = 1.0 - traced_rate / base_rate
    metrics["trace.overhead_share"] = metric(overhead, "ratio")
    print(f"traced pass fingerprint {'matches' if same else 'DIFFERS from'} the untraced one")
    print(f"untraced {base_rate:.2f} ops/s, traced {traced_rate:.2f} ops/s (best times), overhead {overhead:.3f}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']!r} {m['unit']}")
    return base.changed + traced.changed, same, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # One client, one thread: keep numpy's BLAS from starting a worker
    # thread per core, here and in the set-up probes, which inherit this.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "fpaccel" / "__init__.py").is_file():
        print(f"error: no fpaccel sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fpaccel
    from fpaccel import cli

    if Path(fpaccel.__file__).resolve().parent != SRC / "fpaccel":
        print(f"error: imported fpaccel from {fpaccel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    gate_ok, gate_text = run_gate(workloads, cli)
    print(f"gate: {gate_text}")

    pool = wl.inputs(random.Random(args.seed), args.smoke)
    expected = [wl.expect(item) for item in pool]
    outcomes = pool_pass(wl, pool, expected)
    fp_plain = fingerprint(outcomes, wl.known_misses)
    attempted, failed = len(pool), fp_plain["check.failed"]
    print(f"workload {args.workload} seed {args.seed}: {attempted} inputs")
    print("fingerprint: " + json.dumps(fp_plain, sort_keys=True))
    print(f"fail_share   {failed / attempted:.6f} ({failed}/{attempted} inputs)")

    if args.trace:
        changed, same, metrics = per_layer(args, wl, pool, expected, outcomes, fp_plain)
    else:
        changed, same, metrics = end_to_end(args, wl, pool, expected, outcomes)
    correct = gate_ok and same and changed == 0 and fp_plain["check.unexplained"] == 0
    if not correct:
        print(
            f"FAILED: gate_ok={gate_ok} fingerprint_stable={same} changed_outcomes={changed} "
            f"unexplained_failures={fp_plain['check.unexplained']}; numbers withheld"
        )
        metrics = {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
