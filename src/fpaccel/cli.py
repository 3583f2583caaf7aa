"""Command line front end: run methods on corpus problems, print tables.

Examples::

    fpaccel --problem sin --method plain --method standard --max-iter 4
    fpaccel --problem kvb_complex --method standard --format json
    fpaccel --suite table1 --suite table2 --suite table3

Iterative methods: plain, first_newton, standard, phi, steffensen,
integral:J (J in 1..3), compose:METHOD:K.  Sequence transforms applied
to the plain iterates: aitken, theta2, iterated_aitken:D, w_transform.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .accelerators import (
    DEFAULT_TOL,
    QuadratureError,
    StepOutcome,
    StepStatus,
    compose_step,
    first_newton_step,
    integral_step,
    phi_step,
    standard_step,
    steffensen_step,
)
from .engine import IterationTrace, iterate
from .jets import Scalar, is_finite
from .maps import ProblemSpec, corpus_lookup, corpus_names
from .transforms import aitken_delta2, iterated_aitken, sequence_view, theta2, w_transform

SIMPLE_STEPS = ("plain", "first_newton", "standard", "phi", "steffensen")
TRANSFORM_OFFSETS = {"aitken": 1, "theta2": 2, "w_transform": 1}

__all__ = ["main", "run_experiment", "run_suite", "render"]


class UsageError(ValueError):
    pass


def _make_simple_step(u, name: str, tol: float) -> Callable[[Scalar], StepOutcome]:
    if name == "plain":

        def step(x):
            val = u.value(x)
            if not is_finite(val):
                return StepOutcome(val, StepStatus.NONFINITE)
            return StepOutcome(val, StepStatus.OK)

        return step
    if name == "first_newton":
        return lambda x: first_newton_step(x, u.at(x), tol)[0]
    if name == "standard":
        return lambda x: standard_step(x, u.at(x), tol)
    if name == "phi":
        return lambda x: phi_step(x, u.at(x))
    if name == "steffensen":
        return lambda x: steffensen_step(x, u, tol)
    raise UsageError(f"unknown step {name!r}")


@dataclass
class MethodColumn:
    method: str
    offset: int
    values: tuple
    statuses: tuple
    stop_reason: str
    pad_to: int = 0  # pad rows up to this count with Indeterminate


@dataclass
class Experiment:
    problem: str
    columns: list
    n_rows: int


def _trace_column(method: str, trace: IterationTrace, max_iter: int) -> MethodColumn:
    pad = max_iter + 1 if trace.stop_reason.value == "nonfinite" else 0
    return MethodColumn(
        method,
        0,
        trace.values(),
        tuple(p.status for p in trace.points),
        trace.stop_reason.value,
        pad,
    )


def run_experiment(
    prob: ProblemSpec,
    methods: list,
    x0: Optional[Scalar] = None,
    max_iter: int = 20,
    tol: float = DEFAULT_TOL,
) -> Experiment:
    """Run each requested method on the problem and collect aligned columns.

    Divergent traces are allowed to run into non-finite territory (the
    divergence bound is lifted) so a blow-up shows up as padded
    Indeterminate rows next to the surviving columns.
    """
    u = prob.map
    start = prob.x0 if x0 is None else x0
    bound = float("inf")
    plain_trace: Optional[IterationTrace] = None

    def plain() -> IterationTrace:
        nonlocal plain_trace
        if plain_trace is None:
            step = _make_simple_step(u, "plain", tol)
            plain_trace = iterate(step, start, max_iter, tol, bound)
        return plain_trace

    columns = []
    for spec in methods:
        parts = str(spec).split(":")
        name = parts[0]
        if name in SIMPLE_STEPS and len(parts) == 1:
            if name == "plain":
                trace = plain()
            else:
                step = _make_simple_step(u, name, tol)
                trace = iterate(step, start, max_iter, tol, bound)
            columns.append(_trace_column(spec, trace, max_iter))
        elif name == "integral":
            if len(parts) != 2:
                raise UsageError("integral method is written integral:J")
            depth = _int_arg(parts[1], "integral depth")
            step = lambda x, d=depth: integral_step(x, u, d)
            trace = iterate(step, start, max_iter, tol, bound)
            columns.append(_trace_column(spec, trace, max_iter))
        elif name == "compose":
            if len(parts) != 3:
                raise UsageError("compose method is written compose:METHOD:K")
            base = _make_simple_step(u, parts[1], tol)
            k = _int_arg(parts[2], "compose count")
            step = lambda x, b=base, kk=k: compose_step(x, b, kk)
            trace = iterate(step, start, max_iter, tol, bound)
            columns.append(_trace_column(spec, trace, max_iter))
        elif name in ("aitken", "theta2", "w_transform", "iterated_aitken"):
            seq = sequence_view(plain().values(), f"plain:{u.name}")
            if name == "aitken":
                out, off = aitken_delta2(seq), TRANSFORM_OFFSETS[name]
            elif name == "theta2":
                out, off = theta2(seq), TRANSFORM_OFFSETS[name]
            elif name == "w_transform":
                out, off = w_transform(seq, u, tol), TRANSFORM_OFFSETS[name]
            else:
                if len(parts) != 2:
                    raise UsageError("iterated aitken is written iterated_aitken:D")
                depth = _int_arg(parts[1], "aitken depth")
                out, off = iterated_aitken(seq, depth), depth
            columns.append(
                MethodColumn(
                    spec,
                    off,
                    out.items,
                    ("ok",) * len(out.items),
                    out.stopped_by or "end_of_input",
                )
            )
        else:
            raise UsageError(f"unknown method {spec!r}")
    n_rows = 0
    for c in columns:
        n_rows = max(n_rows, c.offset + len(c.values), c.pad_to)
    return Experiment(u.name, columns, n_rows)


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


# ---------- rendering ----------


def _fmt(v: Scalar) -> str:
    if isinstance(v, complex):
        return f"{v.real:.6g}{v.imag:+.6g}i"
    return f"{v:.6g}"


def _parts(v: Scalar) -> tuple[float, float]:
    if isinstance(v, complex):
        return v.real, v.imag
    return float(v), 0.0


def render_markdown(exp: Experiment) -> str:
    head = "| n | " + " | ".join(c.method for c in exp.columns) + " |"
    rule = "|---:|" + "|".join("---" for _ in exp.columns) + "|"
    lines = [head, rule]
    for r in range(exp.n_rows):
        cells = []
        for c in exp.columns:
            i = r - c.offset
            if 0 <= i < len(c.values):
                cells.append(_fmt(c.values[i]))
            elif c.pad_to and r < c.pad_to and i >= len(c.values):
                cells.append("Indeterminate")
            else:
                cells.append("")
        lines.append(f"| {r} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def render_csv(exp: Experiment) -> str:
    lines = ["n,method,re,im,status"]
    for c in exp.columns:
        for i, v in enumerate(c.values):
            re, im = _parts(v)
            lines.append(f"{i + c.offset},{c.method},{re!r},{im!r},{c.statuses[i]}")
        for r in range(c.offset + len(c.values), c.pad_to):
            lines.append(f"{r},{c.method},,,nonfinite")
    return "\n".join(lines)


def render_json(exp: Experiment) -> str:
    docs = []
    for c in exp.columns:
        rows = []
        for i, v in enumerate(c.values):
            re, im = _parts(v)
            rows.append({"n": i + c.offset, "re": re, "im": im, "status": str(c.statuses[i])})
        for r in range(c.offset + len(c.values), c.pad_to):
            rows.append({"n": r, "re": None, "im": None, "status": "nonfinite"})
        docs.append(
            {
                "problem": exp.problem,
                "method": c.method,
                "rows": rows,
                "stop_reason": c.stop_reason,
            }
        )
    return json.dumps(docs, indent=2)


def render(exp: Experiment, fmt: str) -> str:
    if fmt == "markdown":
        return render_markdown(exp)
    if fmt == "csv":
        return render_csv(exp)
    if fmt == "json":
        return render_json(exp)
    raise UsageError(f"unknown format {fmt!r}")


# ---------- golden suites ----------


@dataclass(frozen=True)
class _Suite:
    problem: str
    params: dict
    methods: tuple
    max_iter: int


_SUITES = {
    "table1": _Suite("sin", {}, ("plain", "first_newton", "standard", "aitken", "theta2"), 4),
    "table2": _Suite("logistic", {"a": 1.0}, ("plain", "phi"), 3),
    "table3": _Suite("kvb_complex", {}, ("plain", "standard"), 5),
}


def _table3_checks(columns: dict) -> list:
    checks = []
    plain = columns.get("plain")
    std = columns.get("standard")
    if plain is not None:
        checks.append(
            ("plain stops non-finite", plain.stop_reason == "nonfinite", f"stop={plain.stop_reason}")
        )
        checks.append(
            ("plain keeps 4 finite points", len(plain.values) == 4, f"{len(plain.values)} points")
        )
        big = len(plain.values) >= 4 and abs(plain.values[3]) > 1e30
        mag = abs(plain.values[3]) if len(plain.values) >= 4 else float("nan")
        checks.append(("plain beyond 1e30 by step 3", big, f"|y3|={mag:.3g}"))
    if std is not None:
        hit = len(std.values) >= 6 and abs(std.values[5] - 2.0) <= 1e-9
        err = abs(std.values[5] - 2.0) if len(std.values) >= 6 else float("nan")
        checks.append(("standard lands within 1e-9 of 2", hit, f"|z5-2|={err:.3g}"))
    return checks


_EXTRA_CHECKS = {"table3": _table3_checks}


def run_suite(names: list) -> int:
    """Re-run the bundled reference experiments and check every golden value.

    Prints one PASS/FAIL line per check; exit status is nonzero iff any
    check fails.
    """
    failures = 0
    total = 0
    for name in names:
        suite = _SUITES.get(name)
        if suite is None:
            print(f"error: unknown suite {name!r}; have {', '.join(sorted(_SUITES))}", file=sys.stderr)
            return 2
        prob = corpus_lookup(suite.problem, **suite.params)
        exp = run_experiment(prob, list(suite.methods), None, suite.max_iter, DEFAULT_TOL)
        by_method = {c.method: c for c in exp.columns}
        for gv in prob.golden:
            col = by_method.get(gv.method)
            if col is None:
                continue
            total += 1
            if gv.index >= len(col.values):
                failures += 1
                print(f"FAIL {name} {gv.method}[{gv.index}] missing (column has {len(col.values)})")
                continue
            ok, detail = gv.check(col.values[gv.index])
            if not ok:
                failures += 1
            print(f"{'PASS' if ok else 'FAIL'} {name} {gv.method}[{gv.index}] {detail}")
        for label, ok, detail in _EXTRA_CHECKS.get(name, lambda c: [])(by_method):
            total += 1
            if not ok:
                failures += 1
            print(f"{'PASS' if ok else 'FAIL'} {name} {label} ({detail})")
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0


# ---------- argument handling ----------


def _parse_params(pairs: list) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--param wants K=V, got {pair!r}")
        key, _, text = pair.partition("=")
        key = key.strip()
        text = text.strip()
        if "," in text:
            out[key] = tuple(float(t) for t in text.split(",") if t.strip())
        else:
            try:
                out[key] = float(text)
            except ValueError:
                raise UsageError(f"--param {key} wants a number, got {text!r}") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fpaccel",
        description="Accelerated fixed point iteration on the bundled problem corpus.",
    )
    p.add_argument("--problem", help=f"one of: {', '.join(corpus_names())}")
    p.add_argument("--param", action="append", default=[], metavar="K=V", help="problem parameter, repeatable")
    p.add_argument("--method", action="append", default=[], metavar="NAME", help="method column, repeatable (default: plain)")
    p.add_argument("--x0", type=float, help="override start point (real part)")
    p.add_argument("--x0-im", type=float, dest="x0_im", help="imaginary part of the start point")
    p.add_argument("--max-iter", type=int, default=20)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p.add_argument("--suite", action="append", default=[], metavar="NAME", help="golden suite to run, repeatable")
    return p


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.suite:
            return run_suite(args.suite)
        if not args.problem:
            raise UsageError("nothing to do: give --problem or --suite")
        if args.tol < 0:
            raise UsageError(f"--tol must be non-negative, got {args.tol!r}")
        prob = corpus_lookup(args.problem, **_parse_params(args.param))
        x0: Optional[Scalar] = args.x0
        if args.x0_im is not None:
            base = args.x0 if args.x0 is not None else prob.x0
            x0 = complex(base.real if isinstance(base, complex) else base, args.x0_im)
        methods = args.method or ["plain"]
        exp = run_experiment(prob, methods, x0, args.max_iter, args.tol)
        print(render(exp, args.format))
        return 0
    except (ValueError, QuadratureError) as e:  # UsageError, CorpusError, bad method arguments
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
