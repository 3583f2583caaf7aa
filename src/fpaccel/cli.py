"""Command line front end: run methods on corpus problems, print tables.

Examples::

    fpaccel --problem sin --method plain --method standard --max-iter 4
    fpaccel --problem kvb_complex --method standard --format json
    fpaccel --suite table1 --suite table2 --suite table3

Methods are the entries of :data:`METHODS`.  Iterative methods: plain,
first_newton, standard, phi, steffensen, integral:J (J in 1..3),
compose:METHOD:K.  Sequence transforms applied to the plain iterates:
aitken, theta2, w_transform, iterated_aitken:D.

Each golden suite carries the :class:`GoldenValue` cells its columns must match.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_str
from math import isfinite
from typing import Callable, NamedTuple, Optional

from .accelerators import (
    DEFAULT_TOL,
    Status,
    compose_step,
    first_newton_step,
    integral_step,
    phi_step,
    plain_step,
    standard_step,
    steffensen_step,
)
from .engine import iterate
from .jets import Scalar
from .maps import ProblemSpec, corpus_lookup, corpus_names
from .transforms import aitken_delta2, iterated_aitken, theta2, w_transform

__all__ = ["METHODS", "GoldenValue", "main", "run_experiment", "run_suite", "render"]


class UsageError(ValueError):
    pass


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


class Method(NamedTuple):
    """A ``--method`` entry, written NAME:ARG:... with one ARG per name in ``args``.

    A step factory takes ``(u, tol, *args)`` and returns a step function; a
    transform factory takes ``(plain iterates, u, tol, *args)`` and returns
    ``(trace, row offset)``.  Both look library functions up at call time.
    """

    args: tuple
    make: Callable
    transform: bool = False


def _integral(u, tol, j):
    depth = _int_arg(j, "integral depth")
    return lambda x: integral_step(x, u, depth)


def _compose(u, tol, name, k):
    base = _lookup(name, ())
    if base.transform:
        raise UsageError(f"compose needs an iterative method, got {name!r}")
    step, count = base.make(u, tol), _int_arg(k, "compose count")
    return lambda x: compose_step(x, step, count)


def _iterated_aitken(seq, u, tol, d):
    depth = _int_arg(d, "aitken depth")
    return iterated_aitken(seq, depth), depth


METHODS = {
    "plain": Method((), lambda u, tol: lambda x: plain_step(x, u)),
    "first_newton": Method((), lambda u, tol: lambda x: first_newton_step(x, u.at(x), tol)),
    "standard": Method((), lambda u, tol: lambda x: standard_step(x, u.at(x), tol)),
    "phi": Method((), lambda u, tol: lambda x: phi_step(x, u.at(x))),
    "steffensen": Method((), lambda u, tol: lambda x: steffensen_step(x, u, tol)),
    "integral": Method(("J",), _integral),
    "compose": Method(("METHOD", "K"), _compose),
    "aitken": Method((), lambda s, u, tol: (aitken_delta2(s), 1), True),
    "theta2": Method((), lambda s, u, tol: (theta2(s), 2), True),
    "w_transform": Method((), lambda s, u, tol: (w_transform(s, u, tol), 1), True),
    "iterated_aitken": Method(("D",), _iterated_aitken, True),
}
_METHOD_SPECS = ", ".join(":".join((name,) + m.args) for name, m in METHODS.items())


def _lookup(name: str, args) -> Method:
    method = METHODS.get(name)
    if method is None:
        raise UsageError(f"unknown method {name!r}; have {_METHOD_SPECS}")
    if len(args) != len(method.args):
        spec, form = ":".join([name, *args]), ":".join((name,) + method.args)
        raise UsageError(f"method {spec!r} has the wrong arguments; it is written {form}")
    return method


class MethodColumn(NamedTuple):
    method: str
    offset: int
    values: tuple
    stop_reason: str
    pad_to: int = 0  # pad rows up to this count with Indeterminate


class Experiment(NamedTuple):
    problem: str
    columns: list
    n_rows: int


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
    Indeterminate rows next to the surviving columns.  A step method's
    trace is computed once per experiment; the transforms share the
    plain one.  A transform given too few plain iterates yields an empty
    column, which adds no rows.
    """
    u = prob.map
    start = prob.x0 if x0 is None else x0
    traces: dict = {}

    def trace(spec: str, method: Method, args):
        if spec not in traces:
            step = method.make(u, tol, *args)
            traces[spec] = iterate(step, start, max_iter, tol, float("inf"))
        return traces[spec]

    columns = []
    for spec in methods:
        name, *args = str(spec).split(":")
        method = _lookup(name, args)
        if method.transform:
            plain = trace("plain", METHODS["plain"], ())
            tr, offset = method.make(plain.points, u, tol, *args)
            offset, pad = (offset if tr.points else 0), 0  # an empty column adds no rows
        else:
            tr, offset = trace(spec, method, args), 0
            pad = max_iter + 1 if tr.stop_reason is Status.NONFINITE else 0
        columns.append(MethodColumn(spec, offset, tr.points, tr.stop_reason.value, pad))
    n_rows = max((max(c.offset + len(c.values), c.pad_to) for c in columns), default=0)
    return Experiment(u.name, columns, n_rows)


# ---------- rendering ----------
# A column at a time, since Python work per value costs more than its text.

_OK, _PAD = Status.OK.value, Status.NONFINITE.value  # value rows, Indeterminate pad rows


def _fmt(v: Scalar) -> str:
    if isinstance(v, complex):
        return f"{v.real:.6g}{v.imag:+.6g}i"
    return f"{v:.6g}"


def _split(values: tuple):
    """``(re, im)`` float lists of a column's values; im is None for a real column."""
    if not any(map(isinstance, values, repeat(complex))):
        return list(map(float, values)), None
    re = [v.real if isinstance(v, complex) else float(v) for v in values]
    return re, [v.imag if isinstance(v, complex) else 0.0 for v in values]


def _mark_last(rows: list, c: MethodColumn, ok: str, encode=str) -> None:
    """Give the last value row a converged or diverged stop reason: both name its point."""
    if c.values and c.stop_reason in (Status.CONVERGED.value, Status.DIVERGED.value):
        head, _, tail = rows[-1].rpartition(ok)  # the status is a row's last string
        rows[-1] = head + encode(c.stop_reason) + tail


def render_markdown(exp: Experiment) -> str:
    columns = []
    for c in exp.columns:
        fmt = _fmt if any(map(isinstance, c.values, repeat(complex))) else "{:.6g}".format
        cells = [""] * c.offset + list(map(fmt, c.values))
        cells += ["Indeterminate"] * (c.pad_to - len(cells))
        columns.append(cells + [""] * (exp.n_rows - len(cells)))
    head = "| n | " + " | ".join(c.method for c in exp.columns) + " |"
    rule = "|---:|" + "|".join("---" for _ in exp.columns) + "|"
    rows = zip(*columns) if columns else repeat((), exp.n_rows)
    return "\n".join(chain((head, rule), (f"| {n} | {' | '.join(r)} |" for n, r in enumerate(rows))))


def render_csv(exp: Experiment) -> str:
    """``n,method,re,im,status`` rows, a column per comprehension: ``repr`` of each float part."""
    lines = ["n,method,re,im,status"]
    for c in exp.columns:
        m, end = c.method, c.offset + len(c.values)
        re, im = _split(c.values)
        ims = repeat("0.0") if im is None else map(repr, im)
        lines += [f"{n},{m},{r!r},{i},{_OK}" for n, r, i in zip(range(c.offset, end), re, ims)]
        _mark_last(lines, c, _OK)
        lines += [f"{n},{m},,,{_PAD}" for n in range(end, c.pad_to)]
    return "\n".join(lines)


_JSON_DOC = '  {\n    "problem": %s,\n    "method": %s,\n    "rows": [%s],\n    "stop_reason": %s\n  }'
_JSON_ROW, _JSON_OK = '\n      {\n        "n": ', _json_str(_OK)
_JSON_PAD_ROW = _JSON_ROW + '%d,\n        "re": null,\n        "im": null,\n        "status": ' + _json_str(_PAD) + "\n      }"


def _json_floats(xs: list):
    # json.dumps writes a finite float as repr does, and NaN, Infinity, -Infinity
    return map(repr if all(map(isfinite, xs)) else json.dumps, xs)


def render_json(exp: Experiment) -> str:
    """One document per column, ``{problem, method, rows, stop_reason}``.

    Exactly the text of ``json.dumps(docs, indent=2)``, each row ``{"n", "re",
    "im", "status"}`` with null parts on a pad row, but written a column at a
    time, one f-string per row: the indenting encoder is pure Python and slow.
    """
    docs = []
    for c in exp.columns:
        end = c.offset + len(c.values)
        re, im = _split(c.values)
        ims = repeat("0.0") if im is None else _json_floats(im)
        rows = [
            f'{_JSON_ROW}{n},\n        "re": {r},\n        "im": {i},\n        "status": {_JSON_OK}\n      }}'
            for n, r, i in zip(range(c.offset, end), _json_floats(re), ims)
        ]
        _mark_last(rows, c, _JSON_OK, _json_str)
        rows += [_JSON_PAD_ROW % n for n in range(end, c.pad_to)]
        body = ",".join(rows) + "\n    " if rows else ""
        docs.append(_JSON_DOC % (_json_str(exp.problem), _json_str(c.method), body, _json_str(c.stop_reason)))
    return "[\n" + ",\n".join(docs) + "\n]" if docs else "[]"


def render(exp: Experiment, fmt: str) -> str:
    renderer = {"markdown": render_markdown, "csv": render_csv, "json": render_json}.get(fmt)
    if renderer is None:
        raise UsageError(f"unknown format {fmt!r}")
    return renderer(exp)


# ---------- golden suites ----------


class GoldenValue(NamedTuple):
    """One externally sourced reference cell for a method column.

    ``part`` selects the compared component of the iterate ("re" or "im");
    ``mode`` is "abs" (absolute tolerance), "rel" (relative) or
    "factor" (magnitudes within a multiplicative band, for cells pinned
    only up to arithmetic noise).
    """

    method: str
    index: int  # shadows tuple.index; the row of the column to check
    expected: float
    part: str = "re"
    mode: str = "abs"
    tol: float = 1e-6

    def check(self, got: Scalar) -> tuple[bool, str]:
        if self.part == "re":
            g = got.real if isinstance(got, complex) else got
        elif self.part == "im":
            g = got.imag if isinstance(got, complex) else 0.0
        else:
            raise ValueError(f"bad golden part {self.part!r}")
        if self.mode == "abs":
            ok = abs(g - self.expected) <= self.tol
            detail = f"{g!r} vs {self.expected!r} (abs tol {self.tol:g})"
        elif self.mode == "rel":
            ok = abs(g - self.expected) <= self.tol * abs(self.expected)
            detail = f"{g!r} vs {self.expected!r} (rel tol {self.tol:g})"
        elif self.mode == "factor":
            lo, hi = abs(self.expected) / self.tol, abs(self.expected) * self.tol
            ok = lo <= abs(g) <= hi
            detail = f"|{g!r}| vs {self.expected!r} (within factor {self.tol:g})"
        else:
            raise ValueError(f"bad golden mode {self.mode!r}")
        return ok, detail


_SIN_GOLDEN = (
    GoldenValue("plain", 1, 0.14112, tol=1e-5),
    GoldenValue("plain", 2, 0.140652, tol=1e-6),
    GoldenValue("plain", 3, 0.140189, tol=1e-6),
    GoldenValue("plain", 4, 0.13973, tol=1e-5),
    GoldenValue("first_newton", 1, 1.56337, tol=1e-5),
    GoldenValue("first_newton", 2, 0.995758, tol=1e-6),
    GoldenValue("first_newton", 3, 0.652467, tol=1e-6),
    GoldenValue("first_newton", 4, 0.431844, tol=1e-6),
    GoldenValue("standard", 1, 1.40041, tol=1e-5),
    GoldenValue("standard", 2, 0.173163, tol=1e-6),
    GoldenValue("standard", 3, 0.000345858, tol=1e-9),
    GoldenValue("standard", 4, 7.30548e-13, mode="factor", tol=10.0),
    GoldenValue("aitken", 0, 0.140652, tol=1e-6),
    GoldenValue("aitken", 1, 0.0938926, tol=1e-7),
    GoldenValue("aitken", 2, 0.0935825, tol=1e-7),
    GoldenValue("theta2", 0, 0.141125, tol=1e-4),
    GoldenValue("theta2", 1, -0.000754788, tol=1e-7),
)

_LOGISTIC_GOLDEN = (
    GoldenValue("plain", 1, 0.25, tol=1e-12),
    GoldenValue("plain", 2, 0.1875, tol=1e-12),
    GoldenValue("plain", 3, 0.15234375, tol=1e-12),
    GoldenValue("phi", 1, -0.25, tol=1e-12),
    GoldenValue("phi", 2, -0.025, tol=1e-12),
    GoldenValue("phi", 3, -0.00030487804878048784, tol=1e-12),
)

_KVB_GOLDEN = (
    GoldenValue("plain", 1, 2.391422135261736, mode="rel", tol=1e-9),
    GoldenValue("plain", 1, -0.4699667, part="im", tol=2e-7),
    GoldenValue("plain", 2, -190.6272479365824, mode="rel", tol=1e-9),
    GoldenValue("plain", 2, 83.78040, part="im", tol=2e-5),
    GoldenValue("plain", 3, -1.078985533e45, mode="rel", tol=1e-9),
    GoldenValue("plain", 3, 2.057e45, part="im", mode="rel", tol=1e-3),
    GoldenValue("standard", 1, 2.033556020548597, mode="rel", tol=1e-9),
    GoldenValue("standard", 1, 0.0804529, part="im", tol=2e-7),
    GoldenValue("standard", 2, 2.010056510555553, mode="rel", tol=1e-9),
    GoldenValue("standard", 2, -0.01717596, part="im", tol=1e-7),
    GoldenValue("standard", 3, 2.000502552323976, mode="rel", tol=1e-9),
    GoldenValue("standard", 3, 0.0010266, part="im", tol=1e-6),
    GoldenValue("standard", 4, 2.000002378186929, mode="rel", tol=1e-9),
    GoldenValue("standard", 4, -3.083e-6, part="im", tol=1e-8),
    GoldenValue("standard", 5, 1.999999999946048, mode="rel", tol=1e-9),
    GoldenValue("standard", 5, 0.0, part="im", tol=1e-9),
)


def _table3_checks(columns: dict) -> list:
    plain, std = columns["plain"], columns["standard"]
    n_plain = len(plain.values)
    # a missing point reads nan, which fails its comparison
    mag = abs(plain.values[3]) if n_plain >= 4 else float("nan")
    err = abs(std.values[5] - 2.0) if len(std.values) >= 6 else float("nan")
    return [
        ("plain stops non-finite", plain.stop_reason == "nonfinite", f"stop={plain.stop_reason}"),
        ("plain keeps 4 finite points", n_plain == 4, f"{n_plain} points"),
        ("plain beyond 1e30 by step 3", mag > 1e30, f"|y3|={mag:.3g}"),
        ("standard lands within 1e-9 of 2", err <= 1e-9, f"|z5-2|={err:.3g}"),
    ]


class _Suite(NamedTuple):
    """A problem, the method columns run on it, and the cells checked in them."""

    problem: str
    params: dict
    methods: tuple
    max_iter: int
    golden: tuple  # GoldenValue cells, each naming one of ``methods``
    checks: Callable = lambda columns: ()  # more (label, ok, detail) checks on the columns


_SUITES = {
    "table1": _Suite("sin", {}, ("plain", "first_newton", "standard", "aitken", "theta2"), 4, _SIN_GOLDEN),
    "table2": _Suite("logistic", {"a": 1.0}, ("plain", "phi"), 3, _LOGISTIC_GOLDEN),
    "table3": _Suite("kvb_complex", {}, ("plain", "standard"), 5, _KVB_GOLDEN, _table3_checks),
}


def run_suite(names: list) -> int:
    """Re-run the bundled reference experiments and check every golden value.

    Every name is looked up before any suite runs.  Prints one PASS/FAIL
    line per check; exit status is nonzero iff any check fails.
    """
    unknown = [name for name in names if name not in _SUITES]
    if unknown:
        print(f"error: unknown suite {unknown[0]!r}; have {', '.join(sorted(_SUITES))}", file=sys.stderr)
        return 2
    failures = total = 0
    for name in names:
        suite = _SUITES[name]
        prob = corpus_lookup(suite.problem, **suite.params)
        exp = run_experiment(prob, list(suite.methods), None, suite.max_iter, DEFAULT_TOL)
        by_method = {c.method: c for c in exp.columns}
        for gv in suite.golden:
            col = by_method[gv.method]
            total += 1
            if gv.index >= len(col.values):
                failures += 1
                print(f"FAIL {name} {gv.method}[{gv.index}] missing (column has {len(col.values)})")
                continue
            ok, detail = gv.check(col.values[gv.index])
            if not ok:
                failures += 1
            print(f"{'PASS' if ok else 'FAIL'} {name} {gv.method}[{gv.index}] {detail}")
        for label, ok, detail in suite.checks(by_method):
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
        try:
            if "," in text:
                out[key] = tuple(float(t) for t in text.split(",") if t.strip())
            else:
                out[key] = float(text)
        except ValueError:
            raise UsageError(f"--param {key} wants a number or a comma list, got {text!r}") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fpaccel",
        description="Accelerated fixed point iteration on the bundled problem corpus.",
    )
    p.add_argument("--problem", help=f"one of: {', '.join(corpus_names())}")
    p.add_argument("--param", action="append", default=[], metavar="K=V", help="problem parameter, repeatable")
    methods = f"method column, repeatable (default: plain); one of: {_METHOD_SPECS}"
    p.add_argument("--method", action="append", default=[], metavar="NAME", help=methods)
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
        prob = corpus_lookup(args.problem, **_parse_params(args.param))
        x0: Optional[Scalar] = args.x0
        if args.x0_im is not None:
            base = args.x0 if args.x0 is not None else prob.x0
            x0 = complex(base.real if isinstance(base, complex) else base, args.x0_im)
        methods = args.method or ["plain"]
        exp = run_experiment(prob, methods, x0, args.max_iter, args.tol)
        print(render(exp, args.format))
        return 0
    except ValueError as e:  # UsageError, CorpusError, bad method arguments
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
