"""Reference renderers that ``fpaccel.cli``'s markdown, CSV and JSON must match byte for byte.

They go row by row, through their own ``_rows``, so they hold the row and
status rule apart from the column-at-a-time renderers: markdown fills an
``n_rows`` by columns grid one cell at a time, JSON is
``json.dumps(docs, indent=2)`` over one dict per row, and CSV is ``repr``
of each part.
"""

import json
from itertools import chain, repeat

from fpaccel import Status
from fpaccel.cli import _fmt


def _rows(c):
    """``(n, value, status)`` per row; value None on an Indeterminate pad row.

    Value rows read ``ok``, the last one its column's stop reason if that is
    ``converged`` or ``diverged``, the two that end on the point they name.
    """
    end = c.offset + len(c.values)
    ok = Status.OK.value
    on_point = c.stop_reason in (Status.CONVERGED.value, Status.DIVERGED.value)
    statuses = chain(repeat(ok, len(c.values) - 1), (c.stop_reason if on_point else ok,))
    return chain(
        zip(range(c.offset, end), c.values, statuses),
        zip(range(end, c.pad_to), repeat(None), repeat(Status.NONFINITE.value)),
    )


def _parts(v):
    if v is None:
        return None, None
    if isinstance(v, complex):
        return v.real, v.imag
    return float(v), 0.0


def reference_markdown(exp):
    grid = [[""] * len(exp.columns) for _ in range(exp.n_rows)]
    for j, c in enumerate(exp.columns):
        for n, v, _ in _rows(c):
            grid[n][j] = "Indeterminate" if v is None else _fmt(v)
    head = "| n | " + " | ".join(c.method for c in exp.columns) + " |"
    rule = "|---:|" + "|".join("---" for _ in exp.columns) + "|"
    rows = (f"| {r} | " + " | ".join(cells) + " |" for r, cells in enumerate(grid))
    return "\n".join(chain((head, rule), rows))


def reference_json(exp):
    docs = []
    for c in exp.columns:
        rows = []
        for n, v, s in _rows(c):
            re, im = _parts(v)
            rows.append({"n": n, "re": re, "im": im, "status": s})
        docs.append(
            {"problem": exp.problem, "method": c.method, "rows": rows, "stop_reason": c.stop_reason}
        )
    return json.dumps(docs, indent=2)


def reference_csv(exp):
    lines = ["n,method,re,im,status"]
    for c in exp.columns:
        for n, v, s in _rows(c):
            if v is None:
                lines.append(f"{n},{c.method},,,{s}")
            else:
                re, im = _parts(v)
                lines.append(f"{n},{c.method},{re!r},{im!r},{s}")
    return "\n".join(lines)
