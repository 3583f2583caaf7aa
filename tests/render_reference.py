"""Reference encoders that ``fpaccel.cli``'s JSON and CSV renderers must match byte for byte.

Both read the rows through ``cli._rows``, so they share its row and status
rule and check only the encoding: JSON as ``json.dumps(docs, indent=2)``
over one dict per row, CSV as ``repr`` of each part.
"""

import json

from fpaccel.cli import _rows


def _parts(v):
    if v is None:
        return None, None
    if isinstance(v, complex):
        return v.real, v.imag
    return float(v), 0.0


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
