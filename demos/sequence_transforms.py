"""Classical sequence transforms next to the map-aware w transform.

Aitken and theta2 only see the numbers; w_transform re-evaluates the map
and wins by orders of magnitude on the same data.
"""

from fpaccel import (
    aitken_delta2,
    corpus_lookup,
    iterate,
    iterated_aitken,
    plain_step,
    theta2,
    w_transform,
)

u = corpus_lookup("sin").map
tr = iterate(lambda x: plain_step(x, u), 3.0, 12)

print(f"{len(tr.points)} input terms, fixed point 0")
print(f"{'last plain':>18} {tr.last():.6e}")
for label, out in (
    ("aitken", aitken_delta2(tr)),
    ("aitken twice", iterated_aitken(tr, 2)),
    ("theta2", theta2(tr)),
    ("w transform", w_transform(tr, u)),
):
    print(f"{label:>18} {out.last():.6e}   ({len(out.points)} terms)")
