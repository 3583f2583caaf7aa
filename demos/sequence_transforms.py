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
seq = tr.points

once = aitken_delta2(seq)
twice = iterated_aitken(seq, 2)
th = theta2(seq)
w = w_transform(seq, u)

print(f"{len(seq)} input terms, fixed point 0")
print(f"{'last plain':>18} {seq[-1]:.6e}")
print(f"{'aitken':>18} {once[-1]:.6e}   ({len(once)} terms)")
print(f"{'aitken twice':>18} {twice[-1]:.6e}   ({len(twice)} terms)")
print(f"{'theta2':>18} {th[-1]:.6e}   ({len(th)} terms)")
print(f"{'w transform':>18} {w[-1]:.6e}   ({len(w)} terms)")
