"""Side by side iteration of sin, its Newton step and the doubled step.

The plain map crawls (the fixed point 0 is neutral), the first Newton
step turns it linear, the second makes it superlinear.
"""

from fpaccel import (
    corpus_lookup,
    empirical_order,
    first_newton_step,
    iterate,
    plain_step,
    standard_step,
)

prob = corpus_lookup("sin")
u = prob.map

plain = iterate(lambda x: plain_step(x, u), prob.x0, 12)
first = iterate(lambda x: first_newton_step(x, u.at(x)), prob.x0, 12)
# 4 steps reach roundoff; more would just repeat the converged value
second = iterate(lambda x: standard_step(x, u.at(x)), prob.x0, 4)

print(f"{'n':>3} {'plain':>22} {'first newton':>22} {'double newton':>22}")
for n in range(13):
    row = []
    for tr in (plain, first, second):
        row.append(f"{tr.points[n]:>22.15g}" if n < len(tr.points) else " " * 22)
    print(f"{n:>3} " + " ".join(row))

for name, tr in (("plain", plain), ("first", first), ("double", second)):
    rep = empirical_order(tr, 0.0)
    rate = "" if rep.rate is None else f", rate {rep.rate:.4f}"
    print(f"{name:>6}: {rep.verdict}{rate}")
