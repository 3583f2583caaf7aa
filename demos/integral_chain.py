"""Nested antiderivative accelerators for the sine map.

h1(x) = 1 - cos x, h2(x) = x - sin x, h3(x) = x^2/2 + cos x - 1 are the
closed forms; the package computes them by adaptive quadrature alone.
Each level raises the contact order at 0 by one, so the fixed point of
each h is flatter than the last.
"""

import math

from fpaccel import corpus_lookup, integral_step, iterate

u = corpus_lookup("sin").map

closed = {
    1: lambda x: 1.0 - math.cos(x),
    2: lambda x: x - math.sin(x),
    3: lambda x: 0.5 * x * x + math.cos(x) - 1.0,
}

print("quadrature against closed forms")
for depth in (1, 2, 3):
    worst = 0.0
    for k in range(-4, 5):
        x = 0.5 * k
        got = integral_step(x, u, depth).value
        worst = max(worst, abs(got - closed[depth](x)))
    print(f"  depth {depth}: worst deviation on [-2, 2] = {worst:.2e}")

print("iterating h3 from 1.0")
tr = iterate(lambda x: integral_step(x, u, 3), 1.0, 6)
for n, x in enumerate(tr.points):
    print(f"  {n}  {x:.15g}")
