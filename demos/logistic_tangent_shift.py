"""Accelerate the logistic map at its neutral parameter with the shifted map."""

import argparse

from fpaccel import corpus_lookup, iterate, phi_step

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--x0", type=float, default=0.5)
parser.add_argument("--steps", type=int, default=6)
args = parser.parse_args()

prob = corpus_lookup("logistic", a=1.0)
u = prob.map

tr = iterate(lambda x: phi_step(x, u.at(x)), args.x0, args.steps)

print(f"start {args.x0}, map {u.name}")
for n, x in enumerate(tr.points):
    print(f"  {n:>2}  {x:>24.17g}")
print(f"stopped: {tr.stop_reason.value}")

# plain comparison at the same budget
x = args.x0
for _ in range(args.steps):
    x = u.value(x)
print(f"plain iteration after {args.steps} steps: {x:.17g}")
