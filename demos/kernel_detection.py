"""Decide from samples alone whether a map collapses in one double step.

Draws random members of the model family x + alpha*(x* - x)**beta,
certifies each by both tests, then shows the verdicts on three maps
that are not members.
"""

import argparse
import random

from fpaccel import (
    affinity_test,
    corpus_lookup,
    kernel_family_fit,
    kernel_family_map,
    standard_step,
)

p = argparse.ArgumentParser(description=__doc__)
p.add_argument("--seed", type=int, default=0)
p.add_argument("--draws", type=int, default=5)
args = p.parse_args()

rng = random.Random(args.seed)

print("random members")
for k in range(args.draws):
    alpha = rng.uniform(0.25, 3.0) * rng.choice([-1.0, 1.0])
    beta = rng.uniform(1.1, 4.0)
    xs = rng.uniform(-2.0, 2.0)
    m = kernel_family_map(alpha, beta, xs)
    va = affinity_test(m, xs - 0.15, 0.1)
    vf = kernel_family_fit(m, xs, [xs - 0.05 * j for j in range(1, 7)])
    w = standard_step(xs - 0.21, m.at(xs - 0.21)).value
    print(
        f"  draw {k}: true (x*, beta) = ({xs:+.4f}, {beta:.4f})"
        f"  affine fit x* {va.x_star:+.4f}  exponent fit beta {vf.beta:.4f}"
        f"  |w - x*| = {abs(w - xs):.1e}"
    )

print("outsiders")
for label, verdict in [
    ("sin, line fit", affinity_test(corpus_lookup("sin").map, 0.3, 0.2)),
    (
        "logistic a=2, power fit",
        kernel_family_fit(corpus_lookup("logistic", a=2.0).map, 0.5, [0.55, 0.6, 0.65, 0.7, 0.75]),
    ),
    (
        "two-term power series, power fit",
        kernel_family_fit(
            corpus_lookup("s_family", alphas=(1.0, 0.5), r=1.5).map,
            0.0,
            [0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
        ),
    ),
]:
    print(f"  {label}: member={verdict.member} residual={verdict.residual:.2e}")
