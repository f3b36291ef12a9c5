"""
Covering nets, partitions of unity, and mollified fields
========================================================

Smoothing on a point cloud: a partition of unity picks its own epsilon-net
and blends tent kernels on it into bumps with controlled slopes; mollifying
replaces f by ball averages recombined through the partition.  The two mollifier estimates say the
smoothed field's slope and its distance to f are both controlled by
ball-increment quantities at comparable scales.
"""

import numpy as np

from kslab import (
    ScalarField,
    check_controlled_cutoff,
    discrete_lip,
    interval_grid,
    mollifier_ladder,
    mollify,
    partition_of_unity,
)

cloud = interval_grid(1001)
f = ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0]))

# ---------------------------------------------------------------- nets
eps = 0.05
pou = partition_of_unity(cloud, eps)
print(f"eps={eps}: net of {pou.n_centers} centers covers all"
      f" {cloud.n} points (greedy, deterministic)")
# Every bump's slope comes from one ball pass at eps.
C = max(float(lip.values.max()) for lip in discrete_lip(pou.fields(), eps)) * eps
print(f"partition of unity: worst bump slope is C/eps with C = {C:.3f}")

smooth = mollify(f, pou)
err = float(np.sqrt(cloud.weights @ (smooth.values - f.values) ** 2))
print(f"||f_eps - f||_L2 = {err:.5f}\n")

# ------------------------------------------------- mollifier estimates
# lip_bound_ratio: slope of f_eps against the increment energy at scale
# 2 eps.  l2_bound_ratio: ||f_eps - f||^2 against mean ball deviations at
# scale 6 eps.  Both stay bounded as eps shrinks.  One call serves the
# whole ladder of partitions.
print("eps      lip_ratio  l2_ratio   ||f_eps-f||^2")
pous = [partition_of_unity(cloud, eps) for eps in (0.1, 0.05, 0.025)]
for rep in mollifier_ladder(f, pous, d_w=2.0):
    print(f"{rep.epsilon:<8} {rep.lip_bound_ratio:<10.4f} {rep.l2_bound_ratio:<10.4f}"
          f" {rep.l2_numerator:.6f}")

# ----------------------------------------------------- cutoff functions
# Each partition bump is a cutoff: 1 near its center, 0 two steps out.
# The controlled-cutoff check measures the bump's small-scale energy times
# eps^d_w against the mass of the eps-ball at its center; the worst quotient
# is the reported constant.  The stencil computes each bump only on its
# support widened by the largest window scale.
print("\ncontrolled cutoff quotients")
for eps in (0.1, 0.05):
    rep = check_controlled_cutoff(partition_of_unity(cloud, eps), d_w=2.0)
    print(f"  eps={eps}: worst quotient {rep.worst:.4f}"
          f" over {rep.per_center.size} members")
