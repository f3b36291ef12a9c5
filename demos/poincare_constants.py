"""
Poincare constants, maximal functions, telescoping chains
=========================================================

The ball-variance inequality sum mu |f - f_B|^2 <= C R^s (right-hand side)
comes in three right-hand-side flavours here: squared local slopes (lip),
small-scale increment energies (ks), and the graph form's energy measure.
One poincare_check call samples the balls once and reports, per flavour, the
best constant that makes the inequality hold on every sample.
"""

import numpy as np

from kslab import (
    ScalarField,
    grid_form,
    interval_grid,
    maximal_function,
    poincare_check,
    telescoping_bound,
    weak_l2_check,
)

cloud = interval_grid(401)
f = ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0]))

print("sampled Poincare constants for sin(pi x) on interval(401)")
for mode, rep in poincare_check(f, d_w=2.0, seed=0, form=grid_form(cloud)).items():
    print(f"  mode={mode:<15} c_best={rep.c_best:.4f} over {rep.n_used} balls")

# A case where the constant is known: f(x) = x on an interior ball of the
# line, with no ball inflation, has variance / (R^2 slope mass) = 1/3.
rep = poincare_check(ScalarField.coordinate(cloud, 0),
                     d_w=2.0, lam=1.0, samples=[(cloud.n // 2, 0.1)])
s = rep["lip"].samples[0]
print(f"\ninterior identity ball: ratio = {s.ratio:.5f} (exact value 1/3)")

# The restricted maximal function takes the worst ball average of |f| up
# to radius R; the weak L2 bound controls how much mass can sit above any
# threshold.
R = cloud.diameter / 8
maximal = maximal_function(f, R, d_w=2.0)
weak = weak_l2_check(maximal)
print(f"\nmaximal function up to R={R:.4f}")
for lam, q in zip(weak.thresholds, weak.quotients):
    print(f"  threshold {lam:.4f}: lam^2 mu(M f > lam) / ||f||^2 = {q:.4f}")
print(f"worst quotient {weak.max_quotient:.4f}")

# Telescoping: |f(x) - f_B(x,rho)| is bounded by the chain of dyadic ball
# average jumps, which the increment energies control scale by scale.
tele = telescoping_bound(maximal, cloud.n // 3)
print(f"\ntelescoping at x={tele.x}, rho={tele.rho:.4f}: lhs={tele.lhs:.5f}"
      f" <= rhs={tele.rhs:.5f} (holds: {tele.ok})")
