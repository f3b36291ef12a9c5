"""
Multiscale ball-increment energies
==================================

The central object: for a field f and a scale r, the energy averages
squared increments |f(x) - f(y)|^2 over metric balls and normalizes by
r^d_w.  As r shrinks the values approach a limit; on the unit interval
with d_w = 2 that limit is (1/3) * integral of f'^2, so the constants can
be checked against calculus.
"""

import math

import numpy as np

from kslab import (
    ScalarField,
    SuiteContext,
    comparability_ratio,
    energy_sweep,
    fit_walk_dimension,
    gasket,
    interval_grid,
    make_scale_grid,
)

cloud = interval_grid(1001)
fields = {
    "x": ScalarField.coordinate(cloud, 0),
    "sin(pi x)": ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0])),
}
targets = {"x": 1 / 3, "sin(pi x)": math.pi**2 / 6}

for name, f in fields.items():
    sweep = energy_sweep(f, d_w=2.0)
    print(f"field {name}: sweep over {len(sweep.scales)} scales")
    for r, v in zip(sweep.scales, sweep.values):
        print(f"    r={r:.5f}  E={v:.6f}")
    print(f"  fitted small-scale limit {sweep.fitted_limit:.6f}"
          f" vs (1/3) int f'^2 = {targets[name]:.6f}")
    print(f"  sup/liminf comparability ratio {comparability_ratio(sweep):.4f}\n")

# On the gasket the right normalization exponent d_w is not 2.  It can be
# fitted directly from how raw increment sums scale with r, and
# cross-checked against the eigenvalue ratio between consecutive levels.
g = gasket(4)
grid = make_scale_grid(g, r_max=g.diameter / 2)
from kslab import spectrum, gasket_form  # noqa: E402

probe_fields = [
    ScalarField(g, spectrum(gasket_form(g), k_max=4).field(k).values)
    for k in (1, 2, 3)
]
fit = fit_walk_dimension(probe_fields, grid=grid)
ctx = SuiteContext(g, "fit", seed=0)
d_w, info = ctx.d_w, ctx.dw_info
print(f"gasket(4): increment-scaling fit d_w = {fit.d_w_hat:.4f}"
      f" (residual {fit.residual:.3f})")
print(f"resolved d_w = {d_w:.4f} from {info['source']}, eigen estimate"
      f" {info['eigen_d_w']:.4f}, agreement={info['agreement']}")
print(f"exact value on the gasket: log5/log2 = {math.log(5) / math.log(2):.4f}")
