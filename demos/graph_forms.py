"""
Graph Dirichlet forms: the exactly computable side
==================================================

Conductance networks give an energy whose constants are known in closed
form, which makes them the reference against which the metric-measure
machinery is judged.  This script walks through the form zoo: calibrated
energies, spectra, heat kernels, walk dimension from eigenvalue ratios,
and the intrinsic metric.
"""

import math

import numpy as np

from kslab import (
    GraphDirichletForm,
    MeasuredPointCloud,
    ScalarField,
    eigen_walk_dimension,
    fit_subgaussian,
    form_energy,
    gamma_vs_lip_check,
    gasket,
    gasket_form,
    gasket_harmonic_field,
    grid_form,
    heat_kernel,
    interval_grid,
    intrinsic_metric,
    spectrum,
)

# Interval grid: conductances 1/(h^2 n) make the energy of f(x)=x equal
# (n-1)/n, the Riemann sum of integral f'^2 = 1.
cloud = interval_grid(201)
form = grid_form(cloud)
fx = ScalarField.coordinate(cloud, 0)
print(f"interval_grid(201): energy of x = {form_energy(form, fx):.6f}"
      f" (expected {(cloud.n - 1) / cloud.n:.6f})")

# Gasket: uniform conductances (5/3)^level implement the resistance
# renormalization; the harmonic extension of boundary values (1,0,0) has
# energy exactly 2 at every level.
g = gasket(4)
gform = gasket_form(g)
harm = gasket_harmonic_field(g)
print(f"gasket(4): harmonic extension energy = {form_energy(gform, harm):.12f}")

# Spectra are deterministic (fixed sign convention, fixed solver path).
spec = spectrum(gform, k_max=6)
print(f"lowest eigenvalues: {[round(float(v), 4) for v in spec.eigenvalues]}")

# Heat kernel rows integrate to one against the weights: the semigroup
# conserves mass.  Ids broadcast, so the row p_t(0, .) is one call over
# every id.
t = 1.0 / float(spec.eigenvalues[1])
row = heat_kernel(spec, t, 0, np.arange(g.n))
print(f"heat kernel mass at t={t:.4f}: {float(g.weights @ row):.12f}")

# Walk dimension two ways: eigenvalue ratios between consecutive levels,
# and a sub-Gaussian decay fit to the kernel itself.  The decay fit needs a
# resolved decay window, so it runs at level 5; a low band serves, because
# its heat kernels are exact.
# The ratios read the spectra already solved; the coarse level needs only
# its lowest four modes.
walk = eigen_walk_dimension(spectrum(gasket_form(gasket(3)), k_max=4), spec)
print(f"eigen walk dimension (levels 3->4): {walk.d_w_hat:.4f}"
      f" vs log5/log2 = {math.log(5) / math.log(2):.4f}")
g5 = gasket(5)
fit = fit_subgaussian(spectrum(gasket_form(g5), k_max=25), seed=0)
print(f"sub-Gaussian fit at level 5: d_w={fit.d_w_fit:.3f}"
      f" d_s={fit.d_s_fit:.3f} residual={fit.residual:.3f}")

# The intrinsic metric of a unit-conductance path against the counting
# measure is the hop count, exactly.
n_edges = 15
path = MeasuredPointCloud(np.ones(n_edges + 1),
                          coords=np.arange(n_edges + 1, dtype=float))
path_form = GraphDirichletForm(
    cloud=path,
    edge_i=np.arange(n_edges, dtype=np.intp),
    edge_j=np.arange(1, n_edges + 1, dtype=np.intp),
    conductances=np.ones(n_edges),
    renorm=1.0,
)
met = intrinsic_metric(path_form, 0, n_edges)
print(f"\npath graph with {n_edges} edges: intrinsic distance in"
      f" [{met.lower:.6f}, {met.upper:.6f}] (hop count {n_edges})")

# On grid forms the energy-measure density and the squared discrete slope
# describe the same object; for the identity field the best constant is 1.
rep = gamma_vs_lip_check(form, fx)
print(f"energy density vs squared slope for x on interval_grid(201): c_best = {rep.c_best:.6f}")
