"""
Convergence diagnostics: recovery, liminf, compactness, embedding
=================================================================

Mosco-style convergence of the scale energies toward the graph form is
probed from both sides.  Recovery: mollify the target and check the scale
energy does not overshoot the form energy.  Liminf: perturb the target
weakly and check the energy cannot collapse.  Plus the two consequences
worth measuring: total boundedness of energy balls and the Sobolev
quotient.
"""

import math

import numpy as np

from kslab import (
    ScalarField,
    SuiteContext,
    compactness_probe,
    form_energy,
    gasket,
    gasket_form,
    recovery_check,
    sobolev_check,
    spectrum,
    weak_liminf_probe,
)

LOG5_LOG2 = math.log(5) / math.log(2)

g = gasket(5)
form = gasket_form(g)
spec = spectrum(form, k_max=25)
target = spec.field(1)

# Recovery: f_eps from ball averages on an eps-net over the four smallest
# scales, energy measured at the paired scale r = 1.5 eps, compared against
# the form energy oracle.
rec = recovery_check(target, form, d_w=LOG5_LOG2, n_steps=4)
print("recovery ladder (eps, r, l2 error, scaled energy / oracle):")
for eps, r, l2, e in rec.rows:
    print(f"  {eps:.4f}  {r:.4f}  {l2:.5f}  {e / rec.oracle:.4f}")
print(f"margin {rec.recovery_margin:.4f}, ok={rec.recovery_ok}")

# Liminf: add high eigenfields (weakly null test directions) and check the
# measured energies stay above a fixed fraction of the oracle.
lim = weak_liminf_probe(target, spec, d_w=LOG5_LOG2, n_probes=3, offset=9)
print(f"\nweak liminf probe: margin {lim.liminf_margin:.3f},"
      f" ok={lim.liminf_ok}, worst nullity {lim.nullity:.2e}")

# Compactness: 50 random unit-energy band-limited fields collapse to a
# tiny delta-net in L2, the discrete shadow of Rellich-Kondrachov.
rng = np.random.default_rng(0)
family = []
for _ in range(50):
    coef = rng.standard_normal(20)
    v = sum(c * spec.field(k + 1).values for k, c in enumerate(coef))
    raw = ScalarField(g, v)
    family.append(ScalarField(g, v / math.sqrt(form_energy(form, raw))))
probe = compactness_probe(family, d_w=LOG5_LOG2, delta=0.1)
print(f"\ncompactness: {probe.n_fields} fields, 0.1-net of size"
      f" {probe.net_size}, max gap {probe.max_gap:.4f}")

# Sobolev embedding quotient with the growth exponent taken from the
# cloud's own doubling profile.
q_fit = SuiteContext(g, LOG5_LOG2, seed=0).doubling_profile().q_fit
rep = sobolev_check([spec.field(k) for k in range(1, 6)],
                    d_w=LOG5_LOG2, Q=q_fit)
print(f"\nSobolev quotient (Q={q_fit:.3f}, branch {rep.branch},"
      f" exponent {rep.exponent:.3f}): {rep.max_quotient:.4f}")
