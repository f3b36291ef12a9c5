"""kslab: numerical laboratory for discretized metric measure spaces.

The package discretizes compact metric measure spaces as weighted point
clouds and implements, side by side:

* multiscale ball-increment energies with scale sweeps and walk-dimension
  fits (:mod:`kslab.energy`);
* Lipschitz partitions of unity, each on a covering net of its own, and
  mollifiers with the estimates that make them useful (:mod:`kslab.smoothing`);
* Poincare inequalities in three right-hand-side flavours, maximal
  functions, and telescoping ball-average bounds (:mod:`kslab.poincare`);
* graph Dirichlet forms with energy measures, spectra, heat kernels, and
  intrinsic metrics as the exactly-computable reference side
  (:mod:`kslab.graphform`);
* Gamma/Mosco-style convergence diagnostics: recovery sequences, weak
  liminf probes, compactness nets, Sobolev quotients
  (:mod:`kslab.convergence`).

The package re-exports each layer's ``__all__``: :mod:`kslab.space`, the
five layers above, then :mod:`kslab.suites`.  ``kslab.__all__`` is their
concatenation in that order.  A layer's other attributes, its settings
among them, stay on the layer, so a test that patches one reaches every
reader.

A small CLI (``kslab``) batch-runs the diagnostic suites on configured
spaces and writes machine-readable reports; see :mod:`kslab.cli`.  It is
the only code that writes files, and every CSV and JSON artifact goes
through one writer, :mod:`kslab.export`.
"""

from .space import *  # noqa: F403
from .energy import *  # noqa: F403
from .smoothing import *  # noqa: F403
from .poincare import *  # noqa: F403
from .graphform import *  # noqa: F403
from .convergence import *  # noqa: F403
from .suites import *  # noqa: F403
from . import convergence, energy, graphform, poincare, smoothing, space, suites

__all__ = [
    name
    for layer in (space, energy, smoothing, poincare, graphform, convergence, suites)
    for name in layer.__all__
]

__version__ = "0.1.0"
