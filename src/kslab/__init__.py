"""kslab: numerical laboratory for discretized metric measure spaces.

The package discretizes compact metric measure spaces as weighted point
clouds and implements, side by side:

* multiscale ball-increment energies with scale sweeps and walk-dimension
  fits (:mod:`kslab.energy`);
* covering nets, Lipschitz partitions of unity, and mollifiers with the
  estimates that make them useful (:mod:`kslab.smoothing`);
* Poincare inequalities in three right-hand-side flavours, maximal
  functions, and telescoping ball-average bounds (:mod:`kslab.poincare`);
* graph Dirichlet forms with energy measures, spectra, heat kernels, and
  intrinsic metrics as the exactly-computable reference side
  (:mod:`kslab.graphform`);
* Gamma/Mosco-style convergence diagnostics: recovery sequences, weak
  liminf probes, compactness nets, Sobolev quotients
  (:mod:`kslab.convergence`).

A small CLI (``kslab``) batch-runs the diagnostic suites on configured
spaces and writes machine-readable reports; see :mod:`kslab.cli`.  It is
the only code that writes files, and every CSV and JSON artifact goes
through one writer, :mod:`kslab.export`.
"""

from .space import (
    DoublingProfile,
    Inapplicable,
    MeasuredPointCloud,
    ball_average,
    build_cloud,
    carpet,
    estimate_doubling,
    gasket,
    interval_grid,
    read_cloud_file,
    square_grid,
    DEFAULT_KAPPA,
)
from .energy import (
    EnergySweep,
    ScalarField,
    ScaleGrid,
    WalkDimFit,
    comparability_ratio,
    energy_sweep,
    fit_walk_dimension,
    ks_energies,
    ks_energy,
    ks_energy_density,
    make_scale_grid,
)
from .smoothing import (
    CoveringNet,
    CutoffReport,
    MollifierReport,
    PartitionOfUnity,
    build_net,
    check_controlled_cutoff,
    discrete_lip,
    mollifier_ladder,
    mollify,
    partition_of_unity,
)
from .poincare import (
    MaximalField,
    PoincareReport,
    PoincareSample,
    TelescopeReport,
    WeakL2Report,
    maximal_function,
    poincare_check,
    telescoping_bound,
    weak_l2_check,
)
from .graphform import (
    GammaLipReport,
    GraphDirichletForm,
    HeatKernelFit,
    IntrinsicMetricResult,
    Spectrum,
    eigen_walk_dimension,
    energy_measure,
    fit_subgaussian,
    form_energy,
    gamma_vs_lip_check,
    gasket_form,
    gasket_harmonic_field,
    grid_form,
    heat_kernel,
    intrinsic_metric,
    spectrum,
)
from .convergence import (
    CompactnessProbe,
    MoscoReport,
    SobolevReport,
    compactness_probe,
    recovery_check,
    sobolev_check,
    weak_liminf_probe,
)
from .suites import (
    DEFAULT_TOLERANCES,
    CheckResult,
    SuiteContext,
    SUITES,
    applicable_suites,
    resolve_walk_dimension,
    run_suite,
)

__all__ = [
    "DoublingProfile",
    "Inapplicable",
    "MeasuredPointCloud",
    "ball_average",
    "build_cloud",
    "carpet",
    "estimate_doubling",
    "gasket",
    "interval_grid",
    "read_cloud_file",
    "square_grid",
    "DEFAULT_KAPPA",
    "EnergySweep",
    "ScalarField",
    "ScaleGrid",
    "WalkDimFit",
    "comparability_ratio",
    "energy_sweep",
    "fit_walk_dimension",
    "ks_energies",
    "ks_energy",
    "ks_energy_density",
    "make_scale_grid",
    "CoveringNet",
    "CutoffReport",
    "MollifierReport",
    "PartitionOfUnity",
    "build_net",
    "check_controlled_cutoff",
    "discrete_lip",
    "mollifier_ladder",
    "mollify",
    "partition_of_unity",
    "MaximalField",
    "PoincareReport",
    "PoincareSample",
    "TelescopeReport",
    "WeakL2Report",
    "maximal_function",
    "poincare_check",
    "telescoping_bound",
    "weak_l2_check",
    "GammaLipReport",
    "GraphDirichletForm",
    "HeatKernelFit",
    "IntrinsicMetricResult",
    "Spectrum",
    "eigen_walk_dimension",
    "energy_measure",
    "fit_subgaussian",
    "form_energy",
    "gamma_vs_lip_check",
    "gasket_form",
    "gasket_harmonic_field",
    "grid_form",
    "heat_kernel",
    "intrinsic_metric",
    "spectrum",
    "CompactnessProbe",
    "MoscoReport",
    "SobolevReport",
    "compactness_probe",
    "recovery_check",
    "sobolev_check",
    "weak_liminf_probe",
    "DEFAULT_TOLERANCES",
    "CheckResult",
    "SuiteContext",
    "SUITES",
    "applicable_suites",
    "resolve_walk_dimension",
    "run_suite",
]

__version__ = "0.1.0"
