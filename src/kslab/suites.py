"""Named check suites over one cloud.

Each suite turns a capability of the library into a short list of pass/fail
rows with a headline constant, so the command line can bundle them into a
machine-readable report.  Every pass/fail bound is a fixed entry of
``DEFAULT_TOLERANCES``: a check that fails is a finding, not a bound to
loosen per config.  What a cloud is too coarse for is a passing
``<name>_skipped`` row with a reason (``skipped``), never an error: the
library raises ``Inapplicable`` where it computes the precondition.

The suites read what they know of a cloud kind from its ``Kind`` row in
``KINDS`` and never branch on its name: a new kind is a builder in
``space.CLOUD_KINDS`` plus a row, whose ``form`` names the kind's form
builder if it has one; the form suites run only then.  A cloud built
without a kind reads the ``file`` row, ``Kind()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import convergence as cv
from . import graphform as gf
from . import poincare as pc
from . import smoothing as sm
from .energy import (
    EnergySweep,
    ScalarField,
    comparability_ratio,
    energy_sweep,
    fit_walk_dimension,
    ks_energy,
    make_scale_grid,
)
from .export import Table
from .space import (
    DEFAULT_KAPPA,
    DoublingProfile,
    Inapplicable,
    MeasuredPointCloud,
    build_cloud,
    estimate_doubling,
)

__all__ = [
    "CheckResult",
    "Kind",
    "SuiteContext",
    "SUITES",
    "DEFAULT_TOLERANCES",
    "applicable_suites",
    "resolve_walk_dimension",
    "run_suite",
]

# Every acceptance-style threshold the suites consult, by name.
DEFAULT_TOLERANCES: dict[str, float] = {
    "doubling_c_d_interval": 2.1,
    "doubling_c_d_square": 4.4,
    "doubling_c_d_other": 10.0,
    "calibration_rel": 0.05,
    "calibration_2d_rel": 0.10,
    "comparability_identity": 1.05,
    "comparability_max": 50.0,
    "mollifier_spread": 2.0,
    "mollifier_l2_cap": 10.0,
    "cutoff_spread": 4.0,
    "poincare_identity_rel": 0.30,
    "poincare_c_best_max": 100.0,
    "weak_l2_max": 100.0,
    "telescoping_c_max": 10.0,
    "energy_calibration_abs": 1e-8,
    "spectrum_residual": 1e-8,
    "heat_mass_abs": 1e-8,
    "gamma_lip_rel": 0.10,
    "gamma_lip_factor": 2.0,
    "intrinsic_ratio_max": 4.0,
    "subgaussian_residual": 1.0,
    "eigen_dw_abs": 0.05,
    "walk_dim_agreement": 0.2,
    "net_fraction": 0.5,
    "sobolev_factor": 10.0,
}


@dataclass(frozen=True)
class CheckResult:
    """One row of a suite report."""

    name: str
    claim: str
    passed: bool
    constant: float | None
    details: dict = field(default_factory=dict)
    table: Table | None = None

    def row(self) -> dict:
        c = self.constant
        return {
            "name": self.name,
            "claim": self.claim,
            "passed": self.passed,
            "constant": float(c) if c is not None and math.isfinite(c) else None,
            "details": self.details,
        }


def skipped(name: str, claim: str, reason: str) -> CheckResult:
    """The passing, constant-free row of a check the cloud cannot support."""
    return CheckResult(f"{name}_skipped", claim, True, None, {"reason": reason})


class SuiteContext:
    """Shared state for one suite run: cloud, resolved d_w, lazy form/spectrum.

    ``d_w`` is a number or ``"fit"``; the constructor resolves it with
    ``resolve_walk_dimension`` into ``self.d_w`` and its provenance
    ``self.dw_info``.  A fit reads this context's spectra, which the suites
    then reuse: each form is solved once per context.  So nothing cached on
    the context may depend on ``d_w``.
    """

    def __init__(
        self,
        cloud: MeasuredPointCloud,
        d_w: float | str,
        seed: int,
    ):
        self.cloud = cloud
        self.seed = int(seed)
        # The cloud's ``KINDS`` row; a cloud built without a kind has the defaults.
        self.facts = KINDS.get(cloud.kind, Kind())
        self._doubling: dict[bool, DoublingProfile] = {}
        self.d_w, self.dw_info = resolve_walk_dimension(self, d_w)
        # The identity field's constants are known in closed form at this d_w.
        self.closed_form = self.facts.identity and self.d_w == self.facts.d_w

    def doubling_scales(self) -> list[float]:
        # Shrink off the mid-mesh ladder: doubling evaluates mass at 2r as well,
        # and doubled mid-mesh radii land exactly on lattice distances, where
        # float rounding decides sphere membership point by point.
        return [float(r) * (1.0 - 1.0 / 32.0) for r in make_scale_grid(self.cloud).scales]

    def doubling_profile(self, interior_only: bool = False) -> DoublingProfile:
        """The sampled doubling profile over ``doubling_scales``, made once."""
        if interior_only not in self._doubling:
            self._doubling[interior_only] = estimate_doubling(
                self.cloud, n_samples=40, scales=self.doubling_scales(), seed=self.seed,
                interior_only=interior_only,
            )
        return self._doubling[interior_only]

    @cached_property
    def form(self) -> gf.GraphDirichletForm:
        if self.facts.form is None:
            raise ValueError(f"no reference form for cloud kind {self.cloud.kind!r}")
        return self.facts.form(self.cloud)

    @cached_property
    def coarse_spectrum(self) -> gf.Spectrum | None:
        """Lowest 4 modes of the next coarser level of the cloud's mesh hierarchy, if any."""
        spec = self.facts.coarser(self.cloud.meta)
        if spec is None:
            return None
        coarse = build_cloud(spec)
        return gf.spectrum(self.facts.form(coarse), k_max=min(4, coarse.n))

    @cached_property
    def spectrum(self) -> gf.Spectrum:
        return gf.spectrum(self.form, k_max=min(25, self.cloud.n - 1))

    def standard_fields(self) -> list[tuple[str, ScalarField]]:
        """The kind's reference fields, each varying by construction."""
        return self.facts.fields(self)


def resolve_walk_dimension(ctx: SuiteContext, requested: float | str) -> tuple[float, dict]:
    """Resolve an explicit d_w or fit one on the context's cloud.

    Fitting runs the increment-scaling regression on standard fields and,
    when the cloud belongs to a mesh hierarchy, the cross-level eigenvalue
    estimate; the latter wins when both exist.  The value is the chosen
    estimate raised to the lower bound 2; the report carries both raw
    estimates plus an agreement flag judged against ``DEFAULT_TOLERANCES``.
    ``SuiteContext`` calls this while it is being built; it returns the
    value and its provenance.
    """
    if requested != "fit":
        value = float(requested)
        return value, {"source": "explicit", "value": value}

    cloud = ctx.cloud
    fields = [f for _, f in ctx.standard_fields()]
    try:
        fit = fit_walk_dimension(fields)
    except Inapplicable:
        grid = make_scale_grid(cloud, r_max=cloud.diameter / 2.0)
        fit = fit_walk_dimension(fields, grid=grid)

    eigen_value = None
    if ctx.coarse_spectrum is not None:
        eigen_value = gf.eigen_walk_dimension(ctx.coarse_spectrum, ctx.spectrum).d_w_hat

    # Walks are at least diffusive (d_w >= 2); the energies refuse anything
    # smaller, so an estimate that approaches 2 from below resolves to 2.
    chosen = max(2.0, eigen_value if eigen_value is not None else fit.d_w_hat)
    info: dict = {
        "source": "fit",
        "value": float(chosen),
        "fit_d_w": float(fit.d_w_hat),
        "fit_residual": float(fit.residual),
        "eigen_d_w": float(eigen_value) if eigen_value is not None else None,
    }
    if eigen_value is not None:
        info["agreement"] = bool(
            abs(eigen_value - fit.d_w_hat) <= DEFAULT_TOLERANCES["walk_dim_agreement"]
        )
    return float(chosen), info


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------


def suite_doubling(ctx: SuiteContext) -> list[CheckResult]:
    interior = ctx.facts.interior_only
    profile = ctx.doubling_profile(interior)
    bound = DEFAULT_TOLERANCES[ctx.facts.doubling_bound]
    return [
        CheckResult(
            name="doubling",
            claim="volume-doubling-bound",
            passed=bool(math.isfinite(profile.c_d) and profile.c_d <= bound),
            constant=profile.c_d,
            details={"bound": bound, "q_fit": profile.q_fit, "interior_only": interior},
            table=profile.table(),
        ),
        CheckResult(
            name="lower_mass_bound",
            claim="lower-ahlfors-mass-bound",
            passed=bool(profile.c_low > 0.0),
            constant=profile.c_low,
            details={"q": profile.q_fit, "n_samples": int(profile.centers.size)},
        ),
    ]


def _sweep_finite(ctx: SuiteContext, sweeps: dict[str, EnergySweep]) -> CheckResult:
    worst = max(s.fitted_limit for s in sweeps.values())
    return CheckResult(
        name="sweep_finite",
        claim="small-scale-energy-limit",
        passed=bool(math.isfinite(worst) and worst >= 0.0),
        constant=worst,
        details={k: s.fitted_limit for k, s in sweeps.items()},
    )


def _ks_limit_calibration(ctx: SuiteContext, sweeps: dict[str, EnergySweep]) -> CheckResult:
    targets = {"x": 1.0 / 3.0, "x_squared": 4.0 / 9.0, "sin_pi_x": math.pi**2 / 6.0}
    worst = max(abs(sweeps[k].fitted_limit - v) / v for k, v in targets.items())
    return CheckResult(
        name="ks_limit_calibration",
        claim="small-scale-energy-limit",
        passed=bool(worst <= DEFAULT_TOLERANCES["calibration_rel"]),
        constant=worst,
        details={k: sweeps[k].fitted_limit for k in targets},
    )


def _energy_calibration_2d(ctx: SuiteContext, sweeps: dict[str, EnergySweep]) -> CheckResult:
    """The planar calibration at the fixed radius 0.05, if the mesh resolves it."""
    if 0.05 < ctx.cloud.floor:
        return _sweep_finite(ctx, sweeps)
    value = ks_energy(dict(ctx.standard_fields())["x"], 0.05, d_w=2.0)
    rel = abs(value - 0.25) / 0.25
    return CheckResult(
        name="energy_calibration_2d",
        claim="planar-increment-calibration",
        passed=bool(rel <= DEFAULT_TOLERANCES["calibration_2d_rel"]),
        constant=value,
        details={"target": 0.25, "rel_error": rel},
    )


def suite_energy(ctx: SuiteContext) -> list[CheckResult]:
    # Each standard field's sweep over the fixed scale grid, in one pass.
    labels, fields = zip(*ctx.standard_fields())
    sweeps = {s.label: s for s in energy_sweep(fields, d_w=ctx.d_w, label=labels)}
    calibrate = ctx.facts.calibration if ctx.d_w == ctx.facts.d_w else _sweep_finite
    results = [calibrate(ctx, sweeps)]

    ratios = {k: comparability_ratio(s) for k, s in sweeps.items()}
    worst_ratio = max(ratios.values())
    bound = DEFAULT_TOLERANCES["comparability_max"]
    if ctx.closed_form:
        # The tight constant is a statement about the identity field only.
        worst_ratio = ratios["x"]
        bound = DEFAULT_TOLERANCES["comparability_identity"]
    results.append(
        CheckResult(
            name="comparability",
            claim="sup-vs-liminf-comparability",
            passed=bool(math.isfinite(worst_ratio) and worst_ratio <= bound),
            constant=worst_ratio,
            details={"bound": bound, "ratios": ratios},
        )
    )
    for label, s in sweeps.items():
        results.append(
            CheckResult(
                name=f"sweep_{label}",
                claim="energy-scale-sweep",
                passed=bool(np.all(np.isfinite(s.values))),
                constant=s.fitted_limit,
                details={"liminf": s.liminf_proxy, "limsup": s.limsup_proxy, "sup": s.sup_all},
                table=s.table(),
            )
        )
    if ctx.dw_info.get("source") == "fit":
        # The raw estimate d_w was taken from, before it was raised to 2.
        eigen, fit = ctx.dw_info["eigen_d_w"], ctx.dw_info["fit_d_w"]
        raw = fit if eigen is None else eigen
        results.append(
            CheckResult(
                name="walk_dimension_fit",
                claim="walk-dimension-estimate",
                passed=bool(1.0 <= raw <= 4.0),
                constant=raw,
                details=ctx.dw_info,
            )
        )
    return results


def _mollifier_ladder(ctx: SuiteContext) -> list[float]:
    cloud = ctx.cloud
    floor = cloud.floor
    eps = cloud.diameter / 5.0
    ladder = []
    while eps >= floor and len(ladder) < 3:
        ladder.append(eps)
        eps /= 2.0
    if len(ladder) < 2:
        raise Inapplicable("no admissible epsilon ladder on this cloud")
    return ladder


def suite_smoothing(ctx: SuiteContext) -> list[CheckResult]:
    cloud = ctx.cloud
    label, f = ctx.standard_fields()[0]
    ladder = _mollifier_ladder(ctx)
    # Each rung's partition is built once: the mollifier ladder
    # reads every rung, the cutoff check the first two.
    pous = [sm.partition_of_unity(cloud, eps) for eps in ladder]
    reports = sm.mollifier_ladder(f, pous, d_w=ctx.d_w)
    lips = [r.lip_bound_ratio for r in reports]
    l2s = [r.l2_bound_ratio for r in reports]
    errs = [r.l2_numerator for r in reports]
    pos = [v for v in lips if v > 0.0]
    lip_spread = max(pos) / min(pos) if pos else 1.0
    # The l2 quotient is one-sided for smooth fields (the bound is not
    # saturated as eps shrinks), so it gets a cap, not a spread test.
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    passed = (
        lip_spread <= DEFAULT_TOLERANCES["mollifier_spread"]
        and max(l2s) <= DEFAULT_TOLERANCES["mollifier_l2_cap"]
        and decreasing
    )
    rows = tuple(
        (float(e), float(r.lip_bound_ratio), float(r.l2_bound_ratio), float(r.l2_numerator))
        for e, r in zip(ladder, reports)
    )
    worsts = [sm.check_controlled_cutoff(pou, d_w=ctx.d_w).worst for pou in pous[:2]]
    spread = max(worsts) / min(worsts) if min(worsts) > 0 else 1.0
    return [
        CheckResult(
            name="mollifier_estimates",
            claim="mollifier-slope-and-l2-control",
            passed=bool(passed),
            constant=lip_spread,
            details={
                "field": label,
                "epsilons": ladder,
                "l2_max": max(l2s),
                "l2_decreasing": decreasing,
            },
            table=(("eps", "lip_ratio", "l2_ratio", "l2_error_sq"), rows),
        ),
        CheckResult(
            name="controlled_cutoff",
            claim="cutoff-energy-scaling",
            passed=bool(spread <= DEFAULT_TOLERANCES["cutoff_spread"]),
            constant=spread,
            details={"epsilons": ladder[:2], "worst_quotients": worsts},
        ),
    ]


def suite_poincare(ctx: SuiteContext) -> list[CheckResult]:
    cloud = ctx.cloud
    label, f = ctx.standard_fields()[0]
    results = []
    form = ctx.form if ctx.facts.form else None
    reports = pc.poincare_check(f, d_w=ctx.d_w, seed=ctx.seed, form=form)
    for mode, rep in reports.items():
        results.append(
            CheckResult(
                name=f"poincare_{mode}",
                claim=f"ball-variance-bound-{mode.replace('_', '-')}",
                passed=bool(
                    math.isfinite(rep.c_best)
                    and 0.0 < rep.c_best <= DEFAULT_TOLERANCES["poincare_c_best_max"]
                ),
                constant=rep.c_best,
                details={"field": label, "n_used": rep.n_used},
                table=rep.table() if mode == "ks" else None,
            )
        )
    if ctx.closed_form:
        centers = [int(t * cloud.n) for t in (0.3, 0.5, 0.7)]
        radii = [0.05, 0.1]
        # The radii are fixed; on grids with n <= 60 one lies under kappa h.
        low = [r for r in radii if r < cloud.floor]
        claim = "interval-identity-ratio-one-third"
        if low:
            reason = f"radius {low[0]:g} lies under the floor kappa h = {cloud.floor:g}"
            results.append(skipped("poincare_identity_third", claim, reason))
        else:
            # f is the identity field x.
            rep = pc.poincare_check(
                f, d_w=2.0, lam=1.0, samples=[(c, r) for c in centers for r in radii]
            )["lip"]
            worst = max(abs(s.ratio * 3.0 - 1.0) for s in rep.samples)
            results.append(
                CheckResult(
                    name="poincare_identity_third",
                    claim=claim,
                    passed=bool(worst <= DEFAULT_TOLERANCES["poincare_identity_rel"]),
                    constant=rep.c_best,
                    details={"worst_rel": worst},
                )
            )

    # One radius serves as the maximal function's R and the chain's rho.
    R = max(4.0 * DEFAULT_KAPPA * cloud.mesh, cloud.diameter / 8.0)
    maximal = pc.maximal_function(f, R, d_w=ctx.d_w)
    weak = pc.weak_l2_check(maximal)
    results.append(
        CheckResult(
            name="weak_l2_maximal",
            claim="maximal-function-weak-l2",
            passed=bool(
                math.isfinite(weak.max_quotient)
                and weak.max_quotient <= DEFAULT_TOLERANCES["weak_l2_max"]
            ),
            constant=weak.max_quotient,
            details={"R": R, "field": label},
            table=(
                ("threshold", "quotient"),
                tuple((float(t), float(q)) for t, q in zip(weak.thresholds, weak.quotients)),
            ),
        )
    )
    rng = np.random.default_rng(ctx.seed)
    center = int(rng.integers(0, cloud.n))
    tele = pc.telescoping_bound(maximal, center)
    results.append(
        CheckResult(
            name="telescoping",
            claim="dyadic-chain-average-bound",
            passed=bool(tele.ok and tele.c_report <= DEFAULT_TOLERANCES["telescoping_c_max"]),
            constant=tele.c_report,
            details={"x": tele.x, "rho": tele.rho, "lhs": tele.lhs, "rhs": tele.rhs},
        )
    )
    return results


def suite_graphform(ctx: SuiteContext) -> list[CheckResult]:
    cloud = ctx.cloud
    form = ctx.form
    spec = ctx.spectrum

    # The first standard field: a fractal's harmonic field, a grid's x.
    f = ctx.standard_fields()[0][1]
    facts = ctx.facts
    if facts.fractal:
        target = 2.0
    else:
        side = cloud.lattice.shape[1]
        target = (side - 1) / side
    energy = gf.form_energy(form, f)
    dev = abs(energy - target)
    results = [
        CheckResult(
            name="energy_calibration",
            claim="reference-form-energy",
            passed=bool(dev <= DEFAULT_TOLERANCES["energy_calibration_abs"] * max(1.0, target)),
            constant=energy,
            details={"target": target},
        ),
        CheckResult(
            name="spectrum_residual",
            claim="eigenpair-residual",
            passed=bool(spec.residual <= DEFAULT_TOLERANCES["spectrum_residual"]),
            constant=spec.residual,
            details={"k_max": spec.k_max},
            table=spec.table(),
        ),
    ]

    t = 1.0 / float(spec.eigenvalues[1])
    rng = np.random.default_rng(ctx.seed)
    centers = rng.integers(0, cloud.n, size=5)
    worst = 0.0
    # One kernel call per centre: a call over all five rows at once raised
    # the peak memory of gasket 7 by about 5 MiB.
    for x in centers:
        row = gf.heat_kernel(spec, float(t), int(x), np.arange(cloud.n))
        worst = max(worst, abs(float(cloud.weights @ row) - 1.0))
    results.append(
        CheckResult(
            name="heat_kernel_mass",
            claim="heat-kernel-stochastic-completeness",
            passed=bool(worst <= DEFAULT_TOLERANCES["heat_mass_abs"]),
            constant=worst,
            details={"t": t, "n_centers": 5},
        )
    )

    if not facts.fractal:
        # f is the coordinate field of the calibration above.
        rep = gf.gamma_vs_lip_check(form, f)
        if ctx.closed_form:
            ok = abs(rep.c_best - 1.0) <= DEFAULT_TOLERANCES["gamma_lip_rel"]
        else:
            factor = DEFAULT_TOLERANCES["gamma_lip_factor"]
            ok = 1.0 / factor <= rep.c_best <= factor
        results.append(
            CheckResult(
                name="gamma_vs_lip",
                claim="energy-density-vs-slope",
                passed=bool(ok),
                constant=rep.c_best,
                details={"n_active": rep.n_active},
            )
        )
        x, y = 0, cloud.n - 1
        metric = gf.intrinsic_metric(form, x, y)
        ratio = metric.upper / metric.lower if metric.lower > 0 else float("inf")
        results.append(
            CheckResult(
                name="intrinsic_metric",
                claim="intrinsic-metric-bilipschitz",
                passed=bool(
                    metric.lower > 0.0 and ratio <= DEFAULT_TOLERANCES["intrinsic_ratio_max"]
                ),
                constant=metric.lower,
                details={"upper": metric.upper, "ratio": ratio, "x": x, "y": y},
            )
        )

    # Below its settled level a fractal leaves too few samples inside the
    # decay window for the heat-kernel fit, and the eigenvalue ratio is still
    # drifting toward its limit.
    settled = int(cloud.meta.get("level", 0)) >= facts.settled_level
    if facts.fractal and settled:
        fit = gf.fit_subgaussian(ctx.spectrum, seed=ctx.seed)
        results.append(
            CheckResult(
                name="subgaussian_fit",
                claim="sub-gaussian-heat-kernel",
                passed=bool(fit.residual <= DEFAULT_TOLERANCES["subgaussian_residual"]),
                constant=fit.residual,
                details={
                    "d_w_fit": fit.d_w_fit,
                    "d_s_fit": fit.d_s_fit,
                    "exponent_fit": fit.exponent_fit,
                },
            )
        )
    if facts.d_w is not None and settled and ctx.coarse_spectrum is not None:
        walk = gf.eigen_walk_dimension(ctx.coarse_spectrum, spec)
        results.append(
            CheckResult(
                name="eigen_walk_dimension",
                claim="cross-level-eigenvalue-scaling",
                passed=bool(abs(walk.d_w_hat - facts.d_w) <= DEFAULT_TOLERANCES["eigen_dw_abs"]),
                constant=walk.d_w_hat,
                details={"target": facts.d_w, "residual": walk.residual},
            )
        )
    return results


def suite_convergence(ctx: SuiteContext) -> list[CheckResult]:
    cloud = ctx.cloud
    form = ctx.form
    spec = ctx.spectrum

    # A fractal recovers its first eigenfield, a grid its (last) sine field.
    fractal = ctx.facts.fractal
    target = spec.field(1) if fractal else ctx.standard_fields()[-1][1]
    n_steps = 4 if fractal else 5
    rec = cv.recovery_check(target, form, d_w=ctx.d_w, n_steps=n_steps)
    per = [row[3] / rec.oracle for row in rec.rows]
    spread = max(per) / min(per) if min(per) > 0 else float("inf")
    # Per-step margin stability is an asymptotic property; on shallow
    # lattices the coarse rungs are preasymptotic, so the spread is
    # reported rather than gated.
    results = [
        CheckResult(
            name="mosco_recovery",
            claim="mollifier-recovery-margin",
            passed=bool(rec.recovery_ok and math.isfinite(rec.recovery_margin)),
            constant=rec.recovery_margin,
            details={"per_step_spread": spread, "oracle": rec.oracle},
            table=rec.table(),
        )
    ]

    probe = {"n_probes": 3, "offset": 9} if fractal else {}
    try:
        lim = cv.weak_liminf_probe(target, spec, d_w=ctx.d_w, **probe)
    except Inapplicable as exc:
        results.append(skipped("mosco_liminf", "weak-perturbation-liminf-margin", str(exc)))
    else:
        per = [row[2] / lim.oracle for row in lim.rows] if lim.oracle > 0 else []
        spread = max(per) / min(per) if per and min(per) > 0 else 1.0
        results.append(
            CheckResult(
                name="mosco_liminf",
                claim="weak-perturbation-liminf-margin",
                passed=bool(lim.liminf_ok),
                constant=lim.liminf_margin if math.isfinite(lim.liminf_margin) else None,
                details={"per_step_spread": spread, "nullity": lim.nullity},
                table=lim.table(),
            )
        )

    # Net size at a fixed delta is a statement about the gasket spectrum
    # (lambda_1 = 27 squeezes the unit-energy ball); grids get compactness
    # coverage through the cover-correctness tests instead.
    if fractal and spec.k_max >= 21:
        rng = np.random.default_rng(ctx.seed)
        fields = []
        for _ in range(50):
            coef = rng.standard_normal(20)
            v = sum(c * spec.field(k + 1).values for k, c in enumerate(coef))
            raw = ScalarField(cloud, v)
            fields.append(ScalarField(cloud, v / math.sqrt(gf.form_energy(form, raw))))
        probe = cv.compactness_probe(fields, d_w=ctx.d_w, delta=0.1)
        results.append(
            CheckResult(
                name="rellich_kondrachov_net",
                claim="energy-bounded-family-total-boundedness",
                passed=bool(probe.net_size <= DEFAULT_TOLERANCES["net_fraction"] * probe.n_fields),
                constant=float(probe.net_size),
                details={"n_fields": probe.n_fields, "delta": probe.delta, "max_gap": probe.max_gap},
            )
        )

    q_fit = float(ctx.doubling_profile().q_fit)
    if fractal:
        fields = [spec.field(k) for k in range(1, 6)]
    else:
        fields = [f for _, f in ctx.standard_fields()]
    rep = cv.sobolev_check(fields, d_w=ctx.d_w, Q=q_fit)
    results.append(
        CheckResult(
            name="sobolev_embedding",
            claim="embedding-quotient-bound",
            passed=bool(
                math.isfinite(rep.max_quotient)
                and 0.0 < rep.max_quotient <= DEFAULT_TOLERANCES["sobolev_factor"]
            ),
            constant=rep.max_quotient,
            details={"Q": q_fit, "branch": rep.branch, "exponent": rep.exponent},
        )
    )
    return results


def _any_cloud_fields(ctx: SuiteContext) -> list[tuple[str, ScalarField]]:
    """``x`` where the first coordinate varies, else the distance from point 0."""
    cloud = ctx.cloud
    if not cloud.is_abstract and np.ptp(cloud.coords[:, 0]) > 0:
        return [("x", ScalarField.coordinate(cloud, 0))]
    return [("dist_from_0", ScalarField(cloud, cloud.distances_from(0)))]


@dataclass(frozen=True)
class Kind:
    """What the suites know of one cloud kind; the defaults hold for any cloud.

    ``form`` builds the kind's reference form, if it has one, and ``coarser``
    maps the cloud's meta to its next coarser level, if any.  At the known
    walk dimension ``d_w`` the ``calibration`` row holds, and ``identity``
    marks closed-form constants of the identity field.  A known d_w above 2
    makes the kind ``fractal``.
    """

    fields: Callable[[SuiteContext], list[tuple[str, ScalarField]]] = _any_cloud_fields
    doubling_bound: str = "doubling_c_d_other"
    interior_only: bool = False
    coarser: Callable[[dict], dict | None] = lambda meta: None
    d_w: float | None = None
    calibration: Callable[[SuiteContext, dict], CheckResult] = _sweep_finite
    identity: bool = False
    settled_level: int = 0
    form: Callable[[MeasuredPointCloud], gf.GraphDirichletForm] | None = None

    @property
    def fractal(self) -> bool:
        return self.d_w is not None and self.d_w > 2.0


KINDS: dict[str, Kind] = {
    "interval_grid": Kind(
        fields=lambda ctx: [
            ("x", ScalarField.coordinate(ctx.cloud, 0)),
            ("x_squared", ScalarField.from_function(ctx.cloud, lambda c: c[:, 0] ** 2)),
            ("sin_pi_x", ScalarField.from_function(ctx.cloud, lambda c: np.sin(np.pi * c[:, 0]))),
        ],
        doubling_bound="doubling_c_d_interval",
        coarser=lambda m: dict(m, n=(m["n"] + 1) // 2) if m["n"] >= 5 and m["n"] % 2 else None,
        d_w=2.0,
        calibration=_ks_limit_calibration,
        identity=True,
        form=gf.grid_form,
    ),
    "square_grid": Kind(
        fields=lambda ctx: [
            ("x", ScalarField.coordinate(ctx.cloud, 0)),
            ("y", ScalarField.coordinate(ctx.cloud, 1)),
            ("sin_pi_xy", ScalarField.from_function(
                ctx.cloud, lambda c: np.sin(np.pi * c[:, 0]) * np.sin(np.pi * c[:, 1]))),
        ],
        doubling_bound="doubling_c_d_square",
        interior_only=True,
        d_w=2.0,
        calibration=_energy_calibration_2d,
        form=gf.grid_form,
    ),
    "gasket": Kind(
        fields=lambda ctx: [
            ("harmonic", gf.gasket_harmonic_field(ctx.cloud)),
            ("eigen_1", ctx.spectrum.field(1)),
            ("eigen_2", ctx.spectrum.field(2)),
        ],
        coarser=lambda m: dict(m, level=m["level"] - 1) if m["level"] >= 2 else None,
        d_w=math.log(5.0) / math.log(2.0),
        settled_level=5,
        form=gf.gasket_form,
    ),
    "carpet": Kind(),
    "file": Kind(),
}


# Each suite with the claim its row carries when the cloud cannot support it.
SUITES = {
    "doubling": (suite_doubling, "volume-doubling-bound"),
    "energy": (suite_energy, "small-scale-energy-limit"),
    "smoothing": (suite_smoothing, "mollifier-slope-and-l2-control"),
    "poincare": (suite_poincare, "ball-variance-bound-lip"),
    "graphform": (suite_graphform, "reference-form-energy"),
    "convergence": (suite_convergence, "mollifier-recovery-margin"),
}


def applicable_suites(cloud: MeasuredPointCloud) -> list[str]:
    """Suite names that can run on this cloud kind: the form suites need a form."""
    names = ["doubling", "energy", "smoothing", "poincare"]
    if KINDS.get(cloud.kind, Kind()).form:
        names += ["graphform", "convergence"]
    return names


def run_suite(name: str, ctx: SuiteContext) -> list[CheckResult]:
    """The suite's rows, or one ``<name>_skipped`` row when it raises ``Inapplicable``.

    A suite may only let ``Inapplicable`` escape before its first row; a
    later check the cloud cannot support gets its own skipped row.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    suite, claim = SUITES[name]
    try:
        return suite(ctx)
    except Inapplicable as exc:
        return [skipped(name, claim, str(exc))]
