"""Acceptance suite: one test per shipped guarantee, with pinned tolerances.

Each test prints a single verdict line (visible with ``pytest -s`` or on
failure) carrying the measured constant, the pinned tolerance, and the
elapsed wall time against the budget for that check.  Tolerances live in
this file on purpose: they are the contract, not an implementation detail.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from kslab import convergence as cv
from kslab import graphform as gf
from kslab import poincare as pc
from kslab import smoothing as sm
from kslab.energy import (
    ScalarField,
    comparability_ratio,
    energy_sweep,
    ks_energy,
)
from kslab.space import (
    MeasuredPointCloud,
    gasket,
    interval_grid,
    square_grid,
)
from kslab.suites import SuiteContext

import oracles

LOG5_LOG2 = math.log(5.0) / math.log(2.0)
LOG3_LOG5 = math.log(3.0) / math.log(5.0)


def _verdict(num: int, slug: str, ok: bool, detail: str, elapsed: float, budget: float):
    ok = bool(ok) and elapsed <= budget
    print(f"[{num:02d}] {'PASS' if ok else 'FAIL'} {slug}: {detail} "
          f"({elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"{slug}: {detail} (elapsed {elapsed:.1f}s, budget {budget:.0f}s)"


def _spread(values) -> float:
    lo = min(values)
    return float("inf") if lo <= 0 else max(values) / lo


# ----------------------------------------------------------------------
# shared clouds and forms
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid2001():
    return interval_grid(2001)


@pytest.fixture(scope="module")
def grid_fields(grid2001):
    return {
        "x": ScalarField.coordinate(grid2001, 0),
        "x_squared": ScalarField.from_function(grid2001, lambda c: c[:, 0] ** 2),
        "sin_pi_x": ScalarField.from_function(
            grid2001, lambda c: np.sin(np.pi * c[:, 0])
        ),
    }


@pytest.fixture(scope="module")
def square201():
    return square_grid(201)


@pytest.fixture(scope="module")
def gasket5():
    return gasket(5)


@pytest.fixture(scope="module")
def gasket6():
    return gasket(6)


@pytest.fixture(scope="module")
def form2001(grid2001):
    return gf.grid_form(grid2001)


@pytest.fixture(scope="module")
def form5(gasket5):
    return gf.gasket_form(gasket5)


@pytest.fixture(scope="module")
def form6(gasket6):
    return gf.gasket_form(gasket6)


@pytest.fixture(scope="module")
def spec5(form5):
    return gf.spectrum(form5, k_max=25)


@pytest.fixture(scope="module")
def spec6(form6):
    return gf.spectrum(form6, k_max=25)


@pytest.fixture(scope="module")
def gasket5_fit():
    """Fitted walk dimension of the level-5 gasket, with provenance."""
    ctx = SuiteContext(gasket(5), "fit", seed=0)
    return ctx.d_w, ctx.dw_info


@pytest.fixture(scope="module")
def gasket6_heat_fit(gasket6, form6):
    """Sub-Gaussian decay fit over the level-6 default spectrum (a Lanczos band)."""
    return gf.fit_subgaussian(gf.spectrum(form6), seed=0)


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def test_01_small_scale_limit_calibration(grid2001, grid_fields):
    t0 = time.time()
    targets = {"x": 1.0 / 3.0, "x_squared": 4.0 / 9.0, "sin_pi_x": math.pi**2 / 6.0}
    rels = {}
    for name, target in targets.items():
        sweep = energy_sweep(grid_fields[name], d_w=2.0)
        rels[name] = abs(sweep.fitted_limit - target) / target
    worst = max(rels.values())
    _verdict(
        1, "small-scale-energy-limit", worst <= 0.05,
        f"worst fitted-limit error {worst:.4f} <= 0.05 over {sorted(rels)}",
        time.time() - t0, 30.0,
    )


def test_02_planar_calibration(square201):
    t0 = time.time()
    value = ks_energy(ScalarField.coordinate(square201, 0), 0.05, d_w=2.0)
    rel = abs(value - 0.25) / 0.25
    _verdict(
        2, "planar-increment-calibration", rel <= 0.10,
        f"E(x, 0.05) = {value:.5f}, target 0.25, rel error {rel:.4f} <= 0.10",
        time.time() - t0, 60.0,
    )


def _doubling_constant(cloud, interior_only=False):
    return SuiteContext(cloud, 2.0, seed=0).doubling_profile(interior_only).c_d


def test_03_volume_doubling(grid2001, square201, gasket5, gasket6):
    t0 = time.time()
    c_interval = _doubling_constant(grid2001)
    c_square = _doubling_constant(square201, interior_only=True)
    c_g5 = _doubling_constant(gasket5)
    c_g6 = _doubling_constant(gasket6)
    level_ratio = max(c_g5, c_g6) / min(c_g5, c_g6)
    ok = c_interval <= 2.1 and c_square <= 4.4 and level_ratio <= 1.2
    _verdict(
        3, "volume-doubling-bound", ok,
        f"interval {c_interval:.3f} <= 2.1, square interior {c_square:.3f} <= 4.4, "
        f"gasket level ratio {level_ratio:.3f} <= 1.2",
        time.time() - t0, 30.0,
    )


def test_04_comparability(grid2001, grid_fields, gasket5, gasket6, spec5, spec6):
    t0 = time.time()
    identity = comparability_ratio(energy_sweep(grid_fields["x"], d_w=2.0))
    spreads = {}
    for k in (1, 2):
        r5 = comparability_ratio(energy_sweep(spec5.field(k), d_w=LOG5_LOG2))
        r6 = comparability_ratio(energy_sweep(spec6.field(k), d_w=LOG5_LOG2))
        if not (math.isfinite(r5) and math.isfinite(r6)):
            spreads[k] = float("inf")
        else:
            spreads[k] = max(r5, r6) / min(r5, r6)
    worst_spread = max(spreads.values())
    ok = identity <= 1.05 and worst_spread <= 2.0
    _verdict(
        4, "sup-vs-liminf-comparability", ok,
        f"identity field ratio {identity:.4f} <= 1.05, "
        f"eigenfield cross-level spread {worst_spread:.3f} <= 2",
        time.time() - t0, 60.0,
    )


def test_05_mollifier_two_sided(grid2001):
    t0 = time.time()
    # Two-sidedness needs a field that is rough at every scale: on a
    # Brownian-type walk both estimate sides carry the same scaling, while
    # for smooth fields the L2 side decays faster than its bound.
    rng = np.random.default_rng(2)
    values = np.cumsum(rng.standard_normal(grid2001.n)) * math.sqrt(grid2001.mesh)
    values -= values.mean()
    rough = ScalarField(grid2001, values)
    pous = [sm.partition_of_unity(grid2001, eps) for eps in (0.1, 0.05, 0.025)]
    reports = sm.mollifier_ladder(rough, pous, d_w=2.0)
    lip_spread = _spread([r.lip_bound_ratio for r in reports])
    l2_spread = _spread([r.l2_bound_ratio for r in reports])
    errors = [r.l2_numerator for r in reports]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ok = lip_spread <= 2.0 and l2_spread <= 2.0 and decreasing
    _verdict(
        5, "mollifier-slope-and-l2-control", ok,
        f"slope-ratio spread {lip_spread:.3f} <= 2, l2-ratio spread "
        f"{l2_spread:.3f} <= 2, smoothing error strictly decreasing: {decreasing}",
        time.time() - t0, 30.0,
    )


def _cutoff_spread(cloud, d_w):
    worsts = []
    for eps in (0.2, 0.1):
        pou = sm.partition_of_unity(cloud, eps)
        worsts.append(sm.check_controlled_cutoff(pou, d_w=d_w).worst)
    return _spread(worsts)


def test_06_controlled_cutoff(grid2001, gasket5, gasket5_fit):
    t0 = time.time()
    d_w_fitted, _ = gasket5_fit
    grid_spread = _cutoff_spread(grid2001, 2.0)
    gasket_spread = _cutoff_spread(gasket5, d_w_fitted)
    ok = grid_spread <= 4.0 and gasket_spread <= 4.0
    _verdict(
        6, "cutoff-energy-scaling", ok,
        f"dyadic quotient spread: grid {grid_spread:.3f}, gasket (fitted "
        f"d_w {d_w_fitted:.3f}) {gasket_spread:.3f}, both <= 4",
        time.time() - t0, 60.0,
    )


def test_07_poincare_modes(grid2001, grid_fields, form2001, gasket5, gasket6, form5, form6):
    t0 = time.time()
    f = grid_fields["sin_pi_x"]
    reports = pc.poincare_check(f, d_w=2.0, seed=0, form=form2001)
    c_bests = {mode: rep.c_best for mode, rep in reports.items()}
    all_finite = len(c_bests) == 3 and all(math.isfinite(c) and c > 0 for c in c_bests.values())

    identity = pc.poincare_check(
        grid_fields["x"], d_w=2.0, lam=1.0,
        samples=[(grid2001.n // 2, 0.1)],
    )["lip"].samples[0].ratio
    identity_ok = abs(3.0 * identity - 1.0) <= 0.1

    c5 = pc.poincare_check(
        gf.gasket_harmonic_field(gasket5), d_w=LOG5_LOG2, form=form5, seed=0,
    )["energy_measure"].c_best
    c6 = pc.poincare_check(
        gf.gasket_harmonic_field(gasket6), d_w=LOG5_LOG2, form=form6, seed=0,
    )["energy_measure"].c_best
    level_spread = max(c5, c6) / min(c5, c6)

    ok = all_finite and identity_ok and level_spread <= 2.0
    _verdict(
        7, "ball-variance-bounds", ok,
        f"c_best finite in all modes ({', '.join(f'{m}={v:.3f}' for m, v in c_bests.items())}), "
        f"interior identity ratio {identity:.4f} within 10% of 1/3, "
        f"energy-measure cross-level spread {level_spread:.3f} <= 2",
        time.time() - t0, 120.0,
    )


def test_08_maximal_function_weak_l2():
    t0 = time.time()
    quotients = {}
    for n in (401, 801):
        cloud = interval_grid(n)
        f = ScalarField.coordinate(cloud, 0)
        radius = max(12.0 * cloud.mesh, cloud.diameter / 8.0)
        maximal = pc.maximal_function(f, radius, d_w=2.0)
        quotients[n] = pc.weak_l2_check(maximal).max_quotient
    spread = _spread(list(quotients.values()))
    _verdict(
        8, "maximal-function-weak-l2", spread <= 2.0,
        f"worst quotient {quotients[401]:.4f} (n=401) vs {quotients[801]:.4f} "
        f"(n=801), spread {spread:.3f} <= 2",
        time.time() - t0, 60.0,
    )


def test_09_walk_dimension_cross_validation(gasket5_fit, gasket6_heat_fit):
    t0 = time.time()
    _, info = gasket5_fit
    eigen_dev = abs(info["eigen_d_w"] - LOG5_LOG2)
    fit_dev = abs(info["fit_d_w"] - info["eigen_d_w"])
    ds_half_dev = abs(gasket6_heat_fit.d_s_fit / 2.0 - LOG3_LOG5)
    ok = eigen_dev <= 0.05 and fit_dev <= 0.15 and ds_half_dev <= 0.05
    _verdict(
        9, "walk-dimension-cross-validation", ok,
        f"eigen estimate off log5/log2 by {eigen_dev:.4f} <= 0.05, "
        f"increment fit off eigen by {fit_dev:.4f} <= 0.15, "
        f"spectral d_s/2 off log3/log5 by {ds_half_dev:.4f} <= 0.05",
        time.time() - t0, 180.0,
    )


def test_10_subgaussian_heat_fit(gasket6_heat_fit):
    t0 = time.time()
    fit = gasket6_heat_fit
    tied = fit.d_w_fit / (fit.d_w_fit - 1.0)
    exponent_dev = abs(fit.exponent_fit - tied)
    ok = fit.residual <= 1.0 and exponent_dev <= 0.2
    _verdict(
        10, "sub-gaussian-heat-kernel", ok,
        f"log-misfit residual {fit.residual:.3f} <= 1.0, free exponent "
        f"{fit.exponent_fit:.3f} vs tied {tied:.3f}, gap {exponent_dev:.3f} <= 0.2",
        time.time() - t0, 120.0,
    )


def test_11_intrinsic_metric():
    t0 = time.time()
    # Unit conductances against the counting measure: the slope constraint
    # is exactly 1 per edge, so the endpoint distance equals the hop count.
    n_edges = 40
    path_cloud = MeasuredPointCloud(
        np.ones(n_edges + 1), coords=np.arange(n_edges + 1, dtype=float)
    )
    path_form = gf.GraphDirichletForm(
        cloud=path_cloud,
        edge_i=np.arange(n_edges, dtype=np.intp),
        edge_j=np.arange(1, n_edges + 1, dtype=np.intp),
        conductances=np.ones(n_edges),
        renorm=1.0,
    )
    path_rel = abs(gf.intrinsic_metric(path_form, 0, n_edges).lower - n_edges) / n_edges

    ratios = {}
    for n in (101, 201):
        cloud = interval_grid(n)
        form = gf.grid_form(cloud)
        ratios[n] = gf.intrinsic_metric(form, 0, n - 1).lower / 1.0
    spread = _spread(list(ratios.values()))
    ok = path_rel <= 0.01 and spread <= 2.0
    _verdict(
        11, "intrinsic-metric-bilipschitz", ok,
        f"path distance off hop count by {path_rel:.2e} <= 1%, grid "
        f"endpoint ratios {ratios[101]:.4f} / {ratios[201]:.4f}, spread {spread:.3f} <= 2",
        time.time() - t0, 60.0,
    )


def test_12_energy_density_vs_slope():
    t0 = time.time()
    c_bests = {}
    for n in (101, 201):
        cloud = interval_grid(n)
        form = gf.grid_form(cloud)
        f = ScalarField.coordinate(cloud, 0)
        c_bests[n] = gf.gamma_vs_lip_check(form, f).c_best
    dev = abs(c_bests[101] - 1.0)
    spread = _spread(list(c_bests.values()))
    ok = dev <= 0.1 and spread <= 2.0
    _verdict(
        12, "energy-density-vs-slope", ok,
        f"c_best {c_bests[101]:.4f} within 10% of 1, resolution spread {spread:.3f} <= 2",
        time.time() - t0, 30.0,
    )


def test_13_total_boundedness_net(gasket5, form5, spec5):
    t0 = time.time()
    rng = np.random.default_rng(0)
    fields = []
    for _ in range(50):
        coef = rng.standard_normal(20)
        v = sum(c * spec5.field(k + 1).values for k, c in enumerate(coef))
        raw = ScalarField(gasket5, v)
        fields.append(ScalarField(gasket5, v / math.sqrt(gf.form_energy(form5, raw))))
    probe = cv.compactness_probe(fields, d_w=LOG5_LOG2, delta=0.1)
    _verdict(
        13, "energy-bounded-family-total-boundedness", probe.net_size <= 25,
        f"50 band-limited unit-energy fields covered by a 0.1-net of "
        f"{probe.net_size} <= 25 centers (max gap {probe.max_gap:.3f})",
        time.time() - t0, 60.0,
    )


def test_14_mosco_margins(grid2001, grid_fields, form2001, gasket6, form6, spec6):
    t0 = time.time()
    spec2001 = gf.spectrum(form2001, k_max=25)
    gasket_fields = {
        "harmonic": gf.gasket_harmonic_field(gasket6),
        "eigen_1": spec6.field(1),
        "eigen_2": spec6.field(2),
    }
    worst_spread = 0.0
    all_ok = True

    for f in grid_fields.values():
        rec = cv.recovery_check(f, form2001, d_w=2.0)
        per = [row[3] / rec.oracle for row in rec.rows]
        all_ok &= bool(rec.recovery_ok) and math.isfinite(rec.recovery_margin)
        worst_spread = max(worst_spread, _spread(per))
        lim = cv.weak_liminf_probe(f, spec2001, d_w=2.0)
        per = [row[2] / lim.oracle for row in lim.rows]
        all_ok &= bool(lim.liminf_ok) and math.isfinite(lim.liminf_margin)
        worst_spread = max(worst_spread, _spread(per))

    for f in gasket_fields.values():
        rec = cv.recovery_check(f, form6, d_w=LOG5_LOG2, n_steps=4)
        per = [row[3] / rec.oracle for row in rec.rows]
        all_ok &= bool(rec.recovery_ok) and math.isfinite(rec.recovery_margin)
        worst_spread = max(worst_spread, _spread(per))
        lim = cv.weak_liminf_probe(f, spec6, d_w=LOG5_LOG2, n_probes=3, offset=9)
        per = [row[2] / lim.oracle for row in lim.rows]
        all_ok &= bool(lim.liminf_ok) and math.isfinite(lim.liminf_margin)
        worst_spread = max(worst_spread, _spread(per))

    ok = all_ok and worst_spread <= 2.0
    _verdict(
        14, "mosco-margin-stability", ok,
        f"recovery and liminf margins finite on both spaces for all standard "
        f"fields, worst per-step spread {worst_spread:.3f} <= 2",
        time.time() - t0, 120.0,
    )


def _small_cloud_family():
    rng = np.random.default_rng(7)
    base = np.stack(
        np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 12)), axis=-1
    ).reshape(-1, 2)
    jittered = base + rng.uniform(-0.01, 0.01, size=base.shape)
    weights = rng.uniform(0.5, 1.5, size=jittered.shape[0])
    weights /= weights.sum()
    euclid = MeasuredPointCloud(weights, coords=jittered)
    dmat = oracles.dist_matrix(jittered)
    abstract = MeasuredPointCloud(weights, dist_matrix=dmat)
    return [
        (interval_grid(200), oracles.dist_matrix(interval_grid(200).coords)),
        (square_grid(14), oracles.dist_matrix(square_grid(14).coords)),
        (gasket(4), oracles.dist_matrix(gasket(4).coords)),
        (euclid, dmat),
        (abstract, dmat),
    ]


def test_15_oracle_equivalence_and_seed_properties():
    t0 = time.time()
    family = _small_cloud_family()
    rng = np.random.default_rng(42)

    worst_gap = 0.0
    for cloud, dmat in family:
        assert cloud.n <= 200
        scales = [s for s in (cloud.diameter / 3, cloud.diameter / 5, cloud.diameter / 8)
                  if s >= 3.0 * cloud.mesh]
        assert scales, "cloud family member has no admissible test scale"
        fields = [rng.standard_normal(cloud.n)]
        if not cloud.is_abstract:
            fields.append(cloud.coords[:, 0].copy())
        for values in fields:
            for r in scales:
                fast = ks_energy(ScalarField(cloud, values), r, d_w=2.0)
                brute = oracles.brute_ks_energy(dmat, cloud.weights, values, r, 2.0)
                worst_gap = max(worst_gap, abs(fast - brute) / max(1.0, abs(brute)))
    brute_ok = worst_gap <= 1e-12

    markov_ok = True
    for case in range(100):
        cloud, _ = family[case % len(family)]
        values = rng.standard_normal(cloud.n)
        r = float(rng.uniform(3.0 * cloud.mesh, cloud.diameter / 2.0))
        f = ScalarField(cloud, values)
        truncated = ScalarField(cloud, np.clip(values, 0.0, 1.0))
        e_f = ks_energy(f, r, d_w=2.0)
        e_v = ks_energy(truncated, r, d_w=2.0)
        markov_ok &= e_v <= e_f * (1.0 + 1e-12) + 1e-15

    forms = [
        gf.grid_form(interval_grid(40)),
        gf.grid_form(square_grid(8)),
        gf.gasket_form(gasket(3)),
    ]
    locality_ok = True
    for case in range(100):
        form = forms[case % len(forms)]
        n = form.n
        support = rng.choice(n, size=int(rng.integers(1, 6)), replace=False)
        g_values = np.zeros(n)
        g_values[support] = rng.standard_normal(support.size)
        neighbours = form.adjacency[support].nonzero()[1]
        closed = np.union1d(support, neighbours)
        f_values = rng.standard_normal(n)
        f_values[closed] = float(rng.standard_normal())
        f = ScalarField(form.cloud, f_values)
        g = ScalarField(form.cloud, g_values)
        scale = math.sqrt(gf.form_energy(form, f) * gf.form_energy(form, g))
        bilinear = oracles.edge_bilinear(form, f_values, g_values)
        locality_ok &= abs(bilinear) <= 1e-12 * max(1.0, scale)

    ok = brute_ok and markov_ok and locality_ok
    _verdict(
        15, "oracle-equivalence-and-form-seeds", ok,
        f"indexed energy matches the O(n^2) sum to {worst_gap:.2e} <= 1e-12, "
        f"unit truncation contracts in 100/100 cases: {markov_ok}, "
        f"disjoint-support bilinear energy vanishes in 100/100 cases: {locality_ok}",
        time.time() - t0, 30.0,
    )
